//! Partitioned parallel recovery: load a checkpoint chain and replay the
//! log tail across a pool of table-sharded workers.
//!
//! Restart time is the denominator of the availability story (the paper's
//! §2.7 keeps redo logging cheap precisely so recovery stays a bulk load),
//! and a single-threaded loader leaves most of the machine idle during it.
//! [`recover_partitioned`] splits the work by table: a coordinator thread
//! makes one decode pass over the chain images and the log tail, routing
//! every op to a worker chosen by `TableId % workers`; each worker folds its
//! tables' ops into a primary-key map and hands the engine one materialized,
//! pk-ordered row batch per table.
//!
//! Two properties make this safe and deterministic:
//!
//! * **Tables are independent.** Every checkpoint/log op names exactly one
//!   table, so sharding by table needs no cross-worker ordering. Within a
//!   worker, chain ops apply in receipt order (the coordinator sends chain
//!   files in apply order, deletes before rows within each delta) and tail
//!   ops are buffered and sorted by `(end_ts, op sequence)` — the same
//!   serial order the single-threaded replay used.
//! * **The result is worker-count invariant.** The final pk→row map of each
//!   table depends only on the op sequence for that table, which is the
//!   same no matter how tables are distributed; a test below pins recovery
//!   with 1, 2, 3 and 8 workers to byte-identical images.
//!
//! Chain validation happens here too: the base must not claim a parent
//! snapshot, and each delta's recorded parent snapshot must equal the
//! preceding image's `read_ts` — a mismatched or reordered chain is
//! corruption, not something to paper over.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Seek, SeekFrom};
use std::sync::mpsc::{channel, Receiver, Sender};

use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{Key, TableId, Timestamp};
use mmdb_common::row::Row;

use crate::checkpoint::{read_checkpoint, RecoveryPlan};
use crate::log::{decode_body, FrameStream, LogOp, READ_CHUNK};

/// Extracts a row's primary key; must agree with the engine's primary-index
/// key spec. Shared by every worker thread, hence `Sync`.
pub type KeyOfFn<'a> = dyn Fn(TableId, &Row) -> Result<Key> + Sync + 'a;

/// Receives one materialized, pk-ordered row batch per recovered table.
/// Called concurrently from worker threads, but never twice for the same
/// table, so a per-table bulk load (e.g. `populate`) needs no extra locking.
pub type ApplyFn<'a> = dyn Fn(TableId, Vec<Row>) -> Result<()> + Sync + 'a;

/// What [`recover_partitioned`] did, in the same units the engines' recovery
/// reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredImage {
    /// Snapshot timestamp of the chain's last image ([`Timestamp::ZERO`]
    /// without a chain). Every replayed tail record is later than this; the
    /// engine must advance its clock past it before accepting commits.
    pub image_ts: Timestamp,
    /// Latest end timestamp replayed from the log tail (`image_ts` if the
    /// tail was empty). The clock must advance past this too.
    pub max_end_ts: Timestamp,
    /// Rows handed to the apply callback (the collapsed final image).
    pub rows_loaded: usize,
    /// Complete log-tail records newer than the image that were replayed.
    pub tail_records: usize,
    /// Valid prefix of the log segment in bytes (counted from byte 0 of the
    /// file, including the prefix below the checkpoint LSN).
    pub valid_bytes: u64,
    /// Bytes discarded as a torn trailing frame.
    pub torn_bytes: u64,
}

/// One routed unit of work. Chain ops apply in receipt order; tail ops carry
/// the `(end_ts, seq)` sort key that reconstructs serial order. Chain ops
/// are batched per (file, table) — a channel round-trip per row would
/// dominate the coordinator at delta-chain sizes, where hot rows recur in
/// every image.
enum Op {
    /// Rows from one chain image, in file order.
    ImageRows(Vec<Row>),
    /// Tombstones from one delta image (routed before that image's rows).
    ImageDeletes(Vec<Key>),
    /// A log-tail write.
    TailWrite {
        end_ts: Timestamp,
        seq: u64,
        row: Row,
    },
    /// A log-tail delete.
    TailDelete {
        end_ts: Timestamp,
        seq: u64,
        key: Key,
    },
}

struct Msg {
    table: TableId,
    op: Op,
}

/// Worker count the engines recover with: the machine's available
/// parallelism capped at 8 (the load turns I/O-bound past that).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Load `plan`'s checkpoint chain and log tail into the engine behind
/// `apply`, fanning the work across `workers` threads (clamped to at least
/// one; one worker degenerates to the serial algorithm).
pub fn recover_partitioned(
    plan: &RecoveryPlan,
    workers: usize,
    key_of: &KeyOfFn<'_>,
    apply: &ApplyFn<'_>,
) -> Result<RecoveredImage> {
    let workers = workers.max(1);
    std::thread::scope(|scope| {
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Msg>();
            senders.push(tx);
            joins.push(scope.spawn(move || drain_partition(rx, key_of, apply)));
        }
        let fed = feed(plan, &senders);
        // Hang up before joining: workers drain until every sender is gone.
        drop(senders);
        let mut rows_loaded = 0usize;
        let mut worker_err = None;
        for join in joins {
            match join.join().expect("recovery worker panicked") {
                Ok(rows) => rows_loaded += rows,
                Err(err) => worker_err = Some(err),
            }
        }
        // A worker error is the root cause even when the coordinator saw a
        // closed channel first.
        if let Some(err) = worker_err {
            return Err(err);
        }
        let mut image = fed?;
        image.rows_loaded = rows_loaded;
        Ok(image)
    })
}

/// Coordinator pass: decode the chain and the log tail once, route every op.
/// `rows_loaded` in the returned image is 0; the caller fills it from the
/// workers' counts.
fn feed(plan: &RecoveryPlan, senders: &[Sender<Msg>]) -> Result<RecoveredImage> {
    let send = |table: TableId, op: Op| -> Result<()> {
        senders[table.0 as usize % senders.len()]
            .send(Msg { table, op })
            .map_err(|_| MmdbError::Internal("recovery worker exited early"))
    };
    let invalid = |reason: &'static str| MmdbError::CheckpointInvalid { reason };

    // Chain images, base first, deletes before rows within each delta.
    let mut parent: Option<Timestamp> = None;
    let mut image_ts = Timestamp::ZERO;
    for (i, ckpt) in plan.chain.iter().enumerate() {
        let contents = read_checkpoint(&ckpt.path)?;
        if contents.lsn != ckpt.lsn || contents.read_ts != ckpt.read_ts {
            return Err(invalid("checkpoint image disagrees with the manifest"));
        }
        if i == 0 && contents.parent_read_ts.is_some() {
            return Err(invalid("checkpoint chain begins with a delta image"));
        }
        if i > 0 && contents.parent_read_ts != parent {
            return Err(invalid("delta parent snapshot does not match the chain"));
        }
        parent = Some(contents.read_ts);
        image_ts = contents.read_ts;
        let mut deletes: BTreeMap<TableId, Vec<Key>> = BTreeMap::new();
        for (table, key) in contents.deletes {
            deletes.entry(table).or_default().push(key);
        }
        for (table, keys) in deletes {
            send(table, Op::ImageDeletes(keys))?;
        }
        let mut rows: BTreeMap<TableId, Vec<Row>> = BTreeMap::new();
        for (table, row) in contents.rows {
            rows.entry(table).or_default().push(row);
        }
        for (table, batch) in rows {
            send(table, Op::ImageRows(batch))?;
        }
    }

    // Log tail: one streaming decode pass from the last image's LSN.
    let io = |e: std::io::Error| MmdbError::LogIo(e.to_string());
    let mut file = File::open(&plan.log_path).map_err(io)?;
    let start = plan.log_tail_offset();
    if start > 0 {
        file.seek(SeekFrom::Start(start)).map_err(io)?;
    }
    let mut frames = FrameStream::new(file, READ_CHUNK, start);
    let mut tail_records = 0usize;
    let mut max_end_ts = image_ts;
    let mut seq = 0u64;
    while let Some((offset, body)) = frames.next_body()? {
        let record = decode_body(body, offset)?;
        // Commits at or below the image snapshot are already in the chain.
        if record.end_ts <= image_ts {
            continue;
        }
        tail_records += 1;
        max_end_ts = max_end_ts.max(record.end_ts);
        for op in record.ops {
            seq += 1;
            match op {
                LogOp::Write { table, row } => send(
                    table,
                    Op::TailWrite {
                        end_ts: record.end_ts,
                        seq,
                        row,
                    },
                )?,
                LogOp::Delete { table, key } => send(
                    table,
                    Op::TailDelete {
                        end_ts: record.end_ts,
                        seq,
                        key,
                    },
                )?,
            }
        }
    }
    Ok(RecoveredImage {
        image_ts,
        max_end_ts,
        rows_loaded: 0,
        tail_records,
        valid_bytes: frames.consumed(),
        torn_bytes: frames.torn_bytes(),
    })
}

/// Worker loop: fold this partition's ops into pk→row maps, then hand the
/// engine one ordered batch per table. Returns the number of rows applied.
fn drain_partition(rx: Receiver<Msg>, key_of: &KeyOfFn<'_>, apply: &ApplyFn<'_>) -> Result<usize> {
    let mut tables: BTreeMap<TableId, BTreeMap<Key, Row>> = BTreeMap::new();
    let mut tail: Vec<(Timestamp, u64, TableId, Op)> = Vec::new();
    for Msg { table, op } in rx {
        match op {
            Op::ImageRows(batch) => {
                let slot = tables.entry(table).or_default();
                for row in batch {
                    let key = key_of(table, &row)?;
                    slot.insert(key, row);
                }
            }
            Op::ImageDeletes(keys) => {
                let slot = tables.entry(table).or_default();
                for key in keys {
                    slot.remove(&key);
                }
            }
            Op::TailWrite { end_ts, seq, .. } | Op::TailDelete { end_ts, seq, .. } => {
                tail.push((end_ts, seq, table, op));
            }
        }
    }
    // Reconstruct serial replay order across this partition's tables.
    tail.sort_unstable_by_key(|(end_ts, seq, ..)| (*end_ts, *seq));
    for (.., table, op) in tail {
        match op {
            Op::TailWrite { row, .. } => {
                let key = key_of(table, &row)?;
                tables.entry(table).or_default().insert(key, row);
            }
            Op::TailDelete { key, .. } => {
                tables.entry(table).or_default().remove(&key);
            }
            Op::ImageRows(_) | Op::ImageDeletes(_) => unreachable!("chain ops apply on receipt"),
        }
    }
    let mut rows_loaded = 0usize;
    for (table, rows) in tables {
        rows_loaded += rows.len();
        apply(table, rows.into_values().collect())?;
    }
    Ok(rows_loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::log::{encode_frame_into, LogOpRef, Lsn, RedoLogger};
    use crate::scratch::TempDir;
    use std::sync::Mutex;

    fn append(store: &CheckpointStore, end_ts: Timestamp, ops: &[LogOpRef<'_>]) {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, end_ts, ops.iter().copied());
        store.logger().append_frame(&frame);
    }

    fn row(key: u64, payload: u8) -> Row {
        let mut bytes = [payload; 16];
        bytes[..8].copy_from_slice(&key.to_le_bytes());
        Row::copy_from_slice(&bytes)
    }

    fn key_of(_table: TableId, row: &Row) -> Result<Key> {
        Ok(u64::from_le_bytes(row[..8].try_into().unwrap()))
    }

    /// Build a dir holding: base {t0: k1,k2; t1: k1}, delta {t0: -k2, +k3;
    /// t1: k1 updated}, log tail {t0: +k4, t1: -k1} plus one pre-image
    /// record that must be filtered out.
    fn build_chain_dir(tag: &str) -> TempDir {
        let dir = TempDir::new(&format!("recovery-{tag}"));
        let store = CheckpointStore::create(&dir).unwrap();
        let t0 = TableId(0);
        let t1 = TableId(1);

        let mut base = store.begin_checkpoint(Lsn::ZERO, Timestamp(10)).unwrap();
        base.write_row(t0, &row(1, 0xa)).unwrap();
        base.write_row(t0, &row(2, 0xb)).unwrap();
        base.write_row(t1, &row(1, 0xc)).unwrap();
        store.install_checkpoint(base.finish().unwrap()).unwrap();

        let lsn = store.logger().appended_lsn();
        // This commit raced the checkpoint: its frame lands past the
        // captured LSN but its end timestamp is below the delta snapshot,
        // so the delta image already carries the row and tail replay must
        // skip the frame.
        append(
            &store,
            Timestamp(15),
            &[LogOpRef::Write {
                table: t0,
                row: &row(3, 0x1d),
            }],
        );
        let mut delta = store.begin_delta(lsn, Timestamp(20)).unwrap();
        delta.write_delete(t0, 2).unwrap();
        delta.write_row(t0, &row(3, 0x1d)).unwrap();
        delta.write_row(t1, &row(1, 0x2c)).unwrap();
        store.install_checkpoint(delta.finish().unwrap()).unwrap();
        store.truncate_log().unwrap();

        append(
            &store,
            Timestamp(30),
            &[
                LogOpRef::Write {
                    table: t0,
                    row: &row(4, 0xe),
                },
                LogOpRef::Delete { table: t1, key: 1 },
            ],
        );
        store.logger().flush().unwrap();
        drop(store);
        dir
    }

    fn recover_rows(
        dir: &std::path::Path,
        workers: usize,
    ) -> (RecoveredImage, Vec<(TableId, Vec<Row>)>) {
        let plan = CheckpointStore::plan(dir).unwrap();
        let applied: Mutex<Vec<(TableId, Vec<Row>)>> = Mutex::new(Vec::new());
        let image = recover_partitioned(&plan, workers, &key_of, &|table, rows| {
            applied.lock().unwrap().push((table, rows));
            Ok(())
        })
        .unwrap();
        let mut applied = applied.into_inner().unwrap();
        applied.sort_by_key(|(table, _)| *table);
        (image, applied)
    }

    #[test]
    fn chain_plus_tail_collapses_to_the_serial_image() {
        let dir = build_chain_dir("collapse");
        let (image, applied) = recover_rows(&dir, 1);
        assert_eq!(image.image_ts, Timestamp(20));
        assert_eq!(image.max_end_ts, Timestamp(30));
        assert_eq!(image.tail_records, 1);
        assert_eq!(image.torn_bytes, 0);
        assert_eq!(image.rows_loaded, 3);
        // t0: base k1, delta deleted k2 and added k3, tail added k4.
        // t1: delta updated k1, tail deleted it (table reported empty).
        assert_eq!(
            applied,
            vec![
                (TableId(0), vec![row(1, 0xa), row(3, 0x1d), row(4, 0xe)]),
                (TableId(1), vec![]),
            ]
        );
    }

    #[test]
    fn a_bare_log_is_a_plan_with_an_empty_chain() {
        let dir = TempDir::new("recovery-bare-log");
        let path = dir.join("wal.log");
        let mut bytes = Vec::new();
        encode_frame_into(
            &mut bytes,
            Timestamp(7),
            [LogOpRef::Write {
                table: TableId(0),
                row: &row(1, 0xa),
            }]
            .into_iter(),
        );
        encode_frame_into(
            &mut bytes,
            Timestamp(5),
            [LogOpRef::Write {
                table: TableId(0),
                row: &row(1, 0xb),
            }]
            .into_iter(),
        );
        // A torn third frame: only its first bytes reached the file.
        let clean = bytes.len() as u64;
        bytes.extend_from_slice(&[9, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();

        let plan = RecoveryPlan::for_log(&path);
        assert!(plan.chain.is_empty());
        assert_eq!(plan.log_tail_offset(), 0);
        let applied: Mutex<Vec<(TableId, Vec<Row>)>> = Mutex::new(Vec::new());
        let image = recover_partitioned(&plan, 2, &key_of, &|table, rows| {
            applied.lock().unwrap().push((table, rows));
            Ok(())
        })
        .unwrap();
        assert_eq!(image.image_ts, Timestamp::ZERO);
        assert_eq!(image.max_end_ts, Timestamp(7));
        assert_eq!(image.tail_records, 2);
        assert_eq!((image.valid_bytes, image.torn_bytes), (clean, 3));
        // End-timestamp order, not file order: the ts-7 write wins.
        assert_eq!(
            applied.into_inner().unwrap(),
            vec![(TableId(0), vec![row(1, 0xa)])]
        );
    }

    #[test]
    fn recovery_is_worker_count_invariant() {
        let dir = build_chain_dir("invariant");
        let (serial_image, serial_rows) = recover_rows(&dir, 1);
        for workers in [2usize, 3, 8] {
            let (image, rows) = recover_rows(&dir, workers);
            assert_eq!(image, serial_image, "{workers} workers");
            assert_eq!(rows, serial_rows, "{workers} workers");
        }
    }

    #[test]
    fn mismatched_delta_parent_is_rejected() {
        let dir = build_chain_dir("bad-parent");
        let plan = CheckpointStore::plan(&dir).unwrap();
        // Corrupt the plan: pretend the delta is the base.
        let mut bad = plan.clone();
        bad.chain.remove(0);
        let err = recover_partitioned(&bad, 2, &key_of, &|_, _| Ok(())).unwrap_err();
        assert!(
            matches!(err, MmdbError::CheckpointInvalid { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn worker_error_propagates() {
        let dir = build_chain_dir("worker-err");
        let plan = CheckpointStore::plan(&dir).unwrap();
        let err = recover_partitioned(&plan, 2, &key_of, &|_, _| {
            Err(MmdbError::Internal("apply refused"))
        })
        .unwrap_err();
        assert!(
            matches!(err, MmdbError::Internal("apply refused")),
            "{err:?}"
        );
    }
}
