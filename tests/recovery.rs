//! Crash–recovery differential tests.
//!
//! The paper's durability story (§3.2, §5): every committed transaction
//! emits one redo record carrying its end timestamp and after-images, and
//! replaying the log in commit-timestamp order reconstructs the committed
//! state. These tests drive that claim end to end for all three engines
//! (MV/O, MV/L, 1V):
//!
//! 1. run a seeded concurrent multi-table history against an engine wired to
//!    a [`FileLogger`];
//! 2. "crash" by truncating the log bytes at randomized offsets — including
//!    offsets in the middle of a record frame;
//! 3. write the surviving bytes to a file, recover a fresh engine from it
//!    through a bare-log `RecoveryPlan` (the same partitioned bulk load a
//!    checkpoint restart uses, with an empty chain) and assert the
//!    recovered state equals the committed prefix the surviving log records
//!    describe, with **every** index (primary and secondary) consistent with
//!    a full scan.
//!
//! The oracle for a crash at offset X is computed from the decoded surviving
//! records themselves (sorted by end timestamp, after-images upserted,
//! deletes applied) — the engine's bulk load must rebuild every index to
//! the same state.
//!
//! Failures print a grep-able `MMDB-REPRO:` line with the seed and crash
//! offset and save the history + log bytes under `target/test-artifacts/`.

mod support;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mmdb::prelude::*;
use mmdb_common::durability::CheckpointPolicy;
use mmdb_storage::checkpoint::{
    read_checkpoint, CheckpointContents, CheckpointRef, CheckpointStore, RecoveryPlan,
};
use mmdb_storage::group_commit::GroupCommitLog;
use mmdb_storage::log::{
    read_log_bytes, read_log_file_from, FileLogger, LogOp, LogRecord, MemoryLogger, RecoveryReport,
    RedoLogger,
};
use mmdb_storage::scratch::TempDir;
use support::{
    assert_indexes_consistent, create_diff_tables, dump, generate_history, populate,
    run_concurrent, run_sequential, with_repro_artifacts, HistoryParams, TxnRecord,
};

const TABLES: usize = 2;
const KEY_SPACE: u64 = 24;
const INITIAL_ROWS: u64 = 16;
const DUMP_BOUND: u64 = KEY_SPACE * 2;
const WORKERS: usize = 3;

const PARAMS: HistoryParams = HistoryParams {
    tables: TABLES,
    key_space: KEY_SPACE,
    txns: 20,
    max_ops: 5,
    abort_probability: 0.1,
};

fn seeds() -> Vec<u64> {
    match std::env::var("MMDB_DIFF_SEED") {
        Ok(v) => vec![v.trim().parse().expect("MMDB_DIFF_SEED must be a u64")],
        Err(_) => vec![0x4EC0_0001, 0x4EC0_0002, 0x4EC0_0003],
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mvo,
    Mvl,
    Sv,
}

const ALL_KINDS: [Kind; 3] = [Kind::Mvo, Kind::Mvl, Kind::Sv];

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Mvo => "MV/O",
            Kind::Mvl => "MV/L",
            Kind::Sv => "1V",
        }
    }
}

/// A type-erased engine so the same test body drives all three kinds.
enum EngineBox {
    Mv(MvEngine),
    Sv(SvEngine),
}

impl EngineBox {
    fn new(kind: Kind, logger: Arc<dyn RedoLogger>) -> EngineBox {
        match kind {
            // Recovery targets and workload sources alike are driven by at
            // most a few worker threads; the background deadlock detector
            // only adds noise to these tests.
            Kind::Mvo => EngineBox::Mv(MvEngine::with_logger(
                MvConfig::optimistic().with_deadlock_detector(false),
                logger,
            )),
            Kind::Mvl => EngineBox::Mv(MvEngine::with_logger(
                MvConfig::pessimistic().with_deadlock_detector(false),
                logger,
            )),
            Kind::Sv => EngineBox::Sv(SvEngine::with_logger(SvConfig::default(), logger)),
        }
    }

    fn create_tables(&self) -> Vec<TableId> {
        match self {
            EngineBox::Mv(e) => create_diff_tables(e, TABLES, 128),
            EngineBox::Sv(e) => create_diff_tables(e, TABLES, 128),
        }
    }

    fn populate(&self, tables: &[TableId]) {
        match self {
            EngineBox::Mv(e) => populate(e, tables, INITIAL_ROWS),
            EngineBox::Sv(e) => populate(e, tables, INITIAL_ROWS),
        }
    }

    fn run_concurrent(&self, tables: &[TableId], scripts: Vec<Vec<support::TxnScript>>) {
        let _: Vec<TxnRecord> = match self {
            EngineBox::Mv(e) => run_concurrent(e, tables, IsolationLevel::Serializable, scripts),
            EngineBox::Sv(e) => run_concurrent(e, tables, IsolationLevel::Serializable, scripts),
        };
    }

    fn run_sequential(&self, tables: &[TableId], scripts: &[support::TxnScript]) {
        let _: Vec<TxnRecord> = match self {
            EngineBox::Mv(e) => run_sequential(e, tables, IsolationLevel::Serializable, scripts),
            EngineBox::Sv(e) => run_sequential(e, tables, IsolationLevel::Serializable, scripts),
        };
    }

    fn dump(&self, tables: &[TableId]) -> Vec<BTreeMap<u64, u8>> {
        match self {
            EngineBox::Mv(e) => dump(e, tables, DUMP_BOUND),
            EngineBox::Sv(e) => dump(e, tables, DUMP_BOUND),
        }
    }

    /// Recover from the bytes of a bare redo log: write them to a scratch
    /// file and load it through a plan with an empty chain.
    fn recover_log(&self, bytes: &[u8]) -> Result<RecoveryReport> {
        let dir = TempDir::new("recovery-bytes");
        let path = dir.join("wal.log");
        std::fs::write(&path, bytes).expect("write log file");
        self.recover_from_checkpoint(&RecoveryPlan::for_log(&path))
    }

    fn assert_indexes_consistent(&self, label: &str, tables: &[TableId]) {
        match self {
            EngineBox::Mv(e) => assert_indexes_consistent(label, e, tables, DUMP_BOUND),
            EngineBox::Sv(e) => assert_indexes_consistent(label, e, tables, DUMP_BOUND),
        }
    }

    /// A full base image: under the manual policy the chain never has room
    /// for a delta, so `checkpoint_auto` always picks parent ZERO.
    fn checkpoint(&self, store: &CheckpointStore) -> Result<CheckpointRef> {
        self.checkpoint_auto(store, &CheckpointPolicy::MANUAL)
    }

    fn recover_from_checkpoint(&self, plan: &RecoveryPlan) -> Result<RecoveryReport> {
        match self {
            EngineBox::Mv(e) => e.recover_from_checkpoint(plan),
            EngineBox::Sv(e) => e.recover_from_checkpoint(plan),
        }
    }
}

/// Replay decoded log records against plain maps: the ground truth a
/// recovered engine must reach. After-images upsert by primary key, deletes
/// remove, all in end-timestamp order (§3.2: "commit ordering is determined
/// by transaction end timestamps").
fn log_oracle(records: &[LogRecord], tables: &[TableId]) -> Vec<BTreeMap<u64, u8>> {
    let mut sorted: Vec<&LogRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.end_ts);
    let mut state = vec![BTreeMap::new(); tables.len()];
    for record in sorted {
        for op in &record.ops {
            match op {
                LogOp::Write { table, row } => {
                    let slot = tables
                        .iter()
                        .position(|t| t == table)
                        .expect("logged table exists");
                    state[slot].insert(rowbuf::key_of(row), rowbuf::fill_of(row));
                }
                LogOp::Delete { table, key } => {
                    let slot = tables
                        .iter()
                        .position(|t| t == table)
                        .expect("logged table exists");
                    state[slot].remove(key);
                }
            }
        }
    }
    state
}

/// What [`logged_concurrent_run`] yields: the log bytes, the source
/// engine's final state, its table ids and a debug dump of the history.
struct LoggedRun {
    bytes: Vec<u8>,
    final_state: Vec<BTreeMap<u64, u8>>,
    tables: Vec<TableId>,
    history_debug: String,
}

/// Run a seeded concurrent history on a file-logged engine of `kind`.
fn logged_concurrent_run(kind: Kind, seed: u64) -> LoggedRun {
    let dir = TempDir::new("recovery-run");
    let path = dir.join("wal.log");
    let logger = Arc::new(FileLogger::create(&path).expect("create log file"));
    logged_concurrent_run_on(kind, seed, &path, logger)
}

/// Run a seeded concurrent history on an engine of `kind` wired to an
/// arbitrary file-backed logger (the log file at `path` is read back).
fn logged_concurrent_run_on(
    kind: Kind,
    seed: u64,
    path: &std::path::Path,
    logger: Arc<dyn RedoLogger>,
) -> LoggedRun {
    let engine = EngineBox::new(kind, logger.clone());
    let tables = engine.create_tables();
    engine.populate(&tables);

    let total = HistoryParams {
        txns: PARAMS.txns * WORKERS,
        ..PARAMS
    };
    let history = generate_history(seed, total);
    let history_debug = format!("{history:#?}");
    let mut parts: Vec<Vec<support::TxnScript>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (i, script) in history.into_iter().enumerate() {
        parts[i % WORKERS].push(script);
    }
    engine.run_concurrent(&tables, parts);

    logger.flush().expect("flush log");
    let bytes = std::fs::read(path).expect("read log file");
    let final_state = engine.dump(&tables);
    LoggedRun {
        bytes,
        final_state,
        tables,
        history_debug,
    }
}

/// Crash offsets for a log of `len` bytes: the edges, a cut inside the very
/// first frame's length prefix, a cut one byte short of the end (mid-frame
/// by construction), and a seeded random sample — which lands mid-record
/// with overwhelming probability since frames span hundreds of bytes.
fn crash_offsets(seed: u64, len: usize) -> Vec<usize> {
    let mut offsets = vec![0, 1.min(len), 2.min(len), len.saturating_sub(1), len];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_4011);
    for _ in 0..8 {
        offsets.push(rng.gen_range(0..=len));
    }
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

#[test]
fn crash_at_any_offset_recovers_the_committed_prefix() {
    for kind in ALL_KINDS {
        for seed in seeds() {
            let LoggedRun {
                bytes,
                tables: source_tables,
                history_debug,
                ..
            } = logged_concurrent_run(kind, seed);
            assert!(
                !bytes.is_empty(),
                "[{} seed={seed:#x}] the run should have produced log records",
                kind.label()
            );
            for offset in crash_offsets(seed, bytes.len()) {
                let truncated = &bytes[..offset];
                let outcome = read_log_bytes(truncated).unwrap_or_else(|e| {
                    panic!(
                        "[{} seed={seed:#x} crash_offset={offset}] truncation must read as \
                         a torn tail, never corruption: {e}",
                        kind.label()
                    )
                });
                let expected = log_oracle(&outcome.records, &source_tables);

                let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
                let tables = target.create_tables();
                assert_eq!(
                    tables, source_tables,
                    "recovery target must re-create tables with the same ids"
                );

                let history_name = format!("recovery-seed-{seed:#x}.history.txt");
                let log_name = format!("recovery-seed-{seed:#x}.log.bin");
                with_repro_artifacts(
                    &format!(
                        "suite=recovery workload=generic engine={} seed={seed:#x} crash_offset={offset}",
                        kind.label()
                    ),
                    &[
                        (&history_name, history_debug.as_bytes()),
                        (&log_name, &bytes),
                    ],
                    || {
                        let report = target.recover_log(truncated).unwrap_or_else(|e| {
                            panic!(
                                "[{} seed={seed:#x} crash_offset={offset}] recovery failed: {e}",
                                kind.label()
                            )
                        });
                        assert_eq!(report.records_applied, outcome.records.len());
                        assert_eq!(report.valid_bytes, outcome.valid_bytes);
                        assert_eq!(
                            report.valid_bytes + report.torn_bytes,
                            offset as u64,
                            "every crash byte is either replayed or torn"
                        );

                        let label =
                            format!("{} seed={seed:#x} crash_offset={offset}", kind.label());
                        assert_eq!(
                            target.dump(&tables),
                            expected,
                            "[{label}] recovered state diverges from the committed prefix \
                             the surviving log records describe"
                        );
                        target.assert_indexes_consistent(&label, &tables);
                    },
                );
            }
        }
    }
}

#[test]
fn full_log_recovery_reconstructs_the_final_committed_state() {
    // With no crash at all, recovery must land exactly on the state the
    // logged engine ended in — reads served from the recovered database are
    // indistinguishable from reads served by the original.
    for kind in ALL_KINDS {
        for seed in seeds() {
            let LoggedRun {
                bytes,
                final_state,
                tables: source_tables,
                ..
            } = logged_concurrent_run(kind, seed);
            let outcome = read_log_bytes(&bytes).expect("flushed log decodes");
            assert!(
                outcome.is_clean(),
                "[{} seed={seed:#x}] a flushed log has no torn tail",
                kind.label()
            );

            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let tables = target.create_tables();
            let report = target.recover_log(&bytes).expect("recovery succeeds");
            assert_eq!(report.records_applied, outcome.records.len());
            assert_eq!(report.torn_bytes, 0);

            let label = format!("{} seed={seed:#x} full-log", kind.label());
            assert_eq!(
                target.dump(&tables),
                final_state,
                "[{label}] full-log recovery diverges from the live engine's final state"
            );
            assert_eq!(
                target.dump(&tables),
                log_oracle(&outcome.records, &source_tables)
            );
            target.assert_indexes_consistent(&label, &tables);
        }
    }
}

#[test]
fn recovery_is_cross_engine() {
    // A log written by one engine replays into any other: the redo format
    // carries after-images and primary keys, nothing scheme-specific. The
    // multiversion log recovered into 1V (and vice versa) must agree.
    let seed = seeds()[0];
    let mv_run = logged_concurrent_run(Kind::Mvo, seed);
    let sv_run = logged_concurrent_run(Kind::Sv, seed);

    for (source_label, bytes, final_state) in [
        ("MV/O", &mv_run.bytes, &mv_run.final_state),
        ("1V", &sv_run.bytes, &sv_run.final_state),
    ] {
        for kind in ALL_KINDS {
            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let tables = target.create_tables();
            target.recover_log(bytes).expect("cross-engine recovery");
            let label = format!("{source_label}-log → {} seed={seed:#x}", kind.label());
            assert_eq!(
                &target.dump(&tables),
                final_state,
                "[{label}] cross-engine recovery diverged"
            );
            target.assert_indexes_consistent(&label, &tables);
        }
    }
}

#[test]
fn recovered_engine_accepts_new_transactions() {
    // Recovery must leave a fully functional database: uniqueness still
    // enforced, secondary index maintained, new commits logged normally.
    let seed = seeds()[0];
    for kind in ALL_KINDS {
        let LoggedRun {
            bytes, final_state, ..
        } = logged_concurrent_run(kind, seed);
        let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
        let tables = target.create_tables();
        target.recover_log(&bytes).expect("recovery succeeds");

        let (engine_label, fresh_key) = (kind.label(), DUMP_BOUND + 7);
        match &target {
            EngineBox::Mv(e) => post_recovery_smoke(e, &tables, &final_state, fresh_key),
            EngineBox::Sv(e) => post_recovery_smoke(e, &tables, &final_state, fresh_key),
        }
        target.assert_indexes_consistent(&format!("{engine_label} post-recovery writes"), &tables);
    }
}

/// Insert a fresh key, re-insert an existing one (must be rejected), update
/// and delete — all against the recovered database.
fn post_recovery_smoke<E: Engine>(
    engine: &E,
    tables: &[TableId],
    recovered: &[BTreeMap<u64, u8>],
    fresh_key: u64,
) {
    let table = tables[0];
    let mut txn = engine.begin(IsolationLevel::Serializable);
    txn.insert(table, rowbuf::keyed_row(fresh_key, support::FILLER, 3))
        .expect("insert of a fresh key succeeds after recovery");
    if let Some((&existing, _)) = recovered[0].iter().next() {
        let dup = txn.insert(table, rowbuf::keyed_row(existing, support::FILLER, 5));
        assert!(
            matches!(dup, Err(MmdbError::DuplicateKey { .. })),
            "recovered primary index must still enforce uniqueness, got {dup:?}"
        );
    }
    txn.commit().expect("post-recovery commit");

    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert_eq!(
        txn.read(table, support::PRIMARY, fresh_key)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(3)
    );
    assert!(txn.delete(table, support::PRIMARY, fresh_key).unwrap());
    txn.commit().expect("post-recovery delete commit");
}

#[test]
fn bare_log_plan_reads_the_log_from_disk() {
    let seed = seeds()[0];
    for kind in [Kind::Mvo, Kind::Sv] {
        let LoggedRun {
            bytes, final_state, ..
        } = logged_concurrent_run(kind, seed);
        let dir = TempDir::new("recovery-from-disk");
        let path = dir.join("wal.log");
        std::fs::write(&path, &bytes).expect("write log file");

        let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
        let tables = target.create_tables();
        let report = target
            .recover_from_checkpoint(&RecoveryPlan::for_log(&path))
            .expect("recover from file");
        let missing =
            target.recover_from_checkpoint(&RecoveryPlan::for_log("/nonexistent/mmdb-no-such.log"));
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.valid_bytes, bytes.len() as u64);
        assert_eq!(
            target.dump(&tables),
            final_state,
            "[{} seed={seed:#x}] file-based recovery diverged",
            kind.label()
        );
        assert!(
            matches!(missing, Err(MmdbError::LogIo(_))),
            "a missing log file must surface as LogIo, got {missing:?}"
        );
    }
}

#[test]
fn repro_artifacts_are_saved_on_failure() {
    // The CI artifact-upload step is only as good as this wrapper: a
    // failing check must still save its artifacts and re-raise the panic.
    let result = std::panic::catch_unwind(|| {
        with_repro_artifacts(
            "suite=selftest workload=selftest seed=0x0 crash_offset=0",
            &[("selftest.artifact.txt", b"payload".as_slice())],
            || panic!("intentional"),
        )
    });
    assert!(result.is_err(), "the panic must propagate");
    let path = std::path::Path::new("target/test-artifacts/selftest.artifact.txt");
    assert_eq!(
        std::fs::read(path).expect("artifact must be saved"),
        b"payload"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn file_and_memory_loggers_agree_byte_for_byte() {
    // The FileLogger's on-disk bytes are exactly the MemoryLogger's records
    // passed through the wire encoding — same sequential history, two
    // engines, two loggers, identical frames.
    for kind in ALL_KINDS {
        for seed in seeds() {
            let dir = TempDir::new("recovery-bytes-parity");
            let path = dir.join("wal.log");
            let file_logger = Arc::new(FileLogger::create(&path).expect("create log file"));
            let memory_logger = Arc::new(MemoryLogger::new());

            let history = generate_history(seed, PARAMS);
            for run in 0..2 {
                let logger: Arc<dyn RedoLogger> = if run == 0 {
                    file_logger.clone()
                } else {
                    memory_logger.clone()
                };
                let engine = EngineBox::new(kind, logger);
                let tables = engine.create_tables();
                engine.populate(&tables);
                engine.run_sequential(&tables, &history);
            }
            file_logger.flush().expect("flush log");

            let file_bytes = std::fs::read(&path).expect("read log file");
            assert_eq!(
                file_bytes,
                memory_logger.encoded_bytes(),
                "[{} seed={seed:#x}] file and memory logs diverge byte-for-byte",
                kind.label()
            );
            memory_logger.with_records(|records| {
                assert_eq!(
                    read_log_bytes(&file_bytes)
                        .expect("file log decodes")
                        .records,
                    records,
                    "[{} seed={seed:#x}] decoded file records diverge from memory records",
                    kind.label()
                );
            });
        }
    }
}

/// The group-commit tick used by the mid-batch crash tests (microseconds).
/// Long relative to the run so batches provably span several transactions.
const BATCH_TICK_US: u64 = 2_000;

#[test]
fn group_commit_crash_mid_batch_recovers_the_committed_prefix() {
    // The group-commit twin of `crash_at_any_offset_recovers_the_committed_
    // prefix`: the log is written through `GroupCommitLog`'s shared batch
    // buffer (background flusher tick + final drop/flush harden), and the
    // crash offsets land *inside* batches — the coalescing assertion below
    // proves batches spanned multiple transactions, and the random offsets
    // land mid-frame (hence mid-batch) with overwhelming probability.
    // Batch boundaries must be invisible: truncation anywhere reads as a
    // torn tail, and the surviving prefix replays exactly as it would for a
    // per-transaction FileLogger stream.
    for kind in ALL_KINDS {
        for seed in seeds() {
            let dir = TempDir::new("recovery-gc");
            let path = dir.join("wal.log");
            let logger = Arc::new(
                GroupCommitLog::with_tick(&path, std::time::Duration::from_micros(BATCH_TICK_US))
                    .expect("create group-commit log"),
            );
            let LoggedRun {
                bytes,
                tables: source_tables,
                history_debug,
                ..
            } = logged_concurrent_run_on(kind, seed, &path, logger.clone());
            assert!(
                !bytes.is_empty(),
                "[{} seed={seed:#x}] the run should have produced log records",
                kind.label()
            );
            assert!(
                logger.batches_hardened() < logger.records_written(),
                "[{} seed={seed:#x}] batches ({}) must coalesce multiple records ({}) — \
                 otherwise no crash offset can land mid-batch",
                kind.label(),
                logger.batches_hardened(),
                logger.records_written()
            );

            for offset in crash_offsets(seed ^ 0xBA7C_4000, bytes.len()) {
                let truncated = &bytes[..offset];
                let outcome = read_log_bytes(truncated).unwrap_or_else(|e| {
                    panic!(
                        "[{} seed={seed:#x} crash_offset={offset}] a crash mid-batch must \
                         read as a torn tail, never corruption: {e}",
                        kind.label()
                    )
                });
                let expected = log_oracle(&outcome.records, &source_tables);

                let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
                let tables = target.create_tables();
                let history_name = format!("recovery-groupcommit-seed-{seed:#x}.history.txt");
                let log_name = format!("recovery-groupcommit-seed-{seed:#x}.log.bin");
                with_repro_artifacts(
                    &format!(
                        "suite=recovery-groupcommit workload=generic engine={} seed={seed:#x} \
                         crash_offset={offset} batch_tick_us={BATCH_TICK_US}",
                        kind.label()
                    ),
                    &[
                        (&history_name, history_debug.as_bytes()),
                        (&log_name, &bytes),
                    ],
                    || {
                        let report = target.recover_log(truncated).unwrap_or_else(|e| {
                            panic!(
                                "[{} seed={seed:#x} crash_offset={offset} \
                                 batch_tick_us={BATCH_TICK_US}] recovery failed: {e}",
                                kind.label()
                            )
                        });
                        assert_eq!(report.records_applied, outcome.records.len());
                        assert_eq!(
                            report.valid_bytes + report.torn_bytes,
                            offset as u64,
                            "every crash byte is either replayed or torn"
                        );
                        let label = format!(
                            "{} seed={seed:#x} crash_offset={offset} (group commit)",
                            kind.label()
                        );
                        assert_eq!(
                            target.dump(&tables),
                            expected,
                            "[{label}] recovered state diverges from the committed prefix \
                             the surviving batches describe"
                        );
                        target.assert_indexes_consistent(&label, &tables);
                    },
                );
            }
        }
    }
}

#[test]
fn smallbank_group_commit_crash_recovers_conserved_balances() {
    // Write-path fault injection for the SmallBank harness client: crash
    // mid-batch during a *concurrent* SmallBank run whose mix is restricted
    // to total-preserving transactions (balance, amalgamate, send-payment —
    // every committed delta is zero), so every committed prefix that contains
    // the full setup conserves the bank's total exactly. The log is written
    // through the group-commit batch buffer; the setup tail is hardened first
    // and crash offsets are cut at or after it. Each truncation must read as
    // a torn tail, recover into a fresh engine, match the
    // end-timestamp-order replay of the surviving after-images, and hold
    // `total == initial` on the recovered state.
    use std::sync::atomic::{AtomicU64, Ordering};

    use mmdb_workload::smallbank::{self, SbTxnKind, SmallBank};

    macro_rules! on_engine {
        ($b:expr, |$e:ident| $body:expr) => {
            match $b {
                EngineBox::Mv($e) => $body,
                EngineBox::Sv($e) => $body,
            }
        };
    }

    const SB_WORKERS: usize = 3;
    const SB_TXNS_PER_WORKER: u64 = 16;

    for kind in ALL_KINDS {
        for seed in seeds() {
            let sb = SmallBank {
                accounts: 16,
                initial_balance: 1_000,
                hot_accounts: 4,
                hot_fraction: 0.5,
                isolation: IsolationLevel::SnapshotIsolation,
            };
            let dir = TempDir::new("recovery-sb-gc");
            let path = dir.join("wal.log");
            let logger = Arc::new(
                GroupCommitLog::with_tick(&path, Duration::from_micros(BATCH_TICK_US))
                    .expect("create group-commit log"),
            );
            let engine = EngineBox::new(kind, logger.clone());
            let tables = on_engine!(&engine, |e| sb.setup(e)).expect("setup must succeed");
            // Harden the setup tail: conservation is only meaningful once
            // every account row survives the crash, so offsets below are cut
            // at or after this length.
            logger.flush().expect("flush setup");
            let setup_len = std::fs::metadata(&path).expect("stat log").len() as usize;

            let committed = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for worker in 0..SB_WORKERS {
                    let sb = &sb;
                    let engine = &engine;
                    let committed = &committed;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(
                            seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        for _ in 0..SB_TXNS_PER_WORKER {
                            let mut params = sb.draw(&mut rng);
                            // Remap the delta-carrying kinds onto delta-zero
                            // ones so any committed prefix conserves.
                            params.kind = match params.kind {
                                SbTxnKind::DepositChecking => SbTxnKind::Amalgamate,
                                SbTxnKind::TransactSaving | SbTxnKind::WriteCheck => {
                                    SbTxnKind::SendPayment
                                }
                                zero_delta => zero_delta,
                            };
                            params.amount = params.amount.abs();
                            if on_engine!(engine, |e| sb.exec(e, tables, &params)).is_ok() {
                                committed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            logger.flush().expect("flush log");
            let bytes = std::fs::read(&path).expect("read log file");
            drop(engine);

            let committed = committed.into_inner();
            let attempted = SB_WORKERS as u64 * SB_TXNS_PER_WORKER;
            assert!(
                committed * 4 >= attempted,
                "[{} seed={seed:#x}] degenerate run: only {committed} of \
                 {attempted} SmallBank transactions committed",
                kind.label()
            );
            assert!(
                logger.batches_hardened() < logger.records_written(),
                "[{} seed={seed:#x}] batches ({}) must coalesce multiple records ({})",
                kind.label(),
                logger.batches_hardened(),
                logger.records_written()
            );

            // SmallBank-aware log oracle: upsert after-images in
            // end-timestamp order, keyed by (savings?, customer).
            let sb_oracle = |records: &[LogRecord]| -> BTreeMap<(bool, u64), i64> {
                let mut sorted: Vec<&LogRecord> = records.iter().collect();
                sorted.sort_by_key(|r| r.end_ts);
                let mut state = BTreeMap::new();
                for record in sorted {
                    for op in &record.ops {
                        match op {
                            LogOp::Write { table, row } => {
                                let savings = *table == tables.savings;
                                assert!(
                                    savings || *table == tables.checking,
                                    "SmallBank logs only its two tables"
                                );
                                state.insert(
                                    (savings, rowbuf::key_of(row)),
                                    smallbank::balance_of(row),
                                );
                            }
                            LogOp::Delete { .. } => {
                                panic!("SmallBank never deletes rows")
                            }
                        }
                    }
                }
                state
            };

            let mut offsets: Vec<usize> = crash_offsets(seed ^ 0x5BA7_C000, bytes.len())
                .into_iter()
                .filter(|&o| o >= setup_len)
                .collect();
            offsets.push(setup_len);
            offsets.sort_unstable();
            offsets.dedup();
            assert!(!offsets.is_empty(), "at least the setup boundary is cut");

            for offset in offsets {
                let truncated = &bytes[..offset];
                let outcome = read_log_bytes(truncated).unwrap_or_else(|e| {
                    panic!(
                        "[{} seed={seed:#x} crash_offset={offset}] a crash mid-batch must \
                         read as a torn tail, never corruption: {e}",
                        kind.label()
                    )
                });
                let expected = sb_oracle(&outcome.records);

                let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
                let target_tables =
                    on_engine!(&target, |e| sb.create_tables(e)).expect("re-create tables");
                assert_eq!(
                    (target_tables.checking, target_tables.savings),
                    (tables.checking, tables.savings),
                    "recovery target must re-create tables with the same ids"
                );

                let log_name = format!("recovery-smallbank-seed-{seed:#x}.log.bin");
                with_repro_artifacts(
                    &format!(
                        "suite=recovery-groupcommit-smallbank workload=smallbank engine={} \
                         seed={seed:#x} crash_offset={offset} batch_tick_us={BATCH_TICK_US}",
                        kind.label()
                    ),
                    &[(&log_name, &bytes)],
                    || {
                        let report = target.recover_log(truncated).unwrap_or_else(|e| {
                            panic!(
                                "[{} seed={seed:#x} crash_offset={offset}] recovery failed: {e}",
                                kind.label()
                            )
                        });
                        assert_eq!(report.records_applied, outcome.records.len());
                        assert_eq!(
                            report.valid_bytes + report.torn_bytes,
                            offset as u64,
                            "every crash byte is either replayed or torn"
                        );

                        let balances = on_engine!(&target, |e| smallbank::all_balances(
                            e,
                            target_tables,
                            sb.accounts
                        ))
                        .expect("read recovered balances");
                        let label = format!(
                            "{} seed={seed:#x} crash_offset={offset} (smallbank group commit)",
                            kind.label()
                        );
                        for (customer, &(checking, savings)) in balances.iter().enumerate() {
                            let customer = customer as u64;
                            assert_eq!(
                                checking,
                                expected[&(false, customer)],
                                "[{label}] recovered checking balance of customer {customer} \
                                 diverges from the surviving log prefix"
                            );
                            assert_eq!(
                                savings,
                                expected[&(true, customer)],
                                "[{label}] recovered savings balance of customer {customer} \
                                 diverges from the surviving log prefix"
                            );
                        }
                        let total: i64 = balances.iter().map(|&(c, s)| c + s).sum();
                        assert_eq!(
                            total,
                            sb.initial_total(),
                            "[{label}] the conserving mix must leave the recovered total \
                             at the initial total for every committed prefix"
                        );
                    },
                );
            }
        }
    }
}

#[test]
fn group_commit_and_file_loggers_agree_byte_for_byte() {
    // Batch boundaries are invisible on the wire: the same sequential
    // history produces bit-identical log files whether each commit's frame
    // is written straight through a FileLogger or staged in the
    // GroupCommitLog's shared buffer and hardened in batches.
    for kind in ALL_KINDS {
        let seed = seeds()[0];
        let dir = TempDir::new("recovery-parity");
        let file_path = dir.join("file.log");
        let gc_path = dir.join("gc.log");
        let file_logger = Arc::new(FileLogger::create(&file_path).expect("create log file"));
        let gc_logger = Arc::new(GroupCommitLog::create(&gc_path).expect("create gc log"));

        let history = generate_history(seed, PARAMS);
        for run in 0..2 {
            let logger: Arc<dyn RedoLogger> = if run == 0 {
                file_logger.clone()
            } else {
                gc_logger.clone()
            };
            let engine = EngineBox::new(kind, logger);
            let tables = engine.create_tables();
            engine.populate(&tables);
            engine.run_sequential(&tables, &history);
        }
        file_logger.flush().expect("flush file log");
        gc_logger.flush().expect("flush group-commit log");

        let file_bytes = std::fs::read(&file_path).expect("read file log");
        let gc_bytes = std::fs::read(&gc_path).expect("read gc log");
        assert_eq!(
            file_bytes,
            gc_bytes,
            "[{} seed={seed:#x}] group-commit batching changed the wire bytes",
            kind.label()
        );
    }
}

#[test]
fn sync_commits_survive_a_crash_that_drops_only_unflushed_async_tails() {
    // The durability contract, end to end: a Sync commit's record is on
    // disk the moment commit() returns, so a crash immediately afterwards
    // (simulated by reading the file *without* any final flush) can lose at
    // most the Async commits that followed the last hardened batch.
    let dir = TempDir::new("recovery-sync");
    let path = dir.join("wal.log");
    let logger = Arc::new(GroupCommitLog::create(&path).expect("create gc log"));
    let engine = MvEngine::with_logger(
        MvConfig::optimistic().with_deadlock_detector(false),
        logger.clone(),
    );
    let tables = create_diff_tables(&engine, TABLES, 128);
    populate(&engine, &tables, INITIAL_ROWS);

    // One Sync transaction among Async neighbours.
    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert!(txn
        .update(
            tables[0],
            support::PRIMARY,
            0,
            rowbuf::keyed_row(0, support::FILLER, 7)
        )
        .unwrap());
    txn.commit().expect("async commit");
    let mut txn = engine.begin(IsolationLevel::Serializable);
    txn.set_durability(Durability::Sync);
    assert!(txn
        .update(
            tables[0],
            support::PRIMARY,
            1,
            rowbuf::keyed_row(1, support::FILLER, 8)
        )
        .unwrap());
    txn.commit().expect("sync commit");
    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert!(txn
        .update(
            tables[0],
            support::PRIMARY,
            2,
            rowbuf::keyed_row(2, support::FILLER, 9)
        )
        .unwrap());
    txn.commit().expect("trailing async commit");

    // "Crash": read whatever is durable right now — no flush, no drop.
    let bytes = std::fs::read(&path).expect("read log file");
    let outcome = read_log_bytes(&bytes).expect("durable prefix decodes");
    let recovered = log_oracle(&outcome.records, &tables);
    assert_eq!(
        recovered[0].get(&1),
        Some(&8),
        "the Sync commit must already be durable (got {:?})",
        recovered[0]
    );
    assert_eq!(
        recovered[0].get(&0),
        Some(&7),
        "every commit ordered before the Sync one shares its flush"
    );
    assert_eq!(
        recovered[0].get(&2),
        Some(&1),
        "the trailing Async commit is still buffered — lost by this crash, so \
         key 2 recovers to its populated value"
    );
    drop(engine);
    drop(logger);
}

// ---------------------------------------------------------------------------
// Checkpoint + log-truncation crash tests
//
// The checkpoint subsystem (`mmdb_storage::checkpoint`) turns the unbounded
// redo log into a bounded one: an image of every table at a snapshot
// timestamp, a manifest naming it, and a truncated log tail above the
// checkpoint LSN. These tests pin its two contracts:
//
//  * **tail crashes** — after a checkpoint, a crash at *any* byte of the
//    live segment recovers to image + the surviving tail's committed prefix;
//  * **protocol crashes** — a crash at any byte *inside* the
//    write → install → truncate protocol itself is invisible: the protocol
//    is a pure representation change, so every synthesized crash state must
//    recover to exactly the same committed state.
// ---------------------------------------------------------------------------

/// Fresh scratch directory for a [`CheckpointStore`], removed on drop.
fn scratch_store_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("ckpt-{tag}"))
}

/// An in-memory image of a store directory: (file name, file bytes), sorted.
type DirState = Vec<(String, Vec<u8>)>;

/// Read every file of a store directory into memory, sorted by name.
fn dir_snapshot(dir: &Path) -> DirState {
    let mut files: DirState = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf-8 file name");
            let bytes = std::fs::read(entry.path()).expect("read store file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// Materialize a synthesized crash state: `dir` ends up containing exactly
/// `files` and nothing else.
fn write_dir_state(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create crash dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write crash file");
    }
}

fn file_of<'a>(files: &'a [(String, Vec<u8>)], name: &str) -> &'a [u8] {
    &files
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} missing from directory snapshot"))
        .1
}

/// Decode a checkpoint image into per-table state maps (same shape as
/// [`log_oracle`]'s output).
fn image_state(contents: &CheckpointContents, tables: &[TableId]) -> Vec<BTreeMap<u64, u8>> {
    let mut state = vec![BTreeMap::new(); tables.len()];
    for (table, row) in &contents.rows {
        let slot = tables
            .iter()
            .position(|t| t == table)
            .expect("imaged table exists");
        state[slot].insert(rowbuf::key_of(row), rowbuf::fill_of(row));
    }
    state
}

/// Apply a surviving log tail on top of a checkpoint image, skipping the
/// records already inside the image (`end_ts <= image_ts`) — exactly the
/// filter recovery applies.
fn apply_tail(
    state: &mut [BTreeMap<u64, u8>],
    records: &[LogRecord],
    image_ts: Timestamp,
    tables: &[TableId],
) {
    let mut sorted: Vec<&LogRecord> = records.iter().filter(|r| r.end_ts > image_ts).collect();
    sorted.sort_by_key(|r| r.end_ts);
    for record in sorted {
        for op in &record.ops {
            match op {
                LogOp::Write { table, row } => {
                    let slot = tables
                        .iter()
                        .position(|t| t == table)
                        .expect("logged table");
                    state[slot].insert(rowbuf::key_of(row), rowbuf::fill_of(row));
                }
                LogOp::Delete { table, key } => {
                    let slot = tables
                        .iter()
                        .position(|t| t == table)
                        .expect("logged table");
                    state[slot].remove(key);
                }
            }
        }
    }
}

/// Take a checkpoint, retrying the retryable failures a concurrent workload
/// can cause (the 1V walk's shared bucket locks time out under write
/// contention; the MV walk never blocks writers and needs no retries).
fn checkpoint_with_retry(engine: &EngineBox, store: &CheckpointStore) -> CheckpointRef {
    let mut attempts = 0;
    loop {
        match engine.checkpoint(store) {
            Ok(installed) => return installed,
            Err(e) if e.is_retryable() && attempts < 100 => {
                attempts += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("checkpoint failed: {e}"),
        }
    }
}

/// Split a seeded history across the worker threads.
fn worker_parts(seed: u64) -> Vec<Vec<support::TxnScript>> {
    let total = HistoryParams {
        txns: PARAMS.txns * WORKERS,
        ..PARAMS
    };
    let mut parts: Vec<Vec<support::TxnScript>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (i, script) in generate_history(seed, total).into_iter().enumerate() {
        parts[i % WORKERS].push(script);
    }
    parts
}

#[test]
fn checkpoint_concurrent_with_writers_then_tail_crash_recovers() {
    for kind in ALL_KINDS {
        for seed in seeds() {
            let tag = format!("tail-{}-{seed:x}", kind.label().replace('/', "_"));
            let dir = scratch_store_dir(&tag);
            let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
            let store =
                CheckpointStore::create_with_tick(&dir, Duration::from_micros(BATCH_TICK_US))
                    .expect("create checkpoint store");
            let engine = EngineBox::new(kind, store.logger().clone());
            let tables = engine.create_tables();
            engine.populate(&tables);

            // Phase 1: a concurrent prefix the checkpoint will capture.
            engine.run_concurrent(&tables, worker_parts(seed));

            // Phase 2 races the checkpoint. The MV walk is an ordinary
            // snapshot reader and must not block the writers; whatever the
            // interleaving, the installed image plus the surviving tail must
            // replay to a consistent committed state.
            let parts2 = worker_parts(seed ^ 0x00C4_97A1);
            std::thread::scope(|scope| {
                let engine_ref = &engine;
                let tables_ref = &tables;
                scope.spawn(move || engine_ref.run_concurrent(tables_ref, parts2));
                checkpoint_with_retry(&engine, &store);
            });
            store.logger().flush().expect("flush tail");
            let final_state = engine.dump(&tables);
            drop(engine);
            drop(store);

            let plan = CheckpointStore::plan(&dir).expect("plan after checkpoint");
            let ckpt = plan
                .last_checkpoint()
                .cloned()
                .expect("checkpoint installed");
            let contents = read_checkpoint(&ckpt.path).expect("installed image reads back");
            assert_eq!(contents.read_ts, ckpt.read_ts);
            assert_eq!(
                plan.log_base, ckpt.lsn,
                "truncation rebases the live segment at the checkpoint LSN"
            );
            assert_eq!(plan.log_tail_offset(), 0);

            // No crash at all: image + full tail must equal the live state.
            // This pins the image itself — a row missing from (or extra in)
            // the snapshot would surface as a divergence here.
            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let t2 = target.create_tables();
            target
                .recover_from_checkpoint(&plan)
                .expect("full recovery");
            assert_eq!(
                target.dump(&t2),
                final_state,
                "[{} seed={seed:#x}] checkpoint + full tail diverges from the live state",
                kind.label()
            );
            target.assert_indexes_consistent(
                &format!("{} seed={seed:#x} ckpt full-tail", kind.label()),
                &t2,
            );

            // Crash at arbitrary byte offsets of the live tail segment.
            let live = dir_snapshot(&dir);
            let wal_name = plan
                .log_path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("wal file name")
                .to_string();
            let wal_bytes = file_of(&live, &wal_name).to_vec();
            for offset in crash_offsets(seed ^ 0xCC99_0001, wal_bytes.len()) {
                let mut files = live.clone();
                for (name, bytes) in &mut files {
                    if *name == wal_name {
                        bytes.truncate(offset);
                    }
                }
                write_dir_state(&crash_dir, &files);
                let plan_c = CheckpointStore::plan(&crash_dir).expect("plan survives a torn tail");
                let outcome = read_log_bytes(&wal_bytes[..offset]).unwrap_or_else(|e| {
                    panic!(
                        "[{} seed={seed:#x} crash_offset={offset}] a torn tail must never \
                         read as corruption: {e}",
                        kind.label()
                    )
                });
                let mut expected = image_state(&contents, &tables);
                apply_tail(&mut expected, &outcome.records, contents.read_ts, &tables);

                let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
                let t = target.create_tables();
                let log_name = format!("checkpoint-tail-seed-{seed:#x}.log.bin");
                with_repro_artifacts(
                    &format!(
                        "suite=checkpoint-tail workload=generic engine={} seed={seed:#x} crash_offset={offset}",
                        kind.label()
                    ),
                    &[(&log_name, &wal_bytes)],
                    || {
                        let report = target.recover_from_checkpoint(&plan_c).unwrap_or_else(|e| {
                            panic!(
                                "[{} seed={seed:#x} crash_offset={offset}] recovery failed: {e}",
                                kind.label()
                            )
                        });
                        assert_eq!(
                            report.records_applied,
                            outcome
                                .records
                                .iter()
                                .filter(|r| r.end_ts > contents.read_ts)
                                .count(),
                            "replay applies exactly the tail records above the image timestamp"
                        );
                        assert_eq!(
                            report.valid_bytes + report.torn_bytes,
                            offset as u64,
                            "every crash byte is either replayed or torn"
                        );
                        let label = format!(
                            "{} seed={seed:#x} ckpt-tail crash_offset={offset}",
                            kind.label()
                        );
                        assert_eq!(
                            target.dump(&t),
                            expected,
                            "[{label}] recovered state diverges from image + surviving tail"
                        );
                        target.assert_indexes_consistent(&label, &t);
                    },
                );
            }
        }
    }
}

#[test]
fn crash_anywhere_inside_the_checkpoint_protocol_preserves_committed_state() {
    // Between the moment a checkpoint starts and the moment the old segment
    // is deleted, the committed state never changes (the workload is
    // quiesced here) — so *every* intermediate crash state must recover to
    // exactly the same maps. The states are synthesized from directory
    // snapshots taken before and after the protocol, cut at randomized byte
    // offsets inside each artifact the protocol writes:
    //
    //   1. `ckpt.tmp` streaming          (any prefix of the image bytes)
    //   2. rename, manifest not appended
    //   3. the install manifest entry    (any prefix of its frame)
    //   4. the rotated segment copy      (any prefix of the new wal)
    //   5. the truncation publish entry  (any prefix of its frame)
    //   6. old segment not yet deleted, and the completed protocol
    for kind in ALL_KINDS {
        let seed = seeds()[0];
        let tag = format!("proto-{}", kind.label().replace('/', "_"));
        let dir = scratch_store_dir(&tag);
        let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
        let store = CheckpointStore::create(&dir).expect("create checkpoint store");
        let engine = EngineBox::new(kind, store.logger().clone());
        let tables = engine.create_tables();
        engine.populate(&tables);
        let history = generate_history(seed, PARAMS);
        engine.run_sequential(&tables, &history);
        store.logger().flush().expect("flush");
        let committed = engine.dump(&tables);
        let before = dir_snapshot(&dir);
        engine.checkpoint(&store).expect("quiesced checkpoint");
        let after = dir_snapshot(&dir);
        drop(engine);
        drop(store);

        let ckpt_bytes = file_of(&after, "ckpt-1.db").to_vec();
        let wal_new = file_of(&after, "wal-2.log").to_vec();
        let wal_old = file_of(&before, "wal-0.log").to_vec();
        let manifest_a = file_of(&before, "MANIFEST").to_vec();
        let manifest_b = file_of(&after, "MANIFEST").to_vec();
        assert_eq!(
            &manifest_b[..manifest_a.len()],
            &manifest_a[..],
            "the manifest is append-only"
        );
        let delta = &manifest_b[manifest_a.len()..];
        let frame_len =
            |bytes: &[u8]| 16 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let install_len = frame_len(delta);
        assert!(
            install_len < delta.len(),
            "a checkpoint appends two manifest entries (install + truncation publish)"
        );
        assert_eq!(
            install_len + frame_len(&delta[install_len..]),
            delta.len(),
            "the two entries account for the whole manifest delta"
        );
        let manifest_installed: Vec<u8> =
            [manifest_a.clone(), delta[..install_len].to_vec()].concat();

        // Overlay `extra` files onto a base snapshot (replacing same names).
        let with = |base: &[(String, Vec<u8>)], extra: Vec<(&str, Vec<u8>)>| {
            let mut files: DirState = base.to_vec();
            for (name, bytes) in extra {
                match files.iter_mut().find(|(n, _)| n == name) {
                    Some(slot) => slot.1 = bytes,
                    None => files.push((name.to_string(), bytes)),
                }
            }
            files
        };

        let mut states: Vec<(String, DirState)> = Vec::new();
        for cut in crash_offsets(seed ^ 0x0001, ckpt_bytes.len()) {
            states.push((
                format!("tmp-cut-{cut}"),
                with(&before, vec![("ckpt.tmp", ckpt_bytes[..cut].to_vec())]),
            ));
        }
        states.push((
            "renamed-unpublished".to_string(),
            with(&before, vec![("ckpt-1.db", ckpt_bytes.clone())]),
        ));
        for cut in crash_offsets(seed ^ 0x0002, install_len) {
            let mut manifest = manifest_a.clone();
            manifest.extend_from_slice(&delta[..cut]);
            states.push((
                format!("install-cut-{cut}"),
                with(
                    &before,
                    vec![("ckpt-1.db", ckpt_bytes.clone()), ("MANIFEST", manifest)],
                ),
            ));
        }
        for cut in crash_offsets(seed ^ 0x0003, wal_new.len()) {
            states.push((
                format!("rotate-cut-{cut}"),
                with(
                    &before,
                    vec![
                        ("ckpt-1.db", ckpt_bytes.clone()),
                        ("MANIFEST", manifest_installed.clone()),
                        ("wal-2.log", wal_new[..cut].to_vec()),
                    ],
                ),
            ));
        }
        for cut in crash_offsets(seed ^ 0x0004, delta.len() - install_len) {
            let mut manifest = manifest_a.clone();
            manifest.extend_from_slice(&delta[..install_len + cut]);
            states.push((
                format!("publish-cut-{cut}"),
                with(
                    &before,
                    vec![
                        ("ckpt-1.db", ckpt_bytes.clone()),
                        ("MANIFEST", manifest),
                        ("wal-2.log", wal_new.clone()),
                    ],
                ),
            ));
        }
        states.push((
            "undeleted-old-wal".to_string(),
            with(&after, vec![("wal-0.log", wal_old)]),
        ));
        states.push(("completed".to_string(), after.clone()));

        for (label, files) in &states {
            write_dir_state(&crash_dir, files);
            let full_label = format!("{} protocol-crash {label}", kind.label());
            let plan = CheckpointStore::plan(&crash_dir)
                .unwrap_or_else(|e| panic!("[{full_label}] recovery planning failed: {e}"));
            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let t = target.create_tables();
            target
                .recover_from_checkpoint(&plan)
                .unwrap_or_else(|e| panic!("[{full_label}] recovery failed: {e}"));
            assert_eq!(
                target.dump(&t),
                committed,
                "[{full_label}] the protocol is a pure representation change — crashing \
                 inside it must not move the recovered state"
            );
            target.assert_indexes_consistent(&full_label, &t);
        }
    }
}

#[test]
fn crash_recover_continue_recover_round_trip_through_the_store() {
    // Satellite contract for `open_append`: crash with a torn tail, reopen
    // the store at the recovered valid prefix, keep committing on the same
    // segment, checkpoint, commit more — then a clean restart must land
    // exactly on the final state.
    for kind in ALL_KINDS {
        let seed = seeds()[0] ^ 0x0F0F;
        let tag = format!("roundtrip-{}", kind.label().replace('/', "_"));
        let dir = scratch_store_dir(&tag);
        let tick = Duration::from_micros(BATCH_TICK_US);

        // Life 1: run, flush, then "crash" mid-append.
        let store = CheckpointStore::create_with_tick(&dir, tick).expect("create store");
        let engine = EngineBox::new(kind, store.logger().clone());
        let tables = engine.create_tables();
        engine.populate(&tables);
        engine.run_sequential(&tables, &generate_history(seed, PARAMS));
        store.logger().flush().expect("flush life 1");
        drop(engine);
        drop(store);

        let plan = CheckpointStore::plan(&dir).expect("plan life 2");
        assert!(plan.chain.is_empty(), "no checkpoint taken yet");
        let full = std::fs::read(&plan.log_path).expect("read wal");
        let torn_at = full.len() - 3; // inside the final frame's hash
        std::fs::OpenOptions::new()
            .write(true)
            .open(&plan.log_path)
            .expect("open wal")
            .set_len(torn_at as u64)
            .expect("tear the tail");
        let outcome = read_log_bytes(&full[..torn_at]).expect("torn tail decodes");
        assert!(outcome.torn_bytes > 0, "the cut must actually tear a frame");

        // Life 2: open resumes appending at the valid prefix; recovery
        // replays exactly that prefix.
        let probe = read_log_file_from(&plan.log_path, plan.log_tail_offset())
            .expect("probe the valid prefix");
        assert_eq!(probe.valid_bytes, outcome.valid_bytes);
        let store2 =
            CheckpointStore::open_with_tick(&dir, &plan, probe.valid_bytes, tick).expect("open");
        let engine2 = EngineBox::new(kind, store2.logger().clone());
        let t2 = engine2.create_tables();
        assert_eq!(t2, tables, "reopened engine re-creates the same table ids");
        // The engine is attached to the log it recovers from: recovery is a
        // bulk load and must never re-append the tail it replays.
        let appended_before = store2.logger().appended_lsn();
        let report = engine2
            .recover_from_checkpoint(&plan)
            .expect("recover life 2");
        assert_eq!(
            store2.logger().appended_lsn(),
            appended_before,
            "[{}] recovery appended to the log it replayed",
            kind.label()
        );
        assert_eq!(report.records_applied, outcome.records.len());
        assert_eq!(report.torn_bytes, 0, "open already cut the torn tail");
        assert_eq!(report.valid_bytes, probe.valid_bytes);
        assert_eq!(engine2.dump(&t2), log_oracle(&outcome.records, &tables));

        // Continue: more committed work, a checkpoint, more work.
        engine2.run_sequential(&t2, &generate_history(seed ^ 0xAAAA, PARAMS));
        engine2
            .checkpoint(&store2)
            .expect("checkpoint on the reopened store");
        assert_eq!(
            store2.generation(),
            2,
            "install + truncate each advance a generation"
        );
        engine2.run_sequential(&t2, &generate_history(seed ^ 0xBBBB, PARAMS));
        store2.logger().flush().expect("flush life 2");
        let final_state = engine2.dump(&t2);
        drop(engine2);
        drop(store2);

        // Life 3: a clean restart lands exactly on life 2's final state,
        // and truncation reclaimed the old segment and the tmp image.
        let names: Vec<String> = dir_snapshot(&dir).into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "MANIFEST".to_string(),
                "ckpt-1.db".to_string(),
                "wal-2.log".to_string()
            ],
            "[{}] truncation reclaims the old segment and the tmp image",
            kind.label()
        );
        let plan3 = CheckpointStore::plan(&dir).expect("plan life 3");
        let ckpt = plan3.last_checkpoint().expect("checkpoint installed");
        assert_eq!(plan3.log_base, ckpt.lsn);
        let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
        let t3 = target.create_tables();
        target
            .recover_from_checkpoint(&plan3)
            .expect("recover life 3");
        let label = format!("{} round-trip life 3", kind.label());
        assert_eq!(
            target.dump(&t3),
            final_state,
            "[{label}] restart diverges from the pre-crash state"
        );
        target.assert_indexes_consistent(&label, &t3);
    }
}

#[test]
fn checkpoint_policy_drives_automatic_log_truncation() {
    // The checkpoint policy is wired, not advisory: an engine built with
    // `with_checkpoint_store` under `CheckpointPolicy::every_log_bytes`
    // checkpoints *itself* — a background tick consults `checkpoint_due`
    // and runs the snapshot + install + truncate protocol once the live
    // segment outgrows the budget. This test never calls `checkpoint()`:
    // a long committed write run alone must produce an installed image and
    // a truncated (rebased) log, and a restart must land on the final state.
    const BUDGET: u64 = 64 * 1024;
    let dir = scratch_store_dir("auto-policy");
    let store = Arc::new(
        CheckpointStore::create_with_tick(&dir, Duration::from_micros(BATCH_TICK_US))
            .expect("create checkpoint store"),
    );
    let engine = MvEngine::with_checkpoint_store(
        MvConfig::optimistic()
            .with_deadlock_detector(false)
            .with_checkpoint(CheckpointPolicy::every_log_bytes(BUDGET)),
        store.clone(),
    );
    let tables = create_diff_tables(&engine, TABLES, 128);
    populate(&engine, &tables, INITIAL_ROWS);
    assert_eq!(store.generation(), 0, "no checkpoint before any log growth");

    // Keep committing until the tick has demonstrably checkpointed at least
    // once (install + truncate each advance a generation). Bounded by wall
    // clock so a wiring regression fails loudly instead of hanging.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut round = 0u64;
    while store.generation() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "no automatic checkpoint after {round} rounds: the policy tick \
             never fired (generation={}, log bytes since checkpoint={})",
            store.generation(),
            store.log_bytes_since_checkpoint()
        );
        let history = generate_history(seeds()[0] ^ round, PARAMS);
        let _: Vec<TxnRecord> =
            run_sequential(&engine, &tables, IsolationLevel::Serializable, &history);
        round += 1;
    }
    // Let the writes outlive the checkpoint so the recovered state proves
    // image + tail compose, not just the image alone.
    let history = generate_history(seeds()[0] ^ 0xF1A7, PARAMS);
    let _: Vec<TxnRecord> =
        run_sequential(&engine, &tables, IsolationLevel::Serializable, &history);
    store.logger().flush().expect("flush tail");
    let final_state = dump(&engine, &tables, DUMP_BOUND);
    drop(engine); // joins the checkpointer tick before the store is read
    drop(store);

    let names: Vec<String> = dir_snapshot(&dir).into_iter().map(|(n, _)| n).collect();
    assert!(
        !names.contains(&"wal-0.log".to_string()),
        "automatic truncation must reclaim the original segment, got {names:?}"
    );
    let plan = CheckpointStore::plan(&dir).expect("plan after automatic checkpoint");
    let ckpt = plan.last_checkpoint().expect("an image was installed");
    assert_eq!(plan.log_base, ckpt.lsn, "the live segment was rebased");

    let target = MvEngine::with_logger(
        MvConfig::optimistic().with_deadlock_detector(false),
        Arc::new(mmdb_storage::log::NullLogger::new()),
    );
    let t = create_diff_tables(&target, TABLES, 128);
    target
        .recover_from_checkpoint(&plan)
        .expect("restart from the automatic checkpoint");
    assert_eq!(
        dump(&target, &t, DUMP_BOUND),
        final_state,
        "restart from the automatically taken checkpoint diverges from the \
         live engine's final state"
    );
    assert_indexes_consistent("auto-checkpoint restart", &target, &t, DUMP_BOUND);
}

#[test]
fn mid_run_crash_snapshots_recover_at_least_the_durable_watermark() {
    // Write-path fault injection: capture "crash images" of the live log
    // file while the group-commit flusher is mid-run — partial flushes and
    // all. Every image must decode as a committed prefix (never corruption),
    // that prefix must extend at least to the durable watermark read before
    // the capture, and recovery from it must rebuild a consistent database.
    for kind in ALL_KINDS {
        let seed = seeds()[0] ^ 0x5EED;
        let dir = TempDir::new("recovery-faultinj");
        let path = dir.join("wal.log");
        let logger = Arc::new(
            GroupCommitLog::with_tick(&path, Duration::from_micros(BATCH_TICK_US))
                .expect("create gc log"),
        );
        let engine = EngineBox::new(kind, logger.clone());
        let tables = engine.create_tables();
        engine.populate(&tables);

        // The run pauses once, halfway, until a capture is taken: a short
        // run on a loaded host can otherwise finish before the capture loop
        // first looks, leaving no mid-run image at all.
        let mut first_half = worker_parts(seed);
        let second_half: Vec<_> = first_half
            .iter_mut()
            .map(|part| part.split_off(part.len() / 2))
            .collect();
        let halfway = std::sync::Barrier::new(2);
        let mut snapshots: Vec<(u64, Vec<u8>)> = Vec::new();
        let capture = |snapshots: &mut Vec<(u64, Vec<u8>)>| {
            let durable_before = logger.durable_lsn().0;
            let bytes = std::fs::read(&path).expect("read live log");
            snapshots.push((durable_before, bytes));
        };
        std::thread::scope(|scope| {
            let (engine_ref, tables_ref, halfway_ref) = (&engine, &tables, &halfway);
            let handle = scope.spawn(move || {
                engine_ref.run_concurrent(tables_ref, first_half);
                halfway_ref.wait();
                halfway_ref.wait();
                engine_ref.run_concurrent(tables_ref, second_half);
            });
            halfway.wait();
            capture(&mut snapshots);
            halfway.wait();
            while !handle.is_finished() {
                capture(&mut snapshots);
                std::thread::sleep(Duration::from_micros(BATCH_TICK_US / 4));
            }
        });
        logger.flush().expect("final flush");
        let final_bytes = std::fs::read(&path).expect("read flushed log");
        snapshots.push((logger.durable_lsn().0, final_bytes));
        assert!(
            snapshots.len() >= 2,
            "[{}] the run should yield at least one mid-run capture",
            kind.label()
        );

        for (i, (durable_before, bytes)) in snapshots.iter().enumerate() {
            let outcome = read_log_bytes(bytes).unwrap_or_else(|e| {
                panic!(
                    "[{} snapshot={i}] a partial flush must read as a torn tail, \
                     never corruption: {e}",
                    kind.label()
                )
            });
            assert!(
                outcome.valid_bytes >= *durable_before,
                "[{} snapshot={i}] the durable watermark ({durable_before}) must already \
                 be clean on disk (valid prefix: {})",
                kind.label(),
                outcome.valid_bytes
            );
            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let t = target.create_tables();
            let report = target
                .recover_log(bytes)
                .unwrap_or_else(|e| panic!("[{} snapshot={i}] recovery failed: {e}", kind.label()));
            assert_eq!(report.records_applied, outcome.records.len());
            let label = format!("{} fault-injection snapshot {i}", kind.label());
            assert_eq!(
                target.dump(&t),
                log_oracle(&outcome.records, &tables),
                "[{label}] recovered state diverges from the captured committed prefix"
            );
            target.assert_indexes_consistent(&label, &t);
        }
        drop(engine);
        drop(logger);
    }
}

// ---------------------------------------------------------------------------
// Delta-chain crash tests
//
// Delta checkpoints append to the installed chain instead of rewriting the
// database: `ckpt-<g>.db` + `delta-<g>.db`... + log tail. The incremental
// format adds new crash surfaces — a torn delta image, a published base
// with an unpublished delta, a compaction that crashed with stale chain
// files still on disk — and every one of them must stay invisible: the
// chain protocol, like the base protocol, is a pure representation change.
// ---------------------------------------------------------------------------

impl EngineBox {
    /// A delta image: `checkpoint_auto` under a chain bound no test reaches,
    /// asserting that it really extended the chain and never silently took
    /// a base instead.
    fn checkpoint_delta(&self, store: &CheckpointStore) -> Result<CheckpointRef> {
        let policy = CheckpointPolicy::delta(1, u32::MAX);
        let parent = store.next_parent(&policy);
        assert_ne!(parent, Timestamp::ZERO, "a delta needs an installed chain");
        let len = store.chain_len();
        let installed = self.checkpoint_auto(store, &policy)?;
        assert_eq!(store.chain_len(), len + 1, "a delta extends the chain");
        assert_eq!(
            read_checkpoint(&installed.path)?.parent_read_ts,
            parent,
            "a delta's parent is the previous chain tip"
        );
        Ok(installed)
    }

    fn checkpoint_auto(
        &self,
        store: &CheckpointStore,
        policy: &CheckpointPolicy,
    ) -> Result<CheckpointRef> {
        match self {
            EngineBox::Mv(e) => e.checkpoint_auto(store, policy),
            EngineBox::Sv(e) => e.checkpoint_auto(store, policy),
        }
    }
}

/// [`checkpoint_with_retry`] for delta checkpoints (the 1V walk's shared
/// bucket locks time out under write contention, exactly like the base
/// walk's).
fn delta_with_retry(engine: &EngineBox, store: &CheckpointStore) -> CheckpointRef {
    let mut attempts = 0;
    loop {
        match engine.checkpoint_delta(store) {
            Ok(installed) => return installed,
            Err(e) if e.is_retryable() && attempts < 100 => {
                attempts += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("delta checkpoint failed: {e}"),
        }
    }
}

/// Collapse a recovery plan's checkpoint chain into per-table state maps —
/// the image part of the recovery oracle. Within each chain element deletes
/// apply before rows (a delta never contains both for one key), across
/// elements later images win. Returns the maps and the chain tip's snapshot
/// timestamp (the tail-replay filter).
fn chain_state(plan: &RecoveryPlan, tables: &[TableId]) -> (Vec<BTreeMap<u64, u8>>, Timestamp) {
    let mut state = vec![BTreeMap::new(); tables.len()];
    let mut image_ts = Timestamp::ZERO;
    for link in &plan.chain {
        let contents = read_checkpoint(&link.path).expect("chain image reads back");
        assert_eq!(contents.read_ts, link.read_ts, "image agrees with manifest");
        for (table, key) in &contents.deletes {
            let slot = tables
                .iter()
                .position(|t| t == table)
                .expect("imaged table exists");
            state[slot].remove(key);
        }
        for (table, row) in &contents.rows {
            let slot = tables
                .iter()
                .position(|t| t == table)
                .expect("imaged table exists");
            state[slot].insert(rowbuf::key_of(row), rowbuf::fill_of(row));
        }
        image_ts = contents.read_ts;
    }
    (state, image_ts)
}

/// A quiesced window of writes confined to `table`: upserts of keys 0..=3
/// plus a guaranteed delete of key 5, so the next delta provably needs both
/// row and tombstone entries (the seeded history may have deleted any of
/// these keys, hence the upsert/ensure dance).
fn window_writes<E: Engine>(engine: &E, table: TableId, stamp: u8) {
    let mut txn = engine.begin(IsolationLevel::Serializable);
    for k in 0..4u64 {
        let row = rowbuf::keyed_row(k, support::FILLER, stamp.wrapping_add(k as u8).max(1));
        if !txn
            .update(table, support::PRIMARY, k, row.clone())
            .expect("window update")
        {
            txn.insert(table, row).expect("window insert");
        }
    }
    txn.commit().expect("window update commit");
    // Make sure key 5 exists before deleting it, so the delete always
    // commits a tombstone the delta must carry.
    let mut txn = engine.begin(IsolationLevel::Serializable);
    let exists = txn
        .read_with(table, support::PRIMARY, 5, &mut |_| {})
        .expect("window probe");
    if !exists {
        txn.insert(table, rowbuf::keyed_row(5, support::FILLER, stamp.max(1)))
            .expect("window ensure");
    }
    txn.commit().expect("window ensure commit");
    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert!(txn
        .delete(table, support::PRIMARY, 5)
        .expect("window delete"));
    txn.commit().expect("window delete commit");
}

#[test]
fn delta_checkpoints_skip_clean_tables_and_carry_tombstones() {
    // The incremental contract, engine level: a delta written after a window
    // that touched only table 0 must contain (a) exactly that window's rows,
    // (b) a tombstone for the window's delete, and (c) nothing at all for
    // the untouched table 1 — its dirty watermark never moved, so it
    // contributes zero bytes. Chain + tail recovery then equals the live
    // state for all three schemes.
    for kind in ALL_KINDS {
        let tag = format!("delta-skip-{}", kind.label().replace('/', "_"));
        let dir = scratch_store_dir(&tag);
        let store = CheckpointStore::create(&dir).expect("create checkpoint store");
        let engine = EngineBox::new(kind, store.logger().clone());
        let tables = engine.create_tables();
        engine.populate(&tables);
        engine.run_sequential(&tables, &generate_history(seeds()[0], PARAMS));
        engine.checkpoint(&store).expect("base checkpoint");

        match &engine {
            EngineBox::Mv(e) => window_writes(e, tables[0], 0x40),
            EngineBox::Sv(e) => window_writes(e, tables[0], 0x40),
        }
        let delta = engine.checkpoint_delta(&store).expect("delta checkpoint");

        let contents = read_checkpoint(&delta.path).expect("delta image reads back");
        let label = kind.label();
        assert!(
            contents.parent_read_ts != Timestamp::ZERO,
            "[{label}] a delta image records its parent snapshot"
        );
        let touched: Vec<TableId> = contents
            .rows
            .iter()
            .map(|(t, _)| *t)
            .chain(contents.deletes.iter().map(|(t, _)| *t))
            .collect();
        assert!(
            touched.iter().all(|t| *t == tables[0]),
            "[{label}] the untouched table leaked into the delta: {touched:?}"
        );
        let mut row_keys: Vec<u64> = contents
            .rows
            .iter()
            .map(|(_, r)| rowbuf::key_of(r))
            .collect();
        row_keys.sort_unstable();
        assert_eq!(
            row_keys,
            vec![0, 1, 2, 3],
            "[{label}] the delta must hold exactly the window's updated rows"
        );
        assert_eq!(
            contents.deletes,
            vec![(tables[0], 5)],
            "[{label}] the window's delete must surface as a tombstone"
        );

        // Tail above the delta, then recover the whole chain.
        match &engine {
            EngineBox::Mv(e) => window_writes(e, tables[1], 0x60),
            EngineBox::Sv(e) => window_writes(e, tables[1], 0x60),
        }
        store.logger().flush().expect("flush tail");
        let final_state = engine.dump(&tables);
        drop(engine);
        drop(store);

        let plan = CheckpointStore::plan(&dir).expect("plan after delta");
        assert_eq!(plan.chain.len(), 2, "[{label}] base + one delta");
        let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
        let t = target.create_tables();
        target
            .recover_from_checkpoint(&plan)
            .expect("chain recovery");
        assert_eq!(
            target.dump(&t),
            final_state,
            "[{label}] chain + tail recovery diverges from the live state"
        );
        target.assert_indexes_consistent(&format!("{label} delta-skip"), &t);
    }
}

#[test]
fn checkpoint_auto_compacts_a_full_chain() {
    // `checkpoint_auto` under `CheckpointPolicy::delta(_, 3)`: base, delta,
    // delta, then — chain full — a compacting base that collapses the chain
    // back to one file and deletes the old images from disk. Every
    // intermediate chain must recover to the then-current live state.
    let policy = CheckpointPolicy::delta(1, 3);
    for kind in ALL_KINDS {
        let tag = format!("auto-compact-{}", kind.label().replace('/', "_"));
        let dir = scratch_store_dir(&tag);
        let store = CheckpointStore::create(&dir).expect("create checkpoint store");
        let engine = EngineBox::new(kind, store.logger().clone());
        let tables = engine.create_tables();
        engine.populate(&tables);

        let mut expected_lens = [1usize, 2, 3, 1].iter();
        for round in 0u64..4 {
            engine.run_sequential(&tables, &generate_history(seeds()[0] ^ round, PARAMS));
            engine
                .checkpoint_auto(&store, &policy)
                .expect("auto checkpoint");
            let expect = *expected_lens.next().unwrap();
            assert_eq!(
                store.chain_len(),
                expect,
                "[{} round {round}] chain length after auto checkpoint",
                kind.label()
            );
        }
        store.logger().flush().expect("flush");
        let final_state = engine.dump(&tables);
        drop(engine);
        drop(store);

        // Compaction reclaimed every delta file.
        let names: Vec<String> = dir_snapshot(&dir).into_iter().map(|(n, _)| n).collect();
        assert!(
            !names.iter().any(|n| n.starts_with("delta-")),
            "[{}] compaction must delete the old chain's delta files, got {names:?}",
            kind.label()
        );

        let plan = CheckpointStore::plan(&dir).expect("plan after compaction");
        assert_eq!(
            plan.chain.len(),
            1,
            "[{}] compacted to a base",
            kind.label()
        );
        let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
        let t = target.create_tables();
        target
            .recover_from_checkpoint(&plan)
            .expect("post-compaction recovery");
        assert_eq!(
            target.dump(&t),
            final_state,
            "[{}] recovery after compaction diverges from the live state",
            kind.label()
        );
        target.assert_indexes_consistent(&format!("{} auto-compact", kind.label()), &t);
    }
}

#[test]
fn delta_chain_tail_crash_at_any_offset_recovers() {
    // The chain twin of the base tail-crash test: base + racing delta + more
    // concurrent commits, then a crash at arbitrary bytes of the live
    // segment. Recovery must land on chain-collapse + the surviving tail's
    // committed prefix (records at or below the chain tip's snapshot are
    // already inside the delta and must not replay twice).
    for kind in ALL_KINDS {
        for seed in seeds() {
            let tag = format!("delta-tail-{}-{seed:x}", kind.label().replace('/', "_"));
            let dir = scratch_store_dir(&tag);
            let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
            let store =
                CheckpointStore::create_with_tick(&dir, Duration::from_micros(BATCH_TICK_US))
                    .expect("create checkpoint store");
            let engine = EngineBox::new(kind, store.logger().clone());
            let tables = engine.create_tables();
            engine.populate(&tables);

            engine.run_concurrent(&tables, worker_parts(seed));
            checkpoint_with_retry(&engine, &store);

            // The delta races live writers, exactly like the base walk does
            // in the base tail test.
            let parts2 = worker_parts(seed ^ 0x00DE_17A1);
            std::thread::scope(|scope| {
                let engine_ref = &engine;
                let tables_ref = &tables;
                scope.spawn(move || engine_ref.run_concurrent(tables_ref, parts2));
                delta_with_retry(&engine, &store);
            });
            engine.run_concurrent(&tables, worker_parts(seed ^ 0x00DE_17A2));
            store.logger().flush().expect("flush tail");
            let final_state = engine.dump(&tables);
            drop(engine);
            drop(store);

            let plan = CheckpointStore::plan(&dir).expect("plan after delta");
            assert_eq!(plan.chain.len(), 2, "base + racing delta");
            assert_eq!(plan.log_tail_offset(), 0, "truncation rebased the segment");
            let (image, image_ts) = chain_state(&plan, &tables);

            // No crash: chain + full tail equals the live state.
            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let t = target.create_tables();
            target
                .recover_from_checkpoint(&plan)
                .expect("full chain recovery");
            assert_eq!(
                target.dump(&t),
                final_state,
                "[{} seed={seed:#x}] chain + full tail diverges from the live state",
                kind.label()
            );

            // Crash at arbitrary bytes of the live segment.
            let live = dir_snapshot(&dir);
            let wal_name = plan
                .log_path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("wal file name")
                .to_string();
            let wal_bytes = file_of(&live, &wal_name).to_vec();
            for offset in crash_offsets(seed ^ 0xDE17_0001, wal_bytes.len()) {
                let mut files = live.clone();
                for (name, bytes) in &mut files {
                    if *name == wal_name {
                        bytes.truncate(offset);
                    }
                }
                write_dir_state(&crash_dir, &files);
                let plan_c =
                    CheckpointStore::plan(&crash_dir).expect("plan survives a torn chain tail");
                let outcome = read_log_bytes(&wal_bytes[..offset])
                    .expect("truncation reads as a torn tail, never corruption");
                let mut expected = image.clone();
                apply_tail(&mut expected, &outcome.records, image_ts, &tables);

                let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
                let t = target.create_tables();
                let report = target.recover_from_checkpoint(&plan_c).unwrap_or_else(|e| {
                    panic!(
                        "[{} seed={seed:#x} crash_offset={offset}] chain recovery failed: {e}",
                        kind.label()
                    )
                });
                assert_eq!(
                    report.records_applied,
                    outcome
                        .records
                        .iter()
                        .filter(|r| r.end_ts > image_ts)
                        .count(),
                    "replay applies exactly the tail records above the chain tip's snapshot"
                );
                let label = format!(
                    "{} seed={seed:#x} delta-tail crash_offset={offset}",
                    kind.label()
                );
                assert_eq!(
                    target.dump(&t),
                    expected,
                    "[{label}] recovered state diverges from chain + surviving tail"
                );
                target.assert_indexes_consistent(&label, &t);
            }
        }
    }
}

#[test]
fn crash_anywhere_inside_the_delta_protocol_preserves_committed_state() {
    // The delta twin of the base-protocol crash test. The workload is
    // quiesced, so every synthesized intermediate state — a torn `delta.tmp`,
    // the renamed-but-unpublished delta (recovery must fall back to base +
    // full tail), a torn install entry, a torn rotated segment, a torn
    // truncation publish, the undeleted old segment — must recover to the
    // same committed maps.
    for kind in ALL_KINDS {
        let seed = seeds()[0] ^ 0xDE17;
        let tag = format!("delta-proto-{}", kind.label().replace('/', "_"));
        let dir = scratch_store_dir(&tag);
        let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
        let store = CheckpointStore::create(&dir).expect("create checkpoint store");
        let engine = EngineBox::new(kind, store.logger().clone());
        let tables = engine.create_tables();
        engine.populate(&tables);
        engine.run_sequential(&tables, &generate_history(seed, PARAMS));
        engine.checkpoint(&store).expect("quiesced base checkpoint");

        // The delta window: more committed work on both tables.
        engine.run_sequential(&tables, &generate_history(seed ^ 1, PARAMS));
        store.logger().flush().expect("flush");
        let committed = engine.dump(&tables);
        let before = dir_snapshot(&dir);
        engine.checkpoint_delta(&store).expect("quiesced delta");
        let after = dir_snapshot(&dir);
        drop(engine);
        drop(store);

        let delta_bytes = file_of(&after, "delta-3.db").to_vec();
        let wal_new = file_of(&after, "wal-4.log").to_vec();
        let wal_old = file_of(&before, "wal-2.log").to_vec();
        let manifest_a = file_of(&before, "MANIFEST").to_vec();
        let manifest_b = file_of(&after, "MANIFEST").to_vec();
        assert_eq!(
            &manifest_b[..manifest_a.len()],
            &manifest_a[..],
            "the manifest is append-only"
        );
        let entries = &manifest_b[manifest_a.len()..];
        let frame_len =
            |bytes: &[u8]| 16 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let install_len = frame_len(entries);
        assert_eq!(
            install_len + frame_len(&entries[install_len..]),
            entries.len(),
            "a delta appends two manifest entries (install + truncation publish)"
        );
        let manifest_installed: Vec<u8> =
            [manifest_a.clone(), entries[..install_len].to_vec()].concat();

        let with = |base: &[(String, Vec<u8>)], extra: Vec<(&str, Vec<u8>)>| {
            let mut files: DirState = base.to_vec();
            for (name, bytes) in extra {
                match files.iter_mut().find(|(n, _)| n == name) {
                    Some(slot) => slot.1 = bytes,
                    None => files.push((name.to_string(), bytes)),
                }
            }
            files
        };

        let mut states: Vec<(String, DirState)> = Vec::new();
        for cut in crash_offsets(seed ^ 0x0001, delta_bytes.len()) {
            states.push((
                format!("tmp-cut-{cut}"),
                with(&before, vec![("delta.tmp", delta_bytes[..cut].to_vec())]),
            ));
        }
        states.push((
            "renamed-unpublished".to_string(),
            with(&before, vec![("delta-3.db", delta_bytes.clone())]),
        ));
        for cut in crash_offsets(seed ^ 0x0002, install_len) {
            let mut manifest = manifest_a.clone();
            manifest.extend_from_slice(&entries[..cut]);
            states.push((
                format!("install-cut-{cut}"),
                with(
                    &before,
                    vec![("delta-3.db", delta_bytes.clone()), ("MANIFEST", manifest)],
                ),
            ));
        }
        for cut in crash_offsets(seed ^ 0x0003, wal_new.len()) {
            states.push((
                format!("rotate-cut-{cut}"),
                with(
                    &before,
                    vec![
                        ("delta-3.db", delta_bytes.clone()),
                        ("MANIFEST", manifest_installed.clone()),
                        ("wal-4.log", wal_new[..cut].to_vec()),
                    ],
                ),
            ));
        }
        for cut in crash_offsets(seed ^ 0x0004, entries.len() - install_len) {
            let mut manifest = manifest_a.clone();
            manifest.extend_from_slice(&entries[..install_len + cut]);
            states.push((
                format!("publish-cut-{cut}"),
                with(
                    &before,
                    vec![
                        ("delta-3.db", delta_bytes.clone()),
                        ("MANIFEST", manifest),
                        ("wal-4.log", wal_new.clone()),
                    ],
                ),
            ));
        }
        states.push((
            "undeleted-old-wal".to_string(),
            with(&after, vec![("wal-2.log", wal_old)]),
        ));
        states.push(("completed".to_string(), after.clone()));

        for (label, files) in &states {
            write_dir_state(&crash_dir, files);
            let full_label = format!("{} delta-protocol-crash {label}", kind.label());
            let plan = CheckpointStore::plan(&crash_dir)
                .unwrap_or_else(|e| panic!("[{full_label}] recovery planning failed: {e}"));
            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let t = target.create_tables();
            target
                .recover_from_checkpoint(&plan)
                .unwrap_or_else(|e| panic!("[{full_label}] recovery failed: {e}"));
            assert_eq!(
                target.dump(&t),
                committed,
                "[{full_label}] the delta protocol is a pure representation change — \
                 crashing inside it must not move the recovered state"
            );
            target.assert_indexes_consistent(&full_label, &t);
        }
    }
}

#[test]
fn crash_mid_compaction_leaves_stale_chain_files_recovery_ignores() {
    // A compacting base checkpoint over an existing base+delta chain has one
    // crash surface the plain protocol lacks: the new base's install entry
    // is durable but the crash hits before the old chain's files are
    // unlinked. Recovery must plan from the new single-element chain and
    // ignore the stale `ckpt-1.db`/`delta-3.db` still sitting in the
    // directory — plus all the usual torn-artifact states.
    for kind in ALL_KINDS {
        let seed = seeds()[0] ^ 0xC0BA;
        let tag = format!("compact-crash-{}", kind.label().replace('/', "_"));
        let dir = scratch_store_dir(&tag);
        let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
        let store = CheckpointStore::create(&dir).expect("create checkpoint store");
        let engine = EngineBox::new(kind, store.logger().clone());
        let tables = engine.create_tables();
        engine.populate(&tables);
        engine.run_sequential(&tables, &generate_history(seed, PARAMS));
        engine.checkpoint(&store).expect("base checkpoint");
        engine.run_sequential(&tables, &generate_history(seed ^ 1, PARAMS));
        engine.checkpoint_delta(&store).expect("delta checkpoint");

        // Post-chain window, then the compacting full checkpoint.
        engine.run_sequential(&tables, &generate_history(seed ^ 2, PARAMS));
        store.logger().flush().expect("flush");
        let committed = engine.dump(&tables);
        let before = dir_snapshot(&dir);
        engine.checkpoint(&store).expect("compacting checkpoint");
        let after = dir_snapshot(&dir);
        drop(engine);
        drop(store);

        let ckpt_bytes = file_of(&after, "ckpt-5.db").to_vec();
        let wal_new = file_of(&after, "wal-6.log").to_vec();
        let manifest_a = file_of(&before, "MANIFEST").to_vec();
        let manifest_b = file_of(&after, "MANIFEST").to_vec();
        assert!(
            !after
                .iter()
                .any(|(n, _)| n == "ckpt-1.db" || n == "delta-3.db"),
            "compaction unlinks the old chain"
        );
        assert_eq!(
            &manifest_b[..manifest_a.len()],
            &manifest_a[..],
            "the manifest is append-only"
        );
        let entries = &manifest_b[manifest_a.len()..];
        let frame_len =
            |bytes: &[u8]| 16 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let install_len = frame_len(entries);
        let manifest_installed: Vec<u8> =
            [manifest_a.clone(), entries[..install_len].to_vec()].concat();

        let with = |base: &[(String, Vec<u8>)], extra: Vec<(&str, Vec<u8>)>| {
            let mut files: DirState = base.to_vec();
            for (name, bytes) in extra {
                match files.iter_mut().find(|(n, _)| n == name) {
                    Some(slot) => slot.1 = bytes,
                    None => files.push((name.to_string(), bytes)),
                }
            }
            files
        };

        let mut states: Vec<(String, DirState)> = Vec::new();
        for cut in crash_offsets(seed ^ 0x0001, ckpt_bytes.len()) {
            states.push((
                format!("tmp-cut-{cut}"),
                with(&before, vec![("ckpt.tmp", ckpt_bytes[..cut].to_vec())]),
            ));
        }
        states.push((
            "renamed-unpublished".to_string(),
            with(&before, vec![("ckpt-5.db", ckpt_bytes.clone())]),
        ));
        for cut in crash_offsets(seed ^ 0x0002, install_len) {
            let mut manifest = manifest_a.clone();
            manifest.extend_from_slice(&entries[..cut]);
            states.push((
                format!("install-cut-{cut}"),
                with(
                    &before,
                    vec![("ckpt-5.db", ckpt_bytes.clone()), ("MANIFEST", manifest)],
                ),
            ));
        }
        // The compaction-specific state: install entry durable, stale chain
        // files not yet unlinked.
        states.push((
            "installed-stale-chain".to_string(),
            with(
                &before,
                vec![
                    ("ckpt-5.db", ckpt_bytes.clone()),
                    ("MANIFEST", manifest_installed.clone()),
                ],
            ),
        ));
        for cut in crash_offsets(seed ^ 0x0003, wal_new.len()) {
            states.push((
                format!("rotate-cut-{cut}"),
                with(
                    &before,
                    vec![
                        ("ckpt-5.db", ckpt_bytes.clone()),
                        ("MANIFEST", manifest_installed.clone()),
                        ("wal-6.log", wal_new[..cut].to_vec()),
                    ],
                ),
            ));
        }
        for cut in crash_offsets(seed ^ 0x0004, entries.len() - install_len) {
            let mut manifest = manifest_a.clone();
            manifest.extend_from_slice(&entries[..install_len + cut]);
            states.push((
                format!("publish-cut-{cut}"),
                with(
                    &before,
                    vec![
                        ("ckpt-5.db", ckpt_bytes.clone()),
                        ("MANIFEST", manifest),
                        ("wal-6.log", wal_new.clone()),
                    ],
                ),
            ));
        }
        states.push(("completed".to_string(), after.clone()));

        for (label, files) in &states {
            write_dir_state(&crash_dir, files);
            let full_label = format!("{} compaction-crash {label}", kind.label());
            let plan = CheckpointStore::plan(&crash_dir)
                .unwrap_or_else(|e| panic!("[{full_label}] recovery planning failed: {e}"));
            if label == "installed-stale-chain" {
                assert_eq!(
                    plan.chain.len(),
                    1,
                    "[{full_label}] the published compaction owns the chain"
                );
                assert!(
                    plan.chain[0].path.ends_with("ckpt-5.db"),
                    "[{full_label}] the plan must point at the new base, not the stale files"
                );
            }
            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let t = target.create_tables();
            target
                .recover_from_checkpoint(&plan)
                .unwrap_or_else(|e| panic!("[{full_label}] recovery failed: {e}"));
            assert_eq!(
                target.dump(&t),
                committed,
                "[{full_label}] a mid-compaction crash must not move the recovered state"
            );
            target.assert_indexes_consistent(&full_label, &t);
        }
    }
}

/// Capture a crash image of a live store directory. The MANIFEST is read
/// first: everything it references was durable before the manifest bytes
/// were, so pairing it with files read afterwards is a valid crash state —
/// *unless* a concurrent truncation or compaction deleted a referenced file
/// between the two reads. The caller detects that (the planned file is
/// missing from the capture) and skips the capture.
fn capture_store(dir: &Path) -> Option<DirState> {
    let manifest = std::fs::read(dir.join("MANIFEST")).ok()?;
    let mut files: DirState = vec![("MANIFEST".to_string(), manifest)];
    for entry in std::fs::read_dir(dir).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name().into_string().ok()?;
        if name == "MANIFEST" {
            continue;
        }
        if let Ok(bytes) = std::fs::read(entry.path()) {
            files.push((name, bytes));
        }
    }
    files.sort();
    Some(files)
}

fn auto_with_retry(
    engine: &EngineBox,
    store: &CheckpointStore,
    policy: &CheckpointPolicy,
) -> CheckpointRef {
    let mut attempts = 0;
    loop {
        match engine.checkpoint_auto(store, policy) {
            Ok(installed) => return installed,
            Err(e) if e.is_retryable() && attempts < 100 => {
                attempts += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("auto checkpoint failed: {e}"),
        }
    }
}

#[test]
fn mid_run_store_crash_images_with_delta_chain_recover_consistently() {
    // Write-path fault injection against the full store: workers commit
    // through the group-commit logger while the main thread drives
    // `checkpoint_auto` under a delta policy and captures crash images of
    // the whole directory — mid-flush, mid-protocol, mid-chain. Every
    // coherent capture must plan, and recover to exactly chain-collapse +
    // the captured tail's committed prefix.
    for kind in ALL_KINDS {
        let seed = seeds()[0] ^ 0xD17A;
        let tag = format!("midrun-delta-{}", kind.label().replace('/', "_"));
        let dir = scratch_store_dir(&tag);
        let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
        let store = CheckpointStore::create_with_tick(&dir, Duration::from_micros(BATCH_TICK_US))
            .expect("create checkpoint store");
        let engine = EngineBox::new(kind, store.logger().clone());
        let tables = engine.create_tables();
        engine.populate(&tables);
        let policy = CheckpointPolicy::delta(1, 3);

        let mut captures: Vec<DirState> = Vec::new();
        let mut max_chain = 0usize;
        for phase in 0u64..2 {
            let parts = worker_parts(seed ^ phase);
            std::thread::scope(|scope| {
                let engine_ref = &engine;
                let tables_ref = &tables;
                let handle = scope.spawn(move || engine_ref.run_concurrent(tables_ref, parts));
                while !handle.is_finished() {
                    // Best-effort: under write contention the 1V walk may
                    // time out; the forced checkpoint below guarantees the
                    // chain still advances every phase.
                    let _ = engine.checkpoint_auto(&store, &policy);
                    if let Some(files) = capture_store(&dir) {
                        captures.push(files);
                    }
                    std::thread::sleep(Duration::from_micros(BATCH_TICK_US / 4));
                }
            });
            auto_with_retry(&engine, &store, &policy);
            max_chain = max_chain.max(store.chain_len());
            if let Some(files) = capture_store(&dir) {
                captures.push(files);
            }
        }
        store.logger().flush().expect("final flush");
        let final_state = engine.dump(&tables);
        captures.push(dir_snapshot(&dir));
        assert!(
            max_chain >= 2,
            "[{}] the forced checkpoints must have built a delta chain \
             (longest chain seen: {max_chain})",
            kind.label()
        );
        drop(engine);
        drop(store);

        let mut recovered = 0usize;
        let mut skipped = 0usize;
        let total = captures.len();
        for (i, files) in captures.iter().enumerate() {
            write_dir_state(&crash_dir, files);
            let plan = match CheckpointStore::plan(&crash_dir) {
                Ok(plan) => plan,
                Err(_) => {
                    skipped += 1;
                    continue;
                }
            };
            // A referenced file deleted between the manifest read and the
            // directory listing makes the composite incoherent — skip.
            let have = |p: &std::path::Path| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| files.iter().any(|(f, _)| f == n))
            };
            if !plan.chain.iter().all(|c| have(&c.path)) || !have(&plan.log_path) {
                skipped += 1;
                continue;
            }

            let (mut expected, image_ts) = chain_state(&plan, &tables);
            let wal_name = plan
                .log_path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("wal file name")
                .to_string();
            let wal_bytes = file_of(files, &wal_name);
            let offset = (plan.log_tail_offset() as usize).min(wal_bytes.len());
            let tail = read_log_bytes(&wal_bytes[offset..]).unwrap_or_else(|e| {
                panic!(
                    "[{} capture={i}] a live capture must read as a torn tail, \
                     never corruption: {e}",
                    kind.label()
                )
            });
            apply_tail(&mut expected, &tail.records, image_ts, &tables);

            let target = EngineBox::new(kind, Arc::new(mmdb_storage::log::NullLogger::new()));
            let t = target.create_tables();
            target
                .recover_from_checkpoint(&plan)
                .unwrap_or_else(|e| panic!("[{} capture={i}] recovery failed: {e}", kind.label()));
            let label = format!("{} mid-run store capture {i}", kind.label());
            assert_eq!(
                target.dump(&t),
                expected,
                "[{label}] recovered state diverges from chain + captured tail"
            );
            target.assert_indexes_consistent(&label, &t);
            if i == total - 1 {
                assert_eq!(
                    target.dump(&t),
                    final_state,
                    "[{label}] the quiesced final capture must recover the live state"
                );
            }
            recovered += 1;
        }
        assert!(
            recovered >= 3,
            "[{}] too few coherent captures recovered ({recovered} of {total}, \
             {skipped} skipped)",
            kind.label()
        );
    }
}
