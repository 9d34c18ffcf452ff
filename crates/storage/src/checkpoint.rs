//! Checkpointing and redo-log truncation.
//!
//! Without checkpoints the redo log grows without bound and recovery time is
//! proportional to the whole history. This module bounds both: a *checkpoint*
//! is a consistent snapshot-isolation image of every table serialized to a
//! file, and once it is durably installed the log prefix below the
//! checkpoint's LSN is dead weight — recovery becomes *load checkpoint +
//! replay tail* (paper §3.3: "periodically, the system checkpoints the
//! database so the log can be truncated").
//!
//! ## Directory layout
//!
//! A [`CheckpointStore`] owns one directory:
//!
//! ```text
//! <dir>/MANIFEST       append-only, framed; the recovery root
//! <dir>/wal-<g>.log    the redo log segment of generation <g>
//! <dir>/ckpt-<g>.db    a base image (parent ZERO) installed at generation <g>
//! <dir>/delta-<g>.db   an image with a later parent installed at generation <g>
//! <dir>/ckpt.tmp       a base image being written (never read by recovery)
//! <dir>/delta.tmp      any other image being written (never read by recovery)
//! ```
//!
//! Every file uses the redo log's wire discipline (length prefix with XOR
//! self-check, body, trailing checksum — see [`crate::log`]), so a torn tail
//! is always distinguishable from corruption.
//!
//! ## The manifest
//!
//! The `MANIFEST` is an append-only sequence of framed entries; the **last
//! complete entry wins**. Each entry names the live log segment (and the
//! logical LSN of its byte 0) plus the installed *checkpoint chain* (an
//! element count, then every element's LSN, snapshot read timestamp and
//! file name, base first). An entry is only ever appended *after* every
//! file it references is durable, so the last complete entry always
//! describes files that exist with valid contents; a crash mid-append
//! leaves a torn tail that recovery skips, falling back to the previous
//! entry.
//!
//! ## One image kind: a delta against a parent snapshot
//!
//! Every image records its *parent snapshot* `P` and its own snapshot
//! `read_ts` `R`, and holds the rows whose latest committed version moved
//! into `(P, R]` plus the primary keys deleted in that window —
//! checkpointing pays for what changed, not what exists. A *base* image is
//! simply the image whose parent is [`Timestamp::ZERO`], which the clock
//! guarantees is earlier than any commit: every live row is newer than it,
//! and nothing existed at it to delete, so a base carries no deletes.
//!
//! The chain is a base followed by zero or more images whose parents are
//! each the previous element's `read_ts`. Recovery applies them in chain
//! order (**each image's deletes first, then its writes** — a
//! delete+reinsert in one window therefore resolves to the reinserted row),
//! then the log tail above the *last* chain element. Installing a base
//! resets the chain and deletes the superseded files (compaction); the
//! chain length is bounded by `CheckpointPolicy::max_chain`, which is what
//! [`CheckpointStore::next_parent`] consults to pick the next parent.
//!
//! ## The checkpoint protocol
//!
//! 1. **Write** — [`CheckpointStore::begin_image`] opens `ckpt.tmp` (parent
//!    ZERO) or `delta.tmp` (any other parent);
//!    the caller streams the window's rows through
//!    [`CheckpointWriter::write_row`] and its deletes through
//!    [`CheckpointWriter::write_delete`], and calls
//!    [`CheckpointWriter::finish`], which appends a trailer frame (op
//!    count) and fsyncs. A crash here leaves only a dead tmp file.
//! 2. **Install** — [`CheckpointStore::install_checkpoint`] renames the tmp
//!    file to `ckpt-<g>.db` (a base) or `delta-<g>.db` (any other image),
//!    fsyncs the directory, then appends (and fsyncs) a manifest entry
//!    pointing at it. A crash before the entry is complete recovers from
//!    the previous manifest entry.
//! 3. **Truncate** — [`CheckpointStore::truncate_log`] rotates the
//!    [`GroupCommitLog`] onto `wal-<g>.log` keeping only bytes at LSNs `>=`
//!    the checkpoint LSN; the manifest entry naming the new segment is
//!    appended *inside* the rotation's publish window (under the flush lock,
//!    before any new batch can harden into the new segment), so a crash at
//!    any byte of the truncation recovers from the old segment. Only after
//!    the entry is durable is the old segment deleted.
//!
//! Each step is individually crash-atomic, which is why they are exposed as
//! separate operations: the recovery crash tests drive byte-level crash
//! states between and inside each one.
//!
//! ## Image format
//!
//! An image is a sequence of redo-log frames: a 36-byte header frame
//! (magic, format version, LSN, `read_ts`, parent snapshot), row frames
//! (ordinary `Write` ops at `end_ts = read_ts`, batched to 64 KiB), delete
//! frames (`Delete` ops at the same timestamp), and a trailer frame holding
//! the op count.
//!
//! ## Consistency contract
//!
//! The writer records the pair `(ckpt_lsn, read_ts)` chosen by the caller.
//! The engines capture `ckpt_lsn = appended_lsn()` **before** drawing the
//! snapshot timestamp `read_ts`; since both engines draw a commit's end
//! timestamp before appending its frame, every frame wholly below `ckpt_lsn`
//! commits at `end_ts < read_ts` and is therefore inside the snapshot.
//! Recovery loads the checkpoint rows, then replays the log tail from
//! `ckpt_lsn`, skipping records with `end_ts <= read_ts` (already in the
//! image). Rows are serialized as ordinary redo `Write` ops at
//! `end_ts = read_ts`, so the checkpoint is literally a compacted,
//! reordered prefix of the log.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mmdb_common::durability::CheckpointPolicy;
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{TableId, Timestamp};
use mmdb_common::row::Row;

use crate::group_commit::{sync_parent_dir, GroupCommitLog};
use crate::log::{
    decode_body, encode_frame_into, frame_body_into, read_log_stream, FrameStream, LogOpRef,
    LogRecord, Lsn, RedoLogger, READ_CHUNK,
};

/// Magic bytes opening a checkpoint file's header frame.
const CKPT_MAGIC: &[u8; 8] = b"MMDBCKP1";
/// Magic bytes of the trailer frame that marks a checkpoint complete.
const CKPT_TRAILER: &[u8; 8] = b"MMDBCKPE";
/// Image format version: a 36-byte header carrying the LSN, the snapshot
/// timestamp and the parent snapshot timestamp.
const CKPT_VERSION: u32 = 2;
/// Length of the header frame's body.
const CKPT_HEADER_LEN: usize = 36;
/// The manifest file name inside a checkpoint directory.
const MANIFEST: &str = "MANIFEST";
/// Row frames are flushed once the pending batch reaches this many bytes.
const ROW_BATCH_TARGET: usize = 64 * 1024;
/// Chunk size for streaming checkpoint/manifest reads.
const CKPT_CHUNK: usize = 64 * 1024;

fn io_err(e: std::io::Error) -> MmdbError {
    MmdbError::LogIo(e.to_string())
}

fn invalid(reason: &'static str) -> MmdbError {
    MmdbError::CheckpointInvalid { reason }
}

// ---------------------------------------------------------------------------
// Manifest entries
// ---------------------------------------------------------------------------

/// One manifest entry: the state of the directory at a generation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    /// Monotone generation counter; bumped by install and truncate.
    generation: u64,
    /// File name (within the directory) of the live log segment.
    log_name: String,
    /// Logical LSN of the log segment's byte 0.
    log_base: Lsn,
    /// The installed checkpoint chain: base image first, then every delta
    /// in apply order. Empty before the first checkpoint.
    chain: Vec<CheckpointMeta>,
}

/// One checkpoint chain element in a manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CheckpointMeta {
    /// File name (within the directory) of the checkpoint.
    name: String,
    /// Log LSN the checkpoint covers: every record below it is in the image
    /// (together with the chain elements before it).
    lsn: Lsn,
    /// Snapshot read timestamp of the image.
    read_ts: Timestamp,
}

impl CheckpointMeta {
    fn encode_into(&self, body: &mut Vec<u8>) {
        body.extend_from_slice(&self.lsn.0.to_le_bytes());
        body.extend_from_slice(&self.read_ts.raw().to_le_bytes());
        body.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        body.extend_from_slice(self.name.as_bytes());
    }
}

impl ManifestEntry {
    fn encode_into(&self, body: &mut Vec<u8>) {
        body.extend_from_slice(&self.generation.to_le_bytes());
        body.extend_from_slice(&self.log_base.0.to_le_bytes());
        body.extend_from_slice(&(self.log_name.len() as u32).to_le_bytes());
        body.extend_from_slice(self.log_name.as_bytes());
        body.extend_from_slice(&(self.chain.len() as u32).to_le_bytes());
        for meta in &self.chain {
            meta.encode_into(body);
        }
    }

    /// Decode an entry body. The frame checksum already passed, so any
    /// structural mismatch here means the manifest was written by something
    /// else (or a format bug), not a crash — [`MmdbError::CheckpointInvalid`].
    fn decode(body: &[u8]) -> Result<ManifestEntry> {
        let mut cursor = Cursor { body, pos: 0 };
        let generation = cursor.take_u64()?;
        let log_base = Lsn(cursor.take_u64()?);
        let log_name = cursor.take_name("manifest log name is not UTF-8")?;
        let count = cursor.take_u32()?;
        let chain = (0..count)
            .map(|_| cursor.take_meta())
            .collect::<Result<Vec<_>>>()?;
        if cursor.pos != body.len() {
            return Err(invalid("manifest entry has trailing bytes"));
        }
        Ok(ManifestEntry {
            generation,
            log_name,
            log_base,
            chain,
        })
    }
}

/// Byte cursor over a manifest entry body.
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let slice = self
            .body
            .get(self.pos..self.pos + n)
            .ok_or(invalid("manifest entry body too short"))?;
        self.pos += n;
        Ok(slice)
    }

    fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_name(&mut self, err: &'static str) -> Result<String> {
        let len = self.take_u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| invalid(err))
    }

    fn take_meta(&mut self) -> Result<CheckpointMeta> {
        let lsn = Lsn(self.take_u64()?);
        let read_ts = Timestamp(self.take_u64()?);
        let name = self.take_name("manifest checkpoint name is not UTF-8")?;
        Ok(CheckpointMeta { name, lsn, read_ts })
    }
}

/// Frame an entry and append it durably (write + fsync).
fn append_manifest_entry(file: &mut File, entry: &ManifestEntry) -> Result<()> {
    let mut body = Vec::with_capacity(64);
    entry.encode_into(&mut body);
    let mut frame = Vec::with_capacity(body.len() + 16);
    frame_body_into(&mut frame, &body);
    file.write_all(&frame).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Recovery plan
// ---------------------------------------------------------------------------

/// A reference to an installed checkpoint, resolved to a full path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRef {
    /// Path of the checkpoint file.
    pub path: PathBuf,
    /// Log LSN the checkpoint covers.
    pub lsn: Lsn,
    /// Snapshot read timestamp of the image.
    pub read_ts: Timestamp,
}

/// What recovery should do, decoded from the manifest's last complete entry.
///
/// Produced by [`CheckpointStore::plan`] without touching the log or the
/// checkpoint files, so callers can sequence their own recovery: apply the
/// [`chain`](RecoveryPlan::chain) (base image first, then every delta in
/// order), stream the log tail from [`RecoveryPlan::log_tail_offset`], then
/// reopen the store with [`CheckpointStore::open`] passing the physical
/// prefix the tail read validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Generation of the winning manifest entry.
    pub generation: u64,
    /// The installed checkpoint chain to load first: the base image, then
    /// every delta in apply order. Empty before the first checkpoint.
    pub chain: Vec<CheckpointRef>,
    /// Path of the live log segment.
    pub log_path: PathBuf,
    /// Logical LSN of the log segment's byte 0.
    pub log_base: Lsn,
    /// Valid prefix of the manifest itself (a crash mid-append leaves a torn
    /// tail that [`CheckpointStore::open`] cuts before appending again).
    pub manifest_valid_bytes: u64,
}

impl RecoveryPlan {
    /// The plan for a bare redo log outside any checkpoint directory: an
    /// empty chain, so recovery replays the whole file at `path` from byte
    /// 0. This is how a log-only restart goes through the same bulk load as
    /// a checkpoint restart.
    pub fn for_log(path: impl AsRef<Path>) -> RecoveryPlan {
        RecoveryPlan {
            generation: 0,
            chain: Vec::new(),
            log_path: path.as_ref().to_path_buf(),
            log_base: Lsn::ZERO,
            manifest_valid_bytes: 0,
        }
    }

    /// The last chain element — the checkpoint whose LSN and snapshot
    /// timestamp bound the log tail. `None` before the first checkpoint.
    pub fn last_checkpoint(&self) -> Option<&CheckpointRef> {
        self.chain.last()
    }

    /// Physical file offset in the log segment where tail replay starts:
    /// the last chain element's LSN translated into the segment, or 0
    /// without a checkpoint.
    pub fn log_tail_offset(&self) -> u64 {
        match self.chain.last() {
            Some(ckpt) => ckpt.lsn.0.saturating_sub(self.log_base.0),
            None => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint writer / reader
// ---------------------------------------------------------------------------

/// Streams a checkpoint image into its temporary file (`ckpt.tmp` for a
/// base, `delta.tmp` for any other parent).
///
/// Rows are buffered and emitted as ordinary redo-log `Write` frames (at
/// `end_ts = read_ts`, batched to `ROW_BATCH_TARGET` bytes per frame),
/// framed between a header and a trailer.
/// [`write_delete`](Self::write_delete) tombstones are emitted as `Delete`
/// frames ahead of the trailer. Obtain one from
/// [`CheckpointStore::begin_image`], feed every op through, then
/// [`finish`](Self::finish).
pub struct CheckpointWriter {
    file: File,
    tmp_path: PathBuf,
    lsn: Lsn,
    read_ts: Timestamp,
    /// Snapshot timestamp of the previous chain element
    /// ([`Timestamp::ZERO`] for a base image, which rejects deletes).
    parent_read_ts: Timestamp,
    ops: u64,
    deletes: Vec<(TableId, u64)>,
    batch: Vec<(TableId, Row)>,
    batch_bytes: usize,
    frame: Vec<u8>,
}

/// A finished (written + fsynced) checkpoint still under its temporary
/// name. Pass to [`CheckpointStore::install_checkpoint`] to make it part
/// of the recovery source.
pub struct FinishedCheckpoint {
    tmp_path: PathBuf,
    lsn: Lsn,
    read_ts: Timestamp,
    parent_read_ts: Timestamp,
    /// Number of row (write) ops in the image.
    pub rows: u64,
    /// Number of delete ops in the image (always 0 for a base).
    pub deletes: u64,
    /// Size of the checkpoint file in bytes.
    pub bytes: u64,
}

impl CheckpointWriter {
    fn create(
        tmp_path: PathBuf,
        lsn: Lsn,
        read_ts: Timestamp,
        parent_read_ts: Timestamp,
    ) -> Result<CheckpointWriter> {
        let mut file = File::create(&tmp_path).map_err(io_err)?;
        let mut header = Vec::with_capacity(CKPT_HEADER_LEN);
        header.extend_from_slice(CKPT_MAGIC);
        header.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        header.extend_from_slice(&lsn.0.to_le_bytes());
        header.extend_from_slice(&read_ts.raw().to_le_bytes());
        header.extend_from_slice(&parent_read_ts.raw().to_le_bytes());
        let mut frame = Vec::with_capacity(header.len() + 16);
        frame_body_into(&mut frame, &header);
        file.write_all(&frame).map_err(io_err)?;
        Ok(CheckpointWriter {
            file,
            tmp_path,
            lsn,
            read_ts,
            parent_read_ts,
            ops: 0,
            deletes: Vec::new(),
            batch: Vec::new(),
            batch_bytes: 0,
            frame,
        })
    }

    /// The snapshot read timestamp this image is being taken at.
    pub fn read_ts(&self) -> Timestamp {
        self.read_ts
    }

    /// The log LSN this image covers.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The previous chain element's snapshot timestamp ([`Timestamp::ZERO`]
    /// for a base image).
    pub fn parent_read_ts(&self) -> Timestamp {
        self.parent_read_ts
    }

    /// Add one visible row to the image. Rows may arrive in any order; the
    /// image carries no ordering guarantees beyond "one op per live row".
    pub fn write_row(&mut self, table: TableId, row: &[u8]) -> Result<()> {
        self.batch.push((table, Row::copy_from_slice(row)));
        self.batch_bytes += row.len() + 9;
        self.ops += 1;
        if self.batch_bytes >= ROW_BATCH_TARGET {
            self.flush_batch()?;
        }
        Ok(())
    }

    /// Add one primary key deleted since the parent snapshot (a base image,
    /// whose parent is [`Timestamp::ZERO`], has nothing to delete).
    /// Recovery applies an image's deletes before its writes, so a spurious
    /// tombstone for a key the same image rewrites is harmless.
    pub fn write_delete(&mut self, table: TableId, key: u64) -> Result<()> {
        if self.parent_read_ts == Timestamp::ZERO {
            return Err(invalid("a base checkpoint image cannot carry deletes"));
        }
        self.deletes.push((table, key));
        self.ops += 1;
        Ok(())
    }

    fn flush_batch(&mut self) -> Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        self.frame.clear();
        encode_frame_into(
            &mut self.frame,
            self.read_ts,
            self.batch
                .iter()
                .map(|(table, row)| LogOpRef::Write { table: *table, row }),
        );
        self.file.write_all(&self.frame).map_err(io_err)?;
        self.batch.clear();
        self.batch_bytes = 0;
        Ok(())
    }

    /// Flush the last row batch and the buffered deletes, append the
    /// trailer frame (which is what marks the image complete — a checkpoint
    /// without it is treated as torn and never loaded) and fsync.
    pub fn finish(mut self) -> Result<FinishedCheckpoint> {
        self.flush_batch()?;
        let row_ops = self.ops - self.deletes.len() as u64;
        for chunk in self.deletes.chunks(ROW_BATCH_TARGET / 16) {
            self.frame.clear();
            encode_frame_into(
                &mut self.frame,
                self.read_ts,
                chunk
                    .iter()
                    .map(|&(table, key)| LogOpRef::Delete { table, key }),
            );
            self.file.write_all(&self.frame).map_err(io_err)?;
        }
        let mut trailer = Vec::with_capacity(16);
        trailer.extend_from_slice(CKPT_TRAILER);
        trailer.extend_from_slice(&self.ops.to_le_bytes());
        self.frame.clear();
        frame_body_into(&mut self.frame, &trailer);
        self.file.write_all(&self.frame).map_err(io_err)?;
        self.file.sync_all().map_err(io_err)?;
        let bytes = self.file.stream_position().map_err(io_err)?;
        Ok(FinishedCheckpoint {
            tmp_path: self.tmp_path,
            lsn: self.lsn,
            read_ts: self.read_ts,
            parent_read_ts: self.parent_read_ts,
            rows: row_ops,
            deletes: self.deletes.len() as u64,
            bytes,
        })
    }
}

/// A fully validated checkpoint image, loaded into memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointContents {
    /// Log LSN the image covers.
    pub lsn: Lsn,
    /// Snapshot read timestamp of the image.
    pub read_ts: Timestamp,
    /// The previous chain element's snapshot timestamp;
    /// [`Timestamp::ZERO`] for a base image.
    pub parent_read_ts: Timestamp,
    /// Every row in the image, in file order.
    pub rows: Vec<(TableId, Row)>,
    /// Primary keys deleted since the parent snapshot (always empty for a
    /// base image; apply these **before** the rows).
    pub deletes: Vec<(TableId, u64)>,
}

/// Read and validate a checkpoint image.
///
/// Validation is strict because a checkpoint is only ever read after the
/// manifest durably named it, at which point it must be perfect: header
/// magic/version/length, every row frame's checksum and timestamp, the
/// trailer's op count, and the absence of trailing bytes are all checked.
/// Any shortfall — including a torn tail, which in a log would be
/// tolerated — is [`MmdbError::CheckpointInvalid`]: loading half a
/// checkpoint would silently lose rows. An image whose parent is
/// [`Timestamp::ZERO`] (a base) additionally rejects delete ops — nothing
/// existed at ZERO to delete.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<CheckpointContents> {
    let file = File::open(path.as_ref()).map_err(io_err)?;
    let mut frames = FrameStream::new(file, CKPT_CHUNK, 0);
    let header = match frames.next_body()? {
        Some((_, body)) => body,
        None => return Err(invalid("checkpoint file has no header frame")),
    };
    if header.len() < 12 || &header[..8] != CKPT_MAGIC {
        return Err(invalid("checkpoint header magic mismatch"));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != CKPT_VERSION {
        return Err(invalid("unsupported checkpoint version"));
    }
    if header.len() != CKPT_HEADER_LEN {
        return Err(invalid("checkpoint header length mismatch"));
    }
    let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let lsn = Lsn(field(12));
    let read_ts = Timestamp(field(20));
    let parent_read_ts = Timestamp(field(28));
    let mut rows: Vec<(TableId, Row)> = Vec::new();
    let mut deletes: Vec<(TableId, u64)> = Vec::new();
    let mut trailer_ops: Option<u64> = None;
    while let Some((offset, body)) = frames.next_body()? {
        if trailer_ops.is_some() {
            return Err(invalid("checkpoint has frames after its trailer"));
        }
        if body.len() == 16 && &body[..8] == CKPT_TRAILER {
            trailer_ops = Some(u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")));
            continue;
        }
        let record = decode_body(body, offset)?;
        if record.end_ts != read_ts {
            return Err(invalid("checkpoint row frame at a foreign timestamp"));
        }
        for op in record.ops {
            match op {
                crate::log::LogOp::Write { table, row } => rows.push((table, row)),
                crate::log::LogOp::Delete { table, key } => {
                    if parent_read_ts == Timestamp::ZERO {
                        return Err(invalid("checkpoint contains a delete op"));
                    }
                    deletes.push((table, key));
                }
            }
        }
    }
    let trailer_ops = trailer_ops.ok_or(invalid("checkpoint is missing its trailer frame"))?;
    if frames.torn_bytes() > 0 {
        return Err(invalid("checkpoint has bytes after its trailer frame"));
    }
    if trailer_ops != (rows.len() + deletes.len()) as u64 {
        return Err(invalid("checkpoint trailer op count mismatch"));
    }
    Ok(CheckpointContents {
        lsn,
        read_ts,
        parent_read_ts,
        rows,
        deletes,
    })
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Mutable manifest state: the append handle plus the entry currently in
/// force. Lock ordering: this mutex is taken **before** the logger's flush
/// lock (via [`GroupCommitLog::rotate_to`]'s publish callback); nothing
/// takes them in the other order.
struct ManifestState {
    file: File,
    current: ManifestEntry,
}

/// A checkpoint directory: the group-commit redo log, the manifest, and the
/// checkpoint lifecycle (write → install → truncate).
///
/// One store per database instance; the engines hold it alongside their
/// in-memory state and route their redo stream through
/// [`CheckpointStore::logger`].
pub struct CheckpointStore {
    dir: PathBuf,
    logger: Arc<GroupCommitLog>,
    manifest: Mutex<ManifestState>,
    /// Cumulative checkpoint-image bytes durably installed through this
    /// store handle (base + delta). The delta A/B benchmark and the CI
    /// bytes-written regression guard read this.
    bytes_written: std::sync::atomic::AtomicU64,
}

impl CheckpointStore {
    /// Create a fresh checkpoint directory: generation 0, an empty
    /// `wal-0.log`, no checkpoint. The log flushes via the inline-leader
    /// path only (no background tick).
    pub fn create(dir: impl AsRef<Path>) -> Result<CheckpointStore> {
        Self::create_inner(dir.as_ref(), None)
    }

    /// [`create`](Self::create) with a background group-commit flush tick.
    pub fn create_with_tick(dir: impl AsRef<Path>, tick: Duration) -> Result<CheckpointStore> {
        Self::create_inner(dir.as_ref(), Some(tick))
    }

    fn create_inner(dir: &Path, tick: Option<Duration>) -> Result<CheckpointStore> {
        fs::create_dir_all(dir).map_err(io_err)?;
        let entry = ManifestEntry {
            generation: 0,
            log_name: "wal-0.log".to_string(),
            log_base: Lsn::ZERO,
            chain: Vec::new(),
        };
        let log_path = dir.join(&entry.log_name);
        let logger = match tick {
            Some(tick) => GroupCommitLog::with_tick(&log_path, tick),
            None => GroupCommitLog::create(&log_path),
        }
        .map_err(io_err)?;
        let manifest_path = dir.join(MANIFEST);
        let mut file = File::create(&manifest_path).map_err(io_err)?;
        append_manifest_entry(&mut file, &entry)?;
        sync_parent_dir(&manifest_path);
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            logger: Arc::new(logger),
            manifest: Mutex::new(ManifestState {
                file,
                current: entry,
            }),
            bytes_written: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Decode the manifest's last complete entry into a [`RecoveryPlan`].
    ///
    /// Read-only: touches neither the log nor the checkpoint file, so it is
    /// safe to call on a directory that is about to be recovered (or merely
    /// inspected). A torn manifest tail falls back to the previous entry;
    /// corruption inside the valid region, or a manifest with no complete
    /// entry at all, is an error.
    pub fn plan(dir: impl AsRef<Path>) -> Result<RecoveryPlan> {
        let dir = dir.as_ref();
        let file = File::open(dir.join(MANIFEST)).map_err(io_err)?;
        let mut frames = FrameStream::new(file, CKPT_CHUNK, 0);
        let mut last: Option<ManifestEntry> = None;
        while let Some((_, body)) = frames.next_body()? {
            last = Some(ManifestEntry::decode(body)?);
        }
        let entry = last.ok_or(invalid("manifest has no complete entry"))?;
        Ok(RecoveryPlan {
            generation: entry.generation,
            chain: entry
                .chain
                .iter()
                .map(|meta| CheckpointRef {
                    path: dir.join(&meta.name),
                    lsn: meta.lsn,
                    read_ts: meta.read_ts,
                })
                .collect(),
            log_path: dir.join(&entry.log_name),
            log_base: entry.log_base,
            manifest_valid_bytes: frames.consumed(),
        })
    }

    /// Reopen a directory after recovery.
    ///
    /// `valid_bytes` is the *physical* prefix of the live log segment that
    /// recovery decoded cleanly (the `valid_bytes` of the tail read); the
    /// segment is cut back to it and appends resume at
    /// `log_base + valid_bytes`. The manifest's own torn tail (if a crash
    /// interrupted an entry append) is cut the same way before the file is
    /// reused for appends. A stale `ckpt.tmp` from an interrupted write is
    /// deleted.
    pub fn open(
        dir: impl AsRef<Path>,
        plan: &RecoveryPlan,
        valid_bytes: u64,
    ) -> Result<CheckpointStore> {
        Self::open_inner(dir.as_ref(), plan, valid_bytes, None)
    }

    /// [`open`](Self::open) with a background group-commit flush tick.
    pub fn open_with_tick(
        dir: impl AsRef<Path>,
        plan: &RecoveryPlan,
        valid_bytes: u64,
        tick: Duration,
    ) -> Result<CheckpointStore> {
        Self::open_inner(dir.as_ref(), plan, valid_bytes, Some(tick))
    }

    fn open_inner(
        dir: &Path,
        plan: &RecoveryPlan,
        valid_bytes: u64,
        tick: Option<Duration>,
    ) -> Result<CheckpointStore> {
        let logger = match tick {
            Some(tick) => GroupCommitLog::open_append_with_tick(
                &plan.log_path,
                plan.log_base,
                valid_bytes,
                tick,
            ),
            None => GroupCommitLog::open_append(&plan.log_path, plan.log_base, valid_bytes),
        }
        .map_err(io_err)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(MANIFEST))
            .map_err(io_err)?;
        file.set_len(plan.manifest_valid_bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        let _ = fs::remove_file(dir.join("ckpt.tmp"));
        let _ = fs::remove_file(dir.join("delta.tmp"));
        let log_name = file_name(&plan.log_path)?;
        let chain = plan
            .chain
            .iter()
            .map(|ckpt| {
                Ok(CheckpointMeta {
                    name: file_name(&ckpt.path)?,
                    lsn: ckpt.lsn,
                    read_ts: ckpt.read_ts,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        // Garbage-collect image files the winning manifest entry does not
        // reference — e.g. the stale deltas of a compaction whose new base
        // was published but whose file deletes never ran. The manifest, not
        // the directory listing, is authoritative; unreferenced files are
        // dead weight.
        if let Ok(entries) = fs::read_dir(dir) {
            for dirent in entries.flatten() {
                let name = dirent.file_name();
                let Some(name) = name.to_str() else { continue };
                let is_image = (name.starts_with("ckpt-") || name.starts_with("delta-"))
                    && name.ends_with(".db");
                if is_image && !chain.iter().any(|meta| meta.name == name) {
                    let _ = fs::remove_file(dirent.path());
                }
            }
        }
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            logger: Arc::new(logger),
            manifest: Mutex::new(ManifestState {
                file,
                current: ManifestEntry {
                    generation: plan.generation,
                    log_name,
                    log_base: plan.log_base,
                    chain,
                },
            }),
            bytes_written: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The group-commit redo log; engines route their commit frames here.
    pub fn logger(&self) -> &Arc<GroupCommitLog> {
        &self.logger
    }

    /// Path of the live log segment `logger()` is appending to.
    /// [`logged_since`](Self::logged_since) scans its immutable prefix
    /// (bytes below a captured checkpoint LSN) after flushing the logger.
    pub fn log_path(&self) -> PathBuf {
        let m = self.manifest.lock();
        self.dir.join(&m.current.log_name)
    }

    /// Generation of the manifest entry currently in force.
    pub fn generation(&self) -> u64 {
        self.manifest.lock().current.generation
    }

    /// The last element of the installed checkpoint chain (the one whose
    /// LSN bounds the log tail), if any.
    pub fn last_checkpoint(&self) -> Option<CheckpointRef> {
        let m = self.manifest.lock();
        m.current.chain.last().map(|meta| CheckpointRef {
            path: self.dir.join(&meta.name),
            lsn: meta.lsn,
            read_ts: meta.read_ts,
        })
    }

    /// The installed checkpoint chain currently in force (base first, then
    /// every delta in apply order).
    pub fn chain(&self) -> Vec<CheckpointRef> {
        let m = self.manifest.lock();
        m.current
            .chain
            .iter()
            .map(|meta| CheckpointRef {
                path: self.dir.join(&meta.name),
                lsn: meta.lsn,
                read_ts: meta.read_ts,
            })
            .collect()
    }

    /// Number of files in the installed checkpoint chain (0 before the
    /// first checkpoint, 1 after a base, 1+n with n deltas).
    pub fn chain_len(&self) -> usize {
        self.manifest.lock().current.chain.len()
    }

    /// Cumulative checkpoint-image bytes durably installed through this
    /// store handle (base + delta images; resets with the handle).
    pub fn checkpoint_bytes_written(&self) -> u64 {
        self.bytes_written
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Redo-log bytes appended since the last installed checkpoint's LSN
    /// (since the beginning of time without one).
    pub fn log_bytes_since_checkpoint(&self) -> u64 {
        let since = {
            let m = self.manifest.lock();
            m.current.chain.last().map(|meta| meta.lsn.0).unwrap_or(0)
        };
        self.logger.appended_lsn().0.saturating_sub(since)
    }

    /// Should a checkpoint be taken now, per `policy`?
    pub fn checkpoint_due(&self, policy: &CheckpointPolicy) -> bool {
        policy.due(self.log_bytes_since_checkpoint())
    }

    /// The parent snapshot of the next image `policy` calls for: the chain
    /// tip's `read_ts` while the chain has room under `policy.max_chain`
    /// (so the image extends the chain), otherwise [`Timestamp::ZERO`] (a
    /// base: the first checkpoint, deltas disabled, or a compaction once
    /// the chain is full).
    pub fn next_parent(&self, policy: &CheckpointPolicy) -> Timestamp {
        let m = self.manifest.lock();
        match m.current.chain.last() {
            Some(tip) if m.current.chain.len() < policy.max_chain as usize => tip.read_ts,
            _ => Timestamp::ZERO,
        }
    }

    /// Open a writer for an image covering log LSN `lsn` at snapshot
    /// timestamp `read_ts` against the parent snapshot `parent`: either
    /// [`Timestamp::ZERO`] (a base, written to `ckpt.tmp`) or the installed
    /// chain tip's `read_ts` (written to `delta.tmp`). At most one
    /// checkpoint writer should exist at a time (they share the tmp names);
    /// the engines serialize checkpoints.
    pub fn begin_image(
        &self,
        parent: Timestamp,
        lsn: Lsn,
        read_ts: Timestamp,
    ) -> Result<CheckpointWriter> {
        if read_ts < parent {
            return Err(invalid("image snapshot predates its parent snapshot"));
        }
        let tmp = if parent == Timestamp::ZERO {
            "ckpt.tmp"
        } else if self.last_checkpoint().map(|tip| tip.read_ts) == Some(parent) {
            "delta.tmp"
        } else {
            return Err(invalid("image parent snapshot is not the chain tip"));
        };
        CheckpointWriter::create(self.dir.join(tmp), lsn, read_ts, parent)
    }

    /// [`begin_image`](Self::begin_image) for a base image (parent ZERO).
    pub fn begin_checkpoint(&self, lsn: Lsn, read_ts: Timestamp) -> Result<CheckpointWriter> {
        self.begin_image(Timestamp::ZERO, lsn, read_ts)
    }

    /// Make a finished image part of the recovery source:
    ///
    /// * an image with parent [`Timestamp::ZERO`] (a **base**) is renamed to
    ///   `ckpt-<g>.db` and becomes the whole chain; the previously installed
    ///   chain's files are deleted once the new manifest entry is durable
    ///   (this is how a chain compacts);
    /// * any other image is renamed to `delta-<g>.db` and appended to the
    ///   chain, whose earlier elements remain the recovery prefix. Its
    ///   parent snapshot must match the current chain tip (checkpoints are
    ///   serialized by the engines, so a mismatch is a protocol bug).
    ///
    /// Either way the directory is fsynced after the rename and the manifest
    /// entry is appended (and fsynced) before this returns. The log is
    /// untouched — call [`truncate_log`](Self::truncate_log) next to reclaim
    /// its prefix.
    pub fn install_checkpoint(&self, finished: FinishedCheckpoint) -> Result<CheckpointRef> {
        let mut m = self.manifest.lock();
        let generation = m.current.generation + 1;
        let base = finished.parent_read_ts == Timestamp::ZERO;
        let (name, mut chain) = if base {
            (format!("ckpt-{generation}.db"), Vec::new())
        } else {
            let tip = m.current.chain.last().map(|tip| tip.read_ts);
            if tip != Some(finished.parent_read_ts) {
                return Err(invalid(
                    "image parent snapshot does not match the chain tip",
                ));
            }
            (format!("delta-{generation}.db"), m.current.chain.clone())
        };
        let path = self.dir.join(&name);
        fs::rename(&finished.tmp_path, &path).map_err(io_err)?;
        sync_parent_dir(&path);
        chain.push(CheckpointMeta {
            name,
            lsn: finished.lsn,
            read_ts: finished.read_ts,
        });
        let entry = ManifestEntry {
            generation,
            log_name: m.current.log_name.clone(),
            log_base: m.current.log_base,
            chain,
        };
        append_manifest_entry(&mut m.file, &entry)?;
        let replaced = std::mem::replace(&mut m.current, entry);
        drop(m);
        self.bytes_written
            .fetch_add(finished.bytes, std::sync::atomic::Ordering::Relaxed);
        if base {
            for old in replaced.chain {
                let _ = fs::remove_file(self.dir.join(old.name));
            }
        }
        Ok(CheckpointRef {
            path,
            lsn: finished.lsn,
            read_ts: finished.read_ts,
        })
    }

    /// The committed records an image's window covers: every
    /// record in the live log segment below `lsn` whose end timestamp is
    /// later than `after` (the parent snapshot). Flushes the log first so
    /// the prefix is readable from the file. `lsn` must have been read from
    /// the logger's append counter, so it falls on a frame boundary and the
    /// bounded read never reports torn bytes.
    pub fn logged_since(&self, lsn: Lsn, after: Timestamp) -> Result<Vec<LogRecord>> {
        self.logger.flush()?;
        let len = lsn.0.saturating_sub(self.logger.base_lsn().0);
        if len == 0 {
            return Ok(Vec::new());
        }
        let file = File::open(self.log_path()).map_err(io_err)?;
        let mut records = read_log_stream(file.take(len), READ_CHUNK, 0)?.records;
        records.retain(|record| record.end_ts > after);
        Ok(records)
    }

    /// Truncate the redo log below the chain tip's LSN by rotating onto
    /// `wal-<g>.log` (see [`GroupCommitLog::rotate_to`]). The manifest
    /// entry naming the new segment is the rotation's publish step —
    /// appended under the log's flush lock, before any new batch can harden
    /// into the new segment — so a crash at any byte recovers from the old
    /// segment. The old segment is deleted only after the entry is durable.
    pub fn truncate_log(&self) -> Result<()> {
        let mut m = self.manifest.lock();
        let tip = m
            .current
            .chain
            .last()
            .cloned()
            .ok_or(invalid("no checkpoint installed to truncate below"))?;
        let generation = m.current.generation + 1;
        let log_name = format!("wal-{generation}.log");
        let new_path = self.dir.join(&log_name);
        let old_path = self.dir.join(&m.current.log_name);
        let entry = ManifestEntry {
            generation,
            log_name,
            log_base: tip.lsn,
            chain: m.current.chain.clone(),
        };
        let state = &mut *m;
        self.logger.rotate_to(&new_path, tip.lsn, || {
            append_manifest_entry(&mut state.file, &entry)
        })?;
        m.current = entry;
        drop(m);
        let _ = fs::remove_file(old_path);
        Ok(())
    }
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.manifest.lock();
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("generation", &m.current.generation)
            .field("log", &m.current.log_name)
            .field("log_base", &m.current.log_base)
            .field("chain", &m.current.chain)
            .finish()
    }
}

fn file_name(path: &Path) -> Result<String> {
    path.file_name()
        .and_then(|name| name.to_str())
        .map(str::to_string)
        .ok_or(invalid("manifest path has no valid file name"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{read_log_file_from, LogOp};
    use crate::scratch::TempDir;

    fn scratch_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("checkpoint-{tag}"))
    }

    fn record(ts: u64, rows: usize) -> LogRecord {
        LogRecord {
            end_ts: Timestamp(ts),
            ops: (0..rows)
                .map(|i| LogOp::Write {
                    table: TableId(0),
                    row: Row::copy_from_slice(&[i as u8; 24]),
                })
                .collect(),
        }
    }

    #[test]
    fn fresh_store_plans_generation_zero() {
        let dir = scratch_dir("fresh-plan");
        let store = CheckpointStore::create(&dir).unwrap();
        assert_eq!(store.generation(), 0);
        assert!(store.last_checkpoint().is_none());
        drop(store);
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.generation, 0);
        assert_eq!(plan.chain, Vec::new());
        assert_eq!(plan.last_checkpoint(), None);
        assert_eq!(plan.log_base, Lsn::ZERO);
        assert_eq!(plan.log_tail_offset(), 0);
        assert_eq!(plan.log_path, dir.join("wal-0.log"));
    }

    #[test]
    fn checkpoint_write_read_round_trip_across_batches() {
        let dir = scratch_dir("ckpt-round-trip");
        let store = CheckpointStore::create(&dir).unwrap();
        // Enough row bytes to force several ROW_BATCH_TARGET flushes.
        let mut writer = store.begin_checkpoint(Lsn(123), Timestamp(77)).unwrap();
        let row_len = 1000;
        let total = 3 * ROW_BATCH_TARGET / row_len;
        let mut expected = Vec::new();
        for i in 0..total {
            let mut row = vec![0u8; row_len];
            row[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let table = TableId((i % 3) as u32);
            writer.write_row(table, &row).unwrap();
            expected.push((table, Row::copy_from_slice(&row)));
        }
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, total as u64);
        let contents = read_checkpoint(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(contents.lsn, Lsn(123));
        assert_eq!(contents.read_ts, Timestamp(77));
        assert_eq!(contents.rows, expected);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let dir = scratch_dir("ckpt-empty");
        let store = CheckpointStore::create(&dir).unwrap();
        let writer = store.begin_checkpoint(Lsn(5), Timestamp(9)).unwrap();
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, 0);
        let contents = read_checkpoint(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(contents.rows, Vec::new());
        assert_eq!(contents.read_ts, Timestamp(9));
    }

    #[test]
    fn truncated_checkpoint_never_reads_as_a_smaller_image() {
        let dir = scratch_dir("ckpt-truncated");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut writer = store.begin_checkpoint(Lsn(1), Timestamp(2)).unwrap();
        for i in 0..40u64 {
            writer.write_row(TableId(0), &i.to_le_bytes()).unwrap();
        }
        writer.finish().unwrap();
        let full = fs::read(dir.join("ckpt.tmp")).unwrap();
        let whole = read_checkpoint(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(whole.rows.len(), 40);
        let cut_path = dir.join("ckpt.cut");
        for cut in 0..full.len() {
            fs::write(&cut_path, &full[..cut]).unwrap();
            let err = read_checkpoint(&cut_path).expect_err("prefix must not validate");
            assert!(
                matches!(
                    err,
                    MmdbError::CheckpointInvalid { .. } | MmdbError::LogCorrupt { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn install_and_truncate_advance_the_manifest() {
        let dir = scratch_dir("install-truncate");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        // Ten committed records; checkpoint after the first six.
        for ts in 1..=6u64 {
            logger.append(record(ts, 2));
        }
        logger.flush().unwrap();
        let ckpt_lsn = logger.appended_lsn();
        let read_ts = Timestamp(6);
        let mut writer = store.begin_checkpoint(ckpt_lsn, read_ts).unwrap();
        for i in 0..12u64 {
            writer.write_row(TableId(0), &[i as u8; 24]).unwrap();
        }
        let installed = store.install_checkpoint(writer.finish().unwrap()).unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(installed.path, dir.join("ckpt-1.db"));
        assert!(dir.join("ckpt-1.db").exists());
        assert!(!dir.join("ckpt.tmp").exists());

        for ts in 7..=10u64 {
            logger.append(record(ts, 2));
        }
        store.truncate_log().unwrap();
        assert_eq!(store.generation(), 2);
        assert!(dir.join("wal-2.log").exists());
        assert!(!dir.join("wal-0.log").exists());
        assert_eq!(logger.base_lsn(), ckpt_lsn);

        // One more commit lands in the new segment.
        logger.append(record(11, 1));
        logger.flush().unwrap();
        drop(store);

        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.generation, 2);
        assert_eq!(plan.log_path, dir.join("wal-2.log"));
        assert_eq!(plan.log_base, ckpt_lsn);
        assert_eq!(plan.chain.len(), 1);
        let ckpt = plan
            .last_checkpoint()
            .cloned()
            .expect("checkpoint installed");
        assert_eq!(ckpt.lsn, ckpt_lsn);
        assert_eq!(ckpt.read_ts, read_ts);
        let contents = read_checkpoint(&ckpt.path).unwrap();
        assert_eq!(contents.rows.len(), 12);
        // The tail holds exactly the post-checkpoint records.
        let tail = read_log_file_from(&plan.log_path, plan.log_tail_offset()).unwrap();
        let tail_ts: Vec<u64> = tail.records.iter().map(|r| r.end_ts.raw()).collect();
        assert_eq!(tail_ts, vec![7, 8, 9, 10, 11]);
        assert_eq!(tail.torn_bytes, 0);
    }

    #[test]
    fn torn_manifest_tail_falls_back_to_the_previous_entry() {
        let dir = scratch_dir("manifest-torn");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append(record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        drop(store);
        let manifest_path = dir.join(MANIFEST);
        let full = fs::read(&manifest_path).unwrap();
        let gen0 = CheckpointStore::plan(&dir).map(|p| p.generation).unwrap();
        assert_eq!(gen0, 1);
        // Find the first entry's frame length so cuts land inside entry 2.
        let plan_at = |bytes: &[u8]| -> Result<RecoveryPlan> {
            fs::write(&manifest_path, bytes).unwrap();
            CheckpointStore::plan(&dir)
        };
        let first_len = {
            let body_len = u32::from_le_bytes(full[0..4].try_into().unwrap()) as usize;
            8 + body_len + 8
        };
        for cut in first_len..=full.len() {
            let plan = plan_at(&full[..cut]).unwrap();
            if cut == full.len() {
                assert_eq!(plan.generation, 1);
            } else {
                assert_eq!(plan.generation, 0, "cut at {cut}");
                assert_eq!(plan.manifest_valid_bytes, first_len as u64);
            }
        }
        // Cuts inside the first entry leave no complete entry at all.
        for cut in 0..first_len {
            let err = plan_at(&full[..cut]).expect_err("no complete entry");
            assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        }
    }

    #[test]
    fn open_cuts_the_torn_manifest_tail_and_resumes() {
        let dir = scratch_dir("open-resume");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append(record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        drop(store);
        // Simulate a crash mid-append of a third manifest entry.
        let manifest_path = dir.join(MANIFEST);
        let mut bytes = fs::read(&manifest_path).unwrap();
        let valid = bytes.len() as u64;
        bytes.extend_from_slice(&[0x17; 5]);
        fs::write(&manifest_path, &bytes).unwrap();

        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.manifest_valid_bytes, valid);
        // `valid_bytes` is a physical file offset — exactly what `open`
        // wants for the cut.
        let tail = read_log_file_from(&plan.log_path, plan.log_tail_offset()).unwrap();
        let store = CheckpointStore::open(&dir, &plan, tail.valid_bytes).unwrap();
        assert_eq!(store.generation(), 1);
        // A new install appends cleanly after the cut tail.
        let logger = Arc::clone(store.logger());
        logger.append(record(2, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(2))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        store.truncate_log().unwrap();
        drop(store);
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.generation, 3);
        assert_eq!(plan.last_checkpoint().unwrap().read_ts, Timestamp(2));
    }

    #[test]
    fn delta_round_trips_writes_and_deletes() {
        let dir = scratch_dir("delta-round-trip");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append(record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();

        logger.append(record(2, 1));
        logger.flush().unwrap();
        let mut writer = store
            .begin_image(Timestamp(1), logger.appended_lsn(), Timestamp(5))
            .unwrap();
        assert_eq!(writer.parent_read_ts(), Timestamp(1));
        writer.write_row(TableId(0), &[7u8; 24]).unwrap();
        writer.write_delete(TableId(1), 42).unwrap();
        writer.write_delete(TableId(0), 9).unwrap();
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, 1);
        assert_eq!(finished.deletes, 2);
        let contents = read_checkpoint(dir.join("delta.tmp")).unwrap();
        assert_eq!(contents.read_ts, Timestamp(5));
        assert_eq!(contents.parent_read_ts, Timestamp(1));
        assert_eq!(
            contents.rows,
            vec![(TableId(0), Row::copy_from_slice(&[7u8; 24]))]
        );
        assert_eq!(contents.deletes, vec![(TableId(1), 42), (TableId(0), 9)]);
    }

    #[test]
    fn base_writer_rejects_deletes() {
        let dir = scratch_dir("base-no-deletes");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut writer = store.begin_checkpoint(Lsn(1), Timestamp(1)).unwrap();
        let err = writer.write_delete(TableId(0), 1).expect_err("must reject");
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
    }

    #[test]
    fn delta_requires_an_installed_base() {
        let dir = scratch_dir("delta-needs-base");
        let store = CheckpointStore::create(&dir).unwrap();
        let err = match store.begin_image(Timestamp(1), Lsn(1), Timestamp(1)) {
            Ok(_) => panic!("no base yet"),
            Err(err) => err,
        };
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
    }

    #[test]
    fn installing_deltas_extends_the_chain_and_a_base_resets_it() {
        let dir = scratch_dir("delta-chain");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append(record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        let base_bytes = store.checkpoint_bytes_written();
        assert!(base_bytes > 0);

        // Two deltas extend the chain; the manifest survives reopen.
        for (ts, expect_len) in [(3u64, 2usize), (6, 3)] {
            logger.append(record(ts, 1));
            logger.flush().unwrap();
            let parent = store.last_checkpoint().unwrap().read_ts;
            let mut writer = store
                .begin_image(parent, logger.appended_lsn(), Timestamp(ts))
                .unwrap();
            writer.write_row(TableId(0), &[ts as u8; 16]).unwrap();
            store.install_checkpoint(writer.finish().unwrap()).unwrap();
            assert_eq!(store.chain_len(), expect_len);
        }
        assert!(store.checkpoint_bytes_written() > base_bytes);
        assert!(dir.join("ckpt-1.db").exists());
        assert!(dir.join("delta-2.db").exists());
        assert!(dir.join("delta-3.db").exists());
        store.truncate_log().unwrap();

        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 3);
        assert_eq!(plan.chain[0].path, dir.join("ckpt-1.db"));
        assert_eq!(plan.chain[1].path, dir.join("delta-2.db"));
        assert_eq!(plan.chain[2].path, dir.join("delta-3.db"));
        assert_eq!(plan.last_checkpoint().unwrap().read_ts, Timestamp(6));
        assert_eq!(plan.log_base, plan.last_checkpoint().unwrap().lsn);

        // Policy: with max_chain 3 the full chain means the next
        // checkpoint compacts.
        let policy = CheckpointPolicy::delta(1, 3);
        assert_eq!(store.next_parent(&policy), Timestamp::ZERO);
        let policy = CheckpointPolicy::delta(1, 4);
        assert_eq!(store.next_parent(&policy), Timestamp(6));
        assert_eq!(
            store.next_parent(&CheckpointPolicy::every_log_bytes(1)),
            Timestamp::ZERO
        );

        // Compaction: a fresh base resets the chain and removes the old
        // chain's files.
        logger.append(record(7, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(7))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        assert_eq!(store.chain_len(), 1);
        assert!(!dir.join("ckpt-1.db").exists());
        assert!(!dir.join("delta-2.db").exists());
        assert!(!dir.join("delta-3.db").exists());
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 1);
        assert_eq!(plan.last_checkpoint().unwrap().read_ts, Timestamp(7));
    }

    #[test]
    fn a_delta_against_a_superseded_tip_is_rejected() {
        let dir = scratch_dir("stale-delta");
        let store = CheckpointStore::create(&dir).unwrap();
        let base = store.begin_checkpoint(Lsn(1), Timestamp(1)).unwrap();
        store.install_checkpoint(base.finish().unwrap()).unwrap();
        let stale = store
            .begin_image(Timestamp(1), Lsn(2), Timestamp(2))
            .unwrap();
        let stale = stale.finish().unwrap();
        // A compaction lands first: the delta's parent is no longer the tip.
        let base = store.begin_checkpoint(Lsn(3), Timestamp(3)).unwrap();
        store.install_checkpoint(base.finish().unwrap()).unwrap();
        let err = store
            .install_checkpoint(stale)
            .expect_err("delta whose parent is not the chain tip");
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        assert_eq!(store.chain_len(), 1);
    }

    #[test]
    fn open_sweeps_unreferenced_image_files() {
        let dir = scratch_dir("open-sweep");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append(record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        drop(store);
        // A crash mid-compaction can leave stale images and tmp files.
        fs::write(dir.join("delta-9.db"), b"stale").unwrap();
        fs::write(dir.join("ckpt.tmp"), b"stale").unwrap();
        fs::write(dir.join("delta.tmp"), b"stale").unwrap();
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 1);
        let tail = read_log_file_from(&plan.log_path, plan.log_tail_offset()).unwrap();
        let store = CheckpointStore::open(&dir, &plan, tail.valid_bytes).unwrap();
        assert_eq!(store.chain_len(), 1);
        assert!(!dir.join("delta-9.db").exists());
        assert!(!dir.join("ckpt.tmp").exists());
        assert!(!dir.join("delta.tmp").exists());
        assert!(dir.join("ckpt-1.db").exists());
    }

    /// Hand `check` every single-bit flip of `bytes`, then every strict
    /// prefix of it, naming the damage if `check` panics.
    fn sweep_damage(bytes: &[u8], mut check: impl FnMut(&[u8])) {
        let mut run = |what: String, input: &[u8]| {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(input)));
            assert!(outcome.is_ok(), "{what}: panicked");
        };
        let mut damaged = bytes.to_vec();
        for bit in 0..bytes.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            run(format!("bit {bit} flipped"), &damaged);
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..bytes.len() {
            run(format!("cut at byte {cut}"), &bytes[..cut]);
        }
    }

    #[test]
    fn every_bit_flip_and_cut_yields_an_error_or_the_original() {
        let dir = scratch_dir("damage-sweep");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut base = store.begin_checkpoint(Lsn(8), Timestamp(3)).unwrap();
        base.write_row(TableId(0), &[1u8; 12]).unwrap();
        base.write_row(TableId(1), &[2u8; 12]).unwrap();
        store.install_checkpoint(base.finish().unwrap()).unwrap();
        let mut delta = store
            .begin_image(Timestamp(3), Lsn(16), Timestamp(5))
            .unwrap();
        delta.write_row(TableId(0), &[3u8; 12]).unwrap();
        delta.write_delete(TableId(1), 7).unwrap();
        delta.write_delete(TableId(0), 9).unwrap();
        store.install_checkpoint(delta.finish().unwrap()).unwrap();
        drop(store);

        // Images: an error, or exactly what was written.
        let damaged = dir.join("damaged.db");
        for image in ["ckpt-1.db", "delta-2.db"] {
            let bytes = fs::read(dir.join(image)).unwrap();
            let original = read_checkpoint(dir.join(image)).unwrap();
            sweep_damage(&bytes, |input| {
                fs::write(&damaged, input).unwrap();
                if let Ok(contents) = read_checkpoint(&damaged) {
                    assert_eq!(contents, original, "{image}");
                }
            });
        }

        // The manifest (create, base install, delta install): an error, or
        // the plan of a complete prefix of its entries.
        let manifest_path = dir.join(MANIFEST);
        let manifest = fs::read(&manifest_path).unwrap();
        let mut prefixes = Vec::new();
        let mut end = 0;
        while end < manifest.len() {
            let body_len = u32::from_le_bytes(manifest[end..end + 4].try_into().unwrap());
            end += 8 + body_len as usize + 8;
            fs::write(&manifest_path, &manifest[..end]).unwrap();
            prefixes.push(CheckpointStore::plan(&dir).unwrap());
        }
        assert_eq!(prefixes.len(), 3);
        assert_eq!(prefixes[2].chain.len(), 2);
        sweep_damage(&manifest, |input| {
            fs::write(&manifest_path, input).unwrap();
            if let Ok(plan) = CheckpointStore::plan(&dir) {
                assert!(prefixes.contains(&plan), "not an entry prefix: {plan:?}");
            }
        });
    }

    #[test]
    fn checkpoint_due_tracks_log_growth() {
        let dir = scratch_dir("due");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        assert!(!store.checkpoint_due(&CheckpointPolicy::MANUAL));
        let policy = CheckpointPolicy::every_log_bytes(64);
        assert!(!store.checkpoint_due(&policy));
        while store.log_bytes_since_checkpoint() < 64 {
            logger.append(record(1, 1));
        }
        assert!(store.checkpoint_due(&policy));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        assert!(!store.checkpoint_due(&policy));
    }
}
