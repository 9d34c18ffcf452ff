//! The multiversion transaction: shared infrastructure and the normal
//! processing phase (§2.4 step 2, §3.1, §4.3.1).
//!
//! One [`MvTransaction`] type serves both concurrency-control schemes; the
//! [`ConcurrencyMode`] chosen at `begin` decides which extra steps run:
//!
//! * **Optimistic (MV/O, §3)** — reads and scans are recorded in the ReadSet
//!   and ScanSet for validation at commit; no locks are taken.
//! * **Pessimistic (MV/L, §4)** — reads of latest versions take record read
//!   locks, serializable scans take bucket locks, and eager updates/inserts
//!   install wait-for dependencies instead of blocking.
//!
//! Both modes use the same visibility logic, the same write-lock installation
//! (a CAS on the version's End word) and the same commit-dependency machinery
//! for speculative reads, which is what makes them mutually compatible
//! (§4.5).

use std::sync::Arc;

use crossbeam::epoch;

use mmdb_common::durability::Durability;
use mmdb_common::engine::EngineTxn;
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp, TxnId};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{KeyScratch, Row, SearchPred};
use mmdb_common::stats::EngineStats;
use mmdb_common::word::{BeginWord, EndWord, LockWord};

use mmdb_storage::table::{Table, VersionPtr};
use mmdb_storage::txn_table::{DepRegistration, TxnHandle, TxnState};
use mmdb_storage::version::Version;

use crate::engine::MvInner;
use crate::visibility::{check_updatable, check_visibility, Updatability, Visibility};

/// A pointer to a version the transaction read (checked again during
/// optimistic validation).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadEntry {
    pub version: VersionPtr,
}

/// A recorded index scan, sufficient to repeat it during validation
/// (§3.1 "Start scan": index plus search predicate — an equality predicate
/// on a hash or ordered index, or an inclusive range predicate on an
/// ordered index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScanEntry {
    pub table: TableId,
    pub index: IndexId,
    pub pred: SearchPred,
}

/// A recorded write: the old version (update/delete) and/or the new version
/// (insert/update), plus what to put in the redo log.
#[derive(Debug, Clone)]
pub(crate) struct WriteEntry {
    pub table: TableId,
    /// Old version superseded or deleted by this transaction, if any.
    pub old: Option<VersionPtr>,
    /// New version created by this transaction, if any.
    pub new: Option<VersionPtr>,
    /// Primary-index key logged for deletes.
    pub delete_key: Option<Key>,
}

/// A bucket lock held by a serializable pessimistic transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BucketLockRef {
    pub table: TableId,
    pub index: IndexId,
    pub bucket: usize,
}

/// A range lock held by a serializable pessimistic transaction on an
/// ordered index (the predicate-granularity sibling of [`BucketLockRef`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RangeLockRef {
    pub table: TableId,
    pub index: IndexId,
    pub lo: Key,
    pub hi: Key,
}

/// Reusable per-transaction staging buffers (§2.5's "read path nearly free of
/// overhead"): index-scan candidates are staged here before visibility
/// checks take `&mut self`, and the buffer is **cleared, not freed** between
/// operations, so steady-state reads and scans perform no heap allocation.
///
/// Usage protocol: an operation takes the buffer out of the transaction
/// (`mem::take`), works on it as a local, and puts it back when done — so the
/// borrow checker never sees the buffer and the transaction borrowed at once,
/// and nested operations (which never happen on the scan paths) would simply
/// fall back to a fresh buffer instead of corrupting state.
#[derive(Debug, Default)]
pub(crate) struct TxnScratch {
    /// Candidate versions of the current index lookup.
    pub(crate) candidates: Vec<VersionPtr>,
    /// Per-index key extraction buffer for the write path (insert/update
    /// keys, uniqueness checks, bucket locks).
    pub(crate) keys: KeyScratch,
    /// Redo-record encode buffer: commit frames the transaction's write set
    /// in place and hands `RedoLogger::append_frame` a borrow.
    pub(crate) log_buf: Vec<u8>,
}

/// The complete recyclable buffer set of a transaction. `MvEngine` keeps a
/// pool of these: `begin` takes a warmed set, commit/abort clears and
/// returns it, so a steady-state transaction performs **no allocation for
/// its private state** — the paper's "normal processing never allocates
/// beyond the version chain itself" engineering goal, pinned by
/// `crates/core/tests/alloc_free.rs`.
#[derive(Debug, Default)]
pub(crate) struct TxnBuffers {
    pub(crate) read_set: Vec<ReadEntry>,
    pub(crate) scan_set: Vec<ScanEntry>,
    pub(crate) write_set: Vec<WriteEntry>,
    pub(crate) read_locks: Vec<VersionPtr>,
    pub(crate) bucket_locks: Vec<BucketLockRef>,
    pub(crate) range_locks: Vec<RangeLockRef>,
    pub(crate) touched: Vec<TableId>,
    pub(crate) scratch: TxnScratch,
}

impl TxnBuffers {
    /// Clear every buffer without releasing capacity. Entries are plain
    /// copies (pointers, keys, ids) — nothing to drop.
    pub(crate) fn clear(&mut self) {
        self.read_set.clear();
        self.scan_set.clear();
        self.write_set.clear();
        self.read_locks.clear();
        self.bucket_locks.clear();
        self.range_locks.clear();
        self.touched.clear();
        self.scratch.candidates.clear();
        self.scratch.keys.clear();
        self.scratch.log_buf.clear();
    }
}

/// A transaction against the multiversion engine.
///
/// Obtained from [`Engine::begin`](mmdb_common::engine::Engine::begin) or
/// [`MvEngine::begin_with`](crate::engine::MvEngine::begin_with); finished
/// with [`EngineTxn::commit`] or [`EngineTxn::abort`]. Dropping an unfinished
/// transaction aborts it.
pub struct MvTransaction {
    pub(crate) inner: Arc<MvInner>,
    pub(crate) handle: Arc<TxnHandle>,
    pub(crate) read_set: Vec<ReadEntry>,
    pub(crate) scan_set: Vec<ScanEntry>,
    pub(crate) write_set: Vec<WriteEntry>,
    /// Versions read-locked by this (pessimistic) transaction.
    pub(crate) read_locks: Vec<VersionPtr>,
    /// Buckets locked by this (serializable pessimistic) transaction.
    pub(crate) bucket_locks: Vec<BucketLockRef>,
    /// Ordered-index ranges locked by this (serializable pessimistic)
    /// transaction.
    pub(crate) range_locks: Vec<RangeLockRef>,
    /// Distinct tables this transaction has touched, for contention
    /// telemetry at commit/abort. A handful of entries at most, so a linear
    /// `contains` beats any set; capacity is recycled with the buffers.
    pub(crate) touched: Vec<TableId>,
    /// Set when an operation failed in a way that forces an abort
    /// (first-writer-wins conflicts, failed dependencies, ...). `commit`
    /// refuses to proceed once set.
    pub(crate) must_abort: Option<MmdbError>,
    /// True once commit/abort processing has run.
    pub(crate) finished: bool,
    /// Reusable scan staging buffers (cleared, never freed, per operation).
    pub(crate) scratch: TxnScratch,
    /// When `commit()` may return relative to log durability (§5: the
    /// paper's transactions run `Async` and never wait for log I/O).
    pub(crate) durability: Durability,
}

impl MvTransaction {
    pub(crate) fn new(
        inner: Arc<MvInner>,
        handle: Arc<TxnHandle>,
        bufs: TxnBuffers,
    ) -> MvTransaction {
        let durability = inner.config.durability;
        MvTransaction {
            inner,
            handle,
            read_set: bufs.read_set,
            scan_set: bufs.scan_set,
            write_set: bufs.write_set,
            read_locks: bufs.read_locks,
            bucket_locks: bufs.bucket_locks,
            range_locks: bufs.range_locks,
            touched: bufs.touched,
            must_abort: None,
            finished: false,
            scratch: bufs.scratch,
            durability,
        }
    }

    /// Return the transaction's buffers and handle to the engine pools
    /// (called exactly once, at the end of commit or abort processing).
    pub(crate) fn recycle(&mut self) {
        let mut bufs = TxnBuffers {
            read_set: std::mem::take(&mut self.read_set),
            scan_set: std::mem::take(&mut self.scan_set),
            write_set: std::mem::take(&mut self.write_set),
            read_locks: std::mem::take(&mut self.read_locks),
            bucket_locks: std::mem::take(&mut self.bucket_locks),
            range_locks: std::mem::take(&mut self.range_locks),
            touched: std::mem::take(&mut self.touched),
            scratch: std::mem::take(&mut self.scratch),
        };
        bufs.clear();
        self.inner.return_buffers(bufs);
        self.inner.return_handle(Arc::clone(&self.handle));
    }

    /// The transaction's concurrency mode (optimistic or pessimistic).
    pub fn mode(&self) -> ConcurrencyMode {
        self.handle.mode()
    }

    /// The transaction's begin timestamp.
    pub fn begin_ts(&self) -> Timestamp {
        self.handle.begin_ts()
    }

    /// The commit durability this transaction will use (defaults to the
    /// engine configuration's [`MvConfig::durability`](crate::config::MvConfig)).
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Override when `commit()` may return relative to log durability.
    /// [`Durability::Sync`] makes `commit()` block until this transaction's
    /// redo bytes are on durable storage — under a
    /// [`GroupCommitLog`](mmdb_storage::group_commit::GroupCommitLog) many
    /// Sync committers share one flush; under a plain
    /// [`FileLogger`](mmdb_storage::log::FileLogger) each one pays a full
    /// per-transaction flush. If the wait reports the log's sticky I/O
    /// error, the commit is rolled back in memory and the error returned.
    pub fn set_durability(&mut self, durability: Durability) {
        self.durability = durability;
    }

    #[inline]
    pub(crate) fn me(&self) -> TxnId {
        self.handle.id()
    }

    #[inline]
    pub(crate) fn stats(&self) -> &EngineStats {
        self.inner.store.stats()
    }

    /// Remember that an operation touched `table`, so commit/abort can feed
    /// the right contention-monitor cells.
    #[inline]
    pub(crate) fn note_table(&mut self, table: TableId) {
        if !self.touched.contains(&table) {
            self.touched.push(table);
        }
    }

    /// The logical read time (§2.5, §3.4, §4.3.1): read-committed reads at
    /// the last issued timestamp so it always sees the latest committed
    /// version (`GlobalClock::last_issued` says why not `now()`); snapshot
    /// isolation reads as of the begin time; the serializable /
    /// repeatable-read rules differ between the two schemes (the optimistic
    /// scheme reads as of the begin time and validates, the pessimistic
    /// scheme reads the latest version and locks it).
    pub(crate) fn read_time(&self) -> Timestamp {
        let iso = self.handle.isolation();
        match self.handle.mode() {
            ConcurrencyMode::Optimistic => {
                if iso.optimistic_reads_at_begin() {
                    self.handle.begin_ts()
                } else {
                    self.inner.store.clock().last_issued()
                }
            }
            ConcurrencyMode::Pessimistic => {
                if iso == IsolationLevel::SnapshotIsolation {
                    self.handle.begin_ts()
                } else {
                    self.inner.store.clock().last_issued()
                }
            }
        }
    }

    /// Record a fatal (abort-forcing) error and return it.
    pub(crate) fn fail(&mut self, err: MmdbError) -> MmdbError {
        if self.must_abort.is_none() {
            self.must_abort = Some(err.clone());
        }
        err
    }

    fn ensure_open(&self) -> Result<()> {
        if self.finished {
            return Err(MmdbError::TransactionClosed);
        }
        if self.handle.abort_requested() {
            return Err(MmdbError::Aborted);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit dependencies (§2.7)
    // ------------------------------------------------------------------

    /// Take a commit dependency on `target` because we speculatively read
    /// (`speculative_visible == true`) or speculatively ignored (`false`)
    /// `version` at read time `rt`.
    pub(crate) fn take_commit_dependency(
        &mut self,
        target: TxnId,
        version: &Version,
        speculative_visible: bool,
        rt: Timestamp,
    ) -> Result<()> {
        EngineStats::bump(&self.stats().commit_dependencies);
        self.handle.add_incoming_commit_dep();
        match self.inner.store.txns().get(target) {
            Some(t) => match t.add_commit_dependent(self.me()) {
                DepRegistration::Registered => Ok(()),
                DepRegistration::AlreadyCommitted => {
                    self.handle.resolve_incoming_commit_dep(true);
                    Ok(())
                }
                DepRegistration::AlreadyAborted => {
                    self.handle.resolve_incoming_commit_dep(true); // rebalance the counter...
                    self.handle.request_abort(); // ...but the speculation failed
                    Err(self.fail(MmdbError::CommitDependencyFailed))
                }
            },
            None => {
                // The target terminated and finalized the version's fields;
                // decide from what the field says now.
                let ok = if speculative_visible {
                    match version.begin_word().as_timestamp() {
                        Some(ts) => !ts.is_infinity() && ts <= rt,
                        None => false,
                    }
                } else {
                    match version.end_word().as_timestamp() {
                        Some(ts) => ts <= rt,
                        None => false,
                    }
                };
                self.handle.resolve_incoming_commit_dep(true);
                if ok {
                    Ok(())
                } else {
                    self.handle.request_abort();
                    Err(self.fail(MmdbError::CommitDependencyFailed))
                }
            }
        }
    }

    /// Interpret a visibility outcome, taking any required commit dependency.
    /// Returns whether the version is visible.
    pub(crate) fn resolve_visibility(
        &mut self,
        version: &Version,
        vis: Visibility,
        rt: Timestamp,
    ) -> Result<bool> {
        if let Some(dep) = vis.dependency {
            self.take_commit_dependency(dep, version, vis.visible, rt)?;
        }
        Ok(vis.visible)
    }

    // ------------------------------------------------------------------
    // Pessimistic record locks (§4.1.1, §4.2.1)
    // ------------------------------------------------------------------

    /// Acquire a read lock on `version` (which the caller determined to be a
    /// latest version visible to us). Installs a wait-for dependency on the
    /// version's write locker if we are the first reader (§4.2.1).
    ///
    /// If the version has been finalized to a committed end timestamp in the
    /// meantime (another writer committed between our visibility check and
    /// the lock attempt), the read is no longer stable and the transaction
    /// aborts — the pessimistic scheme has no validation step that could
    /// catch the stale read later.
    pub(crate) fn acquire_read_lock(&mut self, version: &Version, ptr: VersionPtr) -> Result<()> {
        let outcome = version.update_end(|word| match word {
            EndWord::Timestamp(ts) if ts.is_infinity() => Some(EndWord::Lock(
                LockWord::EMPTY.with_extra_reader().expect("0 < max"),
            )),
            // Superseded by a committed transaction after our visibility
            // check: signal "stop" and abort below.
            EndWord::Timestamp(_) => None,
            EndWord::Lock(lock) => {
                if lock.no_more_read_locks {
                    None
                } else {
                    lock.with_extra_reader().map(EndWord::Lock)
                }
            }
        });

        match outcome {
            Ok((before, _after)) => {
                if let EndWord::Lock(before_lock) = before {
                    if before_lock.read_lock_count == 0 {
                        if let Some(writer) = before_lock.writer {
                            // First read lock on a write-locked version: the
                            // writer must now wait for us (§4.2.1).
                            if !self.install_wait_for_on(writer) {
                                // The writer no longer accepts dependencies;
                                // undo our read lock and abort (the paper's
                                // starvation rule).
                                self.undo_read_lock(version);
                                return Err(self.fail(MmdbError::ReadLockUnavailable));
                            }
                        }
                    }
                }
                self.read_locks.push(ptr);
                self.handle.record_read_lock(ptr);
                Ok(())
            }
            Err(_observed) => {
                // Either the version was superseded while we were looking
                // (stale read — no lock can make it stable any more) or the
                // read-lock count is saturated / closed. The paper aborts the
                // reader in the latter cases; we abort in both.
                EngineStats::bump(&self.stats().write_conflicts);
                Err(self.fail(MmdbError::ReadLockUnavailable))
            }
        }
    }

    /// Undo a read-lock acquisition whose wait-for installation failed. Sets
    /// `NoMoreReadLocks` so the counter cannot oscillate around zero while
    /// the writer is precommitting.
    fn undo_read_lock(&self, version: &Version) {
        let _ = version.update_end(|word| match word {
            EndWord::Lock(lock) if lock.read_lock_count > 0 => {
                let mut new = lock.with_reader_released();
                new.no_more_read_locks = true;
                Some(EndWord::Lock(new))
            }
            _ => None,
        });
    }

    /// Release one read lock (end of normal processing, §4.3.1). If we are
    /// the last reader of a write-locked version we also release the writer's
    /// wait-for dependency (§4.2.1).
    pub(crate) fn release_read_lock(&self, ptr: VersionPtr) {
        let version = ptr.get();
        let outcome = version.update_end(|word| match word {
            EndWord::Lock(lock) if lock.read_lock_count > 0 => {
                let mut new = lock.with_reader_released();
                if new.read_lock_count == 0 && new.writer.is_some() {
                    // Prevent further read locks: the writer is about to be
                    // released and new read locks could not delay it anyway.
                    new.no_more_read_locks = true;
                }
                Some(EndWord::Lock(new))
            }
            // Already finalized to a timestamp (the writer committed and
            // postprocessed) or the lock vanished: nothing to release.
            _ => None,
        });
        if let Ok((EndWord::Lock(before), EndWord::Lock(after))) = outcome {
            if before.read_lock_count == 1 && after.read_lock_count == 0 {
                if let Some(writer) = before.writer {
                    if let Some(w) = self.inner.store.txns().get(writer) {
                        w.release_wait_for();
                    }
                }
            }
        }
        self.handle.forget_read_lock(ptr);
    }

    /// Install a wait-for dependency *on ourselves* held by `holder`: we may
    /// not precommit until `holder` completes. Registers us in nobody's list
    /// — the dependency is released by whoever owns the triggering resource
    /// (see callers). Returns false if our own counter may no longer grow.
    pub(crate) fn self_wait_on_version(&mut self) -> bool {
        EngineStats::bump(&self.stats().wait_for_dependencies);
        self.handle.try_add_wait_for()
    }

    /// Make `target` wait for us: increments `target`'s WaitForCounter and
    /// remembers it in our WaitingTxnList so our precommit releases it.
    /// Returns false if `target` no longer accepts wait-for dependencies.
    pub(crate) fn impose_wait_for_on(&mut self, target: TxnId) -> bool {
        if self.handle.waiting_txns_contain(target) {
            // Already delayed by us (e.g. it waits on our bucket lock, or a
            // previous scan found the same pending version). One wait-for
            // suffices, and re-registering could be refused spuriously once
            // the target has closed its wait-fors for its own precommit wait.
            return true;
        }
        let Some(t) = self.inner.store.txns().get(target) else {
            // Target already terminated: nothing to delay.
            return true;
        };
        if !t.try_add_wait_for() {
            return false;
        }
        EngineStats::bump(&self.stats().wait_for_dependencies);
        self.handle.add_waiting_txn(target);
        true
    }

    /// Make ourselves wait for `holder` (bucket-lock case, §4.2.2): increment
    /// our WaitForCounter and register in `holder`'s WaitingTxnList so that
    /// `holder`'s precommit releases us.
    pub(crate) fn wait_for_holder(&mut self, holder: TxnId) -> Result<()> {
        if holder == self.me() {
            return Ok(());
        }
        let Some(h) = self.inner.store.txns().get(holder) else {
            return Ok(());
        };
        if !self.handle.try_add_wait_for() {
            return Err(self.fail(MmdbError::WaitForRefused));
        }
        EngineStats::bump(&self.stats().wait_for_dependencies);
        if !h.add_waiting_txn(self.me()) {
            // Holder already completed; no need to wait after all.
            self.handle.release_wait_for();
        }
        Ok(())
    }

    /// Install a wait-for dependency on `writer` on behalf of ourselves as a
    /// first reader (§4.2.1): `writer` may not precommit until we release our
    /// read lock. The release happens through the lock word (last reader
    /// decrements), so the writer is *not* added to our WaitingTxnList.
    fn install_wait_for_on(&mut self, writer: TxnId) -> bool {
        let Some(w) = self.inner.store.txns().get(writer) else {
            // Writer terminated; it has already precommitted, nothing to delay.
            return true;
        };
        EngineStats::bump(&self.stats().wait_for_dependencies);
        w.try_add_wait_for()
    }

    // ------------------------------------------------------------------
    // Write-lock installation and new-version linking
    // ------------------------------------------------------------------

    /// Install our write lock on the version `ptr` points at, which the
    /// updatability check said was updatable with End word `observed`.
    /// Preserves any read-lock bits (both schemes honor read locks, §4.5).
    ///
    /// If we hold read locks on the version ourselves they are *upgraded*:
    /// released immediately, because the write lock now guarantees the read's
    /// stability (first-writer-wins — nobody else can supersede the version).
    /// If other transactions still hold read locks after the upgrade, we take
    /// a wait-for dependency: we cannot precommit until their locks drain,
    /// and the last reader to release decrements our counter (§4.2.1).
    pub(crate) fn install_write_lock(&mut self, ptr: VersionPtr, observed: EndWord) -> Result<()> {
        let version = ptr.get();
        let new_word = match observed {
            EndWord::Timestamp(ts) if ts.is_infinity() => {
                EndWord::Lock(LockWord::write_locked(self.me()))
            }
            EndWord::Lock(lock) => EndWord::Lock(lock.with_writer(self.me())),
            EndWord::Timestamp(_) => {
                return Err(self.fail(MmdbError::WriteWriteConflict {
                    txn: self.me(),
                    holder: None,
                }))
            }
        };
        if !version.cas_end(observed, new_word) {
            EngineStats::bump(&self.stats().write_conflicts);
            return Err(self.fail(MmdbError::WriteWriteConflict {
                txn: self.me(),
                holder: version.write_locker(),
            }));
        }
        if let EndWord::Lock(lock) = observed {
            let own = self.read_locks.iter().filter(|p| **p == ptr).count() as u8;
            let others = lock.read_lock_count.saturating_sub(own);
            if others > 0 {
                // Eager update of a version read-locked by others: we cannot
                // precommit until their locks drain. Register the wait-for
                // *before* touching the lock word, so the decrement fired by
                // the drain-to-zero transition (release_read_lock, which sees
                // our writer bit after the CAS above) always pairs with this
                // registration — registering afterwards can leave the counter
                // permanently at -1 when the last reader drains in between,
                // silently absorbing one future wait-for dependency.
                self.self_wait_on_version();
            }
            if own > 0 {
                // Upgrade: drop our own read locks — the write lock now
                // guarantees the read's stability, and waiting on our own
                // read lock would deadlock us with ourselves.
                self.read_locks.retain(|p| *p != ptr);
                for _ in 0..own {
                    self.handle.forget_read_lock(ptr);
                }
                let removed = version.update_end(|word| match word {
                    EndWord::Lock(l) if l.read_lock_count >= own => {
                        let mut upgraded = l;
                        upgraded.read_lock_count -= own;
                        Some(EndWord::Lock(upgraded))
                    }
                    _ => None,
                });
                if others > 0 {
                    if let Ok((_, after)) = removed {
                        let left = after.as_lock().map(|l| l.read_lock_count).unwrap_or(0);
                        if left == 0 {
                            // Our own removal (not a reader's release) brought
                            // the count to zero, so the drain-to-zero wake-up
                            // never fires: undo the registration ourselves.
                            self.handle.release_wait_for();
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Honor scan locks when adding a new version to the indexes (§4.2.2,
    /// generalized to predicate granularity): for every locked hash bucket
    /// the new version lands in, and for every locked ordered-index range
    /// containing one of its keys, wait for every lock-holding
    /// (serializable) transaction.
    ///
    /// Must be called **after** the version is linked (see
    /// [`Self::add_new_version`]): checking first and linking second leaves a
    /// window in which a scanner can lock the bucket/range and finish its
    /// chain walk without either side noticing the other.
    pub(crate) fn honor_scan_locks(&mut self, table: &Table, keys: &[Key]) -> Result<()> {
        for (slot, key) in keys.iter().enumerate() {
            let index = IndexId(slot as u32);
            if table.is_ordered(index)? {
                let locks = table.range_locks(index)?;
                if locks.is_locked() {
                    for holder in locks.holders_of(*key) {
                        self.wait_for_holder(holder)?;
                    }
                }
            } else {
                let locks = table.bucket_locks(index)?;
                let bucket = table.bucket_of(index, *key)?;
                if locks.is_locked(bucket) {
                    for holder in locks.holders(bucket) {
                        self.wait_for_holder(holder)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Register a serializable scan for later validation (optimistic) or take
    /// the bucket/range lock (pessimistic). Equality probes of a hash index
    /// lock the bucket the key hashes to (§4.1.2); equality probes of an
    /// ordered index lock the degenerate range `[key, key]`; range scans
    /// lock the scanned predicate `[lo, hi]` itself.
    pub(crate) fn register_scan(
        &mut self,
        table: &Table,
        index: IndexId,
        pred: SearchPred,
    ) -> Result<()> {
        if !self.handle.isolation().requires_phantom_protection() {
            return Ok(());
        }
        match self.handle.mode() {
            ConcurrencyMode::Optimistic => {
                let entry = ScanEntry {
                    table: table.id(),
                    index,
                    pred,
                };
                if !self.scan_set.contains(&entry) {
                    self.scan_set.push(entry);
                }
            }
            ConcurrencyMode::Pessimistic => {
                let (lo, hi) = match pred {
                    SearchPred::Eq(key) if !table.is_ordered(index)? => {
                        let bucket = table.bucket_of(index, key)?;
                        if table.bucket_locks(index)?.lock(bucket, self.me()) {
                            self.bucket_locks.push(BucketLockRef {
                                table: table.id(),
                                index,
                                bucket,
                            });
                        }
                        return Ok(());
                    }
                    SearchPred::Eq(key) => (key, key),
                    SearchPred::Range { lo, hi } => (lo, hi),
                };
                if table.range_locks(index)?.lock(lo, hi, self.me()) {
                    self.range_locks.push(RangeLockRef {
                        table: table.id(),
                        index,
                        lo,
                        hi,
                    });
                }
            }
        }
        Ok(())
    }

    /// §4.3.1 phantom rule for a serializable pessimistic lookup that found
    /// `version` invisible at `rt`. A version owned by a still-active
    /// transaction is a potential phantom — whether it is being
    /// *deleted/updated* (transaction ID in the End field) or being
    /// *created* (transaction ID in the Begin field): delay that
    /// transaction's precommit until we are done, so it serializes after us
    /// and our result stays exact at our end timestamp. A creator that
    /// already committed after `rt` cannot be delayed any more: it drew its
    /// end timestamp after our read time and finished before we reached its
    /// version (or while we tried to delay it), so it serializes before us
    /// with a row we did not see — a phantom, and only an abort keeps the
    /// result exact.
    fn order_invisible_version(&mut self, version: &Version, rt: Timestamp) -> Result<()> {
        let end_writer = version.end_word().writer();
        let begin_creator = version.begin_word().as_txn();
        for owner in [end_writer, begin_creator].into_iter().flatten() {
            if owner != self.me() && !self.impose_wait_for_on(owner) {
                return Err(self.fail(MmdbError::WaitForRefused));
            }
        }
        if let BeginWord::Timestamp(begin) = version.begin_word() {
            // An aborted creator leaves an infinite begin: garbage, not a row.
            if begin > rt && !begin.is_infinity() {
                EngineStats::bump(&self.stats().phantom_failures);
                return Err(self.fail(MmdbError::PhantomDetected));
            }
        }
        Ok(())
    }

    /// §4.3 store→load fence, scan side. A serializable pessimistic scan
    /// publishes its bucket/range lock and then reads the index chains; a
    /// writer links its new version and then reads the lock tables. Each
    /// side's store must be globally ordered before its subsequent load —
    /// otherwise both can miss the other (the store-buffer litmus), and the
    /// writer may precommit with an *earlier* end timestamp than a scanner
    /// that never saw its version: a phantom. Pairs with the fence in
    /// [`Self::add_new_version`]; skipped when no lock was published, so the
    /// hot read path below serializable never pays the full barrier.
    #[inline]
    fn scan_lock_fence(&self) {
        if self.handle.mode() == ConcurrencyMode::Pessimistic
            && self.handle.isolation().requires_phantom_protection()
        {
            std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        }
    }

    // ------------------------------------------------------------------
    // Normal-processing operations
    // ------------------------------------------------------------------

    /// Core of every read/scan: find the versions visible at the read time
    /// whose `index` key equals `key` and hand each one's payload to `visit`
    /// by reference. If `single` is set, stop at the first visible version
    /// (unique-index point lookup). Returns the number of rows visited.
    ///
    /// This path performs **no heap allocation in steady state**: candidates
    /// are staged in the transaction's [`TxnScratch`] (capacity reused across
    /// operations), the visibility lookup is a lock-free borrow from the
    /// transaction table, and nothing is materialized for the caller — the
    /// zero-allocation regression test (`crates/core/tests/alloc_free.rs`)
    /// pins this.
    fn scan_visible_with(
        &mut self,
        table_id: TableId,
        index: IndexId,
        key: Key,
        single: bool,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        // Lock-free table resolution: a load of the epoch-published catalog
        // slice, borrowed under our guard (no `RwLock`, no `Arc` clone).
        let table = self.inner.store.table_in(table_id, &guard)?;
        self.register_scan(table, index, SearchPred::Eq(key))?;
        self.scan_lock_fence();
        // The read time is drawn after the scan lock is published: a writer
        // that missed the lock then either drew its end timestamp before
        // `rt` (and is visible) or is still open to a wait-for, except one
        // that finishes its whole commit before the walk reaches its
        // version — `order_invisible_version` aborts on that.
        let rt = self.read_time();
        #[cfg(test)]
        race_hooks::fire(race_hooks::Gap::ReadTimeWalk);

        // Stage candidates in the transaction-owned buffer so no iterator
        // borrow of the table is held while taking dependencies (which needs
        // `&mut self`). Taken out and restored around the walk; an error in
        // between only costs the buffer's capacity.
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        candidates.clear();
        let result = (|| {
            candidates.extend(table.candidate_ptrs(index, key, &guard)?);
            self.visit_candidates(&candidates, rt, single, &guard, visit)
        })();
        // Restore the buffer *empty*: the staged VersionPtrs were only valid
        // under the epoch guard above, and a retained pointer would be a
        // dangling foot-gun for any future reader (capacity is what we keep).
        candidates.clear();
        self.scratch.candidates = candidates;
        result
    }

    /// Visibility walk over staged candidates (see [`Self::scan_visible_with`]).
    fn visit_candidates(
        &mut self,
        candidates: &[VersionPtr],
        rt: Timestamp,
        single: bool,
        guard: &epoch::Guard,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        let iso = self.handle.isolation();
        let mode = self.handle.mode();
        let mut visited = 0usize;
        for &ptr in candidates {
            let version = ptr.get();
            let vis = check_visibility(version, rt, self.me(), self.inner.store.txns(), guard);

            if !vis.visible
                && mode == ConcurrencyMode::Pessimistic
                && iso.requires_phantom_protection()
                && vis.dependency.is_none()
            {
                self.order_invisible_version(version, rt)?;
            }

            let visible = self.resolve_visibility(version, vis, rt)?;
            if !visible {
                continue;
            }

            // Reads at repeatable-read or serializable need read stability.
            if iso.requires_read_stability() {
                match mode {
                    ConcurrencyMode::Optimistic => self.read_set.push(ReadEntry { version: ptr }),
                    ConcurrencyMode::Pessimistic => {
                        // Updates and deletes only ever touch latest versions,
                        // so only latest versions need read locks. A visible
                        // version at the pessimistic read time ("now") is the
                        // latest unless a writer just superseded it, in which
                        // case `acquire_read_lock` aborts us.
                        self.acquire_read_lock(version, ptr)?;
                    }
                }
            }

            visit(version.data());
            visited += 1;
            if single {
                break;
            }
        }
        Ok(visited)
    }

    /// Core of every range scan: find the versions visible at the read time
    /// whose `index` key falls in the inclusive range `[lo, hi]`, in
    /// ascending key order, and hand each one's payload to `visit` by
    /// reference. Requires an ordered index
    /// ([`MmdbError::IndexNotOrdered`] otherwise). Same staging protocol and
    /// the same per-candidate §4.3.1 phantom machinery as
    /// [`Self::scan_visible_with`]; only the registered predicate (a range,
    /// not a key) and the candidate source (skip list, not bucket chain)
    /// differ.
    fn scan_range_visible_with(
        &mut self,
        table_id: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        let table = self.inner.store.table_in(table_id, &guard)?;
        if !table.is_ordered(index)? {
            return Err(MmdbError::IndexNotOrdered(table_id, index));
        }
        self.register_scan(table, index, SearchPred::Range { lo, hi })?;
        self.scan_lock_fence();
        // Drawn after the lock is published, as in `scan_visible_with`.
        let rt = self.read_time();
        #[cfg(test)]
        race_hooks::fire(race_hooks::Gap::ReadTimeWalk);

        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        candidates.clear();
        let result = (|| {
            candidates.extend(table.range_candidate_ptrs(index, lo, hi, &guard)?);
            self.visit_candidates(&candidates, rt, false, &guard, visit)
        })();
        // Restore the buffer *empty*: the staged VersionPtrs were only valid
        // under the epoch guard above, and a retained pointer would be a
        // dangling foot-gun for any future reader (capacity is what we keep).
        candidates.clear();
        self.scratch.candidates = candidates;
        result
    }

    /// Locate the version this transaction should update or delete: the
    /// visible version with the given key. Pessimistic transactions (and
    /// read-committed optimistic ones) see the latest committed version,
    /// which is the one that must be updatable.
    fn find_update_target(
        &mut self,
        table: &Table,
        index: IndexId,
        key: Key,
    ) -> Result<Option<VersionPtr>> {
        self.ensure_open()?;
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        let result = self.find_update_target_staged(table, index, key, &mut candidates);
        // Restore the buffer *empty*: the staged VersionPtrs were only valid
        // under the epoch guard above, and a retained pointer would be a
        // dangling foot-gun for any future reader (capacity is what we keep).
        candidates.clear();
        self.scratch.candidates = candidates;
        result
    }

    fn find_update_target_staged(
        &mut self,
        table: &Table,
        index: IndexId,
        key: Key,
        candidates: &mut Vec<VersionPtr>,
    ) -> Result<Option<VersionPtr>> {
        // Updates never read-lock the target (the write lock supersedes it).
        // A lookup that *finds* its row needs no phantom protection either —
        // the write lock keeps that row stable. Only a *miss* is
        // phantom-sensitive: "key absent" is an observation a serializable
        // transaction relies on, so on a miss we register the lookup
        // (optimistic ScanSet / pessimistic bucket lock) and look again under
        // that protection. Registering unconditionally would make every pair
        // of same-bucket serializable updaters delay each other's precommit
        // for no reason (each waits on the other's bucket lock), turning
        // routine disjoint-key updates into deadlock-victim aborts.
        let mut rt = self.read_time();
        let iso = self.handle.isolation();
        let mode = self.handle.mode();
        let mut registered = false;
        loop {
            // Candidates are re-staged each pass: a version may have been
            // linked between the unprotected miss and the protected retry.
            let guard = epoch::pin();
            candidates.clear();
            candidates.extend(table.candidate_ptrs(index, key, &guard)?);
            for ptr in candidates.iter().copied() {
                let version = ptr.get();
                let vis = check_visibility(version, rt, self.me(), self.inner.store.txns(), &guard);
                if registered
                    && !vis.visible
                    && mode == ConcurrencyMode::Pessimistic
                    && iso.requires_phantom_protection()
                    && vis.dependency.is_none()
                {
                    // Same potential-phantom rule as in `visit_candidates`:
                    // a pending insert of this key, or a pending delete whose
                    // abort would resurrect it, must serialize after our "not
                    // found" observation.
                    self.order_invisible_version(version, rt)?;
                }
                if self.resolve_visibility(version, vis, rt)? {
                    return Ok(Some(ptr));
                }
            }
            if registered || !iso.requires_phantom_protection() {
                return Ok(None);
            }
            self.register_scan(table, index, SearchPred::Eq(key))?;
            self.scan_lock_fence();
            // Read again at a time drawn under the lock (see
            // `scan_visible_with`).
            rt = self.read_time();
            registered = true;
        }
    }

    /// Create, register and link a new version carrying `row`, whose index
    /// keys the caller already extracted (once per write — they are shared
    /// with uniqueness checks and bucket-lock honoring). Steady state this
    /// allocates nothing: the version comes from the table's recycle pool
    /// and the write set grows within retained capacity.
    fn add_new_version(
        &mut self,
        table: &Table,
        row: Row,
        keys: &[Key],
        old: Option<VersionPtr>,
        delete_key: Option<Key>,
    ) -> Result<VersionPtr> {
        let owned = table.make_version_with(self.me(), row, keys)?;
        let guard = epoch::pin();
        let ptr = table.link_version(owned, &guard);
        EngineStats::bump(&self.stats().versions_created);
        // Record the write *before* honoring scan locks: if the wait below
        // fails, abort processing must find the linked version to retire it.
        self.write_set.push(WriteEntry {
            table: table.id(),
            old,
            new: Some(ptr),
            delete_key,
        });
        // Store→load fence, writer side (pairs with `scan_lock_fence`): the
        // link stores above must be globally visible before the lock-table
        // loads below, or a concurrent serializable scanner and this writer
        // can both miss each other (store-buffer litmus).
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        #[cfg(test)]
        race_hooks::fire(race_hooks::Gap::LinkHonor);
        // Respect scan locks only now that the version is reachable. The
        // reverse order (check locks, then link) left a window in which a
        // serializable scanner could lock the bucket/range *and* complete its
        // chain walk entirely between our check and our link: the scanner's
        // §4.3.1 wait-for could not fire (our version was not yet linked),
        // our check saw no lock — so nothing stopped us drawing an earlier
        // end timestamp than the scanner and committing a phantom its repeat
        // of the scan would have seen. With link-first, a scanner either
        // walks the chain before our link (then we see its lock here and
        // wait) or after (then it sees our version and imposes the wait-for
        // itself); either way we precommit after it.
        self.honor_scan_locks(table, keys)?;
        Ok(ptr)
    }

    /// Enforce uniqueness for `insert` on every unique index of the table.
    fn check_unique(&mut self, table: &Table, keys: &[Key]) -> Result<()> {
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        let result = self.check_unique_staged(table, keys, &mut candidates);
        // Restore the buffer *empty*: the staged VersionPtrs were only valid
        // under the epoch guard above, and a retained pointer would be a
        // dangling foot-gun for any future reader (capacity is what we keep).
        candidates.clear();
        self.scratch.candidates = candidates;
        result
    }

    fn check_unique_staged(
        &mut self,
        table: &Table,
        keys: &[Key],
        candidates: &mut Vec<VersionPtr>,
    ) -> Result<()> {
        let rt = self.inner.store.clock().now();
        let guard = epoch::pin();
        for (slot, key) in keys.iter().enumerate() {
            let index = IndexId(slot as u32);
            if !table.is_unique(index)? {
                continue;
            }
            candidates.clear();
            candidates.extend(table.candidate_ptrs(index, *key, &guard)?);
            for ptr in candidates.iter() {
                let version = ptr.get();
                let vis = check_visibility(version, rt, self.me(), self.inner.store.txns(), &guard);
                if self.resolve_visibility(version, vis, rt)? {
                    // A committed (or committing) duplicate: the constraint
                    // violation is real and permanent.
                    return Err(MmdbError::DuplicateKey {
                        table: table.id(),
                        index,
                    });
                }
                if let Some(holder) = self.pending_unique_conflict(version) {
                    // A racing inserter that has not committed yet: the
                    // outcome is unresolved (it may still abort), so report a
                    // retryable conflict rather than a permanent duplicate.
                    EngineStats::bump(&self.stats().write_conflicts);
                    return Err(self.fail(MmdbError::WriteWriteConflict {
                        txn: self.me(),
                        holder: Some(holder),
                    }));
                }
            }
        }
        Ok(())
    }

    /// Does this same-key version — though not visible to us — doom our
    /// insert under uniqueness? Returns the creator when the version is being
    /// inserted by another live transaction: unless that transaction aborts,
    /// its version becomes a committed duplicate, so the first inserter wins
    /// and we must not proceed (a visibility-only check would let two
    /// concurrent inserters of one key both commit, which the differential
    /// tests catch as a non-serializable outcome).
    fn pending_unique_conflict(&self, version: &Version) -> Option<TxnId> {
        let mut rereads = 0;
        loop {
            match version.begin_word() {
                // Our own (the caller filters what it wants before this) or a
                // committed / aborted version: visibility already judged it.
                BeginWord::Timestamp(_) => return None,
                BeginWord::Txn(tb) if tb == self.me() => return None,
                BeginWord::Txn(tb) => match self.inner.store.txns().get(tb) {
                    Some(h) => {
                        return (!matches!(h.state(), TxnState::Aborted | TxnState::Terminated))
                            .then_some(tb)
                    }
                    None => {
                        // Terminated and removed: the Begin field is being
                        // finalized — re-read it.
                        rereads += 1;
                        if rereads > 64 {
                            return None;
                        }
                        std::hint::spin_loop();
                    }
                },
            }
        }
    }

    /// Re-verify uniqueness after our new version is linked. Two inserters
    /// of the same key can both pass `check_unique` before either version is
    /// reachable; once both are linked, at least one of them is guaranteed to
    /// observe the other here (bucket chains are published with
    /// acquire/release ordering) and gives way. When both observe each other,
    /// both abort with a *retryable* conflict — safe, and a retry of either
    /// resolves the race.
    fn verify_unique_after_link(
        &mut self,
        table: &Table,
        keys: &[Key],
        mine: VersionPtr,
    ) -> Result<()> {
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        let result = self.verify_unique_after_link_staged(table, keys, mine, &mut candidates);
        // Restore the buffer *empty*: the staged VersionPtrs were only valid
        // under the epoch guard above, and a retained pointer would be a
        // dangling foot-gun for any future reader (capacity is what we keep).
        candidates.clear();
        self.scratch.candidates = candidates;
        result
    }

    fn verify_unique_after_link_staged(
        &mut self,
        table: &Table,
        keys: &[Key],
        mine: VersionPtr,
        candidates: &mut Vec<VersionPtr>,
    ) -> Result<()> {
        let rt = self.inner.store.clock().now();
        let guard = epoch::pin();
        for (slot, key) in keys.iter().enumerate() {
            let index = IndexId(slot as u32);
            if !table.is_unique(index)? {
                continue;
            }
            candidates.clear();
            candidates.extend(table.candidate_ptrs(index, *key, &guard)?);
            for ptr in candidates.iter().copied() {
                if ptr == mine {
                    continue;
                }
                let version = ptr.get();
                // Versions we superseded or deleted ourselves are expected.
                if version.end_word().writer() == Some(self.me()) {
                    continue;
                }
                let vis = check_visibility(version, rt, self.me(), self.inner.store.txns(), &guard);
                if vis.visible && vis.dependency.is_none() {
                    // A duplicate committed between our check and our link.
                    EngineStats::bump(&self.stats().write_conflicts);
                    return Err(self.fail(MmdbError::DuplicateKey {
                        table: table.id(),
                        index,
                    }));
                }
                if let Some(holder) = self.pending_unique_conflict(version) {
                    // A racing inserter: both of us may land here and both
                    // give way (symmetric, safe — no tie-break can let one
                    // side proceed soundly, because the winner may already
                    // have passed its own re-verification without seeing us).
                    // The conflict is retryable: no version of the key has
                    // committed.
                    EngineStats::bump(&self.stats().write_conflicts);
                    return Err(self.fail(MmdbError::WriteWriteConflict {
                        txn: self.me(),
                        holder: Some(holder),
                    }));
                }
            }
        }
        Ok(())
    }
}

impl EngineTxn for MvTransaction {
    fn id(&self) -> TxnId {
        self.handle.id()
    }

    fn isolation(&self) -> IsolationLevel {
        self.handle.isolation()
    }

    fn set_durability(&mut self, durability: Durability) {
        MvTransaction::set_durability(self, durability);
    }

    fn insert(&mut self, table_id: TableId, row: Row) -> Result<()> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        let table = self.inner.store.table_in(table_id, &guard)?;
        // Extract the index keys once into the reusable scratch; taken out
        // and restored around the operation (same protocol as `candidates`).
        let mut keys = std::mem::take(&mut self.scratch.keys);
        let result = (|| {
            table.keys_into(&row, &mut keys)?;
            self.check_unique(table, keys.keys())?;
            let new_ptr = self.add_new_version(table, row, keys.keys(), None, None)?;
            // Close the check-then-link race between concurrent inserters of
            // the same key: now that our version is reachable, look again.
            self.verify_unique_after_link(table, keys.keys(), new_ptr)
        })();
        keys.clear();
        self.scratch.keys = keys;
        result
    }

    fn read_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<bool> {
        Ok(self.scan_visible_with(table, index, key, true, visit)? > 0)
    }

    fn scan_key_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.scan_visible_with(table, index, key, false, visit)
    }

    fn scan_range_with(
        &mut self,
        table: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.scan_range_visible_with(table, index, lo, hi, visit)
    }

    fn update(
        &mut self,
        table_id: TableId,
        index: IndexId,
        key: Key,
        new_row: Row,
    ) -> Result<bool> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        let table = self.inner.store.table_in(table_id, &guard)?;
        let Some(old_ptr) = self.find_update_target(table, index, key)? else {
            return Ok(false);
        };
        let old = old_ptr.get();
        // §2.6 / §3.1 "Check updatability" then "Update version".
        match check_updatable(old, self.me(), self.inner.store.txns(), &guard) {
            Updatability::Updatable { observed } => {
                self.install_write_lock(old_ptr, observed)?;
            }
            Updatability::Conflict { holder } => {
                EngineStats::bump(&self.stats().write_conflicts);
                return Err(self.fail(MmdbError::WriteWriteConflict {
                    txn: self.me(),
                    holder,
                }));
            }
        }
        let mut keys = std::mem::take(&mut self.scratch.keys);
        let result = (|| {
            table.keys_into(&new_row, &mut keys)?;
            self.add_new_version(table, new_row, keys.keys(), Some(old_ptr), None)
        })();
        keys.clear();
        self.scratch.keys = keys;
        result?;
        Ok(true)
    }

    fn delete(&mut self, table_id: TableId, index: IndexId, key: Key) -> Result<bool> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        let table = self.inner.store.table_in(table_id, &guard)?;
        let Some(old_ptr) = self.find_update_target(table, index, key)? else {
            return Ok(false);
        };
        let old = old_ptr.get();
        match check_updatable(old, self.me(), self.inner.store.txns(), &guard) {
            Updatability::Updatable { observed } => {
                self.install_write_lock(old_ptr, observed)?;
            }
            Updatability::Conflict { holder } => {
                EngineStats::bump(&self.stats().write_conflicts);
                return Err(self.fail(MmdbError::WriteWriteConflict {
                    txn: self.me(),
                    holder,
                }));
            }
        }
        let delete_key = table.key_of(IndexId(0), old.data())?;
        self.write_set.push(WriteEntry {
            table: table.id(),
            old: Some(old_ptr),
            new: None,
            delete_key: Some(delete_key),
        });
        Ok(true)
    }

    fn commit(mut self) -> Result<Timestamp> {
        self.do_commit()
    }

    fn abort(mut self) {
        self.do_user_abort();
    }
}

impl Drop for MvTransaction {
    fn drop(&mut self) {
        if !self.finished {
            self.do_user_abort();
        }
    }
}

impl std::fmt::Debug for MvTransaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvTransaction")
            .field("id", &self.handle.id())
            .field("mode", &self.handle.mode())
            .field("isolation", &self.handle.isolation())
            .field("begin_ts", &self.handle.begin_ts())
            .field("reads", &self.read_set.len())
            .field("writes", &self.write_set.len())
            .finish()
    }
}

/// Deterministic-interleaving hooks for the phantom-race regression tests.
///
/// The windows these tests pin are a handful of instructions wide; on this
/// project's single-core CI runner no stochastic schedule ever lands a
/// preemption inside one (measured: thousands of seeded runs without one
/// hit). The regression tests instead *construct* the interleaving: a
/// thread installs a thread-local callback that fires at a named [`Gap`]
/// and runs the other side of the race there — parking on a rendezvous
/// channel while a complete serializable scan runs, or committing another
/// transaction outright. Thread-local on purpose — tests in the same
/// process that never install a hook are unaffected.
#[cfg(test)]
pub(crate) mod race_hooks {
    use std::cell::RefCell;

    /// Where a hook fires.
    #[derive(Clone, Copy)]
    pub(crate) enum Gap {
        /// In `add_new_version`, between `link_version` and
        /// `honor_scan_locks`.
        LinkHonor,
        /// In a scan, between drawing the read time and walking the
        /// candidates.
        ReadTimeWalk,
    }

    type Hook = Option<Box<dyn FnMut()>>;

    thread_local! {
        static HOOKS: RefCell<[Hook; 2]> = const { RefCell::new([None, None]) };
    }

    /// Install `hook` on the current thread; it fires every time this
    /// thread passes `gap` until cleared.
    pub(crate) fn set(gap: Gap, hook: Box<dyn FnMut()>) {
        HOOKS.with(|h| h.borrow_mut()[gap as usize] = Some(hook));
    }

    /// Remove the current thread's hook at `gap`.
    pub(crate) fn clear(gap: Gap) {
        HOOKS.with(|h| h.borrow_mut()[gap as usize] = None);
    }

    pub(crate) fn fire(gap: Gap) {
        // Taken out while it runs, so the hook may drive the engine itself.
        let Some(mut hook) = HOOKS.with(|h| h.borrow_mut()[gap as usize].take()) else {
            return;
        };
        hook();
        HOOKS.with(|h| {
            h.borrow_mut()[gap as usize].get_or_insert(hook);
        });
    }
}
