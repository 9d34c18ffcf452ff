//! The multiversion engine: public entry point tying the storage substrate
//! and the two concurrency-control schemes together.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use mmdb_common::engine::Engine;
use mmdb_common::error::Result;
use mmdb_common::ids::TableId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{Row, TableSpec};
use mmdb_common::stats::EngineStats;

use mmdb_storage::log::RedoLogger;
use mmdb_storage::store::MvStore;
use mmdb_storage::txn_table::{TxnHandle, TxnState};

use crate::config::{CcPolicy, MvConfig};
use crate::deadlock;
use crate::txn::{MvTransaction, TxnBuffers};

/// Upper bound on pooled transaction handles / buffer sets. Bounds idle
/// memory; under higher concurrency the pools simply miss and `begin` falls
/// back to a fresh allocation.
const TXN_POOL_CAP: usize = 256;

/// Shared engine internals (store + configuration + background machinery).
pub(crate) struct MvInner {
    pub(crate) store: MvStore,
    pub(crate) config: MvConfig,
    /// Commits since the last cooperative garbage-collection step.
    commits_since_gc: AtomicU64,
    /// Tells the background deadlock detector to stop.
    stop: AtomicBool,
    /// Recycled transaction handles: a terminated transaction's handle goes
    /// back here, and `begin` reuses it once its reference count has drained
    /// to one (the epoch-deferred release of its transaction-table slot —
    /// and any lingering `get` clone — keeps recycling safe: a handle still
    /// borrowed by a lock-free lookup can never be reset). Together with
    /// `buffers` this makes a warmed begin→commit cycle allocation-free.
    handles: parking_lot::Mutex<Vec<Arc<TxnHandle>>>,
    /// Recycled per-transaction buffer sets (cleared, capacity retained).
    buffers: parking_lot::Mutex<Vec<TxnBuffers>>,
}

impl MvInner {
    /// Cooperative maintenance performed by the committing thread itself: a
    /// bounded garbage-collection step every `gc_every_n_commits` commits.
    pub(crate) fn after_commit(&self) {
        let every = self.config.gc_every_n_commits;
        if every == 0 {
            return;
        }
        let n = self.commits_since_gc.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(every) {
            self.store.collect_garbage(self.config.gc_batch);
        }
    }

    /// Obtain a handle for a new transaction, recycling a pooled one when it
    /// is exclusively ours (steady state: no allocation).
    fn take_handle(
        &self,
        id: mmdb_common::ids::TxnId,
        begin_ts: mmdb_common::ids::Timestamp,
        mode: ConcurrencyMode,
        isolation: IsolationLevel,
    ) -> Arc<TxnHandle> {
        // NB: pop in its own scope — an `if let` on `lock().pop()` would
        // extend the guard's lifetime across the body, and the fallback path
        // below re-locks the pool (self-deadlock).
        let recycled = self.handles.lock().pop();
        if let Some(mut handle) = recycled {
            if let Some(exclusive) = Arc::get_mut(&mut handle) {
                exclusive.reset_for(id, begin_ts, mode, isolation);
                return handle;
            }
            // Still referenced elsewhere (an epoch-deferred slot release, a
            // deadlock-detector snapshot, ...): park it at the cold end of
            // the pool and allocate fresh.
            let mut pool = self.handles.lock();
            if pool.len() < TXN_POOL_CAP {
                pool.insert(0, handle);
            }
        }
        TxnHandle::new(id, begin_ts, mode, isolation)
    }

    /// Return a terminated transaction's handle to the pool.
    pub(crate) fn return_handle(&self, handle: Arc<TxnHandle>) {
        let mut pool = self.handles.lock();
        if pool.len() < TXN_POOL_CAP {
            pool.push(handle);
        }
    }

    /// Obtain a (cleared, warmed) buffer set for a new transaction.
    fn take_buffers(&self) -> TxnBuffers {
        self.buffers.lock().pop().unwrap_or_default()
    }

    /// Return a cleared buffer set to the pool.
    pub(crate) fn return_buffers(&self, bufs: TxnBuffers) {
        let mut pool = self.buffers.lock();
        if pool.len() < TXN_POOL_CAP {
            pool.push(bufs);
        }
    }
}

/// The multiversion engine ("MV/O", "MV/L" or adaptive "MV/A" depending on
/// the configured [`CcPolicy`], with per-transaction overrides).
///
/// Cloning is cheap (an `Arc` clone) and all clones share the same database.
#[derive(Clone)]
pub struct MvEngine {
    inner: Arc<MvInner>,
    /// Join handle of the deadlock detector (shared; joined on last drop).
    detector: Option<Arc<ServiceHandle>>,
    /// Join handle of the automatic checkpoint tick (shared; joined on last
    /// drop). Only present for engines created via
    /// [`MvEngine::with_checkpoint_store`] under a non-manual
    /// [`CheckpointPolicy`](mmdb_common::durability::CheckpointPolicy).
    checkpointer: Option<Arc<ServiceHandle>>,
}

/// Join-on-last-drop handle for a background service thread (the deadlock
/// detector, the checkpoint tick). All services share `MvInner::stop`, so
/// dropping the last engine clone stops every service before joining.
struct ServiceHandle {
    inner: Weak<MvInner>,
    thread: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.upgrade() {
            inner.stop.store(true, Ordering::Release);
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl MvEngine {
    /// Create an engine with the given configuration and a discarding logger.
    pub fn new(config: MvConfig) -> MvEngine {
        Self::with_logger(config, Arc::new(mmdb_storage::log::NullLogger::new()))
    }

    /// Create an engine whose default transactions run optimistically (MV/O).
    pub fn optimistic(mut config: MvConfig) -> MvEngine {
        config.cc = CcPolicy::Static(ConcurrencyMode::Optimistic);
        Self::new(config)
    }

    /// Create an engine whose default transactions run pessimistically (MV/L).
    pub fn pessimistic(mut config: MvConfig) -> MvEngine {
        config.cc = CcPolicy::Static(ConcurrencyMode::Pessimistic);
        Self::new(config)
    }

    /// Create an engine that picks each default transaction's scheme from
    /// live contention telemetry (MV/A, [`CcPolicy::ADAPTIVE`]).
    pub fn adaptive(mut config: MvConfig) -> MvEngine {
        if config.cc.static_mode().is_some() {
            config.cc = CcPolicy::ADAPTIVE;
        }
        Self::new(config)
    }

    /// Create an engine writing redo records to `logger`.
    pub fn with_logger(config: MvConfig, logger: Arc<dyn RedoLogger>) -> MvEngine {
        let inner = Arc::new(MvInner {
            store: MvStore::new(logger),
            config: config.clone(),
            commits_since_gc: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            handles: parking_lot::Mutex::new(Vec::new()),
            buffers: parking_lot::Mutex::new(Vec::new()),
        });
        if let CcPolicy::Adaptive {
            window,
            enter,
            exit,
        } = config.cc
        {
            inner
                .store
                .stats()
                .contention
                .configure(window, enter, exit);
        }
        let detector = if config.deadlock_detector {
            let weak = Arc::downgrade(&inner);
            let interval = config.deadlock_interval;
            let thread = std::thread::Builder::new()
                .name("mmdb-deadlock-detector".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    let Some(inner) = weak.upgrade() else { break };
                    if inner.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let victims = deadlock::detect_and_resolve(&inner.store);
                    if victims > 0 {
                        EngineStats::add(&inner.store.stats().deadlock_aborts, victims as u64);
                    }
                })
                .expect("spawn deadlock detector");
            Some(Arc::new(ServiceHandle {
                inner: Arc::downgrade(&inner),
                thread: parking_lot::Mutex::new(Some(thread)),
            }))
        } else {
            None
        };
        MvEngine {
            inner,
            detector,
            checkpointer: None,
        }
    }

    /// Create an engine whose redo records go to `store`'s group-commit log
    /// and whose [`CheckpointPolicy`](mmdb_common::durability::CheckpointPolicy)
    /// (from `config.checkpoint`) actually drives checkpoints: a background
    /// tick consults [`CheckpointStore::checkpoint_due`] and runs
    /// [`MvEngine::checkpoint_auto`] — delta images while the chain has
    /// room under `policy.max_chain`, a full base image (compaction)
    /// otherwise — automatically once the configured log growth accrues.
    /// Under
    /// [`CheckpointPolicy::MANUAL`](mmdb_common::durability::CheckpointPolicy::MANUAL)
    /// no tick is spawned and `checkpoint_auto` remains an explicit call.
    ///
    /// [`CheckpointStore::checkpoint_due`]: mmdb_storage::checkpoint::CheckpointStore::checkpoint_due
    pub fn with_checkpoint_store(
        config: MvConfig,
        store: Arc<mmdb_storage::checkpoint::CheckpointStore>,
    ) -> MvEngine {
        let logger: Arc<dyn RedoLogger> = Arc::clone(store.logger()) as _;
        let mut engine = Self::with_logger(config, logger);
        let policy = engine.inner.config.checkpoint;
        if policy == mmdb_common::durability::CheckpointPolicy::MANUAL {
            return engine;
        }
        let weak = Arc::downgrade(&engine.inner);
        // The tick only *checks* a counter (cheap relaxed read through the
        // group-commit log); actual checkpoints are rare, so a short period
        // keeps the log bound tight without measurable overhead.
        let interval = std::time::Duration::from_millis(10);
        let thread = std::thread::Builder::new()
            .name("mmdb-checkpointer".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let Some(inner) = weak.upgrade() else { break };
                if inner.stop.load(Ordering::Acquire) {
                    break;
                }
                if store.checkpoint_due(&policy) {
                    let engine = MvEngine {
                        inner,
                        detector: None,
                        checkpointer: None,
                    };
                    // A failed automatic checkpoint (e.g. disk error) is not
                    // fatal to the engine: the log keeps growing and the
                    // next tick retries.
                    let _ = engine.checkpoint_auto(&store, &policy);
                }
            })
            .expect("spawn checkpointer");
        engine.checkpointer = Some(Arc::new(ServiceHandle {
            inner: Arc::downgrade(&engine.inner),
            thread: parking_lot::Mutex::new(Some(thread)),
        }));
        engine
    }

    /// The engine configuration.
    pub fn config(&self) -> &MvConfig {
        &self.inner.config
    }

    /// Direct access to the underlying store (diagnostics, tests).
    pub fn store(&self) -> &MvStore {
        &self.inner.store
    }

    /// Begin a transaction with an explicit concurrency mode, overriding the
    /// engine default. Optimistic and pessimistic transactions may run
    /// concurrently against the same database (§4.5).
    pub fn begin_with(&self, mode: ConcurrencyMode, isolation: IsolationLevel) -> MvTransaction {
        let store = &self.inner.store;
        // Hold the pending-begin guard across draw + register: without it a
        // thread preempted here is invisible to the GC watermark, and
        // versions its snapshot needs can be reclaimed out from under it
        // (reads then come up empty — caught by the concurrency stress
        // tests).
        let pending = store.txns().pending_begin();
        let id = store.clock().next_txn_id();
        let begin_ts = store.clock().next_timestamp();
        let handle = self.inner.take_handle(id, begin_ts, mode, isolation);
        store.txns().register(Arc::clone(&handle));
        drop(pending);
        MvTransaction::new(Arc::clone(&self.inner), handle, self.inner.take_buffers())
    }

    /// Begin a transaction whose concurrency mode is chosen by the engine's
    /// [`CcPolicy`], refined by a declared transaction shape: read-only
    /// transactions always run optimistically (they cannot lose a write
    /// conflict, and MV/O never makes readers block writers — §3.4), and an
    /// update transaction consults the contention cells of the tables it
    /// declares in addition to the global signal. Under a static policy the
    /// hints are ignored and the fixed mode applies.
    pub fn begin_hinted(
        &self,
        read_only: bool,
        tables: &[TableId],
        isolation: IsolationLevel,
    ) -> MvTransaction {
        let mode = match self.inner.config.cc {
            CcPolicy::Static(mode) => mode,
            CcPolicy::Adaptive { .. } => self
                .inner
                .store
                .stats()
                .contention
                .recommend(read_only, tables),
        };
        self.begin_with(mode, isolation)
    }

    /// Bulk-load committed rows outside of any transaction (initial database
    /// population).
    pub fn populate<I>(&self, table: TableId, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Row>,
    {
        self.inner.store.populate(table, rows)
    }

    /// Run a bounded garbage-collection step now. Returns the number of
    /// versions reclaimed.
    pub fn collect_garbage(&self) -> usize {
        self.inner.store.collect_garbage(self.inner.config.gc_batch)
    }

    /// Number of versions currently reachable in `table`'s primary index
    /// (diagnostic).
    pub fn version_count(&self, table: TableId) -> Result<usize> {
        Ok(self.inner.store.table(table)?.version_count())
    }

    /// Take whichever checkpoint `policy` calls for next into `store`, then
    /// truncate the redo log below it. The image is a delta against the
    /// parent snapshot `P` that [`CheckpointStore::next_parent`] picks: the
    /// chain tip's snapshot while the chain has room under
    /// `policy.max_chain`, otherwise [`Timestamp::ZERO`] — a full base image
    /// (the first checkpoint, deltas disabled, or a compaction once the
    /// chain is full). This is what the automatic tick spawned by
    /// [`MvEngine::with_checkpoint_store`] runs.
    ///
    /// The engine must have been created with `store`'s group-commit log as
    /// its redo logger ([`MvEngine::with_logger`] of
    /// `CheckpointStore::logger`), so the checkpoint LSN and the engine's
    /// commit frames live on the same stream.
    ///
    /// The image is a snapshot-isolation read and **never blocks writers**:
    /// the walk is an ordinary registered transaction, so concurrent commits
    /// proceed (multiversioning gives the reader its own stable view) and
    /// the GC watermark keeps the snapshot's versions alive. Consistency
    /// with the log comes from ordering: the checkpoint LSN is captured
    /// *before* the snapshot timestamp `R` is drawn, and every commit draws
    /// its end timestamp *before* appending its frame, so every frame wholly
    /// below the LSN commits inside the snapshot. Recovery replays the tail
    /// above the LSN, skipping records at or below `R`. Three more
    /// mechanisms make the window `(P, R]` exact:
    ///
    /// * **Precommit quiescing.** After drawing `R` the walk waits for every
    ///   registered transaction whose end timestamp is (or may still land)
    ///   at or below `R` to finish postprocessing. Anything that draws its
    ///   end timestamp afterwards necessarily lands above `R` (the clock is
    ///   monotone) and belongs to the log tail. Quiescing also means every
    ///   version the walk meets has its final begin/end words published, so
    ///   "did it change after `P`?" is a plain timestamp comparison.
    /// * **Dirty watermarks.** Every committing transaction raises each
    ///   written table's watermark to its end timestamp *before* publishing
    ///   `Committed`, so after quiescing a table whose watermark is still
    ///   below `P` provably saw no commit in the window and contributes zero
    ///   bytes.
    /// * **Tombstones from two sources** (only when `P > ZERO`; nothing
    ///   existed at ZERO to delete). A row deleted in the window has no
    ///   visible version to write, so the walk harvests dead versions whose
    ///   end timestamp falls in it — kept reachable by registering a GC pin
    ///   at `P` for the walk's duration — and unions them with the `Delete`
    ///   ops scanned from the log prefix below the captured LSN (which
    ///   covers versions already reclaimed before the pin existed: a commit
    ///   appends its frame before its garbage is enqueued, so any such
    ///   version's frame sits wholly below the LSN). Tombstones for keys the
    ///   image also writes are dropped. A base registers no pin (one at ZERO
    ///   would stall all GC for the whole walk) and keeps no written-key set.
    ///
    /// [`CheckpointStore::next_parent`]: mmdb_storage::checkpoint::CheckpointStore::next_parent
    /// [`Timestamp::ZERO`]: mmdb_common::ids::Timestamp::ZERO
    pub fn checkpoint_auto(
        &self,
        store: &mmdb_storage::checkpoint::CheckpointStore,
        policy: &mmdb_common::durability::CheckpointPolicy,
    ) -> Result<mmdb_storage::checkpoint::CheckpointRef> {
        use mmdb_common::engine::EngineTxn as _;
        use mmdb_common::ids::{IndexId, Timestamp};
        use mmdb_common::word::{BeginWord, EndWord};

        let parent = store.next_parent(policy);
        let delta = parent > Timestamp::ZERO;
        let mvstore = &self.inner.store;

        // GC pin at the parent snapshot: keeps versions that died after `P`
        // linked until the walk has harvested their tombstones. Registered
        // like any transaction (under the pending-begin guard) and removed
        // on every exit path by the drop guard.
        struct GcPin<'a> {
            txns: &'a mmdb_storage::txn_table::TxnTable,
            id: mmdb_common::ids::TxnId,
        }
        impl Drop for GcPin<'_> {
            fn drop(&mut self) {
                self.txns.remove(self.id);
            }
        }
        let _pin = delta.then(|| {
            let txns = mvstore.txns();
            let pending = txns.pending_begin();
            let id = mvstore.clock().next_txn_id();
            txns.register(TxnHandle::new(
                id,
                parent,
                ConcurrencyMode::Optimistic,
                IsolationLevel::SnapshotIsolation,
            ));
            drop(pending);
            GcPin { txns, id }
        });

        // Order matters (see above): log high-water mark first, snapshot
        // timestamp second.
        let ckpt_lsn = store.logger().appended_lsn();
        let txn = self.begin_with(
            ConcurrencyMode::Optimistic,
            IsolationLevel::SnapshotIsolation,
        );
        let read_ts = txn.begin_ts();
        let me = txn.me();
        self.quiesce_precommits(read_ts);
        let mut writer = store.begin_image(parent, ckpt_lsn, read_ts)?;

        let mut written: std::collections::HashSet<(TableId, u64)> =
            std::collections::HashSet::new();
        let mut tombstones: Vec<(TableId, u64)> = Vec::new();
        for idx in 0..mvstore.table_count() {
            let table_id = TableId(idx as u32);
            // One epoch pin per table: long enough to keep lookups cheap,
            // short enough not to stall epoch advancement for the whole
            // walk.
            let guard = crossbeam::epoch::pin();
            let table = mvstore.table_in(table_id, &guard)?;
            // Strictly below `P` means no commit touched the table in the
            // window (the watermark was raised before any such commit
            // published, and quiescing ordered those raises before this
            // read): the whole table contributes nothing.
            if table.dirty_ts() < parent {
                continue;
            }
            for version in table.scan_versions(IndexId(0), &guard)? {
                loop {
                    let vis = crate::visibility::check_visibility(
                        version,
                        read_ts,
                        me,
                        mvstore.txns(),
                        &guard,
                    );
                    if vis.dependency.is_some() {
                        // The owning transaction is mid-commit; its fate is
                        // decided within a few instructions. A checkpoint
                        // has no abort path to cascade, so wait it out
                        // instead of taking a commit dependency.
                        std::thread::yield_now();
                        continue;
                    }
                    if vis.visible {
                        // Committed at or below `P` ⇒ already in the parent
                        // image. An unpublished begin word can only belong
                        // to a post-`R` writer's in-flight version (which is
                        // never visible at `R`), but stay conservative: a
                        // duplicate row costs bytes, not correctness.
                        let include = match version.begin_word() {
                            BeginWord::Timestamp(begin) => begin > parent,
                            _ => true,
                        };
                        if include {
                            writer.write_row(table_id, version.data())?;
                            if delta {
                                written.insert((table_id, version.index_key(0)));
                            }
                        }
                    } else if delta {
                        // A version that died inside the window and was not
                        // superseded by a visible successor marks a delete;
                        // supersessions are deduplicated against `written`
                        // below.
                        if let EndWord::Timestamp(end) = version.end_word() {
                            if end > parent && end <= read_ts {
                                tombstones.push((table_id, version.index_key(0)));
                            }
                        }
                    }
                    break;
                }
            }
        }
        // The walk is read-only; committing just deregisters the snapshot
        // (releasing the GC watermark).
        txn.commit()?;

        if delta {
            // Second tombstone source: `Delete` ops in the log prefix below
            // the captured LSN whose commits postdate `P` (their dead
            // versions may have been reclaimed before the GC pin
            // registered).
            for record in store.logged_since(ckpt_lsn, parent)? {
                for op in record.ops {
                    if let mmdb_storage::log::LogOp::Delete { table, key } = op {
                        tombstones.push((table, key));
                    }
                }
            }
            let mut emitted: std::collections::HashSet<(TableId, u64)> =
                std::collections::HashSet::new();
            for (table, key) in tombstones {
                if !written.contains(&(table, key)) && emitted.insert((table, key)) {
                    writer.write_delete(table, key)?;
                }
            }
        }

        let installed = store.install_checkpoint(writer.finish()?)?;
        store.truncate_log()?;
        Ok(installed)
    }

    /// Wait until every registered transaction that holds — or may still
    /// claim — an end timestamp at or below `read_ts` has finished
    /// postprocessing (reached `Terminated`).
    ///
    /// `read_ts` must already be drawn: a transaction observed without an
    /// end timestamp can only draw one *after* this point, and the monotone
    /// clock puts that draw above `read_ts`. The shard sweep misses only
    /// transactions registering concurrently, whose end timestamps are
    /// likewise above `read_ts`. Waits are short (a precommit's fate
    /// resolves within its validation + log append) and resolve among the
    /// waited-on transactions themselves, never on this thread.
    fn quiesce_precommits(&self, read_ts: mmdb_common::ids::Timestamp) {
        use mmdb_storage::txn_table::EndTs;
        for handle in self.inner.store.txns().snapshot() {
            loop {
                match handle.end_ts_state() {
                    // Any future end timestamp postdates `read_ts`.
                    EndTs::None => break,
                    EndTs::At(end) if end > read_ts => break,
                    // Pending, or committed/aborting inside the window:
                    // wait for postprocessing to publish its words.
                    _ => {
                        if handle.state() == TxnState::Terminated {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Recover this (freshly created, tables re-created) engine from a
    /// [`RecoveryPlan`](mmdb_storage::checkpoint::RecoveryPlan): bulk-load
    /// the checkpoint chain (base image plus deltas, if any), then replay
    /// the log tail above the last chain element's LSN, skipping records
    /// already inside the chain (`end_ts <= read_ts`). A bare redo log is a
    /// plan with an empty chain
    /// ([`RecoveryPlan::for_log`](mmdb_storage::checkpoint::RecoveryPlan::for_log)).
    ///
    /// This is the engine's only restart path. The load is partitioned:
    /// tables are sharded across a worker pool (the machine's parallelism
    /// capped at 8) and every op — chain rows, chain tombstones, tail
    /// writes and deletes — is collapsed into one `populate` per table. The
    /// result is identical for any worker count. `populate` bypasses the
    /// redo logger, so replaying a log the engine is attached to never
    /// re-appends the tail, and it does not re-check uniqueness: the log
    /// and images only ever hold committed, already-checked states.
    ///
    /// The report's `valid_bytes` is the *physical* clean prefix of the
    /// live log segment — exactly what
    /// `CheckpointStore::open` takes to resume appending.
    pub fn recover_from_checkpoint(
        &self,
        plan: &mmdb_storage::checkpoint::RecoveryPlan,
    ) -> Result<mmdb_storage::log::RecoveryReport> {
        use mmdb_common::ids::IndexId;
        use mmdb_storage::recovery::{default_workers, recover_partitioned};

        let mvstore = &self.inner.store;
        let key_of = |table: TableId, row: &Row| mvstore.table(table)?.key_of(IndexId(0), row);
        let apply = |table: TableId, rows: Vec<Row>| self.populate(table, rows).map(|_| ());
        let image = recover_partitioned(plan, default_workers(), &key_of, &apply)?;
        // The recovered timestamps came from the previous process's clock;
        // everything this engine draws from now on (snapshots, commit
        // timestamps, delta-checkpoint windows) must postdate them.
        mvstore.clock().advance_past(image.max_end_ts);
        Ok(mmdb_storage::log::RecoveryReport {
            records_applied: image.tail_records,
            valid_bytes: image.valid_bytes,
            torn_bytes: image.torn_bytes,
        })
    }
}

impl Engine for MvEngine {
    type Txn = MvTransaction;

    fn create_table(&self, spec: TableSpec) -> Result<TableId> {
        self.inner.store.create_table(spec)
    }

    fn begin(&self, isolation: IsolationLevel) -> MvTransaction {
        self.begin_hinted(false, &[], isolation)
    }

    fn begin_hinted(
        &self,
        read_only: bool,
        tables: &[TableId],
        isolation: IsolationLevel,
    ) -> MvTransaction {
        MvEngine::begin_hinted(self, read_only, tables, isolation)
    }

    fn stats(&self) -> &EngineStats {
        self.inner.store.stats()
    }

    fn label(&self) -> &'static str {
        match self.inner.config.cc {
            CcPolicy::Static(ConcurrencyMode::Optimistic) => "MV/O",
            CcPolicy::Static(ConcurrencyMode::Pessimistic) => "MV/L",
            CcPolicy::Adaptive { .. } => "MV/A",
        }
    }

    fn maintenance(&self) {
        self.inner.store.collect_garbage(self.inner.config.gc_batch);
    }
}

impl std::fmt::Debug for MvEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvEngine")
            .field("cc", &self.inner.config.cc)
            .field("store", &self.inner.store)
            .field("detector", &self.detector.is_some())
            .field("checkpointer", &self.checkpointer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod snapshot_stability_stress {
    //! Regression net for three races this suite caught during bootstrap
    //! (all fixed): the begin-draw/registration GC-watermark race, the
    //! non-atomic watermark shard sweep, and the drawn-but-unpublished end
    //! timestamp window at precommit. Each made reads of permanently-present
    //! keys transiently return `None` under heavy concurrent updates.
    //!
    //! Two entry points share one stress round:
    //!
    //! * [`snapshot_stability_short_deadline`] runs in CI on every push. Its
    //!   total budget is env-tunable via `MMDB_GC_STRESS_MS` (default
    //!   600 ms).
    //! * [`reads_of_permanent_keys_never_return_none`] is the original long
    //!   soak (~40 s), still ignored by default; run with
    //!   `cargo test -p mmdb-core --lib snapshot_stability -- --ignored`.
    //!
    //! Each round races updaters and snapshot readers over permanent keys,
    //! plus a delete/re-insert churner and a dedicated `collect_garbage`
    //! hammer over a disjoint key range; after quiescing and draining GC it
    //! asserts the **version-count watermark**: every visible key is down to
    //! exactly one version (no watermark leak keeps superseded, deleted or
    //! poisoned versions reachable).

    use super::*;
    use mmdb_common::engine::{Engine, EngineTxn};
    use mmdb_common::ids::IndexId;
    use mmdb_common::isolation::IsolationLevel;
    use mmdb_common::row::{rowbuf, TableSpec};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const ROWS: u64 = 128;
    /// Churn range for the delete/re-insert worker (disjoint from the
    /// permanent keys so the stability invariant stays checkable).
    const EXTRA: u64 = 32;

    fn stress_round(round: u64, millis: u64) {
        let engine = MvEngine::optimistic(MvConfig::default());
        let table = engine.create_table(TableSpec::keyed_u64("t", 512)).unwrap();
        engine
            .populate(
                table,
                (0..ROWS + EXTRA).map(|id| rowbuf::keyed_row(id, 16, 1)),
            )
            .unwrap();
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for w in 0..2u64 {
                let engine = engine.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut x = w;
                    while stop.load(Ordering::Relaxed) == 0 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let a = (x >> 33) % ROWS;
                        let b = (a + 1) % ROWS;
                        let mut txn = engine.begin(IsolationLevel::Serializable);
                        let r: mmdb_common::error::Result<()> = (|| {
                            let ra = txn.read(table, IndexId(0), a)?;
                            let rb = txn.read(table, IndexId(0), b)?;
                            let (Some(ra), Some(rb)) = (ra, rb) else {
                                panic!("round {round}: writer read None for a permanent key (a={a}, b={b})");
                            };
                            let fa = rowbuf::fill_of(&ra);
                            let fb = rowbuf::fill_of(&rb);
                            if fa > 0 {
                                txn.update(table, IndexId(0), a, rowbuf::keyed_row(a, 16, fa.wrapping_sub(1).max(1)))?;
                                txn.update(table, IndexId(0), b, rowbuf::keyed_row(b, 16, fb.wrapping_add(1).max(1)))?;
                            }
                            Ok(())
                        })();
                        match r {
                            Ok(()) => {
                                let _ = txn.commit();
                            }
                            Err(_) => txn.abort(),
                        }
                    }
                });
            }
            for _ in 0..2u64 {
                let engine = engine.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || loop {
                    let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                    for id in 0..ROWS {
                        assert!(
                            txn.read(table, IndexId(0), id).unwrap().is_some(),
                            "round {round}: snapshot read None for permanent key {id}"
                        );
                    }
                    txn.commit().unwrap();
                    if stop.load(Ordering::Relaxed) != 0 {
                        break;
                    }
                });
            }
            // Delete/re-insert churner racing GC over the extra key range:
            // deleted versions must be reclaimed without ever making a
            // concurrent snapshot read of a *permanent* key fail, and
            // without leaking versions past the watermark.
            {
                let engine = engine.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut x = 0xDEC0_DE00u64 | round;
                    while stop.load(Ordering::Relaxed) == 0 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = ROWS + (x >> 33) % EXTRA;
                        let mut txn = engine.begin(IsolationLevel::Serializable);
                        let r: mmdb_common::error::Result<()> = (|| {
                            if txn.read(table, IndexId(0), k)?.is_some() {
                                txn.delete(table, IndexId(0), k)?;
                            } else {
                                txn.insert(table, rowbuf::keyed_row(k, 16, 2))?;
                            }
                            Ok(())
                        })();
                        match r {
                            Ok(()) => {
                                let _ = txn.commit();
                            }
                            Err(_) => txn.abort(),
                        }
                    }
                });
            }
            // A dedicated collector hammering GC while deletes are in
            // flight (the cooperative after-commit step only runs every
            // `gc_every_n_commits`; this thread makes the race constant).
            {
                let engine = engine.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        engine.collect_garbage();
                        std::thread::yield_now();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(millis));
            stop.store(1, Ordering::Relaxed);
        });

        // Quiesced: drain the GC queue completely, then assert the
        // version-count watermark — exactly one reachable version per
        // visible key, i.e. GC reclaimed every superseded, deleted and
        // poisoned version once no transaction could need it.
        while engine.collect_garbage() > 0 {}
        let mut visible = 0usize;
        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
        for id in 0..ROWS + EXTRA {
            if txn.read(table, IndexId(0), id).unwrap().is_some() {
                visible += 1;
            }
        }
        txn.commit().unwrap();
        assert!(
            visible >= ROWS as usize,
            "round {round}: permanent keys went missing ({visible} < {ROWS})"
        );
        assert_eq!(
            engine.version_count(table).unwrap(),
            visible,
            "round {round}: after a full GC drain each visible key must be down to \
             exactly one reachable version (version-count watermark leak)"
        );
    }

    /// CI-sized variant: total budget in milliseconds comes from
    /// `MMDB_GC_STRESS_MS` (default 600), split into short rounds.
    #[test]
    fn snapshot_stability_short_deadline() {
        let budget_ms: u64 = std::env::var("MMDB_GC_STRESS_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(600);
        let round_ms = 50;
        let rounds = (budget_ms / round_ms).max(1);
        for round in 0..rounds {
            stress_round(round, round_ms);
        }
    }

    #[test]
    #[ignore = "long-running stress loop; run explicitly"]
    fn reads_of_permanent_keys_never_return_none() {
        for round in 0..400u64 {
            stress_round(round, 100);
        }
    }
}
