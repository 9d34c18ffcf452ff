//! The multiversion store: tables + clock + transaction table + garbage
//! queue + redo log, bundled behind one handle shared by every transaction.
//!
//! The store is purely structural: it knows nothing about optimistic or
//! pessimistic concurrency control. The `mmdb-core` crate layers the paper's
//! two CC schemes on top of it.

use std::sync::Arc;

use crossbeam::epoch::{self, Guard};

use mmdb_common::clock::GlobalClock;
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{TableId, Timestamp};
use mmdb_common::row::{Row, TableSpec};
use mmdb_common::stats::EngineStats;

use crate::catalog::Catalog;
use crate::gc::{GcItem, GcQueue};
use crate::log::{NullLogger, RedoLogger};
use crate::table::Table;
use crate::txn_table::TxnTable;

/// Shared multiversion storage state.
pub struct MvStore {
    clock: GlobalClock,
    /// Epoch-published append-only table registry: per-operation lookups
    /// ([`MvStore::table_in`]) are a lock-free load of the published slice —
    /// no `RwLock`, no `Arc` clone (tables are never removed, §2.1).
    tables: Catalog<Table>,
    txns: TxnTable,
    gc: GcQueue,
    logger: Arc<dyn RedoLogger>,
    stats: EngineStats,
}

impl Default for MvStore {
    fn default() -> Self {
        Self::new(Arc::new(NullLogger::new()))
    }
}

impl MvStore {
    /// Create a store writing redo records to `logger`.
    pub fn new(logger: Arc<dyn RedoLogger>) -> MvStore {
        MvStore {
            clock: GlobalClock::new(),
            tables: Catalog::new(),
            txns: TxnTable::new(),
            gc: GcQueue::new(),
            logger,
            stats: EngineStats::new(),
        }
    }

    /// The global clock.
    #[inline]
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// The transaction table.
    #[inline]
    pub fn txns(&self) -> &TxnTable {
        &self.txns
    }

    /// Engine statistics counters.
    #[inline]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The redo logger.
    #[inline]
    pub fn logger(&self) -> &Arc<dyn RedoLogger> {
        &self.logger
    }

    /// The garbage queue.
    #[inline]
    pub fn gc_queue(&self) -> &GcQueue {
        &self.gc
    }

    /// Create a table. Publication is a single atomic swap of the catalog
    /// slice; concurrent lookups never block on it.
    pub fn create_table(&self, spec: TableSpec) -> Result<TableId> {
        let idx = self
            .tables
            .push_with(|idx| Table::new(TableId(idx as u32), spec))?;
        Ok(TableId(idx as u32))
    }

    /// Look up a table without taking any lock or touching its reference
    /// count: a lock-free load of the epoch-published catalog slice. This is
    /// the per-operation entry point — every read, scan, insert, update and
    /// delete resolves its table here.
    #[inline]
    pub fn table_in<'g>(&self, id: TableId, guard: &'g Guard) -> Result<&'g Table> {
        self.tables
            .get_in(id.0 as usize, guard)
            .ok_or(MmdbError::TableNotFound(id))
    }

    /// Look up a table, returning an owned handle (an `Arc` clone; still
    /// lock-free). Cold-path variant for callers that need to hold the table
    /// across epoch boundaries (GC recycling, diagnostics).
    pub fn table(&self, id: TableId) -> Result<Arc<Table>> {
        self.tables
            .get(id.0 as usize)
            .ok_or(MmdbError::TableNotFound(id))
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Bulk-load committed rows into a table, bypassing concurrency control.
    /// Intended for initial database population (workload setup) before any
    /// transactions run.
    pub fn populate<I>(&self, table_id: TableId, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Row>,
    {
        let table = self.table(table_id)?;
        let ts = self.clock.next_timestamp();
        let guard = epoch::pin();
        let mut n = 0;
        for row in rows {
            let version = table.make_committed_version(ts, row)?;
            table.link_version(version, &guard);
            n += 1;
        }
        if n > 0 {
            table.note_write(ts);
        }
        EngineStats::add(&self.stats.versions_created, n as u64);
        Ok(n)
    }

    /// Enqueue an obsolete version for collection.
    pub fn enqueue_garbage(&self, item: GcItem) {
        self.gc.push(item);
    }

    /// Run one bounded garbage-collection step: examine up to `limit` queued
    /// items, reclaim the ones whose end timestamp lies below the visibility
    /// watermark, and requeue the rest. Returns the number reclaimed.
    ///
    /// Any thread may call this at any time (cooperative collection); unlinks
    /// are serialized per table via the table's GC lock.
    pub fn collect_garbage(&self, limit: usize) -> usize {
        let budget = limit.min(self.gc.len());
        if budget == 0 {
            return 0;
        }
        // Versions are reclaimable when every registered transaction began
        // after their retirement timestamp. With no active transactions,
        // everything already queued is reclaimable.
        //
        // The watermark is computed race-free in three ordered steps:
        // 1. the pending-begin check catches transactions that drew a begin
        //    timestamp but have not registered yet;
        // 2. `sweep_floor` (the clock *before* the sweep) bounds the begin
        //    timestamp of any transaction that registers into an
        //    already-visited shard while the sweep runs — the sweep can miss
        //    it, but its begin is necessarily >= this value;
        // 3. the shard sweep covers everything registered before the sweep
        //    reached its shard.
        // Skipping any one of these lets the collector reclaim a version a
        // live snapshot still needs (observed as reads returning None under
        // the concurrency stress tests).
        let watermark = if self.txns.has_pending_begins() {
            Timestamp::ZERO
        } else {
            let sweep_floor = self.clock.now();
            match self.txns.min_active_begin() {
                Some(m) => m.min(sweep_floor),
                None => sweep_floor,
            }
        };
        let guard = epoch::pin();
        let mut reclaimed = 0;
        let mut requeue = Vec::new();
        for _ in 0..budget {
            let Some(item) = self.gc.pop() else { break };
            if item.reclaimable_at < watermark {
                if let Ok(table) = self.table(item.table) {
                    let shared = item.version.as_shared(&guard);
                    {
                        let _gc_lock = table.gc_guard();
                        table.unlink_version(shared, &guard);
                    }
                    // The version is unreachable from every index and no
                    // active transaction can still hold an interest in it
                    // (watermark rule); the epoch machinery delays what
                    // happens next until all current readers unpin. Instead
                    // of freeing it we feed it back to the table's version
                    // pool, so steady-state writes reuse the allocation
                    // (`Table::make_version_with`). The closure captures the
                    // table `Arc` (keeping the pool alive) and the raw
                    // address — small enough for the epoch layer's inline
                    // deferred storage, so this defers without allocating.
                    let raw = shared.as_raw() as usize;
                    // SAFETY: unlinked above; `recycle_version`'s contract
                    // (exclusive, past the grace period) holds when the
                    // deferred closure runs.
                    unsafe {
                        guard.defer_unchecked(move || {
                            table.recycle_version(raw as *mut crate::version::Version);
                        });
                    }
                    reclaimed += 1;
                }
            } else {
                requeue.push(item);
            }
        }
        for item in requeue {
            self.gc.push(item);
        }
        if reclaimed > 0 {
            EngineStats::add(&self.stats.versions_collected, reclaimed as u64);
        }
        EngineStats::bump(&self.stats.gc_passes);
        reclaimed
    }
}

impl std::fmt::Debug for MvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvStore")
            .field("tables", &self.table_count())
            .field("active_txns", &self.txns.len())
            .field("gc_pending", &self.gc.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::MemoryLogger;
    use crate::table::VersionPtr;
    use mmdb_common::ids::{IndexId, Timestamp, TxnId};
    use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
    use mmdb_common::row::rowbuf;
    use mmdb_common::word::{BeginWord, EndWord};

    fn store_with_table(rows: u64) -> (MvStore, TableId) {
        let store = MvStore::new(Arc::new(MemoryLogger::new()));
        let t = store.create_table(TableSpec::keyed_u64("t", 128)).unwrap();
        store
            .populate(t, (0..rows).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        (store, t)
    }

    #[test]
    fn create_and_populate() {
        let (store, t) = store_with_table(100);
        assert_eq!(store.table_count(), 1);
        let table = store.table(t).unwrap();
        assert_eq!(table.version_count(), 100);
        assert!(store.table(TableId(7)).is_err());
        let guard = epoch::pin();
        let hits: Vec<_> = table.candidates(IndexId(0), 42, &guard).unwrap().collect();
        assert_eq!(hits.len(), 1);
        assert!(matches!(hits[0].begin_word(), BeginWord::Timestamp(_)));
        assert!(hits[0].end_word().is_latest());
    }

    #[test]
    fn gc_respects_watermark() {
        let (store, t) = store_with_table(10);
        let table = store.table(t).unwrap();

        // Simulate an update: retire version for key 3 at timestamp `retire_ts`.
        let guard = epoch::pin();
        let old = {
            let mut it = table.candidates(IndexId(0), 3, &guard).unwrap();
            VersionPtr::from_shared(crossbeam::epoch::Shared::from(
                it.next().unwrap() as *const _
            ))
        };
        let retire_ts = store.clock().next_timestamp();
        old.get().set_end(EndWord::Timestamp(retire_ts));
        store.enqueue_garbage(GcItem {
            table: t,
            version: old,
            reclaimable_at: retire_ts,
        });

        // An "active" transaction that began before retirement blocks collection.
        let blocker = crate::txn_table::TxnHandle::new(
            TxnId(999),
            Timestamp(retire_ts.raw() - 1),
            ConcurrencyMode::Optimistic,
            IsolationLevel::Serializable,
        );
        store.txns().register(Arc::clone(&blocker));
        assert_eq!(store.collect_garbage(16), 0);
        assert_eq!(store.gc_queue().len(), 1, "item must be requeued");
        assert_eq!(table.version_count(), 10);

        // Once the blocker goes away (and a newer transaction exists), the
        // version is reclaimed.
        store.txns().remove(TxnId(999));
        let newer = crate::txn_table::TxnHandle::new(
            TxnId(1000),
            store.clock().next_timestamp(),
            ConcurrencyMode::Optimistic,
            IsolationLevel::Serializable,
        );
        store.txns().register(newer);
        assert_eq!(store.collect_garbage(16), 1);
        assert_eq!(store.gc_queue().len(), 0);
        assert_eq!(table.version_count(), 9);
        assert_eq!(store.stats().snapshot().versions_collected, 1);
    }

    #[test]
    fn gc_with_no_active_transactions_reclaims_everything_queued() {
        let (store, t) = store_with_table(5);
        let table = store.table(t).unwrap();
        let guard = epoch::pin();
        for key in 0..5u64 {
            let ptr = {
                let mut it = table.candidates(IndexId(0), key, &guard).unwrap();
                VersionPtr::from_shared(crossbeam::epoch::Shared::from(
                    it.next().unwrap() as *const _
                ))
            };
            let ts = store.clock().next_timestamp();
            ptr.get().set_end(EndWord::Timestamp(ts));
            store.enqueue_garbage(GcItem {
                table: t,
                version: ptr,
                reclaimable_at: ts,
            });
        }
        // Bounded step: only collect 2 at a time.
        assert_eq!(store.collect_garbage(2), 2);
        assert_eq!(store.collect_garbage(16), 3);
        assert_eq!(table.version_count(), 0);
    }

    #[test]
    fn table_in_is_a_lock_free_published_slice_load() {
        let (store, t) = store_with_table(4);
        let guard = epoch::pin();
        let table = store.table_in(t, &guard).unwrap();
        assert_eq!(table.id(), t);
        assert!(store.table_in(TableId(9), &guard).is_err());
        // The borrow survives later catalog publications (append-only).
        let t2 = store.create_table(TableSpec::keyed_u64("t2", 8)).unwrap();
        assert_eq!(table.id(), t);
        assert_eq!(store.table_in(t2, &guard).unwrap().id(), t2);
    }

    /// Acceptance bar of the lock-free catalog: `create_table` racing
    /// readers must never make an already-published table unreachable, and
    /// readers never block (they run under nothing but an epoch pin).
    #[test]
    fn create_table_races_lock_free_readers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = Arc::new(MvStore::default());
        let first = store.create_table(TableSpec::keyed_u64("t0", 8)).unwrap();
        store
            .populate(first, (0..4u64).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        let published = AtomicUsize::new(1);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let store = Arc::clone(&store);
                let published = &published;
                scope.spawn(move || loop {
                    let n = published.load(Ordering::Acquire);
                    let guard = epoch::pin();
                    // Every table published so far must resolve, with its
                    // contents reachable.
                    for id in 0..n as u32 {
                        let table = store
                            .table_in(TableId(id), &guard)
                            .expect("published tables never disappear");
                        assert_eq!(table.id(), TableId(id));
                    }
                    assert_eq!(
                        store
                            .table_in(first, &guard)
                            .unwrap()
                            .candidates(IndexId(0), 2, &guard)
                            .unwrap()
                            .count(),
                        1
                    );
                    if n >= 200 {
                        break;
                    }
                });
            }
            {
                let store = Arc::clone(&store);
                let published = &published;
                scope.spawn(move || {
                    for i in 1..200usize {
                        let id = store
                            .create_table(TableSpec::keyed_u64(format!("t{i}"), 8))
                            .unwrap();
                        assert_eq!(id, TableId(i as u32));
                        published.store(i + 1, Ordering::Release);
                    }
                    published.store(200, Ordering::Release);
                });
            }
        });
        assert_eq!(store.table_count(), 200);
    }

    #[test]
    fn gc_recycles_versions_into_the_table_pool() {
        let (store, t) = store_with_table(8);
        let table = store.table(t).unwrap();
        let guard = epoch::pin();
        for key in 0..8u64 {
            let ptr = {
                let mut it = table.candidates(IndexId(0), key, &guard).unwrap();
                VersionPtr::from_shared(crossbeam::epoch::Shared::from(
                    it.next().unwrap() as *const _
                ))
            };
            let ts = store.clock().next_timestamp();
            ptr.get().set_end(EndWord::Timestamp(ts));
            store.enqueue_garbage(GcItem {
                table: t,
                version: ptr,
                reclaimable_at: ts,
            });
        }
        assert_eq!(store.collect_garbage(16), 8);
        drop(guard);
        // Recycling is epoch-deferred; pin/unpin until a zero-pin crossing
        // has drained it (concurrent tests may hold pins of their own).
        for _ in 0..100_000 {
            drop(epoch::pin());
            if table.pooled_versions() == 8 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(
            table.pooled_versions(),
            8,
            "reclaimed versions feed the table's pool instead of the allocator"
        );
        // And the pool is consumed by new version creation.
        let keys = table.keys_of(&rowbuf::keyed_row(100, 16, 1)).unwrap();
        let v = table
            .make_version_with(TxnId(77), rowbuf::keyed_row(100, 16, 1), &keys)
            .unwrap();
        assert_eq!(table.pooled_versions(), 7);
        assert_eq!(v.begin_word().as_txn(), Some(TxnId(77)));
        assert!(v.end_word().is_latest());
        assert_eq!(v.index_key(0), 100);
        table.link_version(v, &epoch::pin());
    }

    #[test]
    fn populate_validates_rows() {
        let store = MvStore::default();
        let t = store.create_table(TableSpec::keyed_u64("t", 8)).unwrap();
        let bad = Row::from(vec![1u8, 2]);
        assert!(store.populate(t, vec![bad]).is_err());
    }
}
