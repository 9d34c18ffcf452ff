//! Tables: a named collection of versions reachable through one or more
//! latch-free hash indexes.
//!
//! There is no direct access to records except through an index (§2.1). A
//! table therefore consists only of its index structures; the versions
//! themselves are heap allocations threaded through every index chain.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crossbeam::epoch::{Guard, Owned, Shared};
use parking_lot::Mutex;

use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp};
use mmdb_common::row::{KeyScratch, Row, TableSpec};

use mmdb_index::chain::BucketIter;
use mmdb_index::ordered::RangeIter;
use mmdb_index::{BucketLockTable, HashIndex, OrderedIndex, RangeLockTable};

use crate::version::Version;

/// A stable, `Send + Sync` pointer to a [`Version`].
///
/// Transactions keep these in their read/write/scan sets. The pointer stays
/// valid for as long as the version has not been reclaimed by the garbage
/// collector, and the collector only reclaims versions that (a) have a
/// committed end timestamp older than the begin timestamp of every active
/// transaction and (b) have been unlinked from every index. Both conditions
/// guarantee no live transaction still holds an interest in the version, so
/// dereferencing through a [`VersionPtr`] held by an active transaction is
/// sound. See `gc.rs` for the watermark computation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct VersionPtr(*const Version);

// SAFETY: Version is Send + Sync and the reclamation protocol above
// guarantees the pointee outlives every transaction that stored the pointer.
unsafe impl Send for VersionPtr {}
unsafe impl Sync for VersionPtr {}

impl VersionPtr {
    /// Wrap a shared pointer obtained under an epoch guard.
    pub fn from_shared(shared: Shared<'_, Version>) -> VersionPtr {
        VersionPtr(shared.as_raw())
    }

    /// Reconstruct an epoch `Shared` (for unlinking / deferred destruction).
    pub fn as_shared<'g>(&self, _guard: &'g Guard) -> Shared<'g, Version> {
        Shared::from(self.0)
    }

    /// Dereference. Sound per the reclamation protocol described on the type.
    #[inline]
    pub fn get(&self) -> &Version {
        unsafe { &*self.0 }
    }

    /// Raw address (used as a map key for dedup).
    #[inline]
    pub fn addr(&self) -> usize {
        self.0 as usize
    }
}

/// Upper bound on recycled versions kept per table. Reclaimed versions
/// beyond this are freed normally, so the pool cannot pin more than a
/// bounded amount of memory per table while still covering steady-state
/// write rates (the pool only needs to absorb the versions in flight between
/// GC passes).
const VERSION_POOL_CAP: usize = 8_192;

/// One index of a table: latch-free hash (equality probes) or latch-free
/// skip list (equality and range probes). Both thread the same intrusive
/// per-slot next-pointer of the shared version allocations, so a version is
/// linked into every index of its table at once.
pub enum TableIndex {
    /// A hash index (the paper's only kind, §2.1).
    Hash(HashIndex<Version>),
    /// An ordered index (skip list) serving inclusive range predicates.
    Ordered(OrderedIndex<Version>),
}

impl TableIndex {
    /// The intrusive next-pointer slot this index threads through.
    #[inline]
    pub fn slot(&self) -> usize {
        match self {
            TableIndex::Hash(h) => h.slot(),
            TableIndex::Ordered(o) => o.slot(),
        }
    }

    /// Whether this index supports range predicates.
    #[inline]
    pub fn is_ordered(&self) -> bool {
        matches!(self, TableIndex::Ordered(_))
    }

    fn insert<'g>(&self, node: Shared<'g, Version>, guard: &'g Guard) {
        match self {
            TableIndex::Hash(h) => h.insert(node, guard),
            TableIndex::Ordered(o) => o.insert(node, guard),
        }
    }

    fn unlink<'g>(&self, target: Shared<'g, Version>, guard: &'g Guard) -> bool {
        match self {
            TableIndex::Hash(h) => h.unlink(target, guard),
            TableIndex::Ordered(o) => o.unlink(target, guard),
        }
    }

    fn iter_key<'g>(&self, key: Key, guard: &'g Guard) -> KeyIter<'g> {
        match self {
            TableIndex::Hash(h) => KeyIter::Hash(h.iter_key(key, guard)),
            TableIndex::Ordered(o) => KeyIter::Ordered(o.iter_key(key, guard)),
        }
    }

    fn iter_all<'a, 'g: 'a>(&'a self, guard: &'g Guard) -> ScanIter<'a, 'g> {
        match self {
            TableIndex::Hash(h) => ScanIter::Hash {
                index: h,
                next_bucket: 1,
                inner: h.iter_bucket(0, guard),
                guard,
            },
            TableIndex::Ordered(o) => ScanIter::Ordered(o.iter_all(guard)),
        }
    }

    fn drain_exclusive<'g>(&self, guard: &'g Guard) -> Vec<Shared<'g, Version>> {
        match self {
            TableIndex::Hash(h) => h.drain_exclusive(guard),
            TableIndex::Ordered(o) => o.drain_exclusive(guard),
        }
    }
}

/// Iterator over one index key's candidate versions (either index kind).
enum KeyIter<'g> {
    Hash(BucketIter<'g, Version>),
    Ordered(RangeIter<'g, Version>),
}

impl<'g> Iterator for KeyIter<'g> {
    type Item = Shared<'g, Version>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            KeyIter::Hash(it) => it.next(),
            KeyIter::Ordered(it) => it.next(),
        }
    }
}

/// Iterator over every version of an index (either kind).
enum ScanIter<'a, 'g> {
    Hash {
        index: &'a HashIndex<Version>,
        next_bucket: usize,
        inner: BucketIter<'g, Version>,
        guard: &'g Guard,
    },
    Ordered(RangeIter<'g, Version>),
}

impl<'a, 'g> Iterator for ScanIter<'a, 'g> {
    type Item = Shared<'g, Version>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ScanIter::Hash {
                index,
                next_bucket,
                inner,
                guard,
            } => loop {
                if let Some(item) = inner.next() {
                    return Some(item);
                }
                if *next_bucket >= index.bucket_count() {
                    return None;
                }
                *inner = index.iter_bucket(*next_bucket, guard);
                *next_bucket += 1;
            },
            ScanIter::Ordered(it) => it.next(),
        }
    }
}

/// A table: spec + one latch-free index (hash or ordered), one bucket-lock
/// table and one range-lock table per declared index.
pub struct Table {
    id: TableId,
    spec: TableSpec,
    indexes: Vec<TableIndex>,
    bucket_locks: Vec<BucketLockTable>,
    /// Range locks, meaningful only for ordered indexes (hash slots keep an
    /// empty placeholder so the vectors stay slot-aligned).
    range_locks: Vec<RangeLockTable>,
    /// Serializes garbage-collection unlinks on this table (see the
    /// concurrency contract of [`HashIndex::unlink`]).
    gc_lock: Mutex<()>,
    /// Recycled version allocations (see [`Table::recycle_version`]): the
    /// garbage collector feeds reclaimed versions back here through the
    /// epoch machinery, and [`Table::make_version_with`] reuses them so a
    /// warmed write path allocates no version headers. The critical section
    /// is a push/pop on a capacity-retaining `Vec`; entries are exclusively
    /// owned spares (unlinked, epoch-drained, payload dropped — nobody else
    /// can reach them).
    pool: Mutex<Vec<PooledVersion>>,
    /// Monotone dirty watermark: the highest commit timestamp that created,
    /// superseded or deleted a version in this table ([`Table::note_write`],
    /// fired by the commit pipeline after the end timestamp is drawn and
    /// before the transaction publishes `Committed`, and by bulk
    /// population). A checkpoint at snapshot `R` with parent snapshot `P`
    /// skips the whole table when `dirty_ts() < P` — see the quiescing
    /// contract on `MvEngine::checkpoint_auto` for why that read is
    /// race-free.
    dirty_ts: AtomicU64,
}

/// An exclusively owned spare version allocation held by a table's recycle
/// pool. Wrapping the raw pointer here (instead of `unsafe impl Send/Sync`
/// on `Table` itself) keeps the table on auto-derived thread-safety for all
/// its other fields.
struct PooledVersion(*mut Version);

// SAFETY: a pooled version is an exclusively owned spare allocation (see
// the pool field docs); `Version` itself is `Send + Sync`.
unsafe impl Send for PooledVersion {}

impl Table {
    /// Create a table from its spec.
    pub fn new(id: TableId, spec: TableSpec) -> Result<Table> {
        if spec.indexes.is_empty() {
            return Err(MmdbError::Internal("a table needs at least one index"));
        }
        let indexes = spec
            .indexes
            .iter()
            .enumerate()
            .map(|(slot, idx)| {
                if idx.ordered {
                    TableIndex::Ordered(OrderedIndex::new(slot))
                } else {
                    TableIndex::Hash(HashIndex::new(slot, idx.buckets.max(1)))
                }
            })
            .collect();
        let bucket_locks = spec
            .indexes
            .iter()
            .map(|idx| BucketLockTable::new(if idx.ordered { 1 } else { idx.buckets.max(1) }))
            .collect();
        let range_locks = spec.indexes.iter().map(|_| RangeLockTable::new()).collect();
        Ok(Table {
            id,
            spec,
            indexes,
            bucket_locks,
            range_locks,
            gc_lock: Mutex::new(()),
            pool: Mutex::new(Vec::new()),
            dirty_ts: AtomicU64::new(0),
        })
    }

    /// Table identifier.
    #[inline]
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Raise the dirty watermark to `ts` (a committing transaction's end
    /// timestamp, or a bulk-population timestamp). Monotone; `SeqCst` so the
    /// checkpointer's quiesce-then-read protocol observes every bump made
    /// before the writer published its final state.
    #[inline]
    pub fn note_write(&self, ts: Timestamp) {
        if self.dirty_ts.load(AtomicOrdering::SeqCst) < ts.raw() {
            self.dirty_ts.fetch_max(ts.raw(), AtomicOrdering::SeqCst);
        }
    }

    /// The dirty watermark: the highest commit timestamp known to have
    /// changed this table (0 if never written).
    #[inline]
    pub fn dirty_ts(&self) -> Timestamp {
        Timestamp(self.dirty_ts.load(AtomicOrdering::SeqCst))
    }

    /// Table spec (indexes, key extractors).
    #[inline]
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// Number of indexes.
    #[inline]
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Resolve an index id, or error.
    fn index(&self, index: IndexId) -> Result<&TableIndex> {
        self.indexes
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))
    }

    /// Whether an index is ordered (serves range predicates).
    pub fn is_ordered(&self, index: IndexId) -> Result<bool> {
        Ok(self.index(index)?.is_ordered())
    }

    /// The bucket-lock table of a *hash* index (pessimistic phantom
    /// protection at bucket granularity, §4.1.2). Ordered indexes have no
    /// buckets; their scans are protected by [`Table::range_locks`] instead,
    /// and asking for their bucket locks is an engine bug.
    pub fn bucket_locks(&self, index: IndexId) -> Result<&BucketLockTable> {
        if self.index(index)?.is_ordered() {
            return Err(MmdbError::Internal(
                "bucket locks requested for an ordered index (use range locks)",
            ));
        }
        self.bucket_locks
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))
    }

    /// The range-lock table of an *ordered* index (pessimistic phantom
    /// protection at predicate granularity). Errors with
    /// [`MmdbError::IndexNotOrdered`] for hash indexes, whose scans lock
    /// buckets instead.
    pub fn range_locks(&self, index: IndexId) -> Result<&RangeLockTable> {
        if !self.index(index)?.is_ordered() {
            return Err(MmdbError::IndexNotOrdered(self.id, index));
        }
        self.range_locks
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))
    }

    /// Extract the key of `row` under every index of this table into
    /// `scratch` (index order). Allocation-free after warmup — this is the
    /// write path's extractor; every engine caller goes through it.
    #[inline]
    pub fn keys_into(&self, row: &[u8], scratch: &mut KeyScratch) -> Result<()> {
        self.spec.keys_into(row, scratch)
    }

    /// Extract the key of `row` under every index of this table (index
    /// order) into a fresh `Vec` — the bulk-load path
    /// ([`Table::make_committed_version`]); the hot write path reuses a
    /// scratch through [`Table::keys_into`] instead.
    pub fn keys_of(&self, row: &[u8]) -> Result<Vec<Key>> {
        let mut scratch = KeyScratch::new();
        self.keys_into(row, &mut scratch)?;
        Ok(scratch.into_vec())
    }

    /// Extract the key of `row` under one index.
    pub fn key_of(&self, index: IndexId, row: &[u8]) -> Result<Key> {
        self.spec
            .indexes
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))?
            .key
            .key_of(row)
    }

    /// Whether an index was declared unique.
    pub fn is_unique(&self, index: IndexId) -> Result<bool> {
        Ok(self
            .spec
            .indexes
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))?
            .unique)
    }

    /// Bucket that `key` hashes to in `index` (hash indexes only: an ordered
    /// index has no buckets, and asking is an engine bug).
    pub fn bucket_of(&self, index: IndexId, key: Key) -> Result<usize> {
        match self.index(index)? {
            TableIndex::Hash(h) => Ok(h.bucket_of_key(key)),
            TableIndex::Ordered(_) => Err(MmdbError::Internal(
                "bucket_of requested for an ordered index",
            )),
        }
    }

    /// Obtain a version for `row` whose index keys the caller has already
    /// extracted (via [`Table::keys_into`] — extraction happens once per
    /// write, not once per consumer). Reuses a recycled version allocation
    /// when the pool has one, so a warmed write path allocates nothing here.
    pub fn make_version_with(
        &self,
        creator: mmdb_common::ids::TxnId,
        row: Row,
        keys: &[Key],
    ) -> Result<Owned<Version>> {
        if keys.len() != self.indexes.len() {
            return Err(MmdbError::Internal("key count does not match the spec"));
        }
        // Pop in its own scope so the pool guard does not extend across the
        // reset (if-let scrutinee temporaries live for the whole body).
        let recycled = self.pool.lock().pop();
        if let Some(spare) = recycled {
            // SAFETY: pool entries are exclusively owned spare allocations
            // of this table (same index count), originally created by
            // `Owned::new`.
            let mut recycled = unsafe { Owned::from_raw(spare.0) };
            recycled.reset(creator, row, keys);
            Ok(recycled)
        } else {
            Ok(Owned::new(Version::new(creator, row, keys)))
        }
    }

    /// Allocate an already-committed version for `row` (bulk loading).
    pub fn make_committed_version(
        &self,
        begin: mmdb_common::ids::Timestamp,
        row: Row,
    ) -> Result<Owned<Version>> {
        let keys = self.keys_of(&row)?;
        Ok(Owned::new(Version::new_committed(begin, row, &keys)))
    }

    /// Return a reclaimed version allocation to the pool (or free it when
    /// the pool is full).
    ///
    /// # Safety
    /// `raw` must be an exclusively owned version of **this** table: unlinked
    /// from every index and past its epoch grace period (the garbage
    /// collector defers this call through the epoch machinery), and never
    /// recycled twice.
    pub unsafe fn recycle_version(&self, raw: *mut Version) {
        // SAFETY: exclusive ownership per the caller contract. Drop the
        // payload now — a pooled spare must not pin its last row's bytes
        // until reuse (only the header boxes are worth keeping).
        unsafe { (*raw).clear_payload() };
        let mut pool = self.pool.lock();
        if pool.len() < VERSION_POOL_CAP {
            pool.push(PooledVersion(raw));
        } else {
            drop(pool);
            // SAFETY: exclusive ownership per the caller contract.
            drop(unsafe { Box::from_raw(raw) });
        }
    }

    /// Number of recycled version allocations currently pooled (diagnostic).
    pub fn pooled_versions(&self) -> usize {
        self.pool.lock().len()
    }

    /// Link a version into every index of the table and return a stable
    /// pointer to it.
    pub fn link_version(&self, version: Owned<Version>, guard: &Guard) -> VersionPtr {
        let shared = version.into_shared(guard);
        for index in &self.indexes {
            index.insert(shared, guard);
        }
        VersionPtr::from_shared(shared)
    }

    /// Iterate over every version in the bucket `key` hashes to under
    /// `index`, filtered down to versions whose key actually equals `key`
    /// (the paper's "check predicate" step for the search predicate).
    pub fn candidates<'a, 'g: 'a>(
        &'a self,
        index: IndexId,
        key: Key,
        guard: &'g Guard,
    ) -> Result<impl Iterator<Item = &'g Version> + 'a> {
        let idx = self.index(index)?;
        let slot = idx.slot();
        Ok(idx
            .iter_key(key, guard)
            .map(|shared| unsafe { shared.deref() })
            .filter(move |v| v.index_key(slot) == key))
    }

    /// Iterate over every version whose key under `index` lies in the
    /// inclusive range `[lo, hi]`, as stable [`VersionPtr`]s in ascending key
    /// order. Requires an ordered index; hash indexes cannot serve range
    /// predicates.
    ///
    /// As with [`Table::candidates`], the caller still checks visibility per
    /// version; unlike a hash bucket there are no collision false-positives
    /// to filter out.
    pub fn range_candidate_ptrs<'a, 'g: 'a>(
        &'a self,
        index: IndexId,
        lo: Key,
        hi: Key,
        guard: &'g Guard,
    ) -> Result<impl Iterator<Item = VersionPtr> + 'a> {
        match self.index(index)? {
            TableIndex::Ordered(o) => Ok(o.iter_range(lo, hi, guard).map(VersionPtr::from_shared)),
            TableIndex::Hash(_) => Err(MmdbError::IndexNotOrdered(self.id, index)),
        }
    }

    /// Like [`Table::candidates`], but yield stable [`VersionPtr`]s directly
    /// under the caller's epoch guard. This is the hot-path variant: callers
    /// that stage candidates in a reusable buffer (see `TxnScratch` in
    /// `mmdb-core`) extend it straight from this iterator instead of
    /// collecting `&Version` references and converting them afterwards.
    pub fn candidate_ptrs<'a, 'g: 'a>(
        &'a self,
        index: IndexId,
        key: Key,
        guard: &'g Guard,
    ) -> Result<impl Iterator<Item = VersionPtr> + 'a> {
        let idx = self.index(index)?;
        let slot = idx.slot();
        Ok(idx
            .iter_key(key, guard)
            .filter(move |shared| unsafe { shared.deref() }.index_key(slot) == key)
            .map(VersionPtr::from_shared))
    }

    /// Iterate over every version in the table via `index` (full scan).
    pub fn scan_versions<'a, 'g: 'a>(
        &'a self,
        index: IndexId,
        guard: &'g Guard,
    ) -> Result<impl Iterator<Item = &'g Version> + 'a> {
        let idx = self.index(index)?;
        Ok(idx.iter_all(guard).map(|shared| unsafe { shared.deref() }))
    }

    /// Unlink `version` from every index. Must only be called by the garbage
    /// collector while holding [`Table::gc_guard`]. Returns true if the
    /// version was found in (and removed from) the primary index.
    pub fn unlink_version<'g>(&self, version: Shared<'g, Version>, guard: &'g Guard) -> bool {
        let mut removed_primary = false;
        for (slot, index) in self.indexes.iter().enumerate() {
            let removed = index.unlink(version, guard);
            if slot == 0 {
                removed_primary = removed;
            }
        }
        removed_primary
    }

    /// Acquire the per-table garbage-collection lock (serializes unlinks).
    pub fn gc_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.gc_lock.lock()
    }

    /// Number of versions currently linked in the primary index (diagnostic;
    /// walks every chain).
    pub fn version_count(&self) -> usize {
        let guard = crossbeam::epoch::pin();
        self.indexes[0].iter_all(&guard).count()
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        // Exclusive access: free every version still linked. Versions that
        // were unlinked earlier are owned by the epoch collector already.
        let guard = crossbeam::epoch::pin();
        let drained = self.indexes[0].drain_exclusive(&guard);
        for shared in drained {
            unsafe {
                drop(shared.into_owned());
            }
        }
        // Pooled versions are unlinked spares owned by the table.
        for spare in self.pool.get_mut().drain(..) {
            unsafe {
                drop(Box::from_raw(spare.0));
            }
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("name", &self.spec.name)
            .field("indexes", &self.indexes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::epoch;
    use mmdb_common::ids::{Timestamp, TxnId};
    use mmdb_common::row::{rowbuf, IndexSpec, KeySpec};

    fn two_index_spec() -> TableSpec {
        TableSpec::keyed_u64("accounts", 64).with_index(IndexSpec {
            name: "by_fill".into(),
            key: KeySpec::BytesAt { offset: 8, len: 1 },
            buckets: 16,
            unique: false,
            ordered: false,
        })
    }

    #[test]
    fn link_and_lookup_through_both_indexes() {
        let table = Table::new(TableId(0), two_index_spec()).unwrap();
        let guard = epoch::pin();
        for k in 0..20u64 {
            let row = rowbuf::keyed_row(k, 16, (k % 4) as u8);
            let v = table.make_committed_version(Timestamp(1), row).unwrap();
            table.link_version(v, &guard);
        }
        // Primary lookups.
        for k in 0..20u64 {
            let hits: Vec<_> = table.candidates(IndexId(0), k, &guard).unwrap().collect();
            assert_eq!(hits.len(), 1);
            assert_eq!(rowbuf::key_of(hits[0].data()), k);
        }
        // Secondary: fill byte 2 → keys 2, 6, 10, 14, 18.
        let fill_key = mmdb_common::hash::hash_bytes(&[2u8]);
        let hits: Vec<_> = table
            .candidates(IndexId(1), fill_key, &guard)
            .unwrap()
            .collect();
        assert_eq!(hits.len(), 5);
        // Full scan sees everything.
        assert_eq!(table.scan_versions(IndexId(0), &guard).unwrap().count(), 20);
        assert_eq!(table.version_count(), 20);
    }

    #[test]
    fn candidate_ptrs_matches_candidates() {
        let table = Table::new(TableId(0), two_index_spec()).unwrap();
        let guard = epoch::pin();
        for k in 0..10u64 {
            let row = rowbuf::keyed_row(k, 16, (k % 2) as u8);
            let v = table.make_committed_version(Timestamp(1), row).unwrap();
            table.link_version(v, &guard);
        }
        let by_ref: Vec<usize> = table
            .candidates(IndexId(1), mmdb_common::hash::hash_bytes(&[1u8]), &guard)
            .unwrap()
            .map(|v| v as *const Version as usize)
            .collect();
        let by_ptr: Vec<usize> = table
            .candidate_ptrs(IndexId(1), mmdb_common::hash::hash_bytes(&[1u8]), &guard)
            .unwrap()
            .map(|p| p.addr())
            .collect();
        assert_eq!(by_ref, by_ptr);
        assert_eq!(by_ptr.len(), 5);
    }

    #[test]
    fn keys_of_matches_spec_order() {
        let table = Table::new(TableId(3), two_index_spec()).unwrap();
        let row = rowbuf::keyed_row(9, 16, 7);
        let keys = table.keys_of(&row).unwrap();
        assert_eq!(keys[0], 9);
        assert_eq!(keys[1], mmdb_common::hash::hash_bytes(&[7u8]));
        assert_eq!(table.key_of(IndexId(0), &row).unwrap(), 9);
        assert!(table.key_of(IndexId(5), &row).is_err());
        assert!(table.is_unique(IndexId(0)).unwrap());
        assert!(!table.is_unique(IndexId(1)).unwrap());
    }

    #[test]
    fn unlink_removes_from_every_index() {
        let table = Table::new(TableId(0), two_index_spec()).unwrap();
        let guard = epoch::pin();
        let ptr = table.link_version(
            table
                .make_committed_version(Timestamp(1), rowbuf::keyed_row(5, 16, 1))
                .unwrap(),
            &guard,
        );
        table.link_version(
            table
                .make_committed_version(Timestamp(1), rowbuf::keyed_row(6, 16, 1))
                .unwrap(),
            &guard,
        );
        {
            let _g = table.gc_guard();
            assert!(table.unlink_version(ptr.as_shared(&guard), &guard));
        }
        assert_eq!(table.candidates(IndexId(0), 5, &guard).unwrap().count(), 0);
        let fill_key = mmdb_common::hash::hash_bytes(&[1u8]);
        assert_eq!(
            table
                .candidates(IndexId(1), fill_key, &guard)
                .unwrap()
                .count(),
            1
        );
        // The unlinked allocation still has to be freed exactly once.
        unsafe { guard.defer_destroy(ptr.as_shared(&guard)) };
    }

    fn ordered_spec() -> TableSpec {
        TableSpec::keyed_u64("ordered_accounts", 64)
            .with_index(IndexSpec::ordered_u64("pk_ordered", 0))
    }

    #[test]
    fn ordered_index_serves_ranges_and_equality() {
        let table = Table::new(TableId(0), ordered_spec()).unwrap();
        let guard = epoch::pin();
        for k in [40u64, 10, 30, 50, 20] {
            let v = table
                .make_committed_version(Timestamp(1), rowbuf::keyed_row(k, 16, 0))
                .unwrap();
            table.link_version(v, &guard);
        }
        assert!(!table.is_ordered(IndexId(0)).unwrap());
        assert!(table.is_ordered(IndexId(1)).unwrap());

        // Range probes come back in ascending key order, inclusive bounds.
        let keys: Vec<u64> = table
            .range_candidate_ptrs(IndexId(1), 20, 40, &guard)
            .unwrap()
            .map(|p| rowbuf::key_of(p.get().data()))
            .collect();
        assert_eq!(keys, vec![20, 30, 40]);

        // Equality probes work through the same dispatch.
        assert_eq!(table.candidates(IndexId(1), 30, &guard).unwrap().count(), 1);
        // Full scans via the ordered index see everything, sorted.
        let all: Vec<u64> = table
            .scan_versions(IndexId(1), &guard)
            .unwrap()
            .map(|v| rowbuf::key_of(v.data()))
            .collect();
        assert_eq!(all, vec![10, 20, 30, 40, 50]);

        // Hash indexes refuse range predicates; ordered indexes have no
        // buckets or bucket locks, but do have range locks.
        assert!(matches!(
            table.range_candidate_ptrs(IndexId(0), 0, 9, &guard),
            Err(MmdbError::IndexNotOrdered(_, _))
        ));
        assert!(table.bucket_of(IndexId(1), 7).is_err());
        assert!(table.bucket_locks(IndexId(1)).is_err());
        assert!(matches!(
            table.range_locks(IndexId(0)),
            Err(MmdbError::IndexNotOrdered(_, _))
        ));
        assert!(table.range_locks(IndexId(1)).is_ok());
    }

    #[test]
    fn ordered_index_unlink_through_gc_path() {
        let table = Table::new(TableId(0), ordered_spec()).unwrap();
        let guard = epoch::pin();
        let mut ptrs = Vec::new();
        for k in 0..6u64 {
            let v = table
                .make_committed_version(Timestamp(1), rowbuf::keyed_row(k, 16, 0))
                .unwrap();
            ptrs.push(table.link_version(v, &guard));
        }
        {
            let _g = table.gc_guard();
            assert!(table.unlink_version(ptrs[3].as_shared(&guard), &guard));
        }
        let keys: Vec<u64> = table
            .range_candidate_ptrs(IndexId(1), 0, 10, &guard)
            .unwrap()
            .map(|p| rowbuf::key_of(p.get().data()))
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 4, 5]);
        assert_eq!(table.candidates(IndexId(0), 3, &guard).unwrap().count(), 0);
        unsafe { guard.defer_destroy(ptrs[3].as_shared(&guard)) };
    }

    #[test]
    fn version_ptr_roundtrip() {
        let table = Table::new(TableId(0), TableSpec::keyed_u64("t", 8)).unwrap();
        let guard = epoch::pin();
        let ptr = table.link_version(
            table
                .make_version_with(TxnId(1), rowbuf::keyed_row(1, 16, 0), &[1])
                .unwrap(),
            &guard,
        );
        assert_eq!(rowbuf::key_of(ptr.get().data()), 1);
        assert_eq!(ptr.as_shared(&guard).as_raw() as usize, ptr.addr());
    }

    #[test]
    fn rejects_table_without_indexes() {
        let spec = TableSpec {
            name: "empty".into(),
            indexes: vec![],
        };
        assert!(Table::new(TableId(0), spec).is_err());
    }

    #[test]
    fn row_not_matching_spec_is_rejected() {
        let table = Table::new(TableId(0), TableSpec::keyed_u64("t", 8)).unwrap();
        let short = Row::from(vec![1u8, 2, 3]);
        assert!(matches!(
            table.keys_of(&short),
            Err(MmdbError::RowTooShort { .. })
        ));
    }
}
