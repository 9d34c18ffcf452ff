//! Lock-free chained hash index over intrusive nodes.
//!
//! A table owns one [`HashIndex`] per declared index. All indexes of a table
//! share the same node allocations (the versions); each node carries one
//! atomic next-pointer per index, selected by the index's *slot* number.
//!
//! Concurrency contract:
//!
//! * **Insertions** ([`HashIndex::insert`]) are lock-free: a CAS push at the
//!   bucket head, retried on contention.
//! * **Traversals** ([`HashIndex::iter_key`], [`HashIndex::iter_bucket`])
//!   never block and never observe freed memory; callers must hold a
//!   `crossbeam_epoch` [`Guard`].
//! * **Unlinks** ([`HashIndex::unlink`]) are performed only by the garbage
//!   collector, which serializes unlinks per table (see
//!   `mmdb-storage::gc`). Interleaved inserts are tolerated (the CAS fails
//!   and the unlink retries); interleaved unlinks on the same index are not,
//!   which is exactly why the collector serializes them.

use crossbeam::epoch::{Atomic, Guard, Shared};
use std::sync::atomic::Ordering;

use mmdb_common::hash::bucket_of;
use mmdb_common::ids::Key;

/// A node that can be linked into one or more [`HashIndex`] chains.
///
/// Implementors embed an array of `Atomic<Self>` next-pointers, one per index
/// of the owning table, and report the index key of the node for a given
/// slot.
pub trait ChainNode: Sized + Send + Sync {
    /// The intrusive next-pointer used by the index occupying `slot`.
    fn next_ptr(&self, slot: usize) -> &Atomic<Self>;

    /// The key of this node under the index occupying `slot`.
    fn key(&self, slot: usize) -> Key;
}

/// A fixed-size, latch-free chained hash index.
pub struct HashIndex<N: ChainNode> {
    /// Which next-pointer slot of the nodes this index threads through.
    slot: usize,
    /// Bucket heads.
    buckets: Box<[Atomic<N>]>,
}

impl<N: ChainNode> HashIndex<N> {
    /// Create an index with `bucket_count` buckets using next-pointer `slot`.
    ///
    /// # Panics
    /// Panics if `bucket_count` is zero.
    pub fn new(slot: usize, bucket_count: usize) -> Self {
        assert!(bucket_count > 0, "hash index needs at least one bucket");
        let buckets = (0..bucket_count)
            .map(|_| Atomic::null())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        HashIndex { slot, buckets }
    }

    /// Number of buckets.
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The slot number this index was created with.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Bucket that `key` hashes to.
    #[inline]
    pub fn bucket_of_key(&self, key: Key) -> usize {
        bucket_of(key, self.buckets.len())
    }

    /// Insert `node` at the head of the bucket its key hashes to.
    ///
    /// The node must not already be linked into this index. The caller keeps
    /// logical ownership of the allocation; the index only threads pointers
    /// through it.
    pub fn insert<'g>(&self, node: Shared<'g, N>, guard: &'g Guard) {
        let node_ref = unsafe { node.deref() };
        let bucket = self.bucket_of_key(node_ref.key(self.slot));
        let head = &self.buckets[bucket];
        let mut current = head.load(Ordering::Acquire, guard);
        loop {
            node_ref
                .next_ptr(self.slot)
                .store(current, Ordering::Release);
            match head.compare_exchange_weak(
                current,
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => return,
                Err(err) => current = err.current,
            }
        }
    }

    /// Iterate over every node in the bucket `key` hashes to.
    ///
    /// Because the index chains every node whose key hashes to this bucket,
    /// callers must still compare keys (the "check predicate" step of a
    /// paper-style index scan).
    #[inline]
    pub fn iter_key<'g>(&self, key: Key, guard: &'g Guard) -> BucketIter<'g, N> {
        self.iter_bucket(self.bucket_of_key(key), guard)
    }

    /// Iterate over every node in bucket `bucket`.
    pub fn iter_bucket<'g>(&self, bucket: usize, guard: &'g Guard) -> BucketIter<'g, N> {
        BucketIter {
            slot: self.slot,
            current: self.buckets[bucket].load(Ordering::Acquire, guard),
            guard,
        }
    }

    /// Unlink `target` from the bucket it lives in. Returns `true` if the
    /// node was found and unlinked.
    ///
    /// # Safety contract (enforced by the storage-layer GC)
    /// Concurrent `unlink` calls on the *same index* are not allowed; the
    /// caller must serialize them (the storage garbage collector holds a
    /// per-table mutex while unlinking). Concurrent inserts and traversals
    /// are fine. The caller must not free the node until after this returns
    /// and must do so through the epoch mechanism (`defer_destroy`).
    pub fn unlink<'g>(&self, target: Shared<'g, N>, guard: &'g Guard) -> bool {
        let target_ref = unsafe { target.deref() };
        let bucket = self.bucket_of_key(target_ref.key(self.slot));
        'retry: loop {
            // Find the link (bucket head or a predecessor node's next pointer)
            // that currently points at `target`.
            let mut link: &Atomic<N> = &self.buckets[bucket];
            let mut current = link.load(Ordering::Acquire, guard);
            loop {
                if current.is_null() {
                    // Not present (already unlinked).
                    return false;
                }
                if current == target {
                    let next = target_ref
                        .next_ptr(self.slot)
                        .load(Ordering::Acquire, guard);
                    match link.compare_exchange(
                        current,
                        next,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    ) {
                        Ok(_) => return true,
                        // An insert landed on this link (only possible at the
                        // bucket head); retry from the top.
                        Err(_) => continue 'retry,
                    }
                }
                let node = unsafe { current.deref() };
                link = node.next_ptr(self.slot);
                current = link.load(Ordering::Acquire, guard);
            }
        }
    }

    /// Iterate over all buckets, yielding every node in the index.
    /// Used for full-table scans ("to scan a table, one simply scans all
    /// buckets of any index on the table", §2.1) and by destructors.
    pub fn iter_all<'a, 'g: 'a>(
        &'a self,
        guard: &'g Guard,
    ) -> impl Iterator<Item = Shared<'g, N>> + 'a
    where
        N: 'g,
    {
        (0..self.buckets.len()).flat_map(move |b| self.iter_bucket(b, guard))
    }

    /// Drain every chain, returning the raw shared pointers without freeing
    /// them. Only meaningful when the caller has exclusive access (e.g. table
    /// teardown); the storage layer uses it to free all versions exactly once.
    pub fn drain_exclusive<'g>(&self, guard: &'g Guard) -> Vec<Shared<'g, N>> {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            let mut current = b.load(Ordering::Acquire, guard);
            b.store(Shared::null(), Ordering::Release);
            while !current.is_null() {
                out.push(current);
                current = unsafe { current.deref() }
                    .next_ptr(self.slot)
                    .load(Ordering::Acquire, guard);
            }
        }
        out
    }
}

/// Iterator over the nodes of one bucket.
pub struct BucketIter<'g, N: ChainNode> {
    slot: usize,
    current: Shared<'g, N>,
    guard: &'g Guard,
}

impl<'g, N: ChainNode> Iterator for BucketIter<'g, N> {
    type Item = Shared<'g, N>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.current.is_null() {
            return None;
        }
        let item = self.current;
        let node = unsafe { item.deref() };
        self.current = node.next_ptr(self.slot).load(Ordering::Acquire, self.guard);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::epoch::{self, Owned};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Minimal two-index test node.
    struct TestNode {
        pk: u64,
        sk: u64,
        payload: u64,
        nexts: [Atomic<TestNode>; 2],
    }

    impl TestNode {
        fn new(pk: u64, sk: u64, payload: u64) -> Owned<TestNode> {
            Owned::new(TestNode {
                pk,
                sk,
                payload,
                nexts: [Atomic::null(), Atomic::null()],
            })
        }
    }

    impl ChainNode for TestNode {
        fn next_ptr(&self, slot: usize) -> &Atomic<TestNode> {
            &self.nexts[slot]
        }
        fn key(&self, slot: usize) -> Key {
            if slot == 0 {
                self.pk
            } else {
                self.sk
            }
        }
    }

    /// A test index that frees the nodes still linked into it on teardown.
    /// A `HashIndex` only threads pointers through nodes it does not own
    /// (the storage layer frees versions), so without this every node a
    /// test links would leak. A test frees the nodes it unlinks itself.
    struct Fixture(HashIndex<TestNode>);

    impl Fixture {
        fn new(slot: usize, bucket_count: usize) -> Fixture {
            Fixture(HashIndex::new(slot, bucket_count))
        }
    }

    impl std::ops::Deref for Fixture {
        type Target = HashIndex<TestNode>;
        fn deref(&self) -> &HashIndex<TestNode> {
            &self.0
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let guard = epoch::pin();
            for node in self.0.drain_exclusive(&guard) {
                // SAFETY: teardown has exclusive access; every node was
                // allocated by `TestNode::new` and is linked exactly once
                // into this index.
                drop(unsafe { node.into_owned() });
            }
        }
    }

    fn collect_payloads(index: &HashIndex<TestNode>, key: u64) -> Vec<u64> {
        let guard = epoch::pin();
        let mut v: Vec<u64> = index
            .iter_key(key, &guard)
            .filter(|n| unsafe { n.deref() }.key(index.slot()) == key)
            .map(|n| unsafe { n.deref() }.payload)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_and_lookup() {
        let index = Fixture::new(0, 16);
        let guard = epoch::pin();
        for i in 0..100u64 {
            let node = TestNode::new(i, i % 10, i * 2).into_shared(&guard);
            index.insert(node, &guard);
        }
        drop(guard);
        for i in 0..100u64 {
            assert_eq!(collect_payloads(&index, i), vec![i * 2]);
        }
        assert_eq!(collect_payloads(&index, 1000), Vec::<u64>::new());
    }

    #[test]
    fn two_indexes_share_nodes() {
        // The primary fixture frees the shared nodes; the secondary only
        // threads through them.
        let primary = Fixture::new(0, 8);
        let secondary = HashIndex::<TestNode>::new(1, 4);
        let guard = epoch::pin();
        for i in 0..30u64 {
            let node = TestNode::new(i, i % 3, i).into_shared(&guard);
            primary.insert(node, &guard);
            secondary.insert(node, &guard);
        }
        // Secondary key 1 should see nodes 1, 4, 7, ... 28 (10 of them).
        let hits: Vec<u64> = secondary
            .iter_key(1, &guard)
            .filter(|n| unsafe { n.deref() }.key(1) == 1)
            .map(|n| unsafe { n.deref() }.payload)
            .collect();
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn duplicate_keys_chain_together() {
        let index = Fixture::new(0, 4);
        let guard = epoch::pin();
        for payload in 0..5u64 {
            index.insert(TestNode::new(42, 0, payload).into_shared(&guard), &guard);
        }
        assert_eq!(collect_payloads(&index, 42), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unlink_removes_exactly_one_node() {
        let index = Fixture::new(0, 2);
        let guard = epoch::pin();
        let mut nodes = Vec::new();
        for payload in 0..5u64 {
            let shared = TestNode::new(7, 0, payload).into_shared(&guard);
            index.insert(shared, &guard);
            nodes.push(shared);
        }
        assert!(index.unlink(nodes[2], &guard));
        assert_eq!(collect_payloads(&index, 7), vec![0, 1, 3, 4]);
        // Unlinking again returns false.
        assert!(!index.unlink(nodes[2], &guard));
        // Unlink head and tail too.
        assert!(index.unlink(nodes[4], &guard));
        assert!(index.unlink(nodes[0], &guard));
        assert_eq!(collect_payloads(&index, 7), vec![1, 3]);
        for node in [nodes[0], nodes[2], nodes[4]] {
            // SAFETY: unlinked above and never touched again.
            drop(unsafe { node.into_owned() });
        }
    }

    #[test]
    fn iter_all_visits_everything() {
        let index = Fixture::new(0, 7);
        let guard = epoch::pin();
        for i in 0..50u64 {
            index.insert(TestNode::new(i, 0, i).into_shared(&guard), &guard);
        }
        let mut seen: Vec<u64> = index
            .iter_all(&guard)
            .map(|n| unsafe { n.deref() }.payload)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_inserts_are_not_lost() {
        let index = Arc::new(Fixture::new(0, 64));
        let inserted = Arc::new(AtomicU64::new(0));
        let threads = 4;
        let per_thread = 500u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let index = Arc::clone(&index);
            let inserted = Arc::clone(&inserted);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let key = t as u64 * per_thread + i;
                    let guard = epoch::pin();
                    index.insert(TestNode::new(key, 0, key).into_shared(&guard), &guard);
                    inserted.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let guard = epoch::pin();
        let count = index.iter_all(&guard).count() as u64;
        assert_eq!(count, threads as u64 * per_thread);
        assert_eq!(count, inserted.load(Ordering::Relaxed));
    }

    #[test]
    fn concurrent_insert_during_unlink_retries_cleanly() {
        // Unlink the head of a bucket while another thread keeps pushing new
        // heads: every push must survive, the unlinked node must disappear.
        let index = Arc::new(Fixture::new(0, 1));
        let guard = epoch::pin();
        let victim = TestNode::new(0, 0, 900_999).into_shared(&guard);
        index.insert(victim, &guard);
        let victim_addr = victim.as_raw() as usize;
        drop(guard);

        let pusher = {
            let index = Arc::clone(&index);
            std::thread::spawn(move || {
                for i in 1..=2000u64 {
                    let guard = epoch::pin();
                    index.insert(TestNode::new(i, 0, i).into_shared(&guard), &guard);
                }
            })
        };
        let unlinker = {
            let index = Arc::clone(&index);
            std::thread::spawn(move || {
                let guard = epoch::pin();
                let target = index
                    .iter_bucket(0, &guard)
                    .find(|n| n.as_raw() as usize == victim_addr)
                    .expect("victim still linked");
                assert!(index.unlink(target, &guard));
            })
        };
        pusher.join().unwrap();
        unlinker.join().unwrap();

        let guard = epoch::pin();
        let payloads: Vec<u64> = index
            .iter_all(&guard)
            .map(|n| unsafe { n.deref() }.payload)
            .collect();
        assert_eq!(payloads.len(), 2000);
        assert!(!payloads.contains(&900_999));
        // SAFETY: both threads are done; the unlinked victim is unreachable.
        drop(unsafe { Owned::from_raw(victim_addr as *mut TestNode) });
    }

    #[test]
    fn drain_exclusive_empties_the_index() {
        let index = HashIndex::<TestNode>::new(0, 4);
        let guard = epoch::pin();
        for i in 0..10u64 {
            index.insert(TestNode::new(i, 0, i).into_shared(&guard), &guard);
        }
        let drained = index.drain_exclusive(&guard);
        assert_eq!(drained.len(), 10);
        assert_eq!(index.iter_all(&guard).count(), 0);
        // Free them to keep miri/asan happy about leaks (exclusive access).
        for node in drained {
            unsafe { guard.defer_destroy(node) };
        }
    }
}
