//! Tagged 64-bit `Begin` / `End` words stored in every version header.
//!
//! The paper (§2.3) stores either a timestamp or a transaction ID in the
//! `Begin` and `End` fields of a version, with one bit indicating which. The
//! pessimistic scheme (§4.1.1) further subdivides the non-timestamp form of
//! the `End` field into an embedded record lock:
//!
//! ```text
//! End word, ContentType = 1 (bit 63 set):
//!   bit 62        NoMoreReadLocks   no further read locks accepted
//!   bits 54..=61  ReadLockCount     number of read locks (max 255)
//!   bits 0..=53   WriteLock         ID of the write-locking transaction,
//!                                   or all-ones (= NO_WRITER) if none
//! ```
//!
//! The optimistic scheme only ever uses the `WriteLock` sub-field ("the End
//! field contains a transaction ID"), so both schemes share one encoding and
//! optimistic and pessimistic transactions can coexist (§4.5).
//!
//! All encodings round-trip losslessly; this is checked by unit tests and
//! seeded property loops in this module.

use crate::ids::{Timestamp, TxnId, INFINITY_TS, MAX_TXN_ID};

/// Bit 63: set when the word carries transaction metadata rather than a
/// timestamp.
const CONTENT_TAG: u64 = 1 << 63;
/// Bit 62 of a lock word: the `NoMoreReadLocks` starvation-prevention flag.
const NO_MORE_READ_LOCKS_BIT: u64 = 1 << 62;
/// Bit offset of the 8-bit `ReadLockCount` sub-field.
const READ_COUNT_SHIFT: u32 = 54;
/// Mask of the 8-bit `ReadLockCount` sub-field (before shifting).
const READ_COUNT_MASK: u64 = 0xFF << READ_COUNT_SHIFT;
/// Mask of the 54-bit `WriteLock` sub-field.
const WRITER_MASK: u64 = (1 << 54) - 1;
/// Sentinel stored in the `WriteLock` sub-field when no transaction holds the
/// write lock (all ones, "infinity" in the paper's terms).
const NO_WRITER: u64 = WRITER_MASK;

/// Maximum number of concurrent read locks a version can carry (§4.1.1: the
/// `ReadLockCount` field is 8 bits wide).
pub const MAX_READ_LOCKS: u8 = u8::MAX;

/// Decoded form of a version's `Begin` field.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BeginWord {
    /// The version was created by a transaction that committed at this time.
    Timestamp(Timestamp),
    /// The version was created by this (possibly still active) transaction.
    Txn(TxnId),
}

impl BeginWord {
    /// Encode into the raw 64-bit representation stored in the version.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            BeginWord::Timestamp(ts) => {
                debug_assert!(ts.0 & CONTENT_TAG == 0, "timestamp overflows 63 bits");
                ts.0
            }
            BeginWord::Txn(id) => {
                debug_assert!(id.0 <= MAX_TXN_ID, "txn id overflows 54 bits");
                CONTENT_TAG | id.0
            }
        }
    }

    /// Decode from the raw 64-bit representation.
    #[inline]
    pub fn decode(raw: u64) -> Self {
        if raw & CONTENT_TAG == 0 {
            BeginWord::Timestamp(Timestamp(raw))
        } else {
            BeginWord::Txn(TxnId(raw & WRITER_MASK))
        }
    }

    /// Returns the timestamp if the word holds one.
    #[inline]
    pub fn as_timestamp(self) -> Option<Timestamp> {
        match self {
            BeginWord::Timestamp(ts) => Some(ts),
            BeginWord::Txn(_) => None,
        }
    }

    /// Returns the transaction ID if the word holds one.
    #[inline]
    pub fn as_txn(self) -> Option<TxnId> {
        match self {
            BeginWord::Txn(id) => Some(id),
            BeginWord::Timestamp(_) => None,
        }
    }
}

/// Decoded form of the embedded record lock stored in a version's `End`
/// field when its content tag is set (§4.1.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LockWord {
    /// When set, no further read locks are accepted (prevents an updater from
    /// being starved by a continuous stream of new readers).
    pub no_more_read_locks: bool,
    /// Number of transactions currently holding a read lock on the version.
    pub read_lock_count: u8,
    /// Transaction holding the write lock, if any.
    pub writer: Option<TxnId>,
}

impl LockWord {
    /// A lock word with no readers, no writer and the starvation flag clear.
    pub const EMPTY: LockWord = LockWord {
        no_more_read_locks: false,
        read_lock_count: 0,
        writer: None,
    };

    /// Lock word representing a bare write lock by `txn` (this is what the
    /// optimistic scheme stores when it "copies its transaction ID into the
    /// End field").
    #[inline]
    pub fn write_locked(txn: TxnId) -> Self {
        LockWord {
            no_more_read_locks: false,
            read_lock_count: 0,
            writer: Some(txn),
        }
    }

    /// Encode into the 63 payload bits of an End word (without the content
    /// tag bit).
    #[inline]
    fn payload(self) -> u64 {
        let mut w = 0u64;
        if self.no_more_read_locks {
            w |= NO_MORE_READ_LOCKS_BIT;
        }
        w |= (self.read_lock_count as u64) << READ_COUNT_SHIFT;
        match self.writer {
            Some(id) => {
                debug_assert!(id.0 <= MAX_TXN_ID);
                w |= id.0;
            }
            None => w |= NO_WRITER,
        }
        w
    }

    /// Decode from the 63 payload bits of an End word.
    #[inline]
    fn from_payload(raw: u64) -> Self {
        let writer_bits = raw & WRITER_MASK;
        LockWord {
            no_more_read_locks: raw & NO_MORE_READ_LOCKS_BIT != 0,
            read_lock_count: ((raw & READ_COUNT_MASK) >> READ_COUNT_SHIFT) as u8,
            writer: if writer_bits == NO_WRITER {
                None
            } else {
                Some(TxnId(writer_bits))
            },
        }
    }

    /// Copy with one more read lock. Returns `None` if the count is already
    /// saturated (the caller must abort, §4.1.1).
    #[inline]
    pub fn with_extra_reader(self) -> Option<Self> {
        if self.read_lock_count == MAX_READ_LOCKS {
            return None;
        }
        Some(LockWord {
            read_lock_count: self.read_lock_count + 1,
            ..self
        })
    }

    /// Copy with one read lock released.
    ///
    /// # Panics
    /// Panics in debug builds if no read locks are held.
    #[inline]
    pub fn with_reader_released(self) -> Self {
        debug_assert!(
            self.read_lock_count > 0,
            "releasing a read lock that is not held"
        );
        LockWord {
            read_lock_count: self.read_lock_count.saturating_sub(1),
            ..self
        }
    }

    /// Copy with the write lock set to `txn`.
    #[inline]
    pub fn with_writer(self, txn: TxnId) -> Self {
        LockWord {
            writer: Some(txn),
            ..self
        }
    }

    /// True if any transaction holds a read lock.
    #[inline]
    pub fn is_read_locked(self) -> bool {
        self.read_lock_count > 0
    }

    /// True if a transaction holds the write lock.
    #[inline]
    pub fn is_write_locked(self) -> bool {
        self.writer.is_some()
    }
}

/// Decoded form of a version's `End` field.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EndWord {
    /// The version was superseded (or deleted) by a transaction that
    /// committed at this time; [`INFINITY_TS`] means it is still the latest.
    Timestamp(Timestamp),
    /// The version carries transaction metadata: a write-locking transaction
    /// and/or pessimistic read locks.
    Lock(LockWord),
}

impl EndWord {
    /// The End word of a freshly created, still-latest version.
    pub const LATEST: EndWord = EndWord::Timestamp(INFINITY_TS);

    /// End word representing a bare write lock by `txn` (optimistic update).
    #[inline]
    pub fn write_locked(txn: TxnId) -> Self {
        EndWord::Lock(LockWord::write_locked(txn))
    }

    /// Encode into the raw 64-bit representation stored in the version.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            EndWord::Timestamp(ts) => {
                debug_assert!(ts.0 & CONTENT_TAG == 0, "timestamp overflows 63 bits");
                ts.0
            }
            EndWord::Lock(lock) => CONTENT_TAG | lock.payload(),
        }
    }

    /// Decode from the raw 64-bit representation.
    #[inline]
    pub fn decode(raw: u64) -> Self {
        if raw & CONTENT_TAG == 0 {
            EndWord::Timestamp(Timestamp(raw))
        } else {
            EndWord::Lock(LockWord::from_payload(raw))
        }
    }

    /// Returns the timestamp if the word holds one.
    #[inline]
    pub fn as_timestamp(self) -> Option<Timestamp> {
        match self {
            EndWord::Timestamp(ts) => Some(ts),
            EndWord::Lock(_) => None,
        }
    }

    /// Returns the lock word if the word holds one.
    #[inline]
    pub fn as_lock(self) -> Option<LockWord> {
        match self {
            EndWord::Lock(l) => Some(l),
            EndWord::Timestamp(_) => None,
        }
    }

    /// The transaction holding the write lock, if any (works for both the
    /// optimistic "transaction ID in the End field" form and the pessimistic
    /// lock-word form).
    #[inline]
    pub fn writer(self) -> Option<TxnId> {
        match self {
            EndWord::Lock(l) => l.writer,
            EndWord::Timestamp(_) => None,
        }
    }

    /// True if this version is the latest committed version (End ==
    /// infinity), i.e. updatable without consulting the transaction table.
    #[inline]
    pub fn is_latest(self) -> bool {
        matches!(self, EndWord::Timestamp(ts) if ts.is_infinity())
    }
}

/// Raw-word helpers used on hot paths where we want to avoid constructing the
/// enum just to ask a single question.
pub mod raw {
    use super::*;

    /// Does this raw Begin/End word hold a plain timestamp?
    #[inline]
    pub fn is_timestamp(raw: u64) -> bool {
        raw & CONTENT_TAG == 0
    }

    /// Raw encoding of a timestamp word.
    #[inline]
    pub fn timestamp(ts: Timestamp) -> u64 {
        ts.0
    }

    /// Raw encoding of "infinity".
    #[inline]
    pub fn infinity() -> u64 {
        INFINITY_TS.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_word_roundtrip_timestamp() {
        for ts in [0u64, 1, 100, INFINITY_TS.0] {
            let w = BeginWord::Timestamp(Timestamp(ts));
            assert_eq!(BeginWord::decode(w.encode()), w);
        }
    }

    #[test]
    fn begin_word_roundtrip_txn() {
        for id in [0u64, 1, 54, MAX_TXN_ID] {
            let w = BeginWord::Txn(TxnId(id));
            assert_eq!(BeginWord::decode(w.encode()), w);
        }
    }

    #[test]
    fn end_word_latest_is_infinity() {
        assert_eq!(EndWord::LATEST.as_timestamp(), Some(INFINITY_TS));
        assert!(EndWord::LATEST.is_latest());
        assert!(!EndWord::write_locked(TxnId(3)).is_latest());
    }

    #[test]
    fn lock_word_empty_has_no_owners() {
        let l = LockWord::EMPTY;
        assert!(!l.is_read_locked());
        assert!(!l.is_write_locked());
        assert_eq!(EndWord::decode(EndWord::Lock(l).encode()), EndWord::Lock(l));
    }

    #[test]
    fn lock_word_write_lock_roundtrip() {
        let l = LockWord::write_locked(TxnId(777));
        let raw = EndWord::Lock(l).encode();
        assert_eq!(EndWord::decode(raw).writer(), Some(TxnId(777)));
        assert!(!raw::is_timestamp(raw));
    }

    #[test]
    fn lock_word_reader_count_saturates() {
        let mut l = LockWord::EMPTY;
        for i in 0..MAX_READ_LOCKS {
            l = l.with_extra_reader().expect("below max");
            assert_eq!(l.read_lock_count, i + 1);
        }
        assert!(
            l.with_extra_reader().is_none(),
            "256th reader must be refused"
        );
    }

    #[test]
    fn lock_word_release_reader() {
        let l = LockWord::EMPTY
            .with_extra_reader()
            .unwrap()
            .with_extra_reader()
            .unwrap();
        let l = l.with_reader_released();
        assert_eq!(l.read_lock_count, 1);
    }

    #[test]
    fn lock_word_fields_are_independent() {
        let l = LockWord {
            no_more_read_locks: true,
            read_lock_count: 200,
            writer: Some(TxnId(MAX_TXN_ID)),
        };
        let decoded = EndWord::decode(EndWord::Lock(l).encode());
        assert_eq!(decoded, EndWord::Lock(l));
    }

    #[test]
    fn optimistic_write_lock_has_zero_readers() {
        let w = EndWord::write_locked(TxnId(9));
        let lock = w.as_lock().unwrap();
        assert_eq!(lock.read_lock_count, 0);
        assert!(!lock.no_more_read_locks);
        assert_eq!(lock.writer, Some(TxnId(9)));
    }

    #[test]
    fn end_timestamp_visible_as_timestamp() {
        let w = EndWord::Timestamp(Timestamp(42));
        assert_eq!(w.as_timestamp(), Some(Timestamp(42)));
        assert_eq!(w.writer(), None);
        assert!(raw::is_timestamp(w.encode()));
    }

    // ---- tag-flip edge cases (timestamp ↔ txn-id forms) ----

    #[test]
    fn tag_bit_separates_timestamp_and_txn_forms() {
        // The all-ones 63-bit timestamp (infinity) must still decode as a
        // timestamp — its tag bit is clear.
        let inf = BeginWord::Timestamp(INFINITY_TS);
        assert!(raw::is_timestamp(inf.encode()));
        assert_eq!(BeginWord::decode(inf.encode()), inf);
        // The same low bits with the tag set decode as a transaction ID, not
        // a timestamp: a txn id of 0 is raw CONTENT_TAG alone.
        let t0 = BeginWord::Txn(TxnId(0));
        assert!(!raw::is_timestamp(t0.encode()));
        assert_eq!(t0.encode(), 1u64 << 63);
        assert_eq!(BeginWord::decode(t0.encode()), t0);
        // Timestamp 0 and txn 0 share low bits but differ by the tag.
        assert_ne!(BeginWord::Timestamp(Timestamp(0)).encode(), t0.encode());
    }

    #[test]
    fn same_numeric_value_roundtrips_through_both_forms() {
        for v in [0u64, 1, 1234, MAX_TXN_ID] {
            let as_ts = BeginWord::Timestamp(Timestamp(v));
            let as_txn = BeginWord::Txn(TxnId(v));
            assert_ne!(as_ts.encode(), as_txn.encode(), "tag must disambiguate {v}");
            assert_eq!(
                BeginWord::decode(as_ts.encode()).as_timestamp(),
                Some(Timestamp(v))
            );
            assert_eq!(BeginWord::decode(as_txn.encode()).as_txn(), Some(TxnId(v)));
        }
    }

    #[test]
    fn end_word_tag_flip_between_lock_and_timestamp() {
        // Finalizing a version flips Lock → Timestamp; the raw words must
        // land on opposite sides of the tag bit.
        let locked = EndWord::write_locked(TxnId(5));
        let finalized = EndWord::Timestamp(Timestamp(500));
        assert!(!raw::is_timestamp(locked.encode()));
        assert!(raw::is_timestamp(finalized.encode()));
        assert_eq!(raw::infinity(), INFINITY_TS.0);
        assert_eq!(raw::timestamp(Timestamp(500)), 500);
        assert_eq!(EndWord::decode(raw::infinity()), EndWord::LATEST);
    }

    // ---- lock-word sub-field edge cases ----

    #[test]
    fn writer_id_zero_is_distinct_from_no_writer() {
        // WriteLock sub-field: all-ones is the NO_WRITER sentinel; txn id 0
        // is a real writer and must not collapse into it.
        let with_zero = LockWord::write_locked(TxnId(0));
        let without = LockWord::EMPTY;
        assert_ne!(
            EndWord::Lock(with_zero).encode(),
            EndWord::Lock(without).encode()
        );
        assert_eq!(
            EndWord::decode(EndWord::Lock(with_zero).encode()).writer(),
            Some(TxnId(0))
        );
        assert_eq!(
            EndWord::decode(EndWord::Lock(without).encode()).writer(),
            None
        );
    }

    #[test]
    fn max_txn_id_writer_does_not_overflow_into_sentinel() {
        // MAX_TXN_ID is the largest *encodable* writer; the all-ones value
        // one above it is reserved as NO_WRITER.
        let l = LockWord::write_locked(TxnId(MAX_TXN_ID));
        let decoded = EndWord::decode(EndWord::Lock(l).encode());
        assert_eq!(decoded.writer(), Some(TxnId(MAX_TXN_ID)));
        assert_eq!(
            MAX_TXN_ID + 1,
            (1u64 << 54) - 1,
            "sentinel sits directly above MAX_TXN_ID"
        );
    }

    #[test]
    fn saturated_reader_count_roundtrips_and_refuses_more() {
        let l = LockWord {
            no_more_read_locks: false,
            read_lock_count: MAX_READ_LOCKS,
            writer: None,
        };
        let decoded = EndWord::decode(EndWord::Lock(l).encode())
            .as_lock()
            .unwrap();
        assert_eq!(decoded.read_lock_count, MAX_READ_LOCKS);
        assert!(
            decoded.with_extra_reader().is_none(),
            "saturation must refuse reader 256"
        );
        // Releasing one reader reopens exactly one slot.
        let released = decoded.with_reader_released();
        assert_eq!(released.read_lock_count, MAX_READ_LOCKS - 1);
        assert_eq!(
            released.with_extra_reader().unwrap().read_lock_count,
            MAX_READ_LOCKS
        );
    }

    #[test]
    fn reader_count_never_bleeds_into_adjacent_fields() {
        // A full reader count with no flag and no writer must leave the
        // NoMoreReadLocks bit clear and the writer sentinel intact.
        let l = LockWord {
            no_more_read_locks: false,
            read_lock_count: u8::MAX,
            writer: None,
        };
        let decoded = EndWord::decode(EndWord::Lock(l).encode())
            .as_lock()
            .unwrap();
        assert!(!decoded.no_more_read_locks);
        assert_eq!(decoded.writer, None);
        // And the converse: flag + writer with zero readers.
        let l = LockWord {
            no_more_read_locks: true,
            read_lock_count: 0,
            writer: Some(TxnId(MAX_TXN_ID)),
        };
        let decoded = EndWord::decode(EndWord::Lock(l).encode())
            .as_lock()
            .unwrap();
        assert!(decoded.no_more_read_locks);
        assert_eq!(decoded.read_lock_count, 0);
        assert_eq!(decoded.writer, Some(TxnId(MAX_TXN_ID)));
    }

    #[test]
    fn no_more_read_locks_survives_reader_transitions() {
        let l = LockWord {
            no_more_read_locks: true,
            read_lock_count: 3,
            writer: Some(TxnId(9)),
        };
        let bumped = l.with_extra_reader().unwrap();
        assert!(bumped.no_more_read_locks);
        let released = bumped.with_reader_released().with_reader_released();
        assert!(released.no_more_read_locks);
        assert_eq!(released.writer, Some(TxnId(9)));
        let relocked = released.with_writer(TxnId(11));
        assert!(relocked.no_more_read_locks);
        assert_eq!(relocked.writer, Some(TxnId(11)));
    }

    /// Seeded property loops: draw `k` of case `case` is
    /// `mix64(SEED ^ (case << 8) ^ k)` (SplitMix64 over a counter), so a
    /// failure names the case and seed that replay it.
    const SEED: u64 = 0x5EED_3017;
    const CASES: u64 = 256;

    fn draws(case: u64) -> impl Fn(u64) -> u64 {
        move |k| crate::hash::mix64(SEED ^ (case << 8) ^ k)
    }

    /// A txn id in `0..=MAX_TXN_ID`, or `None` one time in four.
    fn writer(r: &impl Fn(u64) -> u64) -> Option<TxnId> {
        (!r(8).is_multiple_of(4)).then(|| TxnId(r(9) % (MAX_TXN_ID + 1)))
    }

    #[test]
    fn prop_begin_roundtrip() {
        for case in 0..CASES {
            let r = draws(case);
            let t = BeginWord::Timestamp(Timestamp(r(0) % INFINITY_TS.0));
            let x = BeginWord::Txn(TxnId(r(1) % (MAX_TXN_ID + 1)));
            let got = (BeginWord::decode(t.encode()), BeginWord::decode(x.encode()));
            assert_eq!(got, (t, x), "case {case} (seed {SEED:#x})");
        }
    }

    #[test]
    fn prop_end_roundtrip() {
        for case in 0..CASES {
            let r = draws(case);
            let t = EndWord::Timestamp(Timestamp(r(0) % INFINITY_TS.0));
            let w = EndWord::Lock(LockWord {
                no_more_read_locks: r(1) & 1 == 1,
                read_lock_count: r(2) as u8,
                writer: writer(&r),
            });
            let got = (EndWord::decode(t.encode()), EndWord::decode(w.encode()));
            assert_eq!(got, (t, w), "case {case} (seed {SEED:#x})");
        }
    }

    #[test]
    fn prop_reader_increment_never_touches_other_fields() {
        for case in 0..CASES {
            let r = draws(case);
            let lock = LockWord {
                no_more_read_locks: r(1) & 1 == 1,
                read_lock_count: (r(2) % u8::MAX as u64) as u8,
                writer: writer(&r),
            };
            let bumped = LockWord {
                read_lock_count: lock.read_lock_count + 1,
                ..lock
            };
            let got = lock.with_extra_reader();
            assert_eq!(got, Some(bumped), "case {case} (seed {SEED:#x})");
        }
    }
}
