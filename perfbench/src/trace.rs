//! The traced run's instrumentation: a decorator engine that times every
//! `Engine`/`EngineTxn` call, and the per-client recorder it reports to.
//!
//! [`Traced<E>`] wraps any engine. Its transaction type forwards each call to
//! the wrapped transaction and records the call's duration in the calling
//! thread's [`ClientTrace`] (installed by the client loop on each client thread;
//! calls on a thread without one are forwarded untimed). No engine code
//! changes: the workload generators are generic over `Engine`, so the client loop
//! simply hands them `Traced<E>` instead of `E`.
//!
//! Every call lands in a full-count histogram of its kind. One transaction
//! attempt in `sample_every` additionally leaves spans — a root span for the
//! attempt and one child span per engine call, all carrying the attempt's id
//! — in a buffer preallocated when the client starts; a full buffer drops
//! further spans and counts them. Engine calls never nest (visitors must not
//! call back into the engine), so a call span's self time is its duration,
//! and the attempt's client time is its latency minus the summed call time.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

use mmdb_common::durability::Durability;
use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::Result;
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp, TxnId};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{Row, TableSpec};
use mmdb_common::stats::EngineStats;

use crate::hist::Histogram;

/// Engine call kinds, grouped the way the per-layer metrics report them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `begin` / `begin_hinted`.
    Begin,
    /// `read`, `read_with`, `scan_key`, `scan_key_with`.
    Read,
    /// `scan_range`, `scan_range_with` (the ordered index).
    ScanRange,
    /// `insert`, `update`, `delete`.
    Write,
    /// `commit`.
    Commit,
    /// `abort`, and the implicit abort of a dropped transaction.
    Abort,
}

/// Number of [`Call`] kinds.
pub const CALLS: usize = 6;

impl Call {
    /// Every kind, in index order.
    pub const ALL: [Call; CALLS] = [
        Call::Begin,
        Call::Read,
        Call::ScanRange,
        Call::Write,
        Call::Commit,
        Call::Abort,
    ];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "begin",
            Call::Read => "read",
            Call::ScanRange => "scan_range",
            Call::Write => "write",
            Call::Commit => "commit",
            Call::Abort => "abort",
        }
    }
}

/// Full-count statistics of one call kind.
#[derive(Clone, Default)]
pub struct CallStats {
    /// Duration of every call, in nanoseconds.
    pub ns: Histogram,
    /// Calls that returned an error.
    pub errors: u64,
    /// Rows the calls returned or changed.
    pub rows: u64,
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Attempt id shared by every span of one transaction attempt.
    pub txn: u64,
    /// Index of the parent span in the same buffer (`u32::MAX` for a root).
    pub parent: u32,
    /// Span name: a [`Call`] name, or `"txn"` for the root.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// One client thread's trace: call histograms, attempt accounting and spans.
pub struct ClientTrace {
    /// Per-call statistics, indexed by `Call as usize`.
    pub calls: Vec<CallStats>,
    /// Latency of every traced attempt (committed or not), in nanoseconds.
    pub latency: Histogram,
    /// Latency minus the summed engine-call time of every traced attempt.
    pub client: Histogram,
    /// Spans of sampled attempts, in recording order.
    pub spans: Vec<Span>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
    /// Spans of the clients merged into this one (see [`ClientTrace::merge`]).
    pub merged_spans: u64,
    epoch: Instant,
    sample_every: u64,
    client_id: u64,
    attempts: u64,
    in_txn_ns: u64,
    root: Option<u32>,
}

impl ClientTrace {
    /// A recorder for client `client_id` sampling one attempt in
    /// `sample_every` and holding at most `span_capacity` spans.
    pub fn new(client_id: usize, epoch: Instant, sample_every: u64, span_capacity: usize) -> Self {
        ClientTrace {
            calls: vec![CallStats::default(); CALLS],
            latency: Histogram::default(),
            client: Histogram::default(),
            spans: Vec::with_capacity(span_capacity),
            dropped: 0,
            merged_spans: 0,
            epoch,
            sample_every: sample_every.max(1),
            client_id: client_id as u64,
            attempts: 0,
            in_txn_ns: 0,
            root: None,
        }
    }

    fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn attempt_id(&self) -> u64 {
        (self.client_id << 48) | self.attempts
    }

    fn begin_attempt(&mut self, start: Instant) {
        self.attempts += 1;
        self.in_txn_ns = 0;
        self.root = None;
        if self.attempts.is_multiple_of(self.sample_every) {
            let span = Span {
                txn: self.attempt_id(),
                parent: u32::MAX,
                name: "txn",
                start_ns: self.since_epoch(start),
                end_ns: 0,
            };
            self.root = self.push(span);
        }
    }

    fn end_attempt(&mut self, end: Instant, latency_ns: u64) {
        self.latency.record(latency_ns);
        self.client
            .record(latency_ns.saturating_sub(self.in_txn_ns));
        if let Some(root) = self.root.take() {
            let end_ns = self.since_epoch(end);
            self.spans[root as usize].end_ns = end_ns;
        }
    }

    fn record(&mut self, call: Call, start: Instant, end: Instant, ok: bool, rows: u64) {
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        let stats = &mut self.calls[call as usize];
        stats.ns.record(ns);
        stats.rows += rows;
        stats.errors += u64::from(!ok);
        self.in_txn_ns += ns;
        if let Some(root) = self.root {
            let span = Span {
                txn: self.attempt_id(),
                parent: root,
                name: call.name(),
                start_ns: self.since_epoch(start),
                end_ns: self.since_epoch(end),
            };
            self.push(span);
        }
    }

    /// Fold another client's histograms and counts into this one (its
    /// spans are counted, not copied).
    pub fn merge(&mut self, other: &ClientTrace) {
        for (a, b) in self.calls.iter_mut().zip(&other.calls) {
            a.ns.merge(&b.ns);
            a.errors += b.errors;
            a.rows += b.rows;
        }
        self.latency.merge(&other.latency);
        self.client.merge(&other.client);
        self.dropped += other.dropped;
        self.merged_spans += other.spans.len() as u64 + other.merged_spans;
    }

    /// Spans recorded by this client and every client merged into it.
    pub fn total_spans(&self) -> u64 {
        self.spans.len() as u64 + self.merged_spans
    }

    /// Summed duration of every recorded engine call.
    pub fn engine_ns(&self) -> u128 {
        self.calls.iter().map(|c| c.ns.sum()).sum()
    }

    /// Write the spans as tab-separated lines
    /// (`txn span parent name start_ns end_ns`).
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{:x}\t{i}\t{parent}\t{}\t{}\t{}",
                s.txn, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ClientTrace>> = const { RefCell::new(None) };
}

/// Install `trace` as this thread's recorder.
pub fn install(trace: ClientTrace) {
    ACTIVE.with(|a| *a.borrow_mut() = Some(trace));
}

/// Remove and return this thread's recorder.
pub fn take() -> Option<ClientTrace> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Mark the start of a transaction attempt on this thread.
pub fn begin_attempt(start: Instant) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.begin_attempt(start);
        }
    });
}

/// Mark the end of the current attempt; `latency_ns` is its measured
/// latency.
pub fn end_attempt(end: Instant, latency_ns: u64) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.end_attempt(end, latency_ns);
        }
    });
}

#[inline]
fn record(call: Call, start: Instant, ok: bool, rows: u64) {
    let end = Instant::now();
    // `try_with`: a transaction dropped while its thread tears down must
    // not panic on the already-destroyed recorder.
    let _ = ACTIVE.try_with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.record(call, start, end, ok, rows);
        }
    });
}

/// Decorator engine: forwards every call to `E` and times the transaction
/// calls (see the module docs).
#[derive(Clone)]
pub struct Traced<E> {
    inner: E,
}

impl<E: Engine> Traced<E> {
    /// Wrap `inner`.
    pub fn new(inner: E) -> Self {
        Traced { inner }
    }
}

impl<E: Engine> Engine for Traced<E> {
    type Txn = TracedTxn<E::Txn>;

    fn create_table(&self, spec: TableSpec) -> Result<TableId> {
        self.inner.create_table(spec)
    }

    fn begin(&self, isolation: IsolationLevel) -> Self::Txn {
        let start = Instant::now();
        let txn = self.inner.begin(isolation);
        record(Call::Begin, start, true, 0);
        TracedTxn { inner: Some(txn) }
    }

    fn begin_hinted(
        &self,
        read_only: bool,
        tables: &[TableId],
        isolation: IsolationLevel,
    ) -> Self::Txn {
        let start = Instant::now();
        let txn = self.inner.begin_hinted(read_only, tables, isolation);
        record(Call::Begin, start, true, 0);
        TracedTxn { inner: Some(txn) }
    }

    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn maintenance(&self) {
        self.inner.maintenance()
    }
}

/// Transaction of a [`Traced`] engine. `inner` is `None` only after
/// `commit`/`abort` consumed it.
pub struct TracedTxn<T> {
    inner: Option<T>,
}

impl<T: EngineTxn> TracedTxn<T> {
    fn txn(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("transaction used after commit/abort")
    }
}

/// Rows a read-style call touched: 1 for a found row, the count for scans.
fn found<V>(r: &Result<Option<V>>) -> u64 {
    matches!(r, Ok(Some(_))) as u64
}

impl<T: EngineTxn> EngineTxn for TracedTxn<T> {
    fn id(&self) -> TxnId {
        self.inner.as_ref().expect("live transaction").id()
    }

    fn isolation(&self) -> IsolationLevel {
        self.inner.as_ref().expect("live transaction").isolation()
    }

    fn set_durability(&mut self, durability: Durability) {
        self.txn().set_durability(durability)
    }

    fn insert(&mut self, table: TableId, row: Row) -> Result<()> {
        let start = Instant::now();
        let r = self.txn().insert(table, row);
        record(Call::Write, start, r.is_ok(), r.is_ok() as u64);
        r
    }

    fn read(&mut self, table: TableId, index: IndexId, key: Key) -> Result<Option<Row>> {
        let start = Instant::now();
        let r = self.txn().read(table, index, key);
        record(Call::Read, start, r.is_ok(), found(&r));
        r
    }

    fn scan_key(&mut self, table: TableId, index: IndexId, key: Key) -> Result<Vec<Row>> {
        let start = Instant::now();
        let r = self.txn().scan_key(table, index, key);
        let rows = r.as_ref().map_or(0, |v| v.len() as u64);
        record(Call::Read, start, r.is_ok(), rows);
        r
    }

    fn read_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<bool> {
        let start = Instant::now();
        let r = self.txn().read_with(table, index, key, visit);
        record(Call::Read, start, r.is_ok(), matches!(r, Ok(true)) as u64);
        r
    }

    fn scan_key_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        let start = Instant::now();
        let r = self.txn().scan_key_with(table, index, key, visit);
        record(
            Call::Read,
            start,
            r.is_ok(),
            *r.as_ref().unwrap_or(&0) as u64,
        );
        r
    }

    fn scan_range(&mut self, table: TableId, index: IndexId, lo: Key, hi: Key) -> Result<Vec<Row>> {
        let start = Instant::now();
        let r = self.txn().scan_range(table, index, lo, hi);
        let rows = r.as_ref().map_or(0, |v| v.len() as u64);
        record(Call::ScanRange, start, r.is_ok(), rows);
        r
    }

    fn scan_range_with(
        &mut self,
        table: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        let start = Instant::now();
        let r = self.txn().scan_range_with(table, index, lo, hi, visit);
        record(
            Call::ScanRange,
            start,
            r.is_ok(),
            *r.as_ref().unwrap_or(&0) as u64,
        );
        r
    }

    fn update(&mut self, table: TableId, index: IndexId, key: Key, new_row: Row) -> Result<bool> {
        let start = Instant::now();
        let r = self.txn().update(table, index, key, new_row);
        record(Call::Write, start, r.is_ok(), matches!(r, Ok(true)) as u64);
        r
    }

    fn delete(&mut self, table: TableId, index: IndexId, key: Key) -> Result<bool> {
        let start = Instant::now();
        let r = self.txn().delete(table, index, key);
        record(Call::Write, start, r.is_ok(), matches!(r, Ok(true)) as u64);
        r
    }

    fn commit(mut self) -> Result<Timestamp> {
        let txn = self.inner.take().expect("live transaction");
        let start = Instant::now();
        let r = txn.commit();
        record(Call::Commit, start, r.is_ok(), 0);
        r
    }

    fn abort(mut self) {
        let txn = self.inner.take().expect("live transaction");
        let start = Instant::now();
        txn.abort();
        record(Call::Abort, start, true, 0);
    }
}

impl<T> Drop for TracedTxn<T> {
    fn drop(&mut self) {
        // A transaction dropped unfinished (a generator returning early on
        // an error) aborts in the wrapped transaction's own `Drop`.
        if let Some(txn) = self.inner.take() {
            let start = Instant::now();
            drop(txn);
            record(Call::Abort, start, true, 0);
        }
    }
}
