//! `begin_hinted` footprint declarations vs reality.
//!
//! Every workload driver declares the tables each transaction will touch so
//! a contention-adaptive engine (MV/A) can pick its concurrency-control mode
//! from the declared tables' contention signals. A drifted declaration is
//! worse than none: MV/A would consult the wrong contention cells. These
//! tests wrap a real engine in a recording shim and assert, per transaction
//! type, that
//!
//! 1. every table an execution touches was declared (`touched ⊆ declared`),
//! 2. over many seeded executions every declared table is actually touched
//!    (`⋃ touched == declared` — no stale over-declaration), and
//! 3. the `read_only` flag is honest: read-only transactions never write.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::Result;
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp, TxnId};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{Row, TableSpec};
use mmdb_common::stats::EngineStats;
use mmdb_core::{MvConfig, MvEngine};
use mmdb_workload::smallbank::{SbParams, SbTxnKind, SmallBank};
use mmdb_workload::tatp::Tatp;
use mmdb_workload::tpcc_lite::{TpccKind, TpccLite, TpccParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one hinted transaction declared and did.
#[derive(Debug, Clone, Default)]
struct Trace {
    declared: BTreeSet<TableId>,
    read_only: bool,
    touched: BTreeSet<TableId>,
    wrote: bool,
}

/// Engine wrapper that records, per `begin_hinted` transaction, the declared
/// footprint and the tables actually touched. Unhinted `begin` transactions
/// (setup) are not traced.
struct RecordingEngine {
    inner: MvEngine,
    traces: Arc<Mutex<Vec<Trace>>>,
}

impl RecordingEngine {
    fn new() -> Self {
        RecordingEngine {
            inner: MvEngine::optimistic(MvConfig::default()),
            traces: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn take_traces(&self) -> Vec<Trace> {
        std::mem::take(&mut self.traces.lock().unwrap())
    }
}

struct RecordingTxn {
    inner: <MvEngine as Engine>::Txn,
    slot: Option<usize>,
    traces: Arc<Mutex<Vec<Trace>>>,
}

impl RecordingTxn {
    fn touch(&mut self, table: TableId, write: bool) {
        if let Some(slot) = self.slot {
            let mut traces = self.traces.lock().unwrap();
            let trace = &mut traces[slot];
            trace.touched.insert(table);
            trace.wrote |= write;
        }
    }
}

impl Engine for RecordingEngine {
    type Txn = RecordingTxn;

    fn create_table(&self, spec: TableSpec) -> Result<TableId> {
        self.inner.create_table(spec)
    }

    fn begin(&self, isolation: IsolationLevel) -> RecordingTxn {
        RecordingTxn {
            inner: self.inner.begin(isolation),
            slot: None,
            traces: Arc::clone(&self.traces),
        }
    }

    fn begin_hinted(
        &self,
        read_only: bool,
        tables: &[TableId],
        isolation: IsolationLevel,
    ) -> RecordingTxn {
        let slot = {
            let mut traces = self.traces.lock().unwrap();
            traces.push(Trace {
                declared: tables.iter().copied().collect(),
                read_only,
                ..Default::default()
            });
            traces.len() - 1
        };
        RecordingTxn {
            inner: self.inner.begin_hinted(read_only, tables, isolation),
            slot: Some(slot),
            traces: Arc::clone(&self.traces),
        }
    }

    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        "REC"
    }
}

impl EngineTxn for RecordingTxn {
    fn id(&self) -> TxnId {
        self.inner.id()
    }

    fn isolation(&self) -> IsolationLevel {
        self.inner.isolation()
    }

    fn insert(&mut self, table: TableId, row: Row) -> Result<()> {
        self.touch(table, true);
        self.inner.insert(table, row)
    }

    fn read_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<bool> {
        self.touch(table, false);
        self.inner.read_with(table, index, key, visit)
    }

    fn scan_key_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.touch(table, false);
        self.inner.scan_key_with(table, index, key, visit)
    }

    fn scan_range_with(
        &mut self,
        table: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.touch(table, false);
        self.inner.scan_range_with(table, index, lo, hi, visit)
    }

    fn update(&mut self, table: TableId, index: IndexId, key: Key, new_row: Row) -> Result<bool> {
        self.touch(table, true);
        self.inner.update(table, index, key, new_row)
    }

    fn delete(&mut self, table: TableId, index: IndexId, key: Key) -> Result<bool> {
        self.touch(table, true);
        self.inner.delete(table, index, key)
    }

    fn commit(self) -> Result<Timestamp> {
        self.inner.commit()
    }

    fn abort(self) {
        self.inner.abort()
    }
}

/// Check the traces of many executions of one transaction type: per run
/// `touched ⊆ declared` and the read-only flag is honest; across runs the
/// declared set is exactly the union of touched tables.
fn check_traces(what: &str, traces: &[Trace]) {
    assert!(!traces.is_empty(), "{what}: no hinted transactions traced");
    let declared = traces[0].declared.clone();
    let mut union = BTreeSet::new();
    for trace in traces {
        assert_eq!(
            trace.declared, declared,
            "{what}: declared footprint must be the same on every run"
        );
        assert!(
            trace.touched.is_subset(&trace.declared),
            "{what}: touched {:?} not within declared {:?}",
            trace.touched,
            trace.declared
        );
        if trace.read_only {
            assert!(!trace.wrote, "{what}: read-only transaction wrote");
        }
        union.extend(trace.touched.iter().copied());
    }
    assert_eq!(
        union, declared,
        "{what}: declared footprint over-declares tables no run touches"
    );
}

const RUNS: usize = 120;

#[test]
fn smallbank_footprints_match_tables_touched() {
    let sb = SmallBank {
        accounts: 32,
        initial_balance: 1_000,
        hot_accounts: 8,
        hot_fraction: 0.5,
        isolation: IsolationLevel::SnapshotIsolation,
    };
    let engine = RecordingEngine::new();
    let tables = sb.setup(&engine).unwrap();
    engine.take_traces();

    let kinds = [
        SbTxnKind::Balance,
        SbTxnKind::DepositChecking,
        SbTxnKind::TransactSaving,
        SbTxnKind::Amalgamate,
        SbTxnKind::WriteCheck,
        SbTxnKind::SendPayment,
    ];
    for kind in kinds {
        let mut rng = StdRng::seed_from_u64(0xF007 ^ kind as u64);
        for _ in 0..RUNS {
            let a = sb.draw_account(&mut rng);
            let b = (a + 1 + rng.gen_range(0..sb.accounts - 1)) % sb.accounts;
            let amount = rng.gen_range(1..=200i64) * if rng.gen_bool(0.5) { 1 } else { -1 };
            let params = SbParams {
                kind,
                a,
                b,
                amount: if kind == SbTxnKind::TransactSaving {
                    amount
                } else {
                    amount.abs()
                },
            };
            sb.exec(&engine, tables, &params).unwrap();
        }
        check_traces(&format!("smallbank {kind:?}"), &engine.take_traces());
    }
}

#[test]
fn tpcc_lite_footprints_match_tables_touched() {
    let tpcc = TpccLite {
        warehouses: 2,
        districts_per_wh: 2,
        customers_per_district: 8,
        initial_orders: 3,
        isolation: IsolationLevel::SnapshotIsolation,
    };
    let engine = RecordingEngine::new();
    let tables = tpcc.setup(&engine).unwrap();
    engine.take_traces();

    for kind in [TpccKind::NewOrder, TpccKind::Payment, TpccKind::OrderStatus] {
        let mut rng = StdRng::seed_from_u64(0xF00D ^ kind as u64);
        for _ in 0..RUNS {
            let mut params: TpccParams = tpcc.draw(&mut rng);
            params.kind = kind;
            tpcc.exec(&engine, tables, &params).unwrap();
        }
        check_traces(&format!("tpcc-lite {kind:?}"), &engine.take_traces());
    }
}

#[test]
fn tatp_footprints_never_exceed_declaration() {
    let tatp = Tatp {
        subscribers: 200,
        ..Default::default()
    };
    let engine = RecordingEngine::new();
    let tables = tatp.setup(&engine).unwrap();
    engine.take_traces();

    // TATP transactions have conditional branches (e.g. the CALL_FORWARDING
    // scan only runs for active facilities), so only the subset direction is
    // asserted per run — but every run must stay inside its declaration.
    let mut rng = StdRng::seed_from_u64(0x7A7B);
    for _ in 0..400 {
        let _ = tatp.run_one(&engine, tables, &mut rng);
    }
    let traces = engine.take_traces();
    assert!(traces.len() >= 400);
    for trace in &traces {
        assert!(
            trace.touched.is_subset(&trace.declared),
            "tatp: touched {:?} not within declared {:?}",
            trace.touched,
            trace.declared
        );
        if trace.read_only {
            assert!(!trace.wrote, "tatp: read-only transaction wrote");
        }
    }
}
