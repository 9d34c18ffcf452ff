//! The four workloads: schema, population, one transaction attempt, a full
//! walk of the database and the correctness gate of each.
//!
//! Every workload only *calls* the generators of `mmdb-workload`; the
//! benchmark adds the seeded closed client loop, the tallies its gates need,
//! and a deterministic key-order walk of every live row (used for the
//! restart image, the recovered-state comparison and the self-tests).

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::Result;
use mmdb_common::ids::{IndexId, TableId};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::TableSpec;
use mmdb_workload::smallbank::{total_balance, SmallBank, SmallBankTables};
use mmdb_workload::tatp::{Tatp, TatpTables};
use mmdb_workload::tpcc_lite::{self as tpcc, TpccDetail, TpccLite, TpccTables};
use mmdb_workload::LongReaderMix;
use mmdb_workload::TxnKind;

/// Callback of a database walk: table and row bytes, in a fixed key order.
pub type RowSink<'a> = dyn FnMut(TableId, &[u8]) + 'a;

/// Result of one transaction attempt.
#[derive(Clone, Copy, Debug)]
pub struct Attempt {
    /// Whether it committed.
    pub committed: bool,
    /// Rows it read.
    pub reads: u64,
    /// Rows it wrote.
    pub writes: u64,
}

impl Attempt {
    const ABORTED: Attempt = Attempt {
        committed: false,
        reads: 0,
        writes: 0,
    };
}

/// One benchmark workload.
pub trait Workload: Sync {
    /// Table handles.
    type Tables: Copy + Send + Sync;
    /// Per-client accumulator the correctness gate needs, updated on
    /// every commit.
    type Tally: Default + Send;

    /// Parameters, as a JSON object, for the provenance record.
    fn params(&self) -> String;
    /// Create the (empty) tables, in the same order as [`Workload::setup`].
    fn create_tables<E: Engine>(&self, engine: &E) -> Result<Self::Tables>;
    /// Create and populate the database.
    fn setup<E: Engine>(&self, engine: &E) -> Result<Self::Tables>;
    /// Every table, for per-table diagnostics.
    fn table_ids(&self, tables: Self::Tables) -> Vec<TableId>;
    /// Run one transaction attempt for client `client`.
    fn attempt<E: Engine>(
        &self,
        engine: &E,
        tables: Self::Tables,
        rng: &mut StdRng,
        client: usize,
        tally: &mut Self::Tally,
    ) -> Attempt;
    /// Visit every live row, table by table in key order.
    fn for_each_row<E: Engine>(
        &self,
        engine: &E,
        tables: Self::Tables,
        sink: &mut RowSink<'_>,
    ) -> Result<()>;
    /// The workload's invariants over the quiesced database.
    fn check<E: Engine>(
        &self,
        engine: &E,
        tables: Self::Tables,
        tallies: &[Self::Tally],
    ) -> std::result::Result<(), String>;
}

/// Point-read `key` and hand a copy of the row to `sink` (the copy keeps
/// the sink out of the engine's visitor, which must not do I/O under
/// engine latches).
fn visit_key<T: EngineTxn>(
    txn: &mut T,
    table: TableId,
    key: u64,
    buf: &mut Vec<u8>,
    sink: &mut RowSink<'_>,
) -> Result<bool> {
    buf.clear();
    let found = txn.read_with(table, IndexId(0), key, &mut |row| {
        buf.extend_from_slice(row)
    })?;
    if found {
        sink(table, buf);
    }
    Ok(found)
}

fn err(e: mmdb_common::error::MmdbError) -> String {
    format!("engine error during check: {e}")
}

// ---------------------------------------------------------------------------
// smallbank-hot
// ---------------------------------------------------------------------------

/// SmallBank six-transaction mix on 100 000 accounts, 90 % of account draws
/// on 10 hot accounts, serializable.
pub struct SmallBankHot {
    /// The generator.
    pub bank: SmallBank,
}

impl Default for SmallBankHot {
    fn default() -> Self {
        SmallBankHot {
            bank: SmallBank {
                accounts: 100_000,
                initial_balance: 10_000,
                hot_accounts: 10,
                hot_fraction: 0.9,
                isolation: IsolationLevel::Serializable,
            },
        }
    }
}

/// Σ `SbExec::delta` of committed transactions.
#[derive(Default)]
pub struct BankTally {
    delta: i64,
}

impl Workload for SmallBankHot {
    type Tables = SmallBankTables;
    type Tally = BankTally;

    fn params(&self) -> String {
        let b = &self.bank;
        format!(
            "{{\"accounts\": {}, \"initial_balance\": {}, \"hot_accounts\": {}, \
             \"hot_fraction\": {}, \"isolation\": \"{:?}\"}}",
            b.accounts, b.initial_balance, b.hot_accounts, b.hot_fraction, b.isolation
        )
    }

    fn create_tables<E: Engine>(&self, engine: &E) -> Result<Self::Tables> {
        self.bank.create_tables(engine)
    }

    fn setup<E: Engine>(&self, engine: &E) -> Result<Self::Tables> {
        self.bank.setup(engine)
    }

    fn table_ids(&self, t: Self::Tables) -> Vec<TableId> {
        vec![t.checking, t.savings]
    }

    fn attempt<E: Engine>(
        &self,
        engine: &E,
        tables: Self::Tables,
        rng: &mut StdRng,
        _client: usize,
        tally: &mut BankTally,
    ) -> Attempt {
        let params = self.bank.draw(rng);
        match self.bank.exec(engine, tables, &params) {
            Ok(exec) => {
                tally.delta += exec.delta;
                Attempt {
                    committed: true,
                    reads: exec.reads,
                    writes: exec.writes.len() as u64,
                }
            }
            Err(_) => Attempt::ABORTED,
        }
    }

    fn for_each_row<E: Engine>(
        &self,
        engine: &E,
        t: Self::Tables,
        sink: &mut RowSink<'_>,
    ) -> Result<()> {
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        let mut buf = Vec::new();
        for table in [t.checking, t.savings] {
            for key in 0..self.bank.accounts {
                visit_key(&mut txn, table, key, &mut buf, sink)?;
            }
        }
        txn.commit().map(|_| ())
    }

    fn check<E: Engine>(
        &self,
        engine: &E,
        tables: Self::Tables,
        tallies: &[BankTally],
    ) -> std::result::Result<(), String> {
        let total = total_balance(engine, tables, self.bank.accounts).map_err(err)?;
        let delta: i64 = tallies.iter().map(|t| t.delta).sum();
        let expected = self.bank.initial_total() + delta;
        if total != expected {
            return Err(format!(
                "smallbank: total balance {total} != initial {} + committed deltas {delta}",
                self.bank.initial_total()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// tpcc-logged
// ---------------------------------------------------------------------------

/// TPC-C-lite new-order / payment / order-status at snapshot isolation.
pub struct TpccLogged {
    /// The generator.
    pub tpcc: TpccLite,
}

impl Default for TpccLogged {
    fn default() -> Self {
        TpccLogged {
            tpcc: TpccLite {
                warehouses: 2,
                districts_per_wh: 4,
                customers_per_district: 3_000,
                initial_orders: 3_000,
                isolation: IsolationLevel::SnapshotIsolation,
            },
        }
    }
}

/// Committed new-orders per district and order-status consistency.
#[derive(Default)]
pub struct TpccTally {
    new_orders: BTreeMap<u64, u64>,
    inconsistent_status: u64,
}

impl TpccLogged {
    /// Every order row of district `dk` (ordered-index range scan), in key
    /// order.
    fn orders<T: EngineTxn>(&self, txn: &mut T, t: TpccTables, dk: u64) -> Result<Vec<Vec<u8>>> {
        let mut rows = Vec::new();
        txn.scan_range_with(
            t.order,
            IndexId(1),
            tpcc::o_pk(dk, 0),
            tpcc::o_pk(dk, tpcc::O_SPAN - 1),
            &mut |row| rows.push(row.to_vec()),
        )?;
        Ok(rows)
    }

    /// Every order-line row of district `dk`, in key order.
    fn lines<T: EngineTxn>(&self, txn: &mut T, t: TpccTables, dk: u64) -> Result<Vec<Vec<u8>>> {
        let mut rows = Vec::new();
        txn.scan_range_with(
            t.order_line,
            IndexId(1),
            tpcc::ol_pk(tpcc::o_pk(dk, 0), 0),
            tpcc::ol_pk(tpcc::o_pk(dk, tpcc::O_SPAN - 1), tpcc::MAX_OL - 1),
            &mut |row| rows.push(row.to_vec()),
        )?;
        Ok(rows)
    }
}

fn u64_at(row: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(row[offset..offset + 8].try_into().expect("field in bounds"))
}

impl Workload for TpccLogged {
    type Tables = TpccTables;
    type Tally = TpccTally;

    fn params(&self) -> String {
        let t = &self.tpcc;
        format!(
            "{{\"warehouses\": {}, \"districts_per_wh\": {}, \"customers_per_district\": {}, \
             \"initial_orders\": {}, \"isolation\": \"{:?}\"}}",
            t.warehouses,
            t.districts_per_wh,
            t.customers_per_district,
            t.initial_orders,
            t.isolation
        )
    }

    fn create_tables<E: Engine>(&self, engine: &E) -> Result<Self::Tables> {
        self.tpcc.create_tables(engine)
    }

    fn setup<E: Engine>(&self, engine: &E) -> Result<Self::Tables> {
        self.tpcc.setup(engine)
    }

    fn table_ids(&self, t: Self::Tables) -> Vec<TableId> {
        vec![t.warehouse, t.district, t.customer, t.order, t.order_line]
    }

    fn attempt<E: Engine>(
        &self,
        engine: &E,
        tables: Self::Tables,
        rng: &mut StdRng,
        _client: usize,
        tally: &mut TpccTally,
    ) -> Attempt {
        let params = self.tpcc.draw(rng);
        match self.tpcc.exec(engine, tables, &params) {
            Ok(exec) => {
                match exec.detail {
                    TpccDetail::NewOrder { district, .. } => {
                        *tally.new_orders.entry(district).or_default() += 1;
                    }
                    TpccDetail::OrderStatus {
                        lines_consistent, ..
                    } => tally.inconsistent_status += u64::from(!lines_consistent),
                    TpccDetail::Payment { .. } => {}
                }
                Attempt {
                    committed: true,
                    reads: exec.reads,
                    writes: exec.writes,
                }
            }
            Err(_) => Attempt::ABORTED,
        }
    }

    fn for_each_row<E: Engine>(
        &self,
        engine: &E,
        t: Self::Tables,
        sink: &mut RowSink<'_>,
    ) -> Result<()> {
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        let mut buf = Vec::new();
        for w in 0..self.tpcc.warehouses {
            visit_key(&mut txn, t.warehouse, w, &mut buf, sink)?;
        }
        let districts = self.tpcc.district_pks();
        for &dk in &districts {
            visit_key(&mut txn, t.district, dk, &mut buf, sink)?;
        }
        for &dk in &districts {
            for c in 0..self.tpcc.customers_per_district {
                visit_key(&mut txn, t.customer, tpcc::c_pk(dk, c), &mut buf, sink)?;
            }
        }
        for &dk in &districts {
            for row in self.orders(&mut txn, t, dk)? {
                sink(t.order, &row);
            }
        }
        for &dk in &districts {
            for row in self.lines(&mut txn, t, dk)? {
                sink(t.order_line, &row);
            }
        }
        txn.commit().map(|_| ())
    }

    fn check<E: Engine>(
        &self,
        engine: &E,
        t: Self::Tables,
        tallies: &[TpccTally],
    ) -> std::result::Result<(), String> {
        let bad_status: u64 = tallies.iter().map(|t| t.inconsistent_status).sum();
        if bad_status > 0 {
            return Err(format!(
                "tpcc: {bad_status} order-status queries saw orders whose line count differs"
            ));
        }
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        for dk in self.tpcc.district_pks() {
            let committed: u64 = tallies
                .iter()
                .map(|t| t.new_orders.get(&dk).copied().unwrap_or(0))
                .sum();
            let district = txn
                .read(t.district, IndexId(0), dk)
                .map_err(err)?
                .ok_or(format!("tpcc: district {dk} missing"))?;
            let next = tpcc::next_o_id_of(&district);
            if next != self.tpcc.initial_orders + committed {
                return Err(format!(
                    "tpcc: district {dk} counter {next} != {} initial + {committed} committed new-orders",
                    self.tpcc.initial_orders
                ));
            }
            // Dense order stream: exactly o_id 0..next, each with o_ol_cnt
            // lines that point back at it.
            let orders = self.orders(&mut txn, t, dk).map_err(err)?;
            if orders.len() as u64 != next {
                return Err(format!(
                    "tpcc: district {dk} holds {} orders, counter says {next}",
                    orders.len()
                ));
            }
            let mut lines = self
                .lines(&mut txn, t, dk)
                .map_err(err)?
                .into_iter()
                .peekable();
            for (o_id, order) in orders.iter().enumerate() {
                let ok = tpcc::o_pk(dk, o_id as u64);
                if tpcc::order_pk_of(order) != ok {
                    return Err(format!(
                        "tpcc: district {dk} order stream has a gap at {o_id}"
                    ));
                }
                let mut found = 0u64;
                while let Some(line) = lines.next_if(|l| u64_at(l, 0) / tpcc::MAX_OL == ok) {
                    if u64_at(&line, tpcc::layout::OL_ORDER_OFFSET) != ok {
                        return Err(format!("tpcc: order line of {ok} points elsewhere"));
                    }
                    found += 1;
                }
                if found != tpcc::order_ol_cnt_of(order) {
                    return Err(format!(
                        "tpcc: order {ok} declares {} lines, {found} stored",
                        tpcc::order_ol_cnt_of(order)
                    ));
                }
            }
            if lines.next().is_some() {
                return Err(format!(
                    "tpcc: district {dk} has order lines without an order"
                ));
            }
        }
        txn.commit().map_err(err)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// long-readers
// ---------------------------------------------------------------------------

/// Paper Fig. 8/9: one client runs 100 000-row snapshot-isolation read-only
/// queries over a 1 000 000-row table while the other runs R=10 W=2
/// read-committed updates.
pub struct LongReaders {
    /// The generator.
    pub mix: LongReaderMix,
}

impl Default for LongReaders {
    fn default() -> Self {
        LongReaders {
            mix: LongReaderMix::new(1_000_000, 1, IsolationLevel::SnapshotIsolation),
        }
    }
}

/// Committed long queries and those that saw the wrong row count.
#[derive(Default)]
pub struct LongTally {
    queries: u64,
    short: u64,
}

impl Workload for LongReaders {
    type Tables = TableId;
    type Tally = LongTally;

    fn params(&self) -> String {
        let m = &self.mix;
        format!(
            "{{\"rows\": {}, \"row_bytes\": 24, \"long_readers\": {}, \"reads_per_long_txn\": {}, \
             \"long_reader_isolation\": \"{:?}\", \"update_reads\": {}, \"update_writes\": {}, \
             \"update_isolation\": \"{:?}\"}}",
            m.base.rows,
            m.long_readers,
            m.reads_per_long_txn,
            m.long_reader_isolation,
            m.base.reads,
            m.base.writes,
            m.base.isolation
        )
    }

    fn create_tables<E: Engine>(&self, engine: &E) -> Result<TableId> {
        // The same spec `Homogeneous::setup` creates.
        let buckets = (self.mix.base.rows as usize).max(16);
        engine.create_table(TableSpec::keyed_u64("homogeneous", buckets))
    }

    fn setup<E: Engine>(&self, engine: &E) -> Result<TableId> {
        self.mix.base.setup(engine)
    }

    fn table_ids(&self, t: TableId) -> Vec<TableId> {
        vec![t]
    }

    fn attempt<E: Engine>(
        &self,
        engine: &E,
        table: TableId,
        rng: &mut StdRng,
        client: usize,
        tally: &mut LongTally,
    ) -> Attempt {
        let o = self.mix.run_one(engine, table, rng, client);
        if o.committed && o.kind == TxnKind::LongRead {
            tally.queries += 1;
            tally.short += u64::from(o.reads != self.mix.reads_per_long_txn);
        }
        Attempt {
            committed: o.committed,
            reads: o.reads,
            writes: o.writes,
        }
    }

    fn for_each_row<E: Engine>(
        &self,
        engine: &E,
        table: TableId,
        sink: &mut RowSink<'_>,
    ) -> Result<()> {
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        let mut buf = Vec::new();
        for key in 0..self.mix.base.rows {
            visit_key(&mut txn, table, key, &mut buf, sink)?;
        }
        txn.commit().map(|_| ())
    }

    fn check<E: Engine>(
        &self,
        _engine: &E,
        _table: TableId,
        tallies: &[LongTally],
    ) -> std::result::Result<(), String> {
        let queries: u64 = tallies.iter().map(|t| t.queries).sum();
        let short: u64 = tallies.iter().map(|t| t.short).sum();
        if queries == 0 {
            return Err("long-readers: no long query committed".into());
        }
        if short > 0 {
            return Err(format!(
                "long-readers: {short} of {queries} long queries did not see exactly {} rows",
                self.mix.reads_per_long_txn
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// tatp-1v
// ---------------------------------------------------------------------------

/// TATP standard mix on 10 000 subscribers at read committed.
pub struct Tatp1v {
    /// The generator.
    pub tatp: Tatp,
}

impl Default for Tatp1v {
    fn default() -> Self {
        Tatp1v {
            tatp: Tatp {
                subscribers: 10_000,
                isolation: IsolationLevel::ReadCommitted,
            },
        }
    }
}

impl Workload for Tatp1v {
    type Tables = TatpTables;
    type Tally = ();

    fn params(&self) -> String {
        format!(
            "{{\"subscribers\": {}, \"isolation\": \"{:?}\"}}",
            self.tatp.subscribers, self.tatp.isolation
        )
    }

    fn create_tables<E: Engine>(&self, engine: &E) -> Result<Self::Tables> {
        self.tatp.create_tables(engine)
    }

    fn setup<E: Engine>(&self, engine: &E) -> Result<Self::Tables> {
        self.tatp.setup(engine)
    }

    fn table_ids(&self, t: Self::Tables) -> Vec<TableId> {
        vec![
            t.subscriber,
            t.access_info,
            t.special_facility,
            t.call_forwarding,
        ]
    }

    fn attempt<E: Engine>(
        &self,
        engine: &E,
        tables: Self::Tables,
        rng: &mut StdRng,
        _client: usize,
        _tally: &mut (),
    ) -> Attempt {
        let o = self.tatp.run_one(engine, tables, rng);
        Attempt {
            committed: o.committed,
            reads: o.reads,
            writes: o.writes,
        }
    }

    fn for_each_row<E: Engine>(
        &self,
        engine: &E,
        t: Self::Tables,
        sink: &mut RowSink<'_>,
    ) -> Result<()> {
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        let mut buf = Vec::new();
        let subscribers = 1..=self.tatp.subscribers;
        for s in subscribers.clone() {
            visit_key(&mut txn, t.subscriber, s, &mut buf, sink)?;
        }
        for s in subscribers.clone() {
            for ty in 1..=4u8 {
                visit_key(&mut txn, t.access_info, Tatp::ai_pk(s, ty), &mut buf, sink)?;
            }
        }
        for s in subscribers.clone() {
            for ty in 1..=4u8 {
                visit_key(
                    &mut txn,
                    t.special_facility,
                    Tatp::sf_pk(s, ty),
                    &mut buf,
                    sink,
                )?;
            }
        }
        for s in subscribers {
            for ty in 1..=4u8 {
                for start in [0u8, 8, 16] {
                    let pk = Tatp::cf_pk(s, ty, start);
                    visit_key(&mut txn, t.call_forwarding, pk, &mut buf, sink)?;
                }
            }
        }
        txn.commit().map(|_| ())
    }

    fn check<E: Engine>(
        &self,
        engine: &E,
        t: Self::Tables,
        _tallies: &[()],
    ) -> std::result::Result<(), String> {
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        let mut present = 0u64;
        for s in 1..=self.tatp.subscribers {
            present += u64::from(
                txn.read_with(t.subscriber, IndexId(0), s, &mut |_| {})
                    .map_err(err)?,
            );
        }
        txn.commit().map_err(err)?;
        if present != self.tatp.subscribers {
            return Err(format!(
                "tatp: {present} subscribers present, {} populated",
                self.tatp.subscribers
            ));
        }
        Ok(())
    }
}
