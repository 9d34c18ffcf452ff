//! Warmed engines, row layout and key strides shared by the single-threaded
//! `repro perf-*` microbenchmarks ([`crate::experiments::readpath_perf`],
//! [`crate::experiments::rangescan_perf`],
//! [`crate::experiments::writepath_perf`]), so the read and write paths
//! stress the same chains.

use mmdb_common::engine::Engine;
use mmdb_common::error::Result;
use mmdb_common::ids::{IndexId, TableId, Timestamp, TxnId};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{IndexSpec, Row, TableSpec};
use mmdb_core::MvEngine;
use mmdb_onev::SvEngine;
use mmdb_storage::txn_table::{TxnHandle, TxnTable};

/// The row layout itself lives in `mmdb-common` (`rowbuf::grouped_row`) so
/// the zero-allocation regression test in `mmdb-core` asserts exactly the
/// shape these measurements run.
pub use mmdb_common::row::rowbuf::{grouped_row, grouped_spec, GROUP_SIZE};

/// Point-read and update key stride (odd, well-mixed walk over the keyspace).
pub const KEY_STRIDE: u64 = 0x9E3779B9;

/// Scan group stride.
pub const GROUP_STRIDE: u64 = 0x9E37;

/// Transactions registered in the [`TxnTable`] lookup fixture.
pub const TXN_TABLE_ENTRIES: u64 = 64;

/// Index id of the ordered primary-key index in [`ordered_grouped_spec`]
/// (0 is the hash primary, 1 the grouped secondary).
pub const ORDERED_INDEX: IndexId = IndexId(2);

/// The grouped spec plus an ordered index over the primary key — the
/// range-scan fixture (`repro perf-range`, `BENCH_rangescan.json`).
pub fn ordered_grouped_spec(rows: u64) -> TableSpec {
    grouped_spec(rows).with_index(IndexSpec::ordered_u64("pk_ordered", 0))
}

/// An engine with a bulk loader for committed rows (initial population
/// outside any transaction).
pub trait BulkLoad: Engine {
    /// Load `rows` into `table`; returns how many were loaded.
    fn bulk_load(&self, table: TableId, rows: &mut dyn Iterator<Item = Row>) -> Result<usize>;
}

impl BulkLoad for MvEngine {
    fn bulk_load(&self, table: TableId, rows: &mut dyn Iterator<Item = Row>) -> Result<usize> {
        self.populate(table, rows)
    }
}

impl BulkLoad for SvEngine {
    fn bulk_load(&self, table: TableId, rows: &mut dyn Iterator<Item = Row>) -> Result<usize> {
        self.populate(table, rows)
    }
}

/// `engine` with one table of `spec`, bulk-loaded with grouped rows
/// `0..rows`.
pub fn warmed<E: BulkLoad>(engine: E, spec: TableSpec, rows: u64) -> (E, TableId) {
    let table = engine.create_table(spec).expect("create table");
    engine
        .bulk_load(table, &mut (0..rows).map(grouped_row))
        .expect("populate");
    (engine, table)
}

/// A transaction table holding [`TXN_TABLE_ENTRIES`] registered handles
/// (ids `1..=TXN_TABLE_ENTRIES`) — the §2.5 visibility-lookup fixture.
pub fn registered_txn_table() -> TxnTable {
    let txns = TxnTable::new();
    for id in 1..=TXN_TABLE_ENTRIES {
        txns.register(TxnHandle::new(
            TxnId(id),
            Timestamp(id),
            ConcurrencyMode::Optimistic,
            IsolationLevel::Serializable,
        ));
    }
    txns
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_common::engine::EngineTxn;
    use mmdb_common::row::rowbuf;
    use mmdb_core::{CcPolicy, MvConfig};

    #[test]
    fn fixture_shapes() {
        let row = grouped_row(17);
        assert_eq!(rowbuf::key_of(&row), 17);
        assert_eq!(row.len(), 24);
        let (engine, table) = warmed(
            MvEngine::optimistic(MvConfig::default()),
            grouped_spec(64),
            64,
        );
        assert_eq!(engine.version_count(table).unwrap(), 64);
        let txns = registered_txn_table();
        assert_eq!(txns.len(), TXN_TABLE_ENTRIES as usize);
    }

    #[test]
    fn warmed_engines_accept_write_transactions() {
        for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
            let engine = MvEngine::new(MvConfig::default().with_cc(CcPolicy::Static(mode)));
            let (engine, table) = warmed(engine, grouped_spec(64), 64);
            let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
            assert!(txn
                .update(table, IndexId(0), 3, grouped_row(3))
                .expect("update"));
            txn.commit().expect("commit");
        }
    }
}
