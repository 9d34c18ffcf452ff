//! Self-tests of the benchmark: `Traced<E>` is a faithful forwarder, and
//! set-up and seeded transaction streams are deterministic.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mmdb_common::durability::Durability;
use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{rowbuf, IndexSpec, TableSpec};
use mmdb_core::{MvConfig, MvEngine};
use mmdb_onev::{SvConfig, SvEngine};
use mmdb_workload::smallbank::SmallBank;
use mmdb_workload::tatp::Tatp;
use mmdb_workload::tpcc_lite::TpccLite;
use mmdb_workload::LongReaderMix;

use crate::bench::{fingerprint, Fingerprint};
use crate::trace::{self, Call, ClientTrace, Traced};
use crate::workloads::{LongReaders, SmallBankHot, Tatp1v, TpccLogged, Workload};

fn small_bank() -> SmallBankHot {
    SmallBankHot {
        bank: SmallBank {
            accounts: 300,
            initial_balance: 1_000,
            hot_accounts: 10,
            hot_fraction: 0.9,
            isolation: IsolationLevel::Serializable,
        },
    }
}

fn small_tpcc() -> TpccLogged {
    TpccLogged {
        tpcc: TpccLite {
            warehouses: 2,
            districts_per_wh: 2,
            customers_per_district: 20,
            initial_orders: 10,
            isolation: IsolationLevel::SnapshotIsolation,
        },
    }
}

fn small_long() -> LongReaders {
    LongReaders {
        mix: LongReaderMix::new(2_000, 1, IsolationLevel::SnapshotIsolation),
    }
}

fn small_tatp() -> Tatp1v {
    Tatp1v {
        tatp: Tatp {
            subscribers: 200,
            isolation: IsolationLevel::ReadCommitted,
        },
    }
}

/// Set `w` up on `engine`, run `n` seeded attempts from two alternating
/// client streams on one thread, check the workload's gate and return the
/// final state's fingerprint.
fn sequential<W: Workload, E: Engine>(w: &W, engine: &E, seed: u64, n: usize) -> Fingerprint {
    let tables = w.setup(engine).expect("setup");
    let mut rngs = [StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed + 1)];
    let mut tallies = [W::Tally::default(), W::Tally::default()];
    for i in 0..n {
        let c = i % 2;
        w.attempt(engine, tables, &mut rngs[c], c, &mut tallies[c]);
    }
    w.check(engine, tables, &tallies).expect("workload gate");
    fingerprint(w, engine, tables).expect("fingerprint")
}

/// The bare engine and `Traced` around a second instance end in the same
/// state, and the traced run recorded engine calls.
fn traced_matches_bare<W: Workload, E: Engine + Clone>(w: &W, make: impl Fn() -> E, n: usize) {
    let bare = sequential(w, &make(), 7, n);
    trace::install(ClientTrace::new(0, Instant::now(), 1, 16));
    let traced = sequential(w, &Traced::new(make()), 7, n);
    let recorded = trace::take().expect("recorder installed");
    assert_eq!(
        bare, traced,
        "Traced<E> must not change what the engine does"
    );
    assert!(bare.rows > 0);
    assert!(recorded.calls[Call::Begin as usize].ns.count() > 0);
    assert!(recorded.calls[Call::Commit as usize].ns.count() > 0);
}

#[test]
fn traced_forwards_smallbank_on_mv() {
    traced_matches_bare(
        &small_bank(),
        || MvEngine::optimistic(MvConfig::default()),
        500,
    );
}

#[test]
fn traced_forwards_tpcc_on_mv_and_1v() {
    traced_matches_bare(
        &small_tpcc(),
        || MvEngine::adaptive(MvConfig::default()),
        400,
    );
    traced_matches_bare(&small_tpcc(), || SvEngine::new(SvConfig::default()), 400);
}

#[test]
fn traced_forwards_long_readers_on_mv() {
    traced_matches_bare(
        &small_long(),
        || MvEngine::pessimistic(MvConfig::default()),
        60,
    );
}

#[test]
fn traced_forwards_tatp_on_1v_and_mv() {
    traced_matches_bare(&small_tatp(), || SvEngine::new(SvConfig::default()), 2_000);
    traced_matches_bare(
        &small_tatp(),
        || MvEngine::optimistic(MvConfig::default()),
        2_000,
    );
}

/// Call every `EngineTxn` method on a bare and a traced engine and compare
/// each result; the recorder must see each call kind.
fn every_method<E: Engine>(bare: &E, traced: &Traced<E>) {
    fn script<E: Engine>(engine: &E) -> Vec<String> {
        let spec =
            TableSpec::keyed_u64("t", 64).with_index(IndexSpec::ordered_u64("pk_ordered", 0));
        let t = engine.create_table(spec).expect("table");
        let mut out = Vec::new();
        let mut txn = engine.begin_hinted(false, &[t], IsolationLevel::Serializable);
        txn.set_durability(Durability::Async);
        out.push(format!("{:?}", txn.isolation()));
        for k in 0..10u64 {
            out.push(format!(
                "{:?}",
                txn.insert(t, rowbuf::keyed_row(k, 16, k as u8))
            ));
        }
        out.push(format!(
            "{:?}",
            txn.insert(t, rowbuf::keyed_row(3, 16, 0)).is_err()
        ));
        out.push(format!("{:?}", txn.read(t, IndexId(0), 4)));
        out.push(format!("{:?}", txn.scan_key(t, IndexId(0), 5)));
        let mut seen = Vec::new();
        out.push(format!(
            "{:?}",
            txn.read_with(t, IndexId(0), 6, &mut |r| seen.push(r.to_vec()))
        ));
        out.push(format!(
            "{:?}",
            txn.scan_key_with(t, IndexId(0), 7, &mut |r| seen.push(r.to_vec()))
        ));
        out.push(format!("{:?}", txn.scan_range(t, IndexId(1), 2, 5)));
        out.push(format!(
            "{:?}",
            txn.scan_range_with(t, IndexId(1), 6, 9, &mut |r| seen.push(r.to_vec()))
        ));
        out.push(format!("{seen:?}"));
        out.push(format!(
            "{:?}",
            txn.scan_range(t, IndexId(0), 0, 1).is_err()
        ));
        out.push(format!(
            "{:?}",
            txn.update(t, IndexId(0), 1, rowbuf::keyed_row(1, 16, 99))
        ));
        out.push(format!(
            "{:?}",
            txn.update(t, IndexId(0), 50, rowbuf::keyed_row(50, 16, 1))
        ));
        out.push(format!("{:?}", txn.delete(t, IndexId(0), 2)));
        out.push(format!("{:?}", txn.delete(t, IndexId(0), 2)));
        out.push(format!("{:?}", txn.commit().is_ok()));
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        let _ = txn.id();
        out.push(format!(
            "{:?}",
            txn.update(t, IndexId(0), 3, rowbuf::keyed_row(3, 16, 7))
        ));
        txn.abort();
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        out.push(format!("{:?}", txn.delete(t, IndexId(0), 4)));
        drop(txn);
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        out.push(format!("{:?}", txn.scan_range(t, IndexId(1), 0, 100)));
        out.push(format!("{:?}", txn.commit().is_ok()));
        out
    }
    trace::install(ClientTrace::new(0, Instant::now(), 1, 256));
    let want = script(bare);
    let got = script(traced);
    let recorded = trace::take().expect("recorder installed");
    assert_eq!(want, got);
    for call in Call::ALL {
        assert!(
            recorded.calls[call as usize].ns.count() > 0,
            "no {} call recorded",
            call.name()
        );
    }
    // Two explicit or implicit aborts: `abort()` and the dropped transaction.
    assert_eq!(recorded.calls[Call::Abort as usize].ns.count(), 2);
    assert_eq!(recorded.calls[Call::Commit as usize].ns.count(), 2);
}

#[test]
fn traced_forwards_every_txn_method() {
    every_method(
        &MvEngine::optimistic(MvConfig::default()),
        &Traced::new(MvEngine::optimistic(MvConfig::default())),
    );
    every_method(
        &MvEngine::pessimistic(MvConfig::default()),
        &Traced::new(MvEngine::pessimistic(MvConfig::default())),
    );
    every_method(
        &SvEngine::new(SvConfig::default()),
        &Traced::new(SvEngine::new(SvConfig::default())),
    );
}

#[test]
fn spans_nest_under_their_attempt_and_self_times_add_up() {
    let engine = Traced::new(MvEngine::optimistic(MvConfig::default()));
    let w = small_bank();
    let tables = w.setup(&engine).expect("setup");
    let mut rng = StdRng::seed_from_u64(3);
    let mut tally = Default::default();
    trace::install(ClientTrace::new(1, Instant::now(), 4, 4_096));
    for _ in 0..200 {
        let start = Instant::now();
        trace::begin_attempt(start);
        w.attempt(&engine, tables, &mut rng, 0, &mut tally);
        let end = Instant::now();
        trace::end_attempt(end, end.duration_since(start).as_nanos() as u64);
    }
    let t = trace::take().expect("recorder installed");
    assert_eq!(t.latency.count(), 200);
    assert_eq!(t.engine_ns() + t.client.sum(), t.latency.sum());
    let roots: Vec<usize> = (0..t.spans.len())
        .filter(|&i| t.spans[i].parent == u32::MAX)
        .collect();
    assert_eq!(roots.len(), 50, "one attempt in four is sampled");
    for s in &t.spans {
        if s.parent != u32::MAX {
            let root = &t.spans[s.parent as usize];
            assert_eq!(root.name, "txn");
            assert_eq!(root.txn, s.txn, "children share the attempt id");
            assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
        }
    }
}

#[test]
fn same_seed_gives_same_populated_state() {
    fn twice<W: Workload, E: Engine>(w: &W, make: impl Fn() -> E) {
        let fp = |e: &E| {
            let tables = w.setup(e).expect("setup");
            fingerprint(w, e, tables).expect("fingerprint")
        };
        let (a, b) = (fp(&make()), fp(&make()));
        assert_eq!(a, b);
        assert!(a.rows > 0);
    }
    twice(&small_bank(), || MvEngine::optimistic(MvConfig::default()));
    twice(&small_tpcc(), || MvEngine::adaptive(MvConfig::default()));
    twice(&small_long(), || MvEngine::pessimistic(MvConfig::default()));
    twice(&small_tatp(), || SvEngine::new(SvConfig::default()));
}

#[test]
fn same_seed_gives_same_transaction_stream() {
    let w = small_tpcc();
    let a = sequential(&w, &MvEngine::optimistic(MvConfig::default()), 11, 300);
    let b = sequential(&w, &MvEngine::optimistic(MvConfig::default()), 11, 300);
    let c = sequential(&w, &MvEngine::optimistic(MvConfig::default()), 12, 300);
    assert_eq!(a, b);
    assert_ne!(a, c, "another seed draws other transactions");
}
