//! One benchmark run: repeated set-up, the closed client loop, the
//! correctness gates and the timed restart.
//!
//! A run sets the database up `setups` times (each timed on its own, the
//! last one kept), warms up, then measures. The end-to-end run measures one
//! interval on the bare engine; the traced run splits the same time into
//! alternating slices on the bare engine and through [`Traced`], so one run
//! yields both the per-layer costs and the tracing overhead. After the clients stop, the
//! gates run on the quiesced database, the final state is fingerprinted, and
//! the database is restarted `restarts` times from a checkpoint into fresh
//! engines, each of which must reproduce the fingerprint.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use mmdb_common::durability::CheckpointPolicy;
use mmdb_common::engine::Engine;
use mmdb_common::error::Result;
use mmdb_common::ids::Timestamp;
use mmdb_common::stats::StatsSnapshot;
use mmdb_storage::checkpoint::CheckpointStore;
use mmdb_storage::log::{Lsn, RedoLogger};

use crate::engines::{BenchEngine, Env};
use crate::hist::Histogram;
use crate::trace::{self, ClientTrace, Traced};
use crate::workloads::Workload;

/// Run phases, in order. `TRACED` only runs in a traced run.
pub const WARMUP: u8 = 0;
/// The measured interval on the bare engine.
pub const BARE: u8 = 1;
/// The measured interval through `Traced<E>`.
pub const TRACED: u8 = 2;
/// Clients finish their current operation and exit.
pub const STOP: u8 = 3;

/// An aborted transaction is retried with the same parameters (the saved
/// generator state) until it commits; its operation counts as failed if it
/// has not committed this long after its first attempt.
pub const RETRY_LIMIT: Duration = Duration::from_secs(1);

/// Closed-loop clients (threads), no think time: one per CPU of the
/// 2-CPU host the benchmark is sized for.
pub const CLIENTS: usize = 2;
/// Unmeasured warm-up before the measured interval.
pub const WARMUP_TIME: Duration = Duration::from_secs(1);
/// Timed set-ups per run (median reported).
pub const SETUPS: usize = 3;
/// Timed restarts per run (median reported).
pub const RESTARTS: usize = 3;
/// When the benchmark's checkpoint thread runs `checkpoint_auto` on the
/// logged workload: after 8 MiB of log growth, deltas until the chain holds
/// 16 images, then a fresh base. A run completes about ten checkpoints, all
/// deltas after the first base: compactions every few checkpoints made the
/// checkpoint bytes in a measured interval swing by whole base images.
pub const CHECKPOINT: CheckpointPolicy = CheckpointPolicy {
    log_bytes: Some(8 << 20),
    max_chain: 16,
};
/// One attempt in this many leaves spans in a traced run.
const SPAN_SAMPLE: u64 = 64;
/// Span buffer capacity per client.
const SPAN_CAPACITY: usize = 1 << 16;
/// Length of the alternating bare and traced slices of a traced run.
const TRACE_SLICE: Duration = Duration::from_millis(200);

/// What varies between runs.
pub struct Settings {
    /// Workload seed: every client's transaction stream derives from it.
    pub seed: u64,
    /// Measured time (split between bare and traced slices in a traced run).
    pub measure: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for checkpoint stores and span files.
    pub data_dir: PathBuf,
}

/// Counts of one phase, summed over clients.
#[derive(Default, Clone)]
pub struct PhaseTally {
    /// Transaction attempts that finished in the phase.
    pub attempts: u64,
    /// Attempts that committed.
    pub commits: u64,
    /// Operations (transactions retried until they committed) finished.
    pub ops: u64,
    /// Operations abandoned after retrying for `RETRY_LIMIT`.
    pub failed_ops: u64,
    /// Rows read by committed transactions that wrote nothing.
    pub ro_rows: u64,
    /// Latency (ns) of committed attempts, begin to commit returned.
    pub latency: Histogram,
}

impl PhaseTally {
    fn merge(&mut self, o: &PhaseTally) {
        self.attempts += o.attempts;
        self.commits += o.commits;
        self.ops += o.ops;
        self.failed_ops += o.failed_ops;
        self.ro_rows += o.ro_rows;
        self.latency.merge(&o.latency);
    }
}

/// CPU time of all CPUs from `/proc/stat`, in ticks: (stolen by the
/// hypervisor, total). Zero where the file is unreadable.
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A wall-clock stopwatch that takes out the share of the interval the
/// hypervisor stole from this machine's CPUs. On a shared host a
/// co-tenant's load would otherwise read as a slower program.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    at: Instant,
    stolen: u64,
    total: u64,
}

impl Stopwatch {
    /// Start now.
    pub fn start() -> Self {
        let (stolen, total) = cpu_ticks();
        Stopwatch {
            at: Instant::now(),
            stolen,
            total,
        }
    }

    /// (wall seconds, stolen share of the CPUs) since `self`, up to `end`.
    fn until(&self, end: &Stopwatch) -> (f64, f64) {
        let wall = end.at.duration_since(self.at).as_secs_f64();
        let total = end.total.saturating_sub(self.total);
        let stolen = end.stolen.saturating_sub(self.stolen);
        let share = if total == 0 {
            0.0
        } else {
            stolen as f64 / total as f64
        };
        (wall, share)
    }

    /// Seconds since the start, less the stolen share.
    pub fn unstolen_secs(&self) -> f64 {
        let (wall, share) = self.until(&Stopwatch::start());
        wall * (1.0 - share)
    }
}

/// Counters captured at a phase boundary.
#[derive(Clone, Copy)]
struct Mark {
    at: Stopwatch,
    stats: StatsSnapshot,
    log_appended: u64,
    log_records: u64,
    batches: u64,
    ckpt_bytes: u64,
}

/// Time and counter deltas summed over every slice of one phase.
#[derive(Clone, Copy, Default)]
pub struct Window {
    /// Total length, less the time stolen by the hypervisor.
    pub secs: f64,
    /// Total wall-clock length.
    pub wall_secs: f64,
    /// Engine statistics.
    pub stats: StatsSnapshot,
    /// Log bytes appended (0 without a log).
    pub log_appended: u64,
    /// Log records appended.
    pub log_records: u64,
    /// Group-commit batches hardened.
    pub batches: u64,
    /// Checkpoint image bytes installed.
    pub ckpt_bytes: u64,
}

impl Window {
    /// Add the interval `a..b`.
    fn add(&mut self, a: &Mark, b: &Mark) {
        let d = b.stats.delta_since(&a.stats);
        let s = &mut self.stats;
        s.commits += d.commits;
        s.aborts += d.aborts;
        s.write_conflicts += d.write_conflicts;
        s.validation_failures += d.validation_failures;
        s.phantom_failures += d.phantom_failures;
        s.cascaded_aborts += d.cascaded_aborts;
        s.deadlock_aborts += d.deadlock_aborts;
        s.commit_dependencies += d.commit_dependencies;
        s.wait_for_dependencies += d.wait_for_dependencies;
        s.commit_waits += d.commit_waits;
        s.versions_created += d.versions_created;
        s.versions_collected += d.versions_collected;
        s.gc_passes += d.gc_passes;
        s.log_records += d.log_records;
        s.log_bytes += d.log_bytes;
        let (wall, stolen) = a.at.until(&b.at);
        self.secs += wall * (1.0 - stolen);
        self.wall_secs += wall;
        self.log_appended += b.log_appended - a.log_appended;
        self.log_records += b.log_records - a.log_records;
        self.batches += b.batches - a.batches;
        self.ckpt_bytes += b.ckpt_bytes - a.ckpt_bytes;
    }
}

/// One checkpoint taken by the benchmark's checkpoint thread.
#[derive(Clone, Copy)]
pub struct Ckpt {
    /// Phase it finished in.
    pub phase: u8,
    /// Wall time of `checkpoint_auto`.
    pub ms: f64,
    /// Chain length after it.
    pub chain_len: usize,
}

/// One timed restart.
#[derive(Clone, Copy)]
pub struct Restart {
    /// `CheckpointStore::plan`.
    pub plan_s: f64,
    /// Chain load + tail replay into the fresh engine (less stolen time).
    pub load_s: f64,
    /// Log-tail records replayed.
    pub tail_records: usize,
}

/// Everything a run measured.
pub struct RunOutput {
    /// Time of each set-up (less stolen time).
    pub setup_s: Vec<f64>,
    /// Per-phase tallies (`WARMUP`, `BARE`, `TRACED`).
    pub phases: [PhaseTally; 3],
    /// Per-phase time and counters (`WARMUP`, `BARE`, `TRACED`).
    pub windows: [Window; 3],
    /// Merged client traces (traced run only).
    pub trace: Option<ClientTrace>,
    /// Checkpoints the checkpoint thread took.
    pub ckpts: Vec<Ckpt>,
    /// Appended − durable log bytes, sampled in the traced phase.
    pub durable_lag: Histogram,
    /// Peak resident memory after the measured interval, kB.
    pub peak_rss_kb: u64,
    /// Timed restarts.
    pub restarts: Vec<Restart>,
    /// Live rows at the end.
    pub rows: u64,
    /// Reachable versions at the end (engines with version chains).
    pub versions: Option<u64>,
    /// Whether the engine wrote a real redo log.
    pub logged: bool,
    /// Failed correctness gates.
    pub failures: Vec<String>,
}

/// Order-sensitive fingerprint of a database walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Rows visited.
    pub rows: u64,
    /// Hash over (table, row bytes) in walk order.
    pub hash: u64,
}

/// Fingerprint every live row of the database.
pub fn fingerprint<W: Workload, E: Engine>(
    w: &W,
    engine: &E,
    tables: W::Tables,
) -> Result<Fingerprint> {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    let mut rows = 0u64;
    w.for_each_row(engine, tables, &mut |table, row| {
        table.0.hash(&mut h);
        row.hash(&mut h);
        rows += 1;
    })?;
    Ok(Fingerprint {
        rows,
        hash: h.finish(),
    })
}

fn client_seed(seed: u64, client: usize) -> u64 {
    seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn mark<E: Engine>(engine: &E, store: Option<&CheckpointStore>) -> Mark {
    let stats = engine.stats().snapshot();
    let (log_appended, log_records, batches, ckpt_bytes) = match store {
        Some(s) => (
            s.logger().appended_lsn().0,
            s.logger().records_written(),
            s.logger().batches_hardened(),
            s.checkpoint_bytes_written(),
        ),
        None => (0, 0, 0, 0),
    };
    Mark {
        at: Stopwatch::start(),
        stats,
        log_appended,
        log_records,
        batches,
        ckpt_bytes,
    }
}

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct ClientResult<T> {
    phases: [PhaseTally; 3],
    tally: T,
    commits: u64,
    trace: Option<ClientTrace>,
}

/// The closed loop of one client: run operations until the phase is `STOP`.
fn client_loop<W: Workload, E: BenchEngine>(
    w: &W,
    engine: &E,
    tables: W::Tables,
    phase: &AtomicU8,
    client: usize,
    s: &Settings,
    epoch: Instant,
) -> ClientResult<W::Tally> {
    let traced = Traced::new(engine.clone());
    let mut rng = StdRng::seed_from_u64(client_seed(s.seed, client));
    let mut tally = W::Tally::default();
    let mut phases: [PhaseTally; 3] = Default::default();
    let mut commits = 0u64;
    if s.trace {
        trace::install(ClientTrace::new(client, epoch, SPAN_SAMPLE, SPAN_CAPACITY));
    }
    'ops: while phase.load(Ordering::Acquire) != STOP {
        let saved = rng.clone();
        let op_start = Instant::now();
        let mut tries = 0u32;
        loop {
            let p = phase.load(Ordering::Acquire);
            let start = Instant::now();
            let a = if p == TRACED {
                trace::begin_attempt(start);
                w.attempt(&traced, tables, &mut rng, client, &mut tally)
            } else {
                w.attempt(engine, tables, &mut rng, client, &mut tally)
            };
            let end = Instant::now();
            let ns = end.duration_since(start).as_nanos() as u64;
            if p == TRACED {
                trace::end_attempt(end, ns);
            }
            commits += u64::from(a.committed);
            // Attempts count in the phase they finish in.
            let done = phase.load(Ordering::Acquire);
            if done == STOP {
                break 'ops;
            }
            let t = &mut phases[done as usize];
            t.attempts += 1;
            if a.committed {
                t.commits += 1;
                t.ops += 1;
                t.latency.record(ns);
                if a.writes == 0 {
                    t.ro_rows += a.reads;
                }
                break;
            }
            if end.duration_since(op_start) > RETRY_LIMIT {
                t.failed_ops += 1;
                break;
            }
            // Retry at once, then yield between retries: a conflicting
            // holder that lost its core needs it back to finish.
            tries += 1;
            if tries > 1 {
                std::thread::yield_now();
            }
            rng = saved.clone();
        }
    }
    ClientResult {
        phases,
        tally,
        commits,
        trace: trace::take(),
    }
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Set up, drive, check and restart one workload.
///
/// `make` builds the engine under test in a store directory; `fresh`
/// builds an empty engine to restart into.
pub fn run<W, E>(
    w: &W,
    s: &Settings,
    make: impl Fn(&Path) -> Result<Env<E>>,
    fresh: impl Fn() -> E,
) -> Result<RunOutput>
where
    W: Workload,
    E: BenchEngine,
{
    std::fs::create_dir_all(&s.data_dir)
        .map_err(|e| mmdb_common::error::MmdbError::LogIo(e.to_string()))?;
    let store_dir = |i: usize| s.data_dir.join(format!("store-{i}"));

    // Set-up, timed `SETUPS` times; the last database is the one measured.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        // Free the previous database first, so set-ups never overlap in
        // memory.
        if let Some((old, _, old_dir)) = kept.take() {
            drop::<Env<E>>(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = store_dir(i);
        let _ = std::fs::remove_dir_all(&dir);
        let env = make(&dir)?;
        let start = Stopwatch::start();
        let tables = w.setup(&env.engine)?;
        setup_s.push(start.unstolen_secs());
        kept = Some((env, tables, dir));
    }
    let (env, tables, dir) = kept.expect("at least one set-up");
    let engine = &env.engine;
    let store = env.store.as_deref();
    let mut failures = Vec::new();

    // The closed loop.
    let phase = AtomicU8::new(WARMUP);
    let before = engine.stats().snapshot();
    let epoch = Instant::now();
    let mut windows: [Window; 3] = Default::default();
    let (clients, ckpts, durable_lag) = std::thread::scope(|scope| {
        let phase = &phase;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client_loop(w, engine, tables, phase, c, s, epoch)))
            .collect();
        // The benchmark's own checkpoint thread: every 2 ms it asks the
        // store whether the policy's log growth has accrued, and if so
        // runs (and times) `checkpoint_auto`.
        let checkpointer = store.map(|store| {
            scope.spawn(move || {
                let mut taken = Vec::new();
                let mut errors = Vec::new();
                loop {
                    while !store.checkpoint_due(&CHECKPOINT)
                        && phase.load(Ordering::Acquire) != STOP
                    {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    if phase.load(Ordering::Acquire) == STOP {
                        break;
                    }
                    let start = Instant::now();
                    if let Err(e) = engine.checkpoint(store, &CHECKPOINT) {
                        errors.push(format!("checkpoint failed: {e}"));
                    }
                    taken.push(Ckpt {
                        phase: phase.load(Ordering::Acquire),
                        ms: start.elapsed().as_secs_f64() * 1e3,
                        chain_len: store.chain_len(),
                    });
                }
                (taken, errors)
            })
        });
        // Durable-LSN lag sampler (traced run, logged workload).
        let sampler = store.filter(|_| s.trace).map(|store| {
            scope.spawn(move || {
                let mut lag = Histogram::default();
                loop {
                    match phase.load(Ordering::Acquire) {
                        STOP => break,
                        TRACED => {
                            let log = store.logger();
                            let (appended, durable) = (log.appended_lsn().0, log.durable_lsn().0);
                            lag.record(appended.saturating_sub(durable));
                        }
                        _ => {}
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                lag
            })
        });

        // The coordinator: warm-up, then the measured phase. A traced run
        // alternates bare and traced slices, so drift over the run (a
        // growing database, checkpoint cycles) affects both halves alike.
        let mut slices = vec![(WARMUP, WARMUP_TIME)];
        if s.trace {
            let n = (s.measure.as_secs_f64() / TRACE_SLICE.as_secs_f64())
                .round()
                .max(2.0) as u32;
            let len = s.measure / n;
            slices.extend((0..n).map(|i| (if i % 2 == 0 { BARE } else { TRACED }, len)));
        } else {
            slices.push((BARE, s.measure));
        }
        let mut prev = mark(engine, store);
        // Deadlines run from one origin, so a late wake-up does not
        // lengthen the run.
        let mut due = prev.at.at;
        for (p, len) in slices {
            phase.store(p, Ordering::Release);
            due += len;
            sleep_until(due);
            let now = mark(engine, store);
            windows[p as usize].add(&prev, &now);
            prev = now;
        }
        phase.store(STOP, Ordering::Release);

        let clients: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let ckpts = checkpointer.map(|h| h.join().expect("checkpointer panicked"));
        let lag = sampler
            .map(|h| h.join().expect("sampler panicked"))
            .unwrap_or_default();
        (clients, ckpts, lag)
    });
    let peak_rss_kb = peak_rss_kb();
    let after = engine.stats().snapshot();
    let (ckpts, ckpt_errors) = ckpts.unwrap_or_default();
    failures.extend(ckpt_errors);

    let mut phases: [PhaseTally; 3] = Default::default();
    let mut tallies = Vec::with_capacity(clients.len());
    let mut merged_trace: Option<ClientTrace> = None;
    let mut client_commits = 0u64;
    for (c, r) in clients.into_iter().enumerate() {
        for (a, b) in phases.iter_mut().zip(&r.phases) {
            a.merge(b);
        }
        client_commits += r.commits;
        tallies.push(r.tally);
        if let Some(t) = r.trace {
            write_spans(&s.data_dir, s.seed, c, &t);
            match merged_trace.as_mut() {
                Some(m) => m.merge(&t),
                None => merged_trace = Some(t),
            }
        }
    }

    // Gate: every commit the engine counted came from the clients (plus
    // one snapshot walk per checkpoint).
    let engine_commits = after.commits - before.commits;
    let expected = client_commits + ckpts.len() as u64;
    if engine_commits != expected {
        failures.push(format!(
            "engine counted {engine_commits} commits, clients {client_commits} + {} checkpoints",
            ckpts.len()
        ));
    }

    // Quiesce the log: everything appended must be durable before restart.
    if let Some(store) = store {
        let log = store.logger();
        let deadline = Instant::now() + Duration::from_secs(30);
        while log.durable_lsn() < log.appended_lsn() {
            if Instant::now() > deadline {
                failures.push("log never became durable".into());
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    if let Err(e) = w.check(engine, tables, &tallies) {
        failures.push(e);
    }
    let expected_state = fingerprint(w, engine, tables)?;
    let versions = w
        .table_ids(tables)
        .into_iter()
        .map(|t| engine.versions(t).map(|v| v as u64))
        .sum::<Option<u64>>();

    // Restart: the logged workload recovers its own checkpoint chain and
    // log tail; the others get one full image of the final state written
    // by the benchmark (untimed).
    let logged = store.is_some();
    if !logged {
        write_image(w, engine, tables, &dir)?;
    }
    drop(env);
    let mut restarts = Vec::with_capacity(RESTARTS);
    for _ in 0..RESTARTS {
        let start = Instant::now();
        let plan = CheckpointStore::plan(&dir)?;
        let plan_s = start.elapsed().as_secs_f64();
        let fresh_engine = fresh();
        let fresh_tables = w.create_tables(&fresh_engine)?;
        let start = Stopwatch::start();
        let report = fresh_engine.recover(&plan)?;
        let load_s = start.unstolen_secs();
        restarts.push(Restart {
            plan_s,
            load_s,
            tail_records: report.records_applied,
        });
        let got = fingerprint(w, &fresh_engine, fresh_tables)?;
        if got != expected_state {
            failures.push(format!(
                "restart recovered {got:?}, final state before restart was {expected_state:?}"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    Ok(RunOutput {
        setup_s,
        phases,
        windows,
        trace: merged_trace,
        ckpts,
        durable_lag,
        peak_rss_kb,
        restarts,
        rows: expected_state.rows,
        versions,
        logged,
        failures,
    })
}

/// Write one full checkpoint image of the current state into a fresh
/// store at `dir` (for the workloads that run without a redo log).
fn write_image<W: Workload, E: Engine>(
    w: &W,
    engine: &E,
    tables: W::Tables,
    dir: &Path,
) -> Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    let store = CheckpointStore::create(dir)?;
    let mut writer = store.begin_checkpoint(Lsn::ZERO, Timestamp(1))?;
    let mut failed = None;
    w.for_each_row(engine, tables, &mut |table, row| {
        if failed.is_none() {
            failed = writer.write_row(table, row).err();
        }
    })?;
    if let Some(e) = failed {
        return Err(e);
    }
    store.install_checkpoint(writer.finish()?)?;
    Ok(())
}

/// Spans go to `<data_dir>/traces/seed<seed>-client<c>.tsv`; a failure to
/// write them is reported on stderr and does not fail the run.
fn write_spans(data_dir: &Path, seed: u64, client: usize, t: &ClientTrace) {
    let dir = data_dir.join("traces");
    let path = dir.join(format!("seed{seed}-client{client}.tsv"));
    let result = std::fs::create_dir_all(&dir).and_then(|_| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        t.write_spans(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    if let Err(e) = result {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}
