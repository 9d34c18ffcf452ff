//! `perfbench`: one workload per invocation, end-to-end metrics
//! (`--trace 0`) or per-layer metrics from a traced run (`--trace 1`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` for the workloads, metrics and gates.

mod bench;
mod engines;
mod hist;
mod metrics;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::time::Duration;

use bench::{RunOutput, Settings};
use engines::{make_sv, BenchEngine, Scheme};
use mmdb_core::MvEngine;
use mmdb_onev::{SvConfig, SvEngine};
use workloads::{LongReaders, SmallBankHot, Tatp1v, TpccLogged, Workload};

/// Every workload this binary runs. `BENCHMARK.json` lists the ones the
/// benchmark gates on; `long-readers` is left out there (see README.md).
pub const WORKLOADS: [&str; 4] = ["smallbank-hot", "tpcc-logged", "long-readers", "tatp-1v"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1> \
         [--data-dir <dir>]",
        WORKLOADS.join("|")
    )
}

/// Parse the command line into the workload name and the run settings.
fn parse_args() -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_dir = PathBuf::from(".perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--data-dir" => data_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let settings = Settings {
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        data_dir: data_dir.join(&workload),
    };
    Ok((workload, settings))
}

/// Run `w` on the engine `scheme` builds; returns the output and the
/// engine crate's metric prefix.
fn run_mv<W: Workload>(
    w: &W,
    s: &Settings,
    scheme: Scheme,
) -> mmdb_common::error::Result<(RunOutput, &'static str)> {
    let out = bench::run(w, s, |dir| scheme.make_mv(dir), || scheme.fresh_mv())?;
    Ok((out, MvEngine::LAYER))
}

fn main() {
    let (workload, s) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let (scheme, params) = match workload.as_str() {
        "smallbank-hot" => (Scheme::Optimistic, SmallBankHot::default().params()),
        "tpcc-logged" => (Scheme::AdaptiveLogged, TpccLogged::default().params()),
        "long-readers" => (Scheme::Pessimistic, LongReaders::default().params()),
        _ => (Scheme::SingleVersion, Tatp1v::default().params()),
    };
    println!(
        "perfbench: workload {} on {} | seed {} | {} clients, closed loop, no think time | \
         warm-up {:?}, measured {:?}{} | {} set-ups, {} restarts",
        workload,
        scheme.label(),
        s.seed,
        bench::CLIENTS,
        bench::WARMUP_TIME,
        s.measure,
        if s.trace {
            " (alternating bare and traced slices)"
        } else {
            ""
        },
        bench::SETUPS,
        bench::RESTARTS,
    );
    println!("workload parameters: {params}");
    if scheme == Scheme::AdaptiveLogged {
        println!(
            "durability: async commit; group-commit flush (write + fdatasync) every {:?}; \
             benchmark checkpoint thread runs checkpoint_auto after every {} MiB of log, \
             deltas until the chain holds {} images",
            engines::FLUSH_TICK,
            bench::CHECKPOINT.log_bytes.unwrap_or(0) >> 20,
            bench::CHECKPOINT.max_chain
        );
    }

    let result = match workload.as_str() {
        "smallbank-hot" => run_mv(&SmallBankHot::default(), &s, scheme),
        "tpcc-logged" => run_mv(&TpccLogged::default(), &s, scheme),
        "long-readers" => run_mv(&LongReaders::default(), &s, scheme),
        _ => bench::run(
            &Tatp1v::default(),
            &s,
            |_| Ok(make_sv()),
            || SvEngine::new(SvConfig::default()),
        )
        .map(|out| (out, SvEngine::LAYER)),
    };
    let (out, layer) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    let report = metrics::report(&out, layer, s.trace);
    for line in report.lines.iter().chain(&report.table()) {
        println!("{line}");
    }
    let failures: Vec<&String> = out.failures.iter().chain(&report.failures).collect();
    for f in &failures {
        println!("CORRECTNESS FAILURE: {f}");
        eprintln!("perfbench: correctness failure: {f}");
    }
    println!("{}", report.json(failures.is_empty()));
}
