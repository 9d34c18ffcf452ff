//! Metric definitions and the result line.
//!
//! The end-to-end metrics come from the bare measured interval; the
//! per-layer metrics from the traced half of a traced run. Both lists are
//! fixed: every metric is printed on every workload, a layer the workload
//! does not exercise reads 0.

use crate::bench::{RunOutput, BARE, TRACED};
use crate::hist::{median, Histogram};
use crate::trace::Call;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_tps", "tx/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("long_read_rows_per_s", "rows/s"),
    ("recovery_s", "s"),
    ("bytes_written_per_txn", "B"),
];

/// Engine crates that carry the per-transaction metrics.
pub const ENGINE_LAYERS: [&str; 2] = ["core", "onev"];

/// Suffixes of the per-engine-layer metrics, with units.
const ENGINE_SUFFIXES: [(&str, &str); 19] = [
    ("begin_ns.p50", "ns"),
    ("read_ns.p50", "ns"),
    ("read_ns.p99", "ns"),
    ("reads_per_txn", "count"),
    ("write_ns.p50", "ns"),
    ("write_ns.p99", "ns"),
    ("write_err_ratio", "ratio"),
    ("commit_ns.p50", "ns"),
    ("commit_ns.p99", "ns"),
    ("commit_err_ratio", "ratio"),
    ("useful_ratio", "ratio"),
    ("write_conflicts_per_1k", "count"),
    ("validation_failures_per_1k", "count"),
    ("commit_dependencies_per_1k", "count"),
    ("wait_for_dependencies_per_1k", "count"),
    ("commit_waits_per_1k", "count"),
    ("cascaded_aborts_per_1k", "count"),
    ("deadlock_aborts_per_1k", "count"),
    ("versions_created_per_1k", "count"),
];

/// Per-layer metrics outside the engine crates, with units.
const OTHER_LAYERS: [(&str, &str); 20] = [
    ("index.scan_range_ns.p50", "ns"),
    ("index.scan_range_rows", "count"),
    ("storage.gc.collected_per_txn", "count"),
    ("storage.gc.versions_per_row", "count"),
    ("storage.log.bytes_per_txn", "B"),
    ("storage.log.records_per_batch", "count"),
    ("storage.log.durable_lag_bytes.p50", "B"),
    ("storage.log.durable_lag_bytes.max", "B"),
    ("storage.ckpt.count", "count"),
    ("storage.ckpt.ms.p50", "ms"),
    ("storage.ckpt.ms.max", "ms"),
    ("storage.ckpt.bytes_per_txn", "B"),
    ("storage.ckpt.chain_len_max", "count"),
    ("storage.recovery.plan_ms", "ms"),
    ("storage.recovery.load_ms", "ms"),
    ("storage.recovery.tail_records", "count"),
    ("workload.client_ns.p50", "ns"),
    ("workload.abort_rate", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.engine_share", "ratio"),
];

/// Every per-layer metric, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in ENGINE_LAYERS {
        for (suffix, unit) in ENGINE_SUFFIXES {
            out.push((format!("{layer}.{suffix}"), unit));
        }
    }
    out.extend(OTHER_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// What one run prints.
pub struct Report {
    /// Human-readable lines (printed before the result line).
    pub lines: Vec<String>,
    /// Metrics of the result line: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations started in the measured interval.
    pub attempted: u64,
    /// Operations that never committed.
    pub failed: u64,
    /// Failed accounting checks.
    pub failures: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn tps(out: &RunOutput, phase: u8) -> f64 {
    ratio(
        out.phases[phase as usize].commits as f64,
        out.windows[phase as usize].secs,
    )
}

/// Build the report of `out`. `layer` is the engine crate's prefix.
pub fn report(out: &RunOutput, layer: &str, trace: bool) -> Report {
    let measured: &[u8] = if trace { &[BARE, TRACED] } else { &[BARE] };
    let attempted = measured
        .iter()
        .map(|&p| out.phases[p as usize].ops + out.phases[p as usize].failed_ops)
        .sum::<u64>();
    let failed = measured
        .iter()
        .map(|&p| out.phases[p as usize].failed_ops)
        .sum::<u64>();
    let mut r = Report {
        lines: Vec::new(),
        metrics: Vec::new(),
        attempted,
        failed,
        failures: Vec::new(),
    };
    if trace {
        per_layer(out, layer, &mut r);
    } else {
        end_to_end(out, &mut r);
    }
    r
}

fn end_to_end(out: &RunOutput, r: &mut Report) {
    let bare = &out.phases[BARE as usize];
    let d = &out.windows[BARE as usize];
    let secs = d.secs;
    let log_bytes = if out.logged {
        d.log_appended
    } else {
        d.stats.log_bytes
    };
    let recovery: Vec<f64> = out.restarts.iter().map(|x| x.plan_s + x.load_s).collect();
    let values = [
        tps(out, BARE),
        bare.latency.quantile(0.50) / 1e3,
        bare.latency.quantile(0.95) / 1e3,
        median(&out.setup_s),
        out.peak_rss_kb as f64 / 1024.0,
        ratio(bare.ro_rows as f64, secs),
        median(&recovery),
        ratio((log_bytes + d.ckpt_bytes) as f64, bare.commits as f64),
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        r.metrics.push((name.to_string(), v, unit));
    }
    r.lines.push(format!(
        "measured {:.3} s wall, {:.3} s less hypervisor steal: {} commits of {} attempts \
         ({} aborted), {} latency samples, p90/p95/p99/p99.9 of the whole interval \
         {:.3}/{:.3}/{:.3}/{:.3} us; set-ups {:?} s; restarts {:?} s",
        d.wall_secs,
        secs,
        bare.commits,
        bare.attempts,
        bare.attempts - bare.commits,
        bare.latency.count(),
        bare.latency.quantile(0.90) / 1e3,
        bare.latency.quantile(0.95) / 1e3,
        bare.latency.quantile(0.99) / 1e3,
        bare.latency.quantile(0.999) / 1e3,
        out.setup_s,
        recovery
    ));
}

fn per_layer(out: &RunOutput, layer: &str, r: &mut Report) {
    let t = out.trace.as_ref().expect("traced run has a trace");
    let traced = &out.phases[TRACED as usize];
    let d = &out.windows[TRACED as usize];
    let commits = traced.commits as f64;
    let call = |c: Call| &t.calls[c as usize];
    let per_1k = |n: u64| ratio(n as f64 * 1e3, commits);
    let engine_values = [
        call(Call::Begin).ns.quantile(0.5),
        call(Call::Read).ns.quantile(0.5),
        call(Call::Read).ns.quantile(0.99),
        ratio(call(Call::Read).ns.count() as f64, traced.attempts as f64),
        call(Call::Write).ns.quantile(0.5),
        call(Call::Write).ns.quantile(0.99),
        ratio(
            call(Call::Write).errors as f64,
            call(Call::Write).ns.count() as f64,
        ),
        call(Call::Commit).ns.quantile(0.5),
        call(Call::Commit).ns.quantile(0.99),
        ratio(
            call(Call::Commit).errors as f64,
            call(Call::Commit).ns.count() as f64,
        ),
        ratio(commits, traced.attempts as f64),
        per_1k(d.stats.write_conflicts),
        per_1k(d.stats.validation_failures),
        per_1k(d.stats.commit_dependencies),
        per_1k(d.stats.wait_for_dependencies),
        per_1k(d.stats.commit_waits),
        per_1k(d.stats.cascaded_aborts),
        per_1k(d.stats.deadlock_aborts),
        per_1k(d.stats.versions_created),
    ];
    let mut values = Vec::with_capacity(per_layer_names().len());
    for l in ENGINE_LAYERS {
        values.extend(engine_values.map(|v| if l == layer { v } else { 0.0 }));
    }

    let scan = call(Call::ScanRange);
    let ckpts: Vec<f64> = out
        .ckpts
        .iter()
        .filter(|c| c.phase == TRACED)
        .map(|c| c.ms)
        .collect();
    let chain_max = out
        .ckpts
        .iter()
        .filter(|c| c.phase == TRACED)
        .map(|c| c.chain_len)
        .max()
        .unwrap_or(0);
    let lag: &Histogram = &out.durable_lag;
    let plan_ms: Vec<f64> = out.restarts.iter().map(|x| x.plan_s * 1e3).collect();
    let load_ms: Vec<f64> = out.restarts.iter().map(|x| x.load_s * 1e3).collect();
    let tail = out.restarts.last().map_or(0, |x| x.tail_records);
    let bare_tps = tps(out, BARE);
    let traced_tps = tps(out, TRACED);
    let latency_ns = t.latency.sum();
    let engine_ns = t.engine_ns();
    let other_values = [
        scan.ns.quantile(0.5),
        ratio(scan.rows as f64, scan.ns.count() as f64),
        ratio(d.stats.versions_collected as f64, commits),
        match out.versions {
            Some(v) => ratio(v as f64, out.rows as f64),
            None => 0.0,
        },
        if out.logged {
            ratio(d.log_appended as f64, commits)
        } else {
            0.0
        },
        ratio(d.log_records as f64, d.batches as f64),
        lag.quantile(0.5),
        lag.max() as f64,
        ckpts.len() as f64,
        median(&ckpts),
        ckpts.iter().copied().fold(0.0, f64::max),
        ratio(d.ckpt_bytes as f64, commits),
        chain_max as f64,
        median(&plan_ms),
        median(&load_ms),
        tail as f64,
        t.client.quantile(0.5),
        ratio(
            (traced.attempts - traced.commits) as f64,
            traced.attempts as f64,
        ),
        1.0 - ratio(traced_tps, bare_tps),
        ratio(engine_ns as f64, latency_ns as f64),
    ];
    values.extend(other_values);
    for ((name, unit), v) in per_layer_names().into_iter().zip(values) {
        r.metrics.push((name, v, unit));
    }

    // Accounting: per-call self times plus client time must add up to the
    // traced latency exactly (calls never nest, and every call of a traced
    // attempt falls inside it).
    let client_ns = t.client.sum();
    if engine_ns + client_ns != latency_ns {
        r.failures.push(format!(
            "trace accounting: engine {engine_ns} ns + client {client_ns} ns != latency {latency_ns} ns"
        ));
    }
    let n = t.latency.count() as f64;
    let bare = &out.phases[BARE as usize];
    r.lines.push(format!(
        "trace accounting over {} traced attempts: mean latency {:.3} us = engine calls {:.3} us \
         + client {:.3} us; committed p50 {:.3} us traced vs {:.3} us bare; throughput {:.0} tx/s \
         traced vs {:.0} tx/s bare (overhead {:.1} %); spans kept {}, dropped {}",
        t.latency.count(),
        ratio(latency_ns as f64, n) / 1e3,
        ratio(engine_ns as f64, n) / 1e3,
        ratio(client_ns as f64, n) / 1e3,
        traced.latency.quantile(0.5) / 1e3,
        bare.latency.quantile(0.5) / 1e3,
        traced_tps,
        bare_tps,
        100.0 * (1.0 - ratio(traced_tps, bare_tps)),
        t.total_spans(),
        t.dropped,
    ));
    for c in Call::ALL {
        let s = call(c);
        r.lines.push(format!(
            "  {:<10} calls {:>10}  p50 {:>10.0} ns  p99 {:>10.0} ns  mean {:>10.0} ns  \
             errors {:>6}  rows {:>10}",
            c.name(),
            s.ns.count(),
            s.ns.quantile(0.5),
            s.ns.quantile(0.99),
            s.ns.mean(),
            s.errors,
            s.rows
        ));
    }
}

impl Report {
    /// The result line.
    pub fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct && self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable metric table.
    pub fn table(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, value, unit)| format!("  {name:<40} {value:>18.6} {unit}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut all: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        all.extend(per_layer_names());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        assert!(per_layer_names().len() <= 128);
    }

    /// Every `"name": "..."` value inside the JSON array under `key`.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_under(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_under(&json, "per_layer"), layers);
        for w in names_under(&json, "workloads") {
            assert!(
                crate::WORKLOADS.contains(&w.as_str()),
                "unknown workload {w}"
            );
        }
    }
}
