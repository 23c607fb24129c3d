//! What every workload hands back, the catalogue of metric names, and the
//! result line the benchmark contract asks for.

use crate::stats::{median, percentile, windowed, TooFewSamples};
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// Every workload reports every one of them, untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("join_ms_p50", "ms"),
    ("leave_ms_p50", "ms"),
    ("rekey_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("bytes_per_request", "B"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, reported by the traced run. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.pump_ms_per_op", "ms"),
    ("client.apply_us_mean", "us"),
    ("client.request_us", "us"),
    ("client.packets_per_op", "count"),
    ("client.keys_installed_per_op", "count"),
    ("client.bundle_useful_share", "share"),
    ("net.deliver_ms_per_op", "ms"),
    ("net.datagrams_per_op", "count"),
    ("net.bytes_delivered_per_op", "B"),
    ("server.poll_us_p50", "us"),
    ("server.join_us_p50", "us"),
    ("server.join_us_p99", "us"),
    ("server.leave_us_p50", "us"),
    ("server.leave_us_p99", "us"),
    ("server.other_us", "us"),
    ("server.seals_per_join", "count"),
    ("server.seals_per_leave", "count"),
    ("server.msgs_per_join", "count"),
    ("server.msgs_per_leave", "count"),
    ("server.signatures_per_op", "count"),
    ("wire.frame_bytes_mean", "B"),
    ("wire.bytes_per_join", "B"),
    ("wire.bytes_per_leave", "B"),
    ("core.tree_build_s", "s"),
    ("core.tree_join_us_p50", "us"),
    ("core.tree_leave_us_p50", "us"),
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("crypto.seal_us", "us"),
    ("crypto.unseal_us", "us"),
    ("crypto.derive_us", "us"),
    ("crypto.digest_us_per_kb", "us"),
    ("par.cache_hit_share", "share"),
    ("cluster.submit_ms_per_interval", "ms"),
    ("cluster.net_ms_per_interval", "ms"),
    ("cluster.router_poll_ms_per_interval", "ms"),
    ("cluster.node_poll_ms_per_interval", "ms"),
    ("cluster.node_tick_ms_per_interval", "ms"),
    ("cluster.settle_ms_per_interval", "ms"),
    ("cluster.relay_datagrams_per_interval", "count"),
    ("batch.seals_per_request", "count"),
    ("persist.wal_ms_per_interval", "ms"),
    ("persist.recover_ms_p50", "ms"),
    ("persist.dir_bytes_end", "B"),
    ("bench.unattributed_share", "share"),
    ("bench.trace_overhead_pct", "%"),
];

/// How long the measured phase runs: until `seconds` of wall time have
/// passed or `max_ops` operations are done, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub max_ops: u64,
    pub trace: bool,
    /// Small sizes, one set-up, no percentiles: an API check, not a measurement.
    pub smoke: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// A smoke run claims no metric: percentiles are skipped, not refused.
    smoke: bool,
    /// Membership requests handed to the system in the measured phase.
    pub attempted: u64,
    /// Requests refused or erroring, `RekeyFailed` events, failed checks.
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable disclosures printed above the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(plan: &Plan) -> Self {
        Report { smoke: plan.smoke, ..Report::default() }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Record a percentile of `samples` (scaled by `scale`).
    pub fn set_percentile(
        &mut self,
        name: &'static str,
        samples: &[f64],
        p: f64,
        scale: f64,
    ) -> Result<(), String> {
        if self.smoke {
            return Ok(());
        }
        match percentile(samples, p) {
            Ok(v) => {
                self.set(name, v * scale);
                Ok(())
            }
            Err(TooFewSamples { have, need }) => {
                Err(format!("{name}: {have} samples, p{:.0} needs {need}", p * 100.0))
            }
        }
    }

    /// The latency and throughput metrics every workload reports: each the
    /// median over windows of the window's own statistic (see [`windowed`]).
    /// `requests_per_sample` is 1 per-op and the interval size when batched.
    pub fn set_latency_metrics(
        &mut self,
        samples: &[Sample],
        requests_per_sample: f64,
    ) -> Result<(), String> {
        if self.smoke {
            return Ok(());
        }
        let ms = |w: &[Sample], keep: fn(Kind) -> bool| -> Vec<f64> {
            w.iter().filter(|s| keep(s.kind)).map(|s| s.ms).collect()
        };
        let join = windowed(samples, |w| percentile(&ms(w, |k| k != Kind::Leave), 0.50));
        let leave = windowed(samples, |w| percentile(&ms(w, |k| k != Kind::Join), 0.50));
        let tail = windowed(samples, |w| percentile(&ms(w, |_| true), 0.90));
        let rate = windowed(samples, |w| {
            let busy_s = w.iter().map(|s| s.ms).sum::<f64>() / 1e3;
            Ok(w.len() as f64 * requests_per_sample / busy_s)
        });
        for (name, value) in [
            ("join_ms_p50", join),
            ("leave_ms_p50", leave),
            ("rekey_ms_p90", tail),
            ("requests_per_s", rate),
        ] {
            let value = value.map_err(|TooFewSamples { have, need }| {
                format!("{name}: {have} samples where {need} are needed; the host is too slow")
            })?;
            self.set(name, value);
        }
        Ok(())
    }

    /// What the traced run says about the benchmark itself: the share of an
    /// operation's time spent outside every layer span, and the recorder's cost.
    pub fn set_bench_overheads(&mut self, rec: &Recorder, overhead: &Overhead) {
        let op = rec.layers().get("op").copied().unwrap_or_default();
        self.set("bench.unattributed_share", op.self_ns as f64 / op.total_ns.max(1) as f64);
        self.set("bench.trace_overhead_pct", overhead.percent());
    }

    /// A failed correctness check: counted, and said once on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        if self.failed < 5 {
            eprintln!("perf: check failed: {what}");
        }
        self.failed += 1;
    }

    /// The contract's result line: every metric of the chosen group by name.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let group = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in group.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                // A layer this workload never calls into.
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        ))
    }

    /// Every measured metric, one per line, for a person to read.
    pub fn print_table(&self, trace: bool) {
        let group = if trace { PER_LAYER } else { END_TO_END };
        for (name, unit) in group {
            if let Some(v) = self.values.get(name) {
                println!("  {name:<40} {v:>16.4} {unit}");
            }
        }
    }
}

/// Which request a latency sample timed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Join,
    Leave,
    /// A batch interval: joins and leaves take effect together.
    Both,
}

/// One timed window: request hand-off to rekey complete.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub ms: f64,
}

/// Per-kind server output, read from the `OpRecord` each request leaves.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindCounts {
    pub ops: u64,
    pub seals: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub signatures: u64,
}

impl KindCounts {
    pub fn add(&mut self, rec: &kg_server::OpRecord) {
        self.ops += 1;
        self.seals += rec.encryptions;
        self.msgs += rec.msg_sizes.len() as u64;
        self.bytes += rec.total_bytes();
        self.signatures += rec.signatures;
    }
}

/// The `server.*_per_*` and `wire.*` counts shared by the per-op workloads.
pub fn set_server_counts(report: &mut Report, join: KindCounts, leave: KindCounts) {
    let per = |sum: u64, ops: u64| if ops == 0 { 0.0 } else { sum as f64 / ops as f64 };
    report.set("server.seals_per_join", per(join.seals, join.ops));
    report.set("server.seals_per_leave", per(leave.seals, leave.ops));
    report.set("server.msgs_per_join", per(join.msgs, join.ops));
    report.set("server.msgs_per_leave", per(leave.msgs, leave.ops));
    report.set(
        "server.signatures_per_op",
        per(join.signatures + leave.signatures, join.ops + leave.ops),
    );
    report.set("wire.frame_bytes_mean", per(join.bytes + leave.bytes, join.msgs + leave.msgs));
    report.set("wire.bytes_per_join", per(join.bytes, join.ops));
    report.set("wire.bytes_per_leave", per(leave.bytes, leave.ops));
}

/// Operations per block of the traced run. Tracing alternates on and off in
/// blocks, so both rates come from one process on one system state and their
/// ratio is the recorder's overhead.
pub const TRACE_BLOCK: u64 = 20;

/// Time and operations with the recorder on and off.
#[derive(Debug, Default, Clone, Copy)]
pub struct Overhead {
    pub traced_ops: u64,
    pub traced_ns: u64,
    pub plain_ops: u64,
    pub plain_ns: u64,
}

impl Overhead {
    /// Whether operation number `index` of a traced run records spans.
    pub fn traces(index: u64) -> bool {
        (index / TRACE_BLOCK).is_multiple_of(2)
    }

    /// Open operation `index`: switch the recorder for its block and tag the
    /// spans to come. Returns whether the operation is traced.
    pub fn begin_op(rec: &mut Recorder, plan: &Plan, index: u64) -> bool {
        let traced = plan.trace && Overhead::traces(index);
        rec.set_on(traced);
        rec.begin_op(index);
        traced
    }

    pub fn add(&mut self, traced: bool, ns: u64) {
        if traced {
            self.traced_ops += 1;
            self.traced_ns += ns;
        } else {
            self.plain_ops += 1;
            self.plain_ns += ns;
        }
    }

    /// Traced time per operation over untraced, minus one, in percent.
    pub fn percent(&self) -> f64 {
        if self.traced_ops == 0 || self.plain_ops == 0 || self.plain_ns == 0 {
            return 0.0;
        }
        let traced = self.traced_ns as f64 / self.traced_ops as f64;
        let plain = self.plain_ns as f64 / self.plain_ops as f64;
        (traced / plain - 1.0) * 100.0
    }
}

/// Build a workload's system `plan`-many times (once in a smoke run), keep
/// the last, and report the median build time as `setup_s`.
pub fn set_up<T>(
    report: &mut Report,
    plan: &Plan,
    repeats: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut seconds = Vec::new();
    let mut system = None;
    for _ in 0..if plan.smoke { 1 } else { repeats } {
        // The previous build goes first, so the peak is one system's.
        drop(system.take());
        let start = std::time::Instant::now();
        system = Some(build()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&seconds).expect("at least one set-up"));
    report.notes.push(format!("setup_s is the median of {} set-ups", seconds.len()));
    Ok(system.expect("at least one set-up"))
}

/// Peak resident set of this process, from `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report { attempted: 10, ..Report::default() };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        let line = r.result_line(false).expect("all metrics set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.values.remove("setup_s");
        assert!(r.result_line(false).is_err(), "a missing end-to-end metric is an error");
        assert!(r.result_line(true).expect("layers default to 0").contains("\"value\": 0"));
    }

    #[test]
    fn overhead_compares_per_op_time() {
        let mut o = Overhead::default();
        assert!(Overhead::traces(0) && !Overhead::traces(TRACE_BLOCK));
        o.add(true, 110);
        o.add(false, 100);
        o.add(false, 100);
        assert!((o.percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn peak_rss_reads() {
        assert!(peak_rss_mb().expect("linux") > 0.0);
    }
}
