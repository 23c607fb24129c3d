//! `perf` — the canonical benchmark: request → every member rekeyed, broken
//! down by crate, on four workloads. `README.md` beside this file defines
//! every workload and metric; `BENCHMARK.json` at the repository root fixes
//! the regression bounds.
//!
//! ```text
//! perf --workload <name|all> [--seed S] [--seconds T] [--trace 0|1]
//!      [--out FILE] [--trace-out FILE]
//! perf --smoke
//! perf --compare A B
//! ```

mod cluster;
mod compare;
mod e2e;
mod gen;
mod json;
mod probes;
mod report;
mod server_key;
mod stats;
mod trace;

use kg_core::rekey::Strategy;
use report::{Plan, Report};
use std::io::Write as _;
use std::process::ExitCode;
use trace::Recorder;

const WORKLOADS: &[&str] =
    &["churn_e2e_group", "churn_e2e_derived", "churn_server_key", "cluster_batch"];

/// Requests per workload in a smoke run.
const SMOKE_OPS: u64 = 40;

fn run_workload(name: &str, plan: &Plan, rec: &mut Recorder) -> Result<Report, String> {
    match name {
        "churn_e2e_group" => e2e::run(Strategy::GroupOriented, plan, rec),
        "churn_e2e_derived" => e2e::run(Strategy::Derived, plan, rec),
        "churn_server_key" => server_key::run(plan, rec),
        "cluster_batch" => cluster::run(plan, rec),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?} or all")),
    }
}

/// Every workload at small sizes with every check on. Claims no metric: it
/// exists so `cargo test --workspace` fails when an API the benchmark calls
/// changes underneath it.
fn smoke() -> Result<(), String> {
    for trace in [false, true] {
        let plan =
            Plan { seed: 101, seconds: f64::INFINITY, max_ops: SMOKE_OPS, trace, smoke: true };
        for name in WORKLOADS {
            let report = run_workload(name, &plan, &mut Recorder::new())?;
            if report.failed > 0 || report.attempted != SMOKE_OPS {
                return Err(format!(
                    "{name}: {} of {} requests failed (trace {trace})",
                    report.failed, report.attempted
                ));
            }
            println!("smoke {name} (trace {trace}): {} requests ok", report.attempted);
        }
    }
    Ok(())
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    // Seed 101 is the first of the paper's three request sequences.
    let mut parsed = Args {
        workload: "all".into(),
        seed: 101,
        seconds: 10.0,
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            "--trace-out" => parsed.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

/// Run one workload in this process and print its result line last.
fn run_one(args: &Args) -> Result<bool, String> {
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        max_ops: u64::MAX,
        trace: args.trace,
        smoke: false,
    };
    let mut rec = Recorder::new();
    let report = run_workload(&args.workload, &plan, &mut rec)?;
    let line = report.result_line(args.trace)?;
    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    for note in &report.notes {
        println!("  {note}");
    }
    report.print_table(args.trace);
    if let Some(path) = &args.trace_out {
        std::fs::write(path, rec.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {path}: {e}"))?;
        writeln!(
            file,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{line}");
    Ok(report.failed == 0)
}

/// Run every workload, each in a process of its own and one after another,
/// so `peak_rss_mb` belongs to one workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut passed = true;
    for name in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", name, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            child.args(["--out", out]);
        }
        if let Some(trace_out) = &args.trace_out {
            child.args(["--trace-out", &format!("{trace_out}.{name}")]);
        }
        passed &= child.status().map_err(|e| format!("starting {name}: {e}"))?.success();
    }
    Ok(passed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("--smoke") if raw.len() == 1 => smoke().map(|()| true),
        Some("--compare") if raw.len() == 3 => {
            let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            read("BENCHMARK.json")
                .and_then(|bench| Ok((bench, read(&raw[1])?, read(&raw[2])?)))
                .and_then(|(bench, a, b)| compare::compare(&bench, &a, &b))
        }
        _ => parse_args(&raw).and_then(|args| {
            if args.workload == "all" {
                run_all(&args)
            } else {
                run_one(&args)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_with_every_check() {
        smoke().expect("smoke run");
    }

    #[test]
    fn arguments_follow_the_contract() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = args(&[
            "--workload",
            "churn_server_key",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn_server_key", 7, 3.0, true)
        );
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate", "1"]).is_err());
    }

    /// `BENCHMARK.json` and the catalogue in `report.rs` name the same
    /// workloads and metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest directory");
        };
        let doc = json::Json::parse(&text).expect("BENCHMARK.json parses");
        let names_units = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(json::Json::as_str).map(str::to_string);
                    (text("name").expect("name"), text("unit").unwrap_or_default())
                })
                .collect()
        };
        let catalogue = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names_units("end_to_end"), catalogue(report::END_TO_END));
        assert_eq!(names_units("per_layer"), catalogue(report::PER_LAYER));
        let workloads: Vec<String> = names_units("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
