//! `perf --compare A B`: two sets of runs (files written with `--out`), one
//! row per (workload, end-to-end metric), judged against the bounds fixed in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;

/// `(workload, metric)` → the values of every run in the file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs spread wider than the bound, so a move within it cannot be told.
    Unresolved,
}

/// An end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str);
            Some(Bound {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// Read a file of `--out` lines: untraced runs only, since end-to-end
/// metrics never come from a traced run.
pub fn runs_from(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line)?;
        let workload =
            doc.get("workload").and_then(Json::as_str).ok_or("run line without a workload")?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or("run line without result.metrics")?;
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
            runs.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
    }
    Ok(runs)
}

/// Judge set `b` against set `a` for one metric. Returns the share by which
/// `b`'s median is worse (negative: better), the wider of the two spreads,
/// and the verdict.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if bound.higher_is_better { -change } else { change };
    let spread = iqr_share(a).max(iqr_share(b));
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread > bound.bound && !b_beats_every_a {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// Print the table; `Ok(true)` when nothing regressed.
pub fn compare(benchmark_json: &str, a_text: &str, b_text: &str) -> Result<bool, String> {
    let bounds = bounds_from(benchmark_json)?;
    let (a, b) = (runs_from(a_text)?, runs_from(b_text)?);
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let mut clean = true;
    for ((workload, metric), a_values) in &a {
        let Some(bound) = bounds.iter().find(|m| &m.name == metric) else { continue };
        let Some(b_values) = b.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<20} {metric:<18} missing from B");
            clean = false;
            continue;
        };
        let (worse_by, spread, verdict) = judge(a_values, b_values, bound);
        clean &= verdict != Verdict::Regressed;
        println!(
            "{workload:<20} {metric:<18} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            median(a_values).unwrap_or(0.0),
            median(b_values).unwrap_or(0.0),
            worse_by * 100.0,
            spread * 100.0,
            bound.bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "rekey_ms_p50".into(), higher_is_better: false, bound }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(&a, &[10.3, 10.2, 10.4, 10.3], &lower(0.07)).2, Verdict::Ok);
        assert_eq!(judge(&a, &[11.3, 11.2, 11.4, 11.3], &lower(0.07)).2, Verdict::Regressed);
        let noisy = [8.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&noisy, &[10.3, 10.2, 10.4, 10.3], &lower(0.07)).2, Verdict::Unresolved);
        // Wide spread, but every B run beats every A run.
        assert_eq!(judge(&noisy, &[5.0, 7.0, 5.0, 7.0], &lower(0.07)).2, Verdict::Ok);
        let higher = Bound { name: "requests_per_s".into(), higher_is_better: true, bound: 0.07 };
        let (worse_by, _, verdict) = judge(&[100.0, 100.0], &[90.0, 90.0], &higher);
        assert!((worse_by - 0.10).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn reads_bounds_and_untraced_runs() {
        let bench = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let bounds = bounds_from(bench).expect("valid");
        assert_eq!(bounds.len(), 2);
        assert!(bounds[1].higher_is_better && bounds[1].bound == 0.1);
        let runs = "{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"result\": \
                    {\"metrics\": {\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}}\n\
                    {\"workload\": \"w\", \"seed\": 2, \"trace\": 1, \"result\": \
                    {\"metrics\": {\"x\": {\"value\": 9.0, \"unit\": \"s\"}}}}\n";
        let parsed = runs_from(runs).expect("valid");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[&("w".to_string(), "setup_s".to_string())], vec![2.0]);
    }
}
