//! Rendering: the per-metric lines a person reads, the one-line JSON the
//! driver reads, the results file, `--compare`, and `BENCHMARK.json` itself.

use crate::json::{self, Json};
use crate::metrics::{Better, Measured, MetricDef, END_TO_END, PER_LAYER};
use crate::run::Outcome;
use crate::workload::SPECS;
use std::fmt::Write;

/// Seconds one driver run measures for (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 20;
/// The directory that holds the benchmark, relative to the repository root.
pub const BENCH_PATH: &str = "crates/bench/src/bin/kbench";
/// `fail_share` may rise by this much (absolute) before `--compare` flags it.
const FAIL_SHARE_BOUND: f64 = 0.001;

pub fn defs_for(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `name unit value samples [unresolved]`, one metric a line.
pub fn lines(outcome: &Outcome, trace: bool) -> String {
    let mut out = String::new();
    for (d, m) in outcome.report.complete(defs_for(trace)) {
        let _ = writeln!(
            out,
            "{} {} {} {}{}",
            d.name,
            d.unit,
            json::number(m.value),
            m.samples,
            if m.unresolved { " unresolved" } else { "" }
        );
    }
    out
}

/// The object the driver reads from the last line of standard output.
pub fn contract_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = outcome
        .report
        .complete(defs_for(trace))
        .into_iter()
        .map(|(d, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(d.name),
                json::number(m.value),
                json::quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn measured_json(d: &MetricDef, m: Measured) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"unresolved\": {}}}",
        json::quote(d.name),
        json::number(m.value),
        json::quote(d.unit),
        m.samples,
        m.unresolved
    )
}

/// The `"metric": {...}` members one run contributes to a results file.
pub fn result_members(outcome: &Outcome, trace: bool) -> Vec<String> {
    outcome
        .report
        .complete(defs_for(trace))
        .into_iter()
        .map(|(d, m)| measured_json(d, m))
        .collect()
}

/// A results file: `{"<workload>": {"<metric>": {...}, ...}, ...}`.
pub fn results_file(workloads: &[(String, Vec<String>)]) -> String {
    let body: Vec<String> = workloads
        .iter()
        .map(|(w, members)| {
            format!(
                "  {}: {{\n    {}\n  }}",
                json::quote(w),
                members.join(",\n    ")
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// The `{...}` members of a results file for one workload, re-serialised
/// (used by `--all` to merge the files its child processes wrote).
pub fn members_of(file: &Json, workload: &str) -> Vec<String> {
    let Some(metrics) = file.get(workload).and_then(Json::as_obj) else {
        return Vec::new();
    };
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter_map(|d| {
            let v = metrics.get(d.name)?;
            let m = Measured {
                value: v.get("value")?.as_f64().unwrap_or(f64::NAN),
                samples: v.get("samples")?.as_f64()? as usize,
                unresolved: v.get("unresolved")?.as_bool()?,
            };
            Some(measured_json(d, m))
        })
        .collect()
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Relative change in the *worse* direction (negative = improved).
    pub worse_by: f64,
    pub flagged: bool,
    pub unresolved: bool,
}

/// Compare two results files metric by metric. A metric is flagged when B is
/// worse than A by more than its bound (end-to-end metrics carry one;
/// `fail_share` an absolute one); per-layer metrics are never flagged.
pub fn compare(a: &Json, b: &Json) -> Vec<Diff> {
    let mut out = Vec::new();
    let (Some(wa), Some(wb)) = (a.as_obj(), b.as_obj()) else {
        return out;
    };
    for (workload, ma) in wa {
        let Some(mb) = wb.get(workload) else { continue };
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(va), Some(vb)) = (ma.get(d.name), mb.get(d.name)) else {
                continue;
            };
            let value = |v: &Json| v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unresolved =
                |v: &Json| v.get("unresolved").and_then(Json::as_bool).unwrap_or(false);
            let (x, y) = (value(va), value(vb));
            let rel = if x == 0.0 { 0.0 } else { (y - x) / x.abs() };
            let worse_by = match d.better {
                Better::Lower => rel,
                Better::Higher => -rel,
            };
            let flagged = if d.name == "fail_share" {
                y - x > FAIL_SHARE_BOUND
            } else {
                d.bound > 0.0 && worse_by > d.bound
            };
            out.push(Diff {
                workload: workload.clone(),
                metric: d.name.to_string(),
                a: x,
                b: y,
                worse_by,
                flagged,
                unresolved: unresolved(va) || unresolved(vb),
            });
        }
    }
    out
}

pub fn render_diffs(diffs: &[Diff]) -> String {
    let mut out = String::from("workload metric a b worse_by flag\n");
    for d in diffs {
        let _ = writeln!(
            out,
            "{} {} {} {} {:+.4}{}{}",
            d.workload,
            d.metric,
            json::number(d.a),
            json::number(d.b),
            d.worse_by,
            if d.flagged { " BEYOND-BOUND" } else { "" },
            if d.unresolved { " unresolved" } else { "" },
        );
    }
    out
}

/// `BENCHMARK.json`, generated from the tables the program reports from.
pub fn benchmark_json() -> String {
    let manifest = format!("{BENCH_PATH}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        manifest.as_str(),
        "--",
    ]
    .map(json::quote)
    .join(", ");
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(s.name),
                json::quote(s.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                json::number(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json::quote(BENCH_PATH),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(sat: f64, p95: f64, rss: f64, fail: f64, layer: f64) -> Json {
        json::parse(&format!(
            "{{\"w\": {{\
             \"sat_ops_s\": {{\"value\": {sat}, \"unit\": \"1/s\", \"samples\": 9, \"unresolved\": false}},\
             \"sat_search_p95_ms\": {{\"value\": {p95}, \"unit\": \"ms\", \"samples\": 9, \"unresolved\": false}},\
             \"rss_peak_mb\": {{\"value\": {rss}, \"unit\": \"MB\", \"samples\": 1, \"unresolved\": true}},\
             \"fail_share\": {{\"value\": {fail}, \"unit\": \"share\", \"samples\": 9, \"unresolved\": false}},\
             \"core.exec.execute_p50_ms\": {{\"value\": {layer}, \"unit\": \"ms\", \"samples\": 9, \"unresolved\": false}}\
             }}}}"
        ))
        .unwrap()
    }

    #[test]
    fn compare_flags_exactly_the_metrics_beyond_their_bound() {
        let a = file(1000.0, 10.0, 100.0, 0.0, 1.0);
        // sat -30% (bound 0.25: flagged), p95 +10% (bound 0.25: not), rss -5%
        // (improved), fail_share +0.002 (absolute bound 0.001: flagged), a
        // per-layer metric tripled (never flagged).
        let b = file(700.0, 11.0, 95.0, 0.002, 3.0);
        let diffs = compare(&a, &b);
        let flagged: Vec<&str> = diffs
            .iter()
            .filter(|d| d.flagged)
            .map(|d| d.metric.as_str())
            .collect();
        assert_eq!(flagged, ["sat_ops_s", "fail_share"]);
        let sat = diffs.iter().find(|d| d.metric == "sat_ops_s").unwrap();
        assert!((sat.worse_by - 0.3).abs() < 1e-12);
        let rss = diffs.iter().find(|d| d.metric == "rss_peak_mb").unwrap();
        assert!(rss.worse_by < 0.0 && rss.unresolved && !rss.flagged);
        // Identical files flag nothing.
        assert!(compare(&a, &a).iter().all(|d| !d.flagged));
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let v = json::parse(&text).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let Some(Json::Arr(workloads)) = v.get("workloads") else {
            panic!("workloads")
        };
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let Some(Json::Str(why)) = w.get("why") else {
                panic!("why")
            };
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
        }
        let Some(Json::Arr(command)) = v.get("command") else {
            panic!("command")
        };
        assert!(command.len() <= 32);
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }
}
