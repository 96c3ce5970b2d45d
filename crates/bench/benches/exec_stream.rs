//! Executor experiment — batched hash-join engine vs. the naive
//! nested-loop oracle, and the end-to-end streaming `answers_top_k` path.
//!
//! Not a figure of the paper: this measures the infrastructure the paper
//! presumes ("the user gets results"). For each fixture (IMDB, Lyrics) the
//! harness takes the workload's keyword queries, pulls the top-10
//! interpretations best-first, and reports per-executor counters —
//! intermediate bindings materialized, hash probes, semi-join reduction —
//! plus wall-clock for full execution and for streaming the top-10 answers.

use keybridge_bench::{imdb_fixture, lyrics_fixture, mean, print_table, Fixture};
use keybridge_core::{
    execute_interpretation, execute_interpretation_naive, KeywordQuery, TemplatePrior,
};
use keybridge_relstore::{ExecOptions, ExecStats};
use std::time::Instant;

fn run_fixture(f: &Fixture, queries: usize) -> Vec<String> {
    let interpreter = f.interpreter(
        keybridge_core::ProbabilityConfig::default(),
        TemplatePrior::Uniform,
    );
    let mut nv_total = ExecStats::default();
    let mut hj_total = ExecStats::default();
    let mut t_nv = Vec::new();
    let mut t_hj = Vec::new();
    let mut t_ans = Vec::new();
    let mut answer_intermediates = Vec::new();
    let mut evaluated = 0usize;
    for q in f.workload.queries.iter().take(queries) {
        let query = KeywordQuery::from_terms(q.keywords.clone());
        let ranked = interpreter.top_k(&query, 10);
        if ranked.is_empty() {
            continue;
        }
        evaluated += 1;
        let opts = ExecOptions {
            limit: 10_000,
            ..Default::default()
        };
        for (execute, total, times) in [
            (
                execute_interpretation_naive as fn(_, _, _, _, _) -> _,
                &mut nv_total,
                &mut t_nv,
            ),
            (execute_interpretation, &mut hj_total, &mut t_hj),
        ] {
            let t = Instant::now();
            for s in &ranked {
                if let Ok(r) = execute(&f.db, &f.index, &f.catalog, &s.interpretation, opts) {
                    total.absorb(&r.stats);
                }
            }
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        let (_, astats) = interpreter.answers_top_k_with_stats(&query, 10);
        t_ans.push(t.elapsed().as_secs_f64() * 1e3);
        answer_intermediates.push(astats.exec.intermediate_bindings as f64);
    }
    vec![
        f.name.to_string(),
        evaluated.to_string(),
        nv_total.intermediate_bindings.to_string(),
        hj_total.intermediate_bindings.to_string(),
        format!("{:.0}", mean(&answer_intermediates)),
        format!("{:.0}%", hj_total.semijoin_reduction() * 100.0),
        hj_total.batches.to_string(),
        hj_total.probes.to_string(),
        format!("{:.2}", mean(&t_nv)),
        format!("{:.2}", mean(&t_hj)),
        format!("{:.2}", mean(&t_ans)),
    ]
}

fn main() {
    let queries = 25;
    let rows = vec![
        run_fixture(&imdb_fixture(1), queries),
        run_fixture(&lyrics_fixture(2), queries),
    ];
    print_table(
        "Executor: naive vs. batched hash join vs. streaming answers (top-10, per query)",
        &[
            "dataset",
            "queries",
            "naive interm.",
            "hj interm.",
            "answers interm.",
            "semijoin pruned",
            "hj batches",
            "hj probes",
            "naive ms",
            "hj ms",
            "answers ms",
        ],
        &rows,
    );
}
