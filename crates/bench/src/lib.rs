//! Shared fixtures and helpers for the paper's experiments and the `smoke`
//! binary.
//!
//! [`paper`] reproduces the paper's tables and figures as a table of entries
//! whose findings are checked claims; `smoke` runs every entry on every
//! invocation and holds its cells to the committed snapshot. Every clock is
//! kbench's (`src/bin/kbench`).

pub mod paper;

use keybridge_core::{
    IntentDescription, Interpreter, InterpreterConfig, KeywordQuery, ScoredInterpretation,
    TemplateCatalog, TemplatePrior,
};
use keybridge_datagen::{
    ImdbConfig, ImdbDataset, LyricsConfig, LyricsDataset, MixedOp, MixedWorkload, Workload,
    WorkloadConfig, WorkloadQuery,
};
use keybridge_index::InvertedIndex;
use keybridge_iqp::{SessionConfig, SimulatedUser};

/// A ready-to-query dataset: database + index + template catalog + workload.
pub struct Fixture {
    pub name: &'static str,
    pub db: keybridge_relstore::Database,
    pub index: InvertedIndex,
    pub catalog: TemplateCatalog,
    pub workload: Workload,
}

/// Number of keyword queries per dataset (the paper used 108 / 76).
pub const IMDB_QUERIES: usize = 108;
pub const LYRICS_QUERIES: usize = 76;

/// The IMDB-like evaluation fixture of §3.8.1.
pub fn imdb_fixture(seed: u64) -> Fixture {
    let data = ImdbDataset::generate(ImdbConfig {
        seed,
        ..Default::default()
    })
    .expect("generation succeeds");
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
    let workload = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: seed + 1,
            n_queries: IMDB_QUERIES,
            mc_fraction: 0.6,
        },
    );
    Fixture {
        name: "IMDB",
        db: data.db,
        index,
        catalog,
        workload,
    }
}

/// The Lyrics-like evaluation fixture of §3.8.1.
pub fn lyrics_fixture(seed: u64) -> Fixture {
    let data = LyricsDataset::generate(LyricsConfig {
        seed,
        ..Default::default()
    })
    .expect("generation succeeds");
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
    let workload = Workload::lyrics(
        &data,
        WorkloadConfig {
            seed: seed + 1,
            n_queries: LYRICS_QUERIES,
            mc_fraction: 0.6,
        },
    );
    Fixture {
        name: "Lyrics",
        db: data.db,
        index,
        catalog,
        workload,
    }
}

impl Fixture {
    /// An interpreter with the given probability configuration and a
    /// bench-friendly interpretation cap.
    pub fn interpreter(
        &self,
        prob: keybridge_core::ProbabilityConfig,
        prior: TemplatePrior,
    ) -> Interpreter<'_> {
        Interpreter::new(
            &self.db,
            &self.index,
            &self.catalog,
            InterpreterConfig {
                max_interpretations: 3000,
                prob,
                prior,
            },
        )
    }

    /// The usage-based template prior mined from the workload (the `TLog`
    /// condition of Fig. 3.5).
    pub fn usage_prior(&self) -> TemplatePrior {
        TemplatePrior::from_usage(
            self.workload
                .template_usage
                .iter()
                .map(|u| (u.tables.clone(), u.count)),
        )
    }

    /// Schema-level ground truth for a workload query.
    pub fn intent(&self, q: &WorkloadQuery) -> IntentDescription {
        IntentDescription {
            bindings: q
                .intent
                .bindings
                .iter()
                .map(|b| (b.keywords.clone(), b.table.clone(), b.attr.clone()))
                .collect(),
            tables: q.intent.tables.clone(),
        }
    }

    /// Run one workload query end to end under an interpreter: ranked list,
    /// target rank, and construction cost. `None` when the generator's
    /// intent is outside the materialized interpretation space (the paper
    /// likewise only evaluates queries whose intent exists).
    pub fn evaluate(&self, interpreter: &Interpreter<'_>, q: &WorkloadQuery) -> Option<QueryEval> {
        let query = KeywordQuery::from_terms(q.keywords.clone());
        let ranked = interpreter.ranked_interpretations(&query);
        if ranked.is_empty() {
            return None;
        }
        let user = SimulatedUser {
            db: &self.db,
            catalog: &self.catalog,
            intent: self.intent(q),
        };
        let rank = user.rank_of_target(&ranked)?;
        let outcome = user.run(&ranked, SessionConfig::default())?;
        Some(QueryEval {
            candidates: ranked.len(),
            rank,
            steps: outcome.steps,
            remaining: outcome.remaining,
            target_retained: outcome.target_retained,
            ranked,
        })
    }
}

/// Outcome of one evaluated workload query.
pub struct QueryEval {
    /// Size of the materialized interpretation space.
    pub candidates: usize,
    /// 1-based rank of the intent in the ranked list.
    pub rank: usize,
    /// Construction interaction cost (options evaluated).
    pub steps: usize,
    /// Candidates left in the final query window.
    pub remaining: usize,
    /// Whether construction kept the intent in the window.
    pub target_retained: bool,
    /// The ranked interpretations (for downstream metrics).
    pub ranked: Vec<ScoredInterpretation>,
}

/// Print a fixed-width table: a header row and data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Mean of a slice (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_core::ProbabilityConfig;

    #[test]
    fn fixtures_build_and_evaluate() {
        // Smaller configs keep this test snappy while exercising the full
        // evaluation path the benches use.
        let data = ImdbDataset::generate(ImdbConfig::tiny(3)).unwrap();
        let index = InvertedIndex::build(&data.db);
        let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).unwrap();
        let workload = Workload::imdb(
            &data,
            WorkloadConfig {
                seed: 4,
                n_queries: 15,
                mc_fraction: 0.5,
            },
        );
        let f = Fixture {
            name: "tiny",
            db: data.db,
            index,
            catalog,
            workload,
        };
        let interp = f.interpreter(ProbabilityConfig::default(), TemplatePrior::Uniform);
        let mut ok = 0;
        for q in &f.workload.queries.clone() {
            if let Some(e) = f.evaluate(&interp, q) {
                assert!(e.rank >= 1 && e.rank <= e.candidates);
                assert!(e.target_retained);
                ok += 1;
            }
        }
        assert!(ok > 0, "no query evaluated");
        let prior = f.usage_prior();
        assert!(matches!(prior, TemplatePrior::Usage { .. }));
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "x".into()]],
        );
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}

// ---------------------------------------------------------------------------
// Chapter 4 helpers: executed interpretations with simulated assessments.
// ---------------------------------------------------------------------------

use keybridge_core::{BindingAtom, ResultKey};
use keybridge_divq::{
    executed_div_pool, simulate_assessments, AssessConfig, DivExecOptions, EvalItem,
};
use std::collections::BTreeSet;

/// Per-query data for the Chapter 4 experiments: the top interpretations
/// with probabilities, structural atoms, executed result keys, and graded
/// relevance from the simulated assessor population.
pub struct Ch4Data {
    pub probs: Vec<f64>,
    pub atoms: Vec<BTreeSet<BindingAtom>>,
    pub keys: Vec<BTreeSet<ResultKey>>,
    pub relevance: Vec<f64>,
}

impl Ch4Data {
    /// Items in ranking order.
    pub fn eval_items(&self) -> Vec<EvalItem> {
        self.relevance
            .iter()
            .zip(&self.keys)
            .map(|(r, k)| EvalItem {
                relevance: *r,
                keys: k.clone(),
            })
            .collect()
    }

    /// Entropy of the top-10 probabilities (the §4.6.1 ambiguity measure).
    pub fn ambiguity(&self) -> f64 {
        let top: Vec<f64> = self.probs.iter().take(10).copied().collect();
        let total: f64 = top.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mut h = 0.0;
        for p in &top {
            let p = p / total;
            if p > 0.0 {
                h -= p * p.log2();
            }
        }
        h
    }
}

/// Build Chapter 4 data for one workload query: rank, truncate to `top`,
/// execute (dropping empty-result interpretations, §4.4.1), and assess.
/// Returns `None` when fewer than `min_interps` interpretations survive.
pub fn ch4_data(
    fixture: &Fixture,
    interpreter: &Interpreter<'_>,
    q: &WorkloadQuery,
    top: usize,
    min_interps: usize,
    assess_seed: u64,
) -> Option<Ch4Data> {
    let query = KeywordQuery::from_terms(q.keywords.clone());
    // The DivQ pool: the top complete AND partial interpretations (§4.4.2),
    // produced best-first — the exhaustive lattice is never materialized —
    // then executed through the batched hash-join engine with one shared
    // cache (empty-result interpretations drop out, §4.4.1).
    let ranked = interpreter.top_k(&query, top);
    let (items, keys, _exec_stats) = executed_div_pool(
        &fixture.db,
        &fixture.index,
        &fixture.catalog,
        &ranked,
        DivExecOptions::default(),
    );
    let probs: Vec<f64> = items.iter().map(|i| i.relevance).collect();
    let atoms: Vec<BTreeSet<BindingAtom>> = items.into_iter().map(|i| i.atoms).collect();
    if probs.len() < min_interps {
        return None;
    }
    let pairs: Vec<(f64, BTreeSet<BindingAtom>)> =
        probs.iter().copied().zip(atoms.iter().cloned()).collect();
    let relevance = simulate_assessments(
        &pairs,
        AssessConfig {
            seed: assess_seed,
            ..Default::default()
        },
    );
    Some(Ch4Data {
        probs,
        atoms,
        keys,
        relevance,
    })
}

/// The §4.6.1 query selection: the `n` single-concept and `n` multi-concept
/// queries with the highest top-10 entropy, paired with their data.
pub fn ch4_query_set(
    fixture: &Fixture,
    interpreter: &Interpreter<'_>,
    n: usize,
) -> (Vec<Ch4Data>, Vec<Ch4Data>) {
    let mut sc: Vec<(f64, Ch4Data)> = Vec::new();
    let mut mc: Vec<(f64, Ch4Data)> = Vec::new();
    for (i, q) in fixture.workload.queries.iter().enumerate() {
        let Some(data) = ch4_data(fixture, interpreter, q, 25, 2, 7000 + i as u64) else {
            continue;
        };
        let ambiguity = data.ambiguity();
        if q.multi_concept {
            mc.push((ambiguity, data));
        } else {
            sc.push((ambiguity, data));
        }
    }
    let take_top = |mut v: Vec<(f64, Ch4Data)>| -> Vec<Ch4Data> {
        v.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        v.into_iter().take(n).map(|(_, d)| d).collect()
    };
    (take_top(sc), take_top(mc))
}

// ---------------------------------------------------------------------------
// Serving-layer helpers behind `smoke --serve`: sequential single-worker
// replays whose counters are pure functions of seed + code, plus the one
// closed-loop QPS replay the binary prints. Latency under load, capacity,
// ingest rate and recovery time are kbench's (`src/bin/kbench`).
// ---------------------------------------------------------------------------

use keybridge_core::{
    DiversifyOptions, DurableOptions, Reply, Request, SearchService, SearchSnapshot, ServeRequests,
    ServiceStats,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod footprint;
pub use footprint::{naive_heap_bytes, naive_index_snapshot_bytes, naive_store_snapshot_bytes};

/// Closed-loop QPS of one replay of `queries` through a fresh
/// `workers`-thread [`SearchService`] over `snapshot`: `workers` client
/// threads pull work off a shared cursor, each waiting for its reply before
/// taking the next query. The service (and its shared caches) starts cold,
/// so runs at different worker counts do the same total work and are
/// comparable. A clock, so `smoke` prints it and never writes it.
pub fn replay_serve(
    snapshot: &Arc<SearchSnapshot>,
    queries: &[Vec<String>],
    workers: usize,
    k: usize,
) -> f64 {
    let service = SearchService::start(Arc::clone(snapshot), workers);
    let cursor = AtomicUsize::new(0);
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(terms) = queries.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let q = KeywordQuery::from_terms(terms.clone());
                    std::hint::black_box(service.search(&q, k));
                }
            });
        }
    });
    queries.len() as f64 / wall.elapsed().as_secs_f64().max(1e-12)
}

/// Replay `queries` as diversified top-k requests (Alg. 4.1), one at a time,
/// through a fresh single-worker [`SearchService`] over `snapshot`. Returns
/// the surviving executed-pool sizes and the selected answers, each summed
/// over all replies — pure functions of the data and the query log.
pub fn replay_diversified(
    snapshot: &Arc<SearchSnapshot>,
    queries: &[Vec<String>],
    opts: DiversifyOptions,
) -> (usize, usize) {
    let service = SearchService::start(Arc::clone(snapshot), 1);
    let (mut pool_items, mut selected) = (0, 0);
    for terms in queries {
        let query = KeywordQuery::from_terms(terms.clone());
        let Some(Reply::Diversified(Ok(reply))) = service
            .submit_request(Request::Diversified { query, opts })
            .wait()
        else {
            panic!("diversified request not served");
        };
        pool_items += reply.pool;
        selected += reply.answers.len();
    }
    (pool_items, selected)
}

/// Drive the seeded mixed read/write stream `ops` through `service` in
/// order, one operation at a time — queries served at top-`k`, insert
/// batches ingested, `after_batch(n)` called once the `n`-th batch is
/// published — then replay all the stream's queries once more against the
/// fully grown service, and return its counters. With one serving worker
/// (on either topology) nothing runs concurrently with
/// anything it could race, so every counter is a function of `ops` alone.
pub fn replay_mixed<S: ServeRequests>(
    service: &S,
    ops: &[MixedOp],
    k: usize,
    mut after_batch: impl FnMut(usize),
) -> ServiceStats {
    let search = |terms: &Vec<String>| {
        std::hint::black_box(service.search(&KeywordQuery::from_terms(terms.clone()), k));
    };
    let mut batches = 0;
    for op in ops {
        match op {
            MixedOp::Query(terms) => search(terms),
            MixedOp::Insert(batch) => {
                service
                    .ingest_batch(batch)
                    .expect("FK-safe schedule ingests cleanly");
                batches += 1;
                after_batch(batches);
            }
        }
    }
    for op in ops {
        if let MixedOp::Query(terms) = op {
            search(terms);
        }
    }
    service.service_stats()
}

/// [`replay_mixed`] on a durable single-worker [`SearchService`] over
/// `mixed.initial` in `dir`: every batch goes through the WAL, one checkpoint
/// is taken halfway through the batches, the service is dropped — the
/// simulated crash — and the store reopened once. Returns the counters at
/// the crash and those of the recovered service, which must be at the last
/// epoch having replayed exactly the post-checkpoint batches. `dir` is
/// removed afterwards.
pub fn replay_durable(
    mixed: &MixedWorkload,
    k: usize,
    opts: &DurableOptions,
    dir: &std::path::Path,
) -> (ServiceStats, ServiceStats) {
    let _ = std::fs::remove_dir_all(dir);
    let snapshot = SearchSnapshot::build(
        mixed.initial.clone(),
        opts.config.clone(),
        opts.max_joins,
        opts.max_templates,
    )
    .expect("schema enumerates");
    let service = SearchService::start_durable(Arc::new(snapshot), 1, dir, opts)
        .expect("fresh durable directory");
    let batches = mixed.counts().1;
    let mid = batches.div_ceil(2);
    let at_crash = replay_mixed(&service, &mixed.ops, k, |n| {
        if n == mid {
            service.checkpoint().expect("checkpoint succeeds");
        }
    });
    drop(service); // the crash: all in-memory state is gone

    let recovered = SearchService::open(dir, 1, opts)
        .expect("store recovers")
        .service_stats();
    assert_eq!(recovered.epoch as usize, batches, "recovery lost batches");
    assert_eq!(
        recovered.recovery_replayed_batches,
        batches - mid,
        "unexpected replay"
    );
    let _ = std::fs::remove_dir_all(dir);
    (at_crash, recovered)
}

// ---------------------------------------------------------------------------
// Baseline bookkeeping: a dependency-free scanner for the BENCH_*.json
// snapshots and the golden comparison behind `smoke --check`.
// ---------------------------------------------------------------------------

/// A scalar read out of a baseline snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineValue {
    Num(f64),
    Str(String),
}

impl std::fmt::Display for BaselineValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineValue::Num(n) => write!(f, "{n}"),
            BaselineValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// Scan `"key": value` pairs out of a snapshot into a map (no serde in the
/// offline build). A key that introduces an object names a section, and the
/// scalars inside it are keyed `section.key`; the snapshot nests one level
/// deep, so any `}` ends the open section. Numbers and strings are kept.
pub fn parse_baseline(json: &str) -> BTreeMap<String, BaselineValue> {
    let mut out = BTreeMap::new();
    let mut section = String::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Find the next quoted key.
        let Some(ks) = json[i..].find('"').map(|p| i + p + 1) else {
            break;
        };
        if json[i..ks].contains('}') {
            section.clear();
        }
        let Some(ke) = json[ks..].find('"').map(|p| ks + p) else {
            break;
        };
        let key = format!("{section}{}", &json[ks..ke]);
        let mut j = ke + 1;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b':' {
            i = ke + 1; // a string *value*; skip
            continue;
        }
        j += 1;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        match bytes.get(j) {
            Some(b'"') => {
                let vs = j + 1;
                let Some(ve) = json[vs..].find('"').map(|p| vs + p) else {
                    break;
                };
                out.insert(key, BaselineValue::Str(json[vs..ve].to_owned()));
                i = ve + 1;
            }
            Some(b'{') => {
                section = format!("{key}.");
                i = j + 1;
            }
            _ => {
                let ve = json[j..]
                    .find([',', '}', '\n'])
                    .map(|p| j + p)
                    .unwrap_or(bytes.len());
                if let Ok(n) = json[j..ve].trim().parse::<f64>() {
                    out.insert(key, BaselineValue::Num(n));
                }
                i = ve;
            }
        }
    }
    out
}

/// String keys that must match for two snapshots to be comparable at all (a
/// quick-profile run must never be diffed against a full-profile baseline).
const IDENTITY_KEYS: &[&str] = &["fixture", "profile", "query4"];

/// Sections a run writes only when asked (`--serve`, `--scale`). Every other
/// section, `paper` included, is written on every run, so its keys are never
/// excused.
const OPTIONAL_SECTIONS: &[&str] = &["serve", "scale"];

/// The section of a [`parse_baseline`] key (`""` at the top level).
fn section_of(key: &str) -> &str {
    key.split_once('.').map_or("", |(section, _)| section)
}

/// Compare a current snapshot against the committed baseline. Everything a
/// snapshot holds is a pure function of seed + code, so the comparison is
/// golden: every key must be present on both sides and equal, and a move in
/// either direction is a violation naming the key — the change that moves a
/// number commits the new one. Only the keys of an optional section the
/// current run did not produce at all (`--serve` / `--scale` not passed) are
/// skipped. Returns
/// the violations (empty = the check passes), or an error when the snapshots
/// are not comparable.
pub fn check_baseline(baseline_json: &str, current_json: &str) -> Result<Vec<String>, String> {
    let base = parse_baseline(baseline_json);
    let cur = parse_baseline(current_json);
    if base.is_empty() || cur.is_empty() {
        return Err("a snapshot is empty or unparseable".into());
    }
    for key in IDENTITY_KEYS {
        let (b, c) = (base.get(*key), cur.get(*key));
        if b != c {
            return Err(format!(
                "snapshots not comparable: {key:?} differs ({b:?} vs {c:?}); \
                 regenerate the baseline with the current profile"
            ));
        }
    }
    let produced: BTreeSet<&str> = cur.keys().map(|k| section_of(k)).collect();
    let mut violations = Vec::new();
    for (key, b) in &base {
        match cur.get(key) {
            Some(c) if c == b => {}
            Some(c) => violations.push(format!("{key}: baseline {b}, current {c}")),
            None if produced.contains(section_of(key))
                || !OPTIONAL_SECTIONS.contains(&section_of(key)) =>
            {
                violations.push(format!("{key}: missing from the current run"));
            }
            None => {}
        }
    }
    for key in cur.keys().filter(|key| !base.contains_key(*key)) {
        violations.push(format!("{key}: not in the baseline"));
    }
    Ok(violations)
}

#[cfg(test)]
mod baseline_tests {
    use super::*;

    const BASE: &str = r#"{
  "fixture": "imdb-quick",
  "profile": "quick",
  "nonempty_probes": 10,
  "executor": { "hashjoin_probes": 100, "semijoin_rows_in": 5000,
    "semijoin_rows_touched": 900, "batch_cols": 400, "batch_allocs": 12 },
  "paper": { "fig4_2.imdb.a0_99.k10.div_mc": 0.756,
    "tab3_4.structured_queries8.gap": 1.89 },
  "serve": { "div_pool_items": 40, "div_selected": 30,
    "ingest_rows": 500, "ingest_batches": 6, "epoch_swaps": 6, "stale_evictions": 40,
    "wal_batches": 6, "wal_bytes": 20000, "recovery_checkpoints": 1,
    "recovery_replayed_batches": 3,
    "shard_epoch_swaps": 8, "shards_touched": 4, "shard_rows_skipped": 90,
    "sharded_stale_evictions": 70 },
  "scale": { "scale1_rows": 3068,
    "scale10_rows": 30518,
    "scale10_store_bytes": 1000000, "scale10_store_bytes_naive": 1500000,
    "scale10_index_bytes": 500000, "scale10_index_bytes_naive": 900000,
    "scale10_heap_bytes": 4000000, "scale10_heap_bytes_naive": 6000000,
    "scale10_bytes_per_row": 49.2, "scale10_bytes_per_row_naive": 78.6 }
}"#;

    fn with(key: &str, val: &str) -> String {
        // Rewrite one scalar in BASE by key.
        let needle = format!("\"{key}\":");
        let start = BASE.find(&needle).expect("key present") + needle.len();
        let end = start + BASE[start..].find([',', '\n', '}']).unwrap();
        format!("{} {val}{}", &BASE[..start], &BASE[end..])
    }

    /// BASE without one `"key": value,` pair.
    fn without(key: &str) -> String {
        let start = BASE.find(&format!("\"{key}\":")).expect("key present");
        let end = start + BASE[start..].find(',').unwrap() + 1;
        format!("{}{}", &BASE[..start], &BASE[end..])
    }

    /// BASE without the section `name` (as a run without its flag writes it).
    fn without_section(name: &str) -> String {
        let start = BASE.find(&format!(",\n  \"{name}\"")).unwrap();
        let end = start + BASE[start..].find('}').unwrap() + 1;
        format!("{}{}", &BASE[..start], &BASE[end..])
    }

    /// The one violation of `cur` against BASE.
    fn violation(cur: &str) -> String {
        let v = check_baseline(BASE, cur).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        v[0].clone()
    }

    /// Each key is held to its baseline value: above it and below it are
    /// both violations that name the key.
    fn assert_gated(keys: &[(&str, &str, &str)]) {
        for (key, above, below) in keys {
            for moved in [above, below] {
                let v = violation(&with(key, moved));
                assert!(v.contains(key) && v.contains(moved), "{key}: {v}");
            }
        }
    }

    #[test]
    fn parser_reads_nested_numbers_and_strings() {
        let m = parse_baseline(BASE);
        assert_eq!(m["profile"], BaselineValue::Str("quick".into()));
        assert_eq!(m["nonempty_probes"], BaselineValue::Num(10.0));
        assert_eq!(m["executor.hashjoin_probes"], BaselineValue::Num(100.0));
        assert_eq!(m["executor.batch_allocs"], BaselineValue::Num(12.0));
        assert_eq!(m["serve.div_pool_items"], BaselineValue::Num(40.0));
        assert_eq!(m["scale.scale10_bytes_per_row"], BaselineValue::Num(49.2));
        assert_eq!(
            m["paper.fig4_2.imdb.a0_99.k10.div_mc"],
            BaselineValue::Num(0.756)
        );
        assert_eq!(m.len(), 3 + 5 + 2 + 14 + 10);
    }

    #[test]
    fn identical_snapshots_pass() {
        assert_eq!(check_baseline(BASE, BASE).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn counter_moving_up_fails() {
        let v = violation(&with("hashjoin_probes", "101"));
        assert_eq!(v, "executor.hashjoin_probes: baseline 100, current 101");
    }

    #[test]
    fn counter_moving_down_fails() {
        // An improvement moves the number too: the change that makes it
        // commits the new one, or the committed value goes stale.
        let v = violation(&with("semijoin_rows_touched", "450"));
        assert_eq!(
            v,
            "executor.semijoin_rows_touched: baseline 900, current 450"
        );
        // Higher-is-better counters get no pass on the way down either.
        assert!(violation(&with("shard_rows_skipped", "1")).contains("shard_rows_skipped"));
    }

    #[test]
    fn key_missing_from_either_side_fails() {
        let v = violation(&without("nonempty_probes"));
        assert_eq!(v, "nonempty_probes: missing from the current run");
        let v = violation(&without("stale_evictions"));
        assert_eq!(v, "serve.stale_evictions: missing from the current run");
        // A key only the current run has is a number nobody committed.
        let v = check_baseline(&without("wal_bytes"), BASE).unwrap();
        assert_eq!(v, ["serve.wal_bytes: not in the baseline"]);
        let v = check_baseline(&without_section("scale"), BASE).unwrap();
        assert_eq!(v.len(), 10, "{v:?}");
    }

    #[test]
    fn ingest_counters_gate_even_across_core_counts() {
        assert_gated(&[
            ("ingest_rows", "510", "490"),
            ("ingest_batches", "7", "5"),
            ("epoch_swaps", "9", "5"),
            ("stale_evictions", "100", "39"),
        ]);
    }

    #[test]
    fn diversification_counters_gate_even_across_core_counts() {
        assert_gated(&[("div_pool_items", "41", "39"), ("div_selected", "45", "29")]);
    }

    #[test]
    fn shard_routing_counters_gate_even_across_core_counts() {
        assert_gated(&[
            ("shard_epoch_swaps", "12", "7"),
            ("shards_touched", "6", "3"),
            ("sharded_stale_evictions", "71", "69"),
        ]);
    }

    #[test]
    fn bounded_merge_skip_counter_gates_even_across_core_counts() {
        assert_gated(&[("shard_rows_skipped", "120", "89")]);
    }

    #[test]
    fn recovery_counters_gate_even_across_core_counts() {
        assert_gated(&[
            ("wal_batches", "9", "5"),
            ("wal_bytes", "90000", "19999"),
            ("recovery_checkpoints", "2", "0"),
            ("recovery_replayed_batches", "5", "2"),
        ]);
    }

    #[test]
    fn scale_footprint_counters_gate_even_across_core_counts() {
        assert_gated(&[
            ("scale10_rows", "40000", "30517"),
            ("scale10_store_bytes", "1040000", "999999"),
            ("scale10_store_bytes_naive", "3000000", "1499999"),
            ("scale10_index_bytes", "600000", "499999"),
            ("scale10_heap_bytes", "9000000", "3999999"),
            ("scale10_bytes_per_row", "49.21", "49.19"),
            ("scale10_bytes_per_row_naive", "200.5", "78.5"),
        ]);
    }

    #[test]
    fn scale_keys_excused_without_scale_section() {
        // A --check run without --scale writes no scale section: its keys
        // are skipped instead of each being reported missing.
        let cur = without_section("scale");
        assert!(!cur.contains("scale10_rows") && cur.contains("wal_bytes"));
        assert_eq!(check_baseline(BASE, &cur).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn paper_cells_gate_and_name_their_key() {
        assert_gated(&[
            ("fig4_2.imdb.a0_99.k10.div_mc", "0.757", "0.755"),
            ("tab3_4.structured_queries8.gap", "1.9", "1.88"),
        ]);
        let v = violation(&with("fig4_2.imdb.a0_99.k10.div_mc", "0.757"));
        assert_eq!(
            v,
            "paper.fig4_2.imdb.a0_99.k10.div_mc: baseline 0.756, current 0.757"
        );
    }

    #[test]
    fn paper_keys_are_never_excused() {
        // Every run writes the paper section, so a run without it is missing
        // each of its keys, unlike the optional serve and scale sections.
        let v = check_baseline(BASE, &without_section("paper")).unwrap();
        assert_eq!(
            v,
            [
                "paper.fig4_2.imdb.a0_99.k10.div_mc: missing from the current run",
                "paper.tab3_4.structured_queries8.gap: missing from the current run",
            ]
        );
    }

    #[test]
    fn check_without_serve_section_passes() {
        let cur = without_section("serve");
        assert!(!cur.contains("wal_bytes") && cur.contains("scale10_rows"));
        assert_eq!(check_baseline(BASE, &cur).unwrap(), Vec::<String>::new());
        // What the run did produce is still compared.
        let cur = cur.replace("\"nonempty_probes\": 10", "\"nonempty_probes\": 11");
        assert_eq!(check_baseline(BASE, &cur).unwrap().len(), 1);
    }

    #[test]
    fn profile_mismatch_is_incomparable() {
        let cur = BASE.replace("\"profile\": \"quick\"", "\"profile\": \"full\"");
        assert!(check_baseline(BASE, &cur).is_err());
        assert!(check_baseline(BASE, "").is_err());
    }
}

// ---------------------------------------------------------------------------
// Chapter 5 helpers: Freebase-scale fixtures and query sampling.
// ---------------------------------------------------------------------------

use keybridge_datagen::{FreebaseConfig, FreebaseDataset};
use keybridge_freeq::SchemaOntology;
use keybridge_relstore::TableId;
use rand::rngs::StdRng;
use rand::Rng;

/// A Freebase-scale fixture: flat schema, index, and the domain ontology.
pub struct FreebaseFixture {
    pub fb: FreebaseDataset,
    pub index: InvertedIndex,
    pub ontology: SchemaOntology,
}

/// Build a Freebase-like fixture of the given shape.
pub fn freebase_fixture(
    domains: usize,
    types_per_domain: usize,
    topics: usize,
    seed: u64,
) -> FreebaseFixture {
    let fb = FreebaseDataset::generate(FreebaseConfig {
        seed,
        domains,
        types_per_domain,
        topics,
        rows_per_table: 25,
        scale: 1.0,
    })
    .expect("generation succeeds");
    let index = InvertedIndex::build(&fb.db);
    let domain_tables: Vec<(String, Vec<TableId>)> = fb
        .domains
        .iter()
        .map(|d| (d.name.clone(), d.tables.clone()))
        .collect();
    let ontology = SchemaOntology::from_domains(&domain_tables);
    FreebaseFixture {
        fb,
        index,
        ontology,
    }
}

impl FreebaseFixture {
    /// Sample a keyword query with ground truth: `n_keywords` keywords, each
    /// drawn from the `name` of a random row of a random type table; the
    /// intended binding of keyword `i` is that table. Retries until every
    /// keyword is ambiguous (occurs in ≥ 2 attributes).
    pub fn sample_query(
        &self,
        n_keywords: usize,
        rng: &mut StdRng,
    ) -> Option<(Vec<String>, Vec<TableId>)> {
        'outer: for _ in 0..200 {
            let mut keywords = Vec::with_capacity(n_keywords);
            let mut targets = Vec::with_capacity(n_keywords);
            for _ in 0..n_keywords {
                let d = &self.fb.domains[rng.gen_range(0..self.fb.domains.len())];
                let t = d.tables[rng.gen_range(0..d.tables.len())];
                let store = self.fb.db.table(t);
                if store.is_empty() {
                    continue 'outer;
                }
                let row = keybridge_relstore::RowId(rng.gen_range(0..store.len() as u32));
                let name = store.row(row)[1].as_text().unwrap_or("");
                let Some(tok) = name.split(' ').next().filter(|s| !s.is_empty()) else {
                    continue 'outer;
                };
                if self.index.attrs_containing(tok).len() < 2 {
                    continue 'outer;
                }
                keywords.push(tok.to_owned());
                targets.push(t);
            }
            return Some((keywords, targets));
        }
        None
    }
}
