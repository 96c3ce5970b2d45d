//! Shared fixtures and helpers for the experiment harnesses.
//!
//! Every `[[bench]]` target in this crate regenerates one table or figure of
//! the paper's evaluation and prints the same rows/series the paper reports.
//! Run a single one with `cargo bench -p keybridge-bench --bench fig3_5`, or
//! everything with `cargo bench`.

use keybridge_core::{
    IntentDescription, Interpreter, InterpreterConfig, KeywordQuery, ScoredInterpretation,
    TemplateCatalog, TemplatePrior,
};
use keybridge_datagen::{
    ImdbConfig, ImdbDataset, LyricsConfig, LyricsDataset, MixedOp, Workload, WorkloadConfig,
    WorkloadQuery,
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
                ..Default::default()
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
// Serving-layer helpers: query-log replay through a SearchService with
// QPS / latency-percentile accounting, used by the `smoke --serve` workload
// driver and the `serve_throughput` criterion bench.
// ---------------------------------------------------------------------------

use keybridge_core::{Reply, Request, SearchService, SearchSnapshot, ServeRequests};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod footprint;
mod openloop;
pub use footprint::{naive_heap_bytes, naive_index_snapshot_bytes, naive_store_snapshot_bytes};
pub use openloop::{
    openloop_schedule, queue_latencies, run_open_loop, sweep_capacity, MixWeights, ModeCounts,
    OpMode, OpenLoopConfig, OpenLoopOp, OpenLoopRun, SloConfig, SweepConfig, SweepOutcome,
    SweepRung,
};

/// One replay of a query log through a service: wall-clock throughput and
/// the per-request latency distribution.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Worker threads serving.
    pub workers: usize,
    /// Requests completed.
    pub queries: usize,
    /// Completed requests per second of wall-clock.
    pub qps: f64,
    /// Latency percentiles, milliseconds.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
}

/// Nearest-rank percentile of a sorted sample, `q` in [0, 1]: the smallest
/// element with at least `q·n` of the sample at or below it, i.e. rank
/// `⌈q·n⌉` (1-based, clamped to the sample). The previous
/// `round(q·(n-1))` interpolation rounded the median of an even-sized
/// sample *up* a rank — `percentile([1,2,3,4], 0.5)` said 3 where
/// nearest-rank says 2 — overstating every even-n tail quantile by up to
/// one rank. Empty input is NaN.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Replay `queries` through a fresh `workers`-thread [`SearchService`] over
/// `snapshot`, closed-loop from `workers` client threads pulling work off a
/// shared cursor. Each request's latency is the client-observed
/// submit-to-reply time. The service (and its shared caches) starts cold, so
/// runs at different worker counts do the same total work and are
/// comparable.
pub fn replay_serve(
    snapshot: &Arc<SearchSnapshot>,
    queries: &[Vec<String>],
    workers: usize,
    k: usize,
) -> ServeRun {
    let service = SearchService::start(Arc::clone(snapshot), workers);
    let cursor = AtomicUsize::new(0);
    let wall = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let service = &service;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            return mine;
                        }
                        let q = keybridge_core::KeywordQuery::from_terms(queries[i].clone());
                        let t = Instant::now();
                        let reply = service.search(&q, k);
                        mine.push(t.elapsed().as_secs_f64() * 1e3);
                        std::hint::black_box(reply);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = wall.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ServeRun {
        workers,
        queries: latencies.len(),
        qps: latencies.len() as f64 / elapsed.max(1e-12),
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
    }
}

/// One diversified replay through a service: throughput of the Alg. 4.1
/// serving mode plus its deterministic diversification counters.
#[derive(Debug, Clone)]
pub struct DivServeRun {
    /// Diversified requests completed.
    pub queries: usize,
    /// Completed diversified requests per second of wall-clock.
    pub qps: f64,
    /// Sum of surviving executed-pool sizes across all replies. Purely a
    /// function of the data and the query log — deterministic warm or cold,
    /// at any worker count — so CI gates it strictly.
    pub pool_items: usize,
    /// Sum of selected answers across all replies (deterministic likewise).
    pub selected: usize,
}

/// Replay `queries` as diversified top-k requests through a fresh
/// `workers`-thread [`SearchService`] over `snapshot`, closed-loop like
/// [`replay_serve`]. The per-reply pool/selection sizes are accumulated —
/// they are deterministic, so any drift is a behavior change, not noise.
pub fn replay_diversified(
    snapshot: &Arc<SearchSnapshot>,
    queries: &[Vec<String>],
    workers: usize,
    opts: keybridge_core::DiversifyOptions,
) -> DivServeRun {
    let service = SearchService::start(Arc::clone(snapshot), workers);
    let cursor = AtomicUsize::new(0);
    let wall = Instant::now();
    let per_client: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let service = &service;
                let cursor = &cursor;
                scope.spawn(move || {
                    let (mut n, mut pool, mut selected) = (0usize, 0usize, 0usize);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            return (n, pool, selected);
                        }
                        let query = keybridge_core::KeywordQuery::from_terms(queries[i].clone());
                        let Some(Reply::Diversified(Ok(reply))) = service
                            .submit_request(Request::Diversified { query, opts })
                            .wait()
                        else {
                            panic!("diversified request not served");
                        };
                        n += 1;
                        pool += reply.pool;
                        selected += reply.answers.len();
                        std::hint::black_box(reply);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = wall.elapsed().as_secs_f64();
    let queries_done: usize = per_client.iter().map(|c| c.0).sum();
    DivServeRun {
        queries: queries_done,
        qps: queries_done as f64 / elapsed.max(1e-12),
        pool_items: per_client.iter().map(|c| c.1).sum(),
        selected: per_client.iter().map(|c| c.2).sum(),
    }
}

/// One mixed read/write replay: live-write throughput plus the post-update
/// serving rate, with the deterministic epoch/cache counters CI gates on.
#[derive(Debug, Clone)]
pub struct IngestRun {
    /// Rows accepted across all batches.
    pub rows: usize,
    /// Batches ingested (= epochs published).
    pub batches: usize,
    /// Epoch swaps the service performed (deterministic: one per batch).
    pub epoch_swaps: usize,
    /// Shared-cache entries retired with displaced epochs. Deterministic
    /// here: the replay is sequential on a single worker, so each swap
    /// displaces exactly the generation the preceding queries warmed.
    pub stale_evictions: usize,
    /// Ingested rows per second of ingest-call wall-clock (batch validation
    /// + pk/fk index maintenance + posting splices + snapshot publish).
    pub rows_per_s: f64,
    /// Closed-loop QPS of a full query-log replay *after* the last swap
    /// (cold final-epoch caches: the price of freshness).
    pub post_qps: f64,
}

/// Drive the live-ingestion path once: boot a single-worker
/// [`SearchService`] over `initial` and replay the mixed read/write `ops`
/// stream in order — queries served, insert batches ingested (each timed) —
/// then replay all the stream's queries against the fully grown service
/// (timed). The single worker and sequential replay keep every counter
/// reproducible; multi-worker serving rates are `replay_serve`'s job.
pub fn replay_ingest(
    initial: &keybridge_relstore::Database,
    ops: &[MixedOp],
    catalog: TemplateCatalog,
    k: usize,
) -> IngestRun {
    let service = SearchService::start(
        Arc::new(SearchSnapshot::new(
            initial.clone(),
            InvertedIndex::build(initial),
            catalog,
            InterpreterConfig::default(),
        )),
        1,
    );
    let mut rows = 0usize;
    let mut batches = 0usize;
    let mut ingest_secs = 0.0f64;
    let mut queries: Vec<&Vec<String>> = Vec::new();
    for op in ops {
        match op {
            MixedOp::Query(terms) => {
                let _ = service.search(&KeywordQuery::from_terms(terms.clone()), k);
                queries.push(terms);
            }
            MixedOp::Insert(batch) => {
                let t = Instant::now();
                rows += service
                    .ingest(batch)
                    .expect("FK-safe schedule ingests cleanly")
                    .rows;
                ingest_secs += t.elapsed().as_secs_f64();
                batches += 1;
            }
        }
    }
    let t = Instant::now();
    for terms in &queries {
        let _ = service.search(&KeywordQuery::from_terms((*terms).clone()), k);
    }
    let post_secs = t.elapsed().as_secs_f64();
    let stats = service.stats();
    IngestRun {
        rows,
        batches,
        epoch_swaps: stats.epoch_swaps,
        stale_evictions: stats.stale_evictions,
        rows_per_s: rows as f64 / ingest_secs.max(1e-12),
        post_qps: queries.len() as f64 / post_secs.max(1e-12),
    }
}

/// One durability drill: WAL volume under a mixed schedule's insert
/// batches, a mid-stream checkpoint, and the timed crash-recovery reopen.
/// `wal_batches`, `checkpoints`, and `replayed_batches` are pure functions
/// of the schedule (CI gates them); `recovery_ms` is the wall-clock price
/// of `SearchService::open` and `wal_bytes` the log volume, both recorded
/// for trend-watching.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// WAL records appended (one per insert batch of the schedule).
    pub wal_batches: usize,
    /// WAL bytes appended, CRC framing included.
    pub wal_bytes: u64,
    /// Checkpoints taken (exactly one, mid-stream).
    pub checkpoints: usize,
    /// Batches the recovery replayed from the WAL tail — the post-checkpoint
    /// half of the schedule.
    pub replayed_batches: usize,
    /// Wall-clock of `SearchService::open`: snapshot load + WAL replay +
    /// catalog re-enumeration. Median of three reopens (recovery does not
    /// consume the store, so it can be timed repeatedly).
    pub recovery_ms: f64,
}

/// Drive the durability path once: boot a single-worker durable
/// [`SearchService`] over `initial` in `dir`, ingest every insert batch of
/// the mixed `ops` stream (checkpointing once halfway), drop the service —
/// the simulated crash — and reopen the store, timed. The recovered epoch
/// must equal the batch count; the directory is removed afterwards.
pub fn replay_recovery(
    initial: &keybridge_relstore::Database,
    ops: &[MixedOp],
    opts: &keybridge_core::DurableOptions,
    dir: &std::path::Path,
) -> RecoveryRun {
    let _ = std::fs::remove_dir_all(dir);
    let catalog = TemplateCatalog::enumerate(initial, opts.max_joins, opts.max_templates)
        .expect("schema enumerates");
    let service = SearchService::start_durable(
        Arc::new(SearchSnapshot::new(
            initial.clone(),
            InvertedIndex::build(initial),
            catalog,
            opts.config.clone(),
        )),
        1,
        dir,
        opts,
    )
    .expect("fresh durable directory");
    let batches: Vec<_> = ops
        .iter()
        .filter_map(|op| match op {
            MixedOp::Insert(batch) => Some(batch),
            MixedOp::Query(_) => None,
        })
        .collect();
    let mid = batches.len().div_ceil(2);
    for (i, batch) in batches.iter().enumerate() {
        service
            .ingest(batch)
            .expect("FK-safe schedule ingests cleanly");
        if i + 1 == mid {
            service.checkpoint().expect("checkpoint succeeds");
        }
    }
    let stats = service.stats();
    let (wal_batches, wal_bytes, checkpoints) =
        (stats.wal_batches, stats.wal_bytes, stats.checkpoints);
    drop(service); // the crash: all in-memory state is gone

    // Recovery is read-only on an untorn log, so the reopen can be timed
    // repeatedly; the median tames fsync/page-cache jitter in the gated
    // wall-clock number.
    let mut samples = Vec::new();
    let mut replayed_batches = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let recovered = SearchService::open(dir, 1, opts).expect("store recovers");
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            recovered.current_epoch().0 as usize,
            batches.len(),
            "recovery lost batches"
        );
        replayed_batches = recovered.stats().recovery_replayed_batches;
        assert_eq!(replayed_batches, batches.len() - mid, "unexpected replay");
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let recovery_ms = samples[samples.len() / 2];
    let _ = std::fs::remove_dir_all(dir);
    RecoveryRun {
        wal_batches,
        wal_bytes,
        checkpoints,
        replayed_batches,
        recovery_ms,
    }
}

// ---------------------------------------------------------------------------
// Baseline bookkeeping: a dependency-free scanner for the flat-keyed
// BENCH_*.json snapshots and the regression comparator behind
// `smoke --check` (the CI perf gate).
// ---------------------------------------------------------------------------

/// A scalar read out of a baseline snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineValue {
    Num(f64),
    Str(String),
}

/// Scan `"key": value` pairs out of a JSON document into a flat map.
/// The snapshot format keeps every metric key unique across the whole file
/// precisely so this scanner (no serde in the offline build) is enough;
/// nested object structure is ignored. Keys that introduce objects are
/// skipped; numbers and strings are kept.
pub fn parse_baseline(json: &str) -> std::collections::HashMap<String, BaselineValue> {
    let mut out = std::collections::HashMap::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Find the next quoted key.
        let Some(ks) = json[i..].find('"').map(|p| i + p + 1) else {
            break;
        };
        let Some(ke) = json[ks..].find('"').map(|p| ks + p) else {
            break;
        };
        let key = &json[ks..ke];
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
                out.insert(key.to_owned(), BaselineValue::Str(json[vs..ve].to_owned()));
                i = ve + 1;
            }
            Some(b'{') | Some(b'[') => {
                i = j + 1; // structural: descend, keys stay globally unique
            }
            _ => {
                let ve = json[j..]
                    .find([',', '}', ']', '\n'])
                    .map(|p| j + p)
                    .unwrap_or(bytes.len());
                if let Ok(n) = json[j..ve].trim().parse::<f64>() {
                    out.insert(key.to_owned(), BaselineValue::Num(n));
                }
                i = ve;
            }
        }
    }
    out
}

/// How much worse a metric may get before the gate trips. Gated keys:
/// wall-clock / p50 latency (`*_ms*`, lower-better), throughput (`qps_*`,
/// higher-better), and the deterministic cost counters of `COUNTER_KEYS`.
/// Tail percentiles (`p95*`, `p99*`) are recorded but informational — under
/// worker oversubscription they jitter far beyond any useful gate.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Wall-clock (and QPS) regressions beyond this factor fail (issue
    /// mandate: 1.5x).
    pub wall_factor: f64,
    /// Deterministic counters may grow by at most this factor.
    pub counter_factor: f64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            wall_factor: 1.5,
            counter_factor: 1.05,
        }
    }
}

/// Deterministic cost counters gated with `counter_factor` (lower is
/// better). Everything numeric not listed here and not matched by the name
/// conventions below is informational.
const COUNTER_KEYS: &[&str] = &[
    "best_first_materialized",
    "best_first_expanded",
    "nonempty_probes",
    "naive_intermediate_bindings",
    "hashjoin_intermediate_bindings",
    "naive_probes",
    "hashjoin_probes",
    "hashjoin_batches",
    // Rows the semi-join reducer's steps read and wrote on the executor
    // replay: a pure function of data + log + code, and the reducer's cost
    // where `semijoin_rows_in`/`_out` are only its input and output sizes.
    "semijoin_rows_touched",
    "answers_generated",
    "answers_executed",
    "ingest_rows",
    "ingest_batches",
    "epoch_swaps",
    "stale_evictions",
    "div_pool_items",
    "div_selected",
    "wal_batches",
    "recovery_replayed_batches",
    "recovery_checkpoints",
    "openloop_search_ops",
    "openloop_diversified_ops",
    "openloop_session_ops",
    "openloop_ingest_ops",
    "shard_epoch_swaps",
    "shards_touched",
    "shard_rows_skipped",
    "batch_cols",
    "batch_allocs",
];

/// The serve-phase deterministic counters: the ingest epoch/eviction
/// figures (single worker, sequential warm-up, fixed seed) and the
/// diversification pool/selection sizes (pure functions of data + log).
/// Gated even across machines with different core counts — but, like every
/// serve-section key, only emitted by `--serve` runs, so their absence from
/// a run without a serve section is not a violation.
const SERVE_ONLY_COUNTER_KEYS: &[&str] = &[
    "ingest_rows",
    "ingest_batches",
    "epoch_swaps",
    "stale_evictions",
    "div_pool_items",
    "div_selected",
    "wal_batches",
    "recovery_replayed_batches",
    "recovery_checkpoints",
    // The open-loop sweep's per-mode schedule counts: the arrival schedule
    // is seeded and rate-independent, so these are pure functions of the
    // sweep config and gate strictly on any machine.
    "openloop_search_ops",
    "openloop_diversified_ops",
    "openloop_session_ops",
    "openloop_ingest_ops",
    // The sharded phase's routing counters: per-shard epoch advances and
    // distinct shards ever touched are pure functions of the fixture, the
    // holdout plan, and the shard directory — machine-independent.
    "shard_epoch_swaps",
    "shards_touched",
    // Rows the sharded coordinator's bounded top-k merge gathered but never
    // examined: a pure function of the fixture, the holdout plan, and the
    // shard directory, so it gates on any machine.
    "shard_rows_skipped",
    // Not a counter, but serve-section-only like the rest: its absence from
    // a run without a serve section must be excused, while its presence
    // gates through the `_ms` wall-clock rule.
    "recovery_ms",
    // The capacity knee is a rate (higher is better, like `qps_*`) and just
    // as machine-dependent, so it follows the serve-rate rules: gated on
    // matching hardware, informational across differing core counts,
    // excused when the current run has no serve section.
    "capacity_rps",
];

/// Keys emitted only by `--scale` runs (the storage-footprint tier). Like
/// the serve-only keys, their absence from a run without a scale section is
/// excused; their presence gates through the usual name-convention rules.
fn is_scale_key(key: &str) -> bool {
    key.starts_with("qps_scale") || (key.starts_with("scale") && key != "scale_cores")
}

/// The scale tier's deterministic footprint counters: fixture row counts
/// and the interned/delta-coded snapshot sizes are pure functions of the
/// generator seed and the codecs, so they gate with `counter_factor` on any
/// machine — this is the memory-footprint regression gate. The `_naive`
/// reference sizes and the heap model stay informational.
fn is_scale_counter(key: &str) -> bool {
    key.starts_with("scale")
        && (key.ends_with("_rows")
            || key.ends_with("_store_bytes")
            || key.ends_with("_index_bytes")
            || key.ends_with("_bytes_per_row"))
}

/// String keys that must match exactly for two snapshots to be comparable
/// at all (a quick-profile run must never be diffed against a full-profile
/// baseline).
const IDENTITY_KEYS: &[&str] = &["fixture", "profile", "query4"];

/// Compare a current snapshot against the committed baseline. Returns the
/// list of violations (empty = gate passes) or an error when the snapshots
/// are not comparable.
pub fn check_regression(
    baseline_json: &str,
    current_json: &str,
    cfg: CheckConfig,
) -> Result<Vec<String>, String> {
    let base = parse_baseline(baseline_json);
    let cur = parse_baseline(current_json);
    if base.is_empty() {
        return Err("baseline snapshot is empty or unparseable".into());
    }
    for key in IDENTITY_KEYS {
        match (base.get(*key), cur.get(*key)) {
            (Some(b), Some(c)) if b == c => {}
            (None, None) => {}
            (b, c) => {
                return Err(format!(
                    "snapshots not comparable: {key:?} differs ({b:?} vs {c:?}); \
                     regenerate the baseline with the current profile"
                ));
            }
        }
    }
    // Serve QPS and latency depend on the machine's core count; comparing
    // them across different hardware is systematic noise, not regression
    // (p50 at worker counts above the core count shifts by design). When
    // the recorded core counts differ, serve metrics go informational —
    // counters and the single-threaded wall-clock sections still gate.
    let serve_comparable = base.get("serve_cores") == cur.get("serve_cores");
    let cur_has_serve = cur.contains_key("serve_cores");
    // The scale tier carries its own comparability marker, so a baseline
    // recorded with `--serve --scale` still gates its footprint counters
    // against a `--scale`-only run (and vice versa).
    let scale_comparable = base.get("scale_cores") == cur.get("scale_cores");
    let cur_has_scale = cur.contains_key("scale_cores");
    let mut violations = Vec::new();
    for (key, bval) in &base {
        let serve_counter = SERVE_ONLY_COUNTER_KEYS.contains(&key.as_str());
        // Machine-dependent serve rates are incomparable across core
        // counts — the closed-loop QPS figures, the per-worker latencies,
        // and the open-loop capacity knee alike. The deterministic serve
        // counters stay gated: none of them is a rate, so none matches
        // these name patterns.
        if !serve_comparable
            && !key.starts_with("qps_scale")
            && (key.starts_with("qps_") || key.contains("_ms_w") || key == "capacity_rps")
        {
            continue;
        }
        // The per-scale replay QPS follows the scale tier's own marker.
        if !scale_comparable && key.starts_with("qps_scale") {
            continue;
        }
        let BaselineValue::Num(b) = bval else {
            continue;
        };
        // Informational keys: tail percentiles, and any latency at worker
        // counts above one — those distributions are queueing-dominated
        // under oversubscription (the committed baseline's own p50 grows
        // 8x from w1 to w8 with zero code change), so only the w1 latency
        // and the QPS figures carry regression signal.
        let informational = key.starts_with("p95")
            || key.starts_with("p99")
            || (key.contains("_ms_w") && !key.ends_with("_w1"));
        let gated = !informational
            && (key.contains("_ms")
                || key.starts_with("wall_")
                || key.starts_with("qps_")
                || key == "capacity_rps"
                || COUNTER_KEYS.contains(&key.as_str())
                || is_scale_counter(key));
        let Some(BaselineValue::Num(c)) = cur.get(key) else {
            // Only a gated metric is required to be present; informational
            // keys (e.g. the serve section of a --check run without
            // --serve) may come and go. Ingest/diversification counters are
            // gated but live in the serve section, so they are only
            // *required* when the current run produced one — and the scale
            // tier's keys likewise only when the run passed --scale.
            let excused =
                (serve_counter && !cur_has_serve) || (is_scale_key(key) && !cur_has_scale);
            if gated && !excused {
                violations.push(format!("metric {key} missing from current run"));
            }
            continue;
        };
        let (b, c) = (*b, *c);
        if !gated {
            continue;
        }
        if key.contains("_ms") || key.starts_with("wall_") {
            // Lower is better; small absolute epsilon absorbs timer noise
            // on sub-millisecond sections.
            if c > b * cfg.wall_factor + 0.05 {
                violations.push(format!(
                    "wall-clock regression: {key} {c:.3} ms vs baseline {b:.3} ms \
                     (>{:.2}x)",
                    cfg.wall_factor
                ));
            }
        } else if key.starts_with("qps_") || key == "capacity_rps" {
            // Higher is better. The sweep ladder grows by 1.25x per rung,
            // so one rung of quantization noise stays under the 1.5x gate.
            if c < b / cfg.wall_factor - 1e-9 {
                violations.push(format!(
                    "throughput regression: {key} {c:.1} vs baseline {b:.1} \
                     (<1/{:.2}x)",
                    cfg.wall_factor
                ));
            }
        } else if (COUNTER_KEYS.contains(&key.as_str()) || is_scale_counter(key))
            && c > b * cfg.counter_factor + 1e-9
        {
            violations.push(format!(
                "counter regression: {key} {c:.0} vs baseline {b:.0} \
                 (>{:.2}x)",
                cfg.counter_factor
            ));
        }
    }
    violations.sort();
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
    "semijoin_rows_touched": 900, "batch_cols": 400, "batch_allocs": 12, "arena_bytes_peak": 32768 },
  "wall_clock_ms": { "answers_top10_4kw_ms": 1.000 },
  "serve": { "serve_cores": 8, "qps_w1": 200.0, "p50_ms_w1": 1.0, "p50_ms_w4": 2.0, "p95_ms_w1": 3.0,
    "qps_diversified": 120.0, "div_pool_items": 40, "div_selected": 30,
    "ingest_rows": 500, "ingest_batches": 6, "epoch_swaps": 6, "stale_evictions": 40,
    "ingest_rows_per_s": 9000.0, "qps_post_ingest": 150.0,
    "wal_batches": 6, "wal_bytes": 20000, "recovery_checkpoints": 1,
    "recovery_replayed_batches": 3, "recovery_ms": 12.0,
    "capacity_rps": 800.0, "p95_at_capacity_ms": 12.0,
    "openloop_search_ops": 216, "openloop_diversified_ops": 10,
    "openloop_session_ops": 9, "openloop_ingest_ops": 5,
    "shard_epoch_swaps": 8, "shards_touched": 4, "shard_rows_skipped": 90,
    "p95_sharded_ms": 6.0 },
  "scale": { "scale_cores": 8,
    "scale1_rows": 3068, "scale1_build_ms": 40.0,
    "scale1_store_bytes": 100000, "scale1_store_bytes_naive": 150000,
    "scale1_index_bytes": 50000, "scale1_index_bytes_naive": 90000,
    "scale1_heap_bytes": 400000, "scale1_heap_bytes_naive": 600000,
    "scale1_bytes_per_row": 48.9, "scale1_bytes_per_row_naive": 78.2,
    "qps_scale1": 900.0,
    "scale10_rows": 30518, "scale10_build_ms": 400.0,
    "scale10_store_bytes": 1000000, "scale10_store_bytes_naive": 1500000,
    "scale10_index_bytes": 500000, "scale10_index_bytes_naive": 900000,
    "scale10_heap_bytes": 4000000, "scale10_heap_bytes_naive": 6000000,
    "scale10_bytes_per_row": 49.2, "scale10_bytes_per_row_naive": 78.6,
    "scale10_rss_bytes": 60000000,
    "qps_scale10": 120.0 }
}"#;

    fn with(key: &str, val: &str) -> String {
        // Rewrite one scalar in BASE by key.
        let needle = format!("\"{key}\":");
        let start = BASE.find(&needle).expect("key present") + needle.len();
        let end = start + BASE[start..].find([',', '\n', '}']).unwrap();
        format!("{} {val}{}", &BASE[..start], &BASE[end..])
    }

    #[test]
    fn parser_reads_nested_numbers_and_strings() {
        let m = parse_baseline(BASE);
        assert_eq!(m["profile"], BaselineValue::Str("quick".into()));
        assert_eq!(m["hashjoin_probes"], BaselineValue::Num(100.0));
        assert_eq!(m["p95_ms_w1"], BaselineValue::Num(3.0));
        assert_eq!(m["qps_w1"], BaselineValue::Num(200.0));
    }

    #[test]
    fn identical_snapshots_pass() {
        assert_eq!(
            check_regression(BASE, BASE, CheckConfig::default()).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn wall_clock_regression_fails() {
        let cur = with("answers_top10_4kw_ms", "1.700");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("answers_top10_4kw_ms"), "{v:?}");
        // 1.4x stays under the 1.5x gate.
        let ok = with("answers_top10_4kw_ms", "1.400");
        assert!(check_regression(BASE, &ok, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn counter_regression_fails_but_informational_keys_do_not() {
        let cur = with("hashjoin_probes", "120");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("hashjoin_probes")), "{v:?}");
        // semijoin_rows_in is informational: growing it is not a violation.
        let cur = with("semijoin_rows_in", "9000");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        // What the reducer touched on the way is its cost: that one gates.
        let cur = with("semijoin_rows_touched", "1000");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("rows_touched")), "{v:?}");
    }

    #[test]
    fn qps_drop_fails_and_missing_metric_fails() {
        let cur = with("qps_w1", "100.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("qps_w1")), "{v:?}");
        let cur = BASE.replace("\"nonempty_probes\": 10,", "");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("missing")), "{v:?}");
    }

    #[test]
    fn core_count_mismatch_makes_serve_metrics_informational() {
        // Same qps drop that fails on matching hardware is skipped when the
        // snapshots were recorded on different core counts...
        let cur = with("qps_w1", "100.0").replace("\"serve_cores\": 8", "\"serve_cores\": 4");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // ...and so is serve latency, while deterministic counters still gate.
        let cur = with("p50_ms_w1", "9.0").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        let cur =
            with("hashjoin_probes", "200").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("hashjoin_probes")), "{v:?}");
    }

    #[test]
    fn oversubscribed_latency_is_informational_but_w1_is_gated() {
        let cur = with("p50_ms_w4", "9.0");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        let cur = with("p50_ms_w1", "9.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("p50_ms_w1")), "{v:?}");
    }

    #[test]
    fn ingest_counters_gate_even_across_core_counts() {
        // epoch_swaps is deterministic: growing it is a violation even when
        // the machines differ (serve rates would be skipped).
        let cur = with("epoch_swaps", "9").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("epoch_swaps")), "{v:?}");
        let cur = with("stale_evictions", "100");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("stale_evictions")), "{v:?}");
        // Within the 1.05x counter slack: fine.
        let cur = with("ingest_rows", "510");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn post_ingest_qps_gates_like_serve_qps() {
        let cur = with("qps_post_ingest", "90.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("qps_post_ingest")), "{v:?}");
        // Machine-dependent: skipped across differing core counts.
        let cur =
            with("qps_post_ingest", "90.0").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        // Raw ingest rows/s is informational either way.
        let cur = with("ingest_rows_per_s", "100.0");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn diversification_counters_gate_even_across_core_counts() {
        // div_pool_items / div_selected are pure functions of data + query
        // log: growth is a behavior change, not machine noise.
        let cur = with("div_pool_items", "60").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("div_pool_items")), "{v:?}");
        let cur = with("div_selected", "45");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("div_selected")), "{v:?}");
        // Within the 1.05x counter slack: fine.
        let cur = with("div_pool_items", "41");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn diversified_qps_gates_like_serve_qps() {
        let cur = with("qps_diversified", "70.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("qps_diversified")), "{v:?}");
        // Machine-dependent: skipped across differing core counts.
        let cur =
            with("qps_diversified", "70.0").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn shard_routing_counters_gate_even_across_core_counts() {
        // A batch suddenly touching more shards (or the service spreading
        // writes over shards it never used) is a routing behavior change,
        // on any machine.
        let cur =
            with("shard_epoch_swaps", "12").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("shard_epoch_swaps")), "{v:?}");
        let cur = with("shards_touched", "6");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("shards_touched")), "{v:?}");
        // The sharded open-loop tail latency is informational.
        let cur = with("p95_sharded_ms", "60.0");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        // A run without a serve section is excused from the routing
        // counters like every other serve-only key.
        let (i, j) = {
            let start = BASE.find("\"serve\"").unwrap();
            (start, BASE.rfind('}').unwrap())
        };
        let cur = format!("{}}}", &BASE[..i].trim_end().trim_end_matches(','));
        let _ = j;
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(
            !v.iter().any(|s| s.contains("shard")),
            "serve-only shard counters must be excused without a serve section: {v:?}"
        );
    }

    #[test]
    fn arena_counters_gate_but_peak_bytes_are_informational() {
        // batch_cols / batch_allocs are pure functions of the replay plan
        // and the arena policy: growth means the executor started
        // allocating per batch again.
        let cur = with("batch_cols", "480");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("batch_cols")), "{v:?}");
        let cur = with("batch_allocs", "24");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("batch_allocs")), "{v:?}");
        // The arena's peak footprint tracks Vec growth policy, not behavior:
        // informational.
        let cur = with("arena_bytes_peak", "99999999");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bounded_merge_skip_counter_gates_even_across_core_counts() {
        // shard_rows_skipped is a pure function of fixture + plan + shard
        // directory: growth means shards started over-fetching rows the
        // coordinator throws away.
        let cur =
            with("shard_rows_skipped", "120").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("shard_rows_skipped")), "{v:?}");
        // Within the 1.05x counter slack: fine.
        let cur = with("shard_rows_skipped", "93");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scale_rss_probe_is_informational() {
        // RSS is an OS-level measurement (page-cache and allocator noise):
        // recorded next to the heap model for honesty, never gated.
        let cur = with("scale10_rss_bytes", "999999999");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        // And a baseline recorded with the probe must not fail a current
        // run that lacks it (non-Linux hosts).
        let cur = BASE.replace("\"scale10_rss_bytes\": 60000000,", "");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn recovery_counters_gate_even_across_core_counts() {
        // The WAL record count and the replayed-batch count are pure
        // functions of the schedule: growth means the durability path
        // changed behavior, on any machine.
        let cur = with("wal_batches", "9").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("wal_batches")), "{v:?}");
        let cur = with("recovery_replayed_batches", "5");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(
            v.iter().any(|s| s.contains("recovery_replayed_batches")),
            "{v:?}"
        );
        // WAL volume is informational: record framing may legitimately grow.
        let cur = with("wal_bytes", "90000");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn recovery_wall_clock_gates_like_other_ms_keys() {
        let cur = with("recovery_ms", "30.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("recovery_ms")), "{v:?}");
        // Within the 1.5x wall gate: fine.
        let cur = with("recovery_ms", "16.0");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn capacity_knee_gates_like_a_throughput_key() {
        // A knee collapse beyond 1/1.5x fails on matching hardware...
        let cur = with("capacity_rps", "500.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("capacity_rps")), "{v:?}");
        // ...one sweep rung of quantization (1/1.25x) stays under the gate...
        let cur = with("capacity_rps", "640.0");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        // ...and across differing core counts the knee is machine noise.
        let cur = with("capacity_rps", "200.0").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn p95_at_capacity_is_informational() {
        // A tail percentile, so recorded but never gated — the SLO check
        // inside the sweep already bounded it at measurement time.
        let cur = with("p95_at_capacity_ms", "90.0");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn openloop_schedule_counters_gate_even_across_core_counts() {
        // The arrival schedule is seeded and rate-independent: per-mode op
        // counts are pure functions of the sweep config, on any machine.
        let cur =
            with("openloop_search_ops", "260").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("openloop_search_ops")), "{v:?}");
        let cur = with("openloop_ingest_ops", "7");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("openloop_ingest_ops")), "{v:?}");
        // Dropping a gated schedule counter from a serve run is a violation.
        let cur = BASE.replace("\"openloop_session_ops\": 9,", "");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(
            v.iter()
                .any(|s| s.contains("openloop_session_ops") && s.contains("missing")),
            "{v:?}"
        );
    }

    #[test]
    fn scale_footprint_counters_gate_even_across_core_counts() {
        // Snapshot sizes and fixture row counts are pure functions of the
        // generator seed and the codecs: growth is a storage regression on
        // any machine (this is the memory-footprint gate of the issue).
        let cur = with("scale10_store_bytes", "1200000")
            .replace("\"scale_cores\": 8", "\"scale_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("scale10_store_bytes")), "{v:?}");
        let cur = with("scale10_index_bytes", "600000");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("scale10_index_bytes")), "{v:?}");
        let cur = with("scale1_bytes_per_row", "60.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(
            v.iter().any(|s| s.contains("scale1_bytes_per_row")),
            "{v:?}"
        );
        let cur = with("scale10_rows", "40000");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("scale10_rows")), "{v:?}");
        // Within the 1.05x counter slack: fine.
        let cur = with("scale10_store_bytes", "1040000");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scale_naive_references_and_heap_model_are_informational() {
        // The `_naive` sizes exist to be compared against, not gated, and
        // the heap model is an accounting figure, not a budget.
        let cur = with("scale10_store_bytes_naive", "3000000");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        let cur = with("scale1_bytes_per_row_naive", "200.0");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        let cur = with("scale10_heap_bytes", "9000000");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scale_qps_follows_the_scale_cores_marker() {
        // The per-scale replay QPS is machine-dependent and follows the
        // scale tier's own comparability marker...
        let cur = with("qps_scale10", "60.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("qps_scale10")), "{v:?}");
        let cur = with("qps_scale10", "60.0").replace("\"scale_cores\": 8", "\"scale_cores\": 2");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
        // ...not the serve marker: a serve-core mismatch alone does not
        // excuse a scale-tier throughput collapse.
        let cur = with("qps_scale10", "60.0").replace("\"serve_cores\": 8", "\"serve_cores\": 2");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("qps_scale10")), "{v:?}");
    }

    #[test]
    fn scale_build_time_gates_like_wall_clock() {
        let cur = with("scale10_build_ms", "700.0");
        let v = check_regression(BASE, &cur, CheckConfig::default()).unwrap();
        assert!(v.iter().any(|s| s.contains("scale10_build_ms")), "{v:?}");
        // Within the 1.5x wall gate: fine.
        let cur = with("scale10_build_ms", "550.0");
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scale_keys_excused_without_scale_section() {
        // A --check run without --scale emits no scale keys; the tier goes
        // informational instead of reporting every key missing.
        let start = BASE.find(",\n  \"scale\"").unwrap();
        let end = BASE.rfind('}').unwrap();
        let cur = format!("{}\n{}", &BASE[..start], &BASE[end..]);
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn check_without_serve_section_passes() {
        // A --check run without --serve emits no serve keys at all; the
        // serve metrics go informational instead of reporting "missing".
        let start = BASE.find(",\n  \"serve\"").unwrap();
        let end = BASE.rfind('}').unwrap();
        let cur = format!("{}\n{}", &BASE[..start], &BASE[end..]);
        assert!(check_regression(BASE, &cur, CheckConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn profile_mismatch_is_incomparable() {
        let cur = BASE.replace("\"profile\": \"quick\"", "\"profile\": \"full\"");
        assert!(check_regression(BASE, &cur, CheckConfig::default()).is_err());
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Nearest rank: ⌈0.5·100⌉ = rank 50 = element 49 (the old
        // round(q·(n-1)) formula said 50.0 here).
        assert_eq!(percentile(&xs, 0.5), 49.0);
        assert_eq!(percentile(&xs, 0.99), 98.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_uses_nearest_rank_on_small_even_samples() {
        // The cases that distinguish nearest-rank from the old rounded
        // interpolation. n=4, q=0.5: ⌈2⌉ = rank 2 = 20.0; the old formula
        // rounded 0.5·3 = 1.5 up to index 2 = 30.0, overstating the median.
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.5), 20.0);
        // n=2, q=0.25: ⌈0.5⌉ = rank 1; the old formula also said index 0,
        // but n=2 q=0.75 diverged: ⌈1.5⌉ = rank 2 = 8.0 vs round(0.75) = 1.
        let xs = [5.0, 8.0];
        assert_eq!(percentile(&xs, 0.25), 5.0);
        assert_eq!(percentile(&xs, 0.75), 8.0);
        // Endpoints clamp: q=0 is the minimum (rank clamps up to 1), q=1
        // the maximum, and a singleton answers every quantile.
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 40.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // A tail quantile on a tiny sample is the max, not an
        // out-of-bounds rank.
        assert_eq!(percentile(&xs, 0.99), 40.0);
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
