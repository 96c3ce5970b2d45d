//! Smoke run and CI golden check: what the pipeline *does* on a seeded
//! fixture, as counters that are identical on every machine — the space the
//! best-first generator materializes vs. the exhaustive lattice, what the
//! batched hash-join executor touches vs. the naive oracle, and (with
//! `--serve`) the diversification, ingest/epoch, WAL/recovery and
//! shard-routing counters of sequential single-worker replays.
//!
//! Every invocation also runs the paper's experiments (`keybridge_bench::
//! paper`): it prints each table and figure, writes their machine-independent
//! cells to a `paper` section, and fails naming the entry id and the finding
//! of any claim that does not hold.
//!
//! With `--scale`, a storage-footprint tier regenerates the profile's IMDB
//! fixture at scale factors 1/10/50 (plus x100 on the full profile) and
//! records rows, snapshot bytes (interned/delta-coded vs. the naive v1
//! representation), bytes/row and the resident-heap model per scale.
//!
//! ```text
//! # CI: quick profile, serve replays, scale tier, golden check + artifact
//! cargo run --release -p keybridge-bench --bin smoke -- \
//!     --smoke --serve --scale --check BENCH_baseline.json --out BENCH_current.json
//! # refresh the committed baseline (one run; same profile CI checks against!)
//! cargo run --release -p keybridge-bench --bin smoke -- \
//!     --smoke --serve --scale --out BENCH_baseline.json
//! # full profile, local
//! cargo run --release -p keybridge-bench --bin smoke -- --serve --scale
//! ```
//!
//! Everything `--out` writes is a pure function of seed + code and is
//! compared for equality by `keybridge_bench::check_baseline`. Every clock
//! belongs to kbench (`src/bin/kbench`); the closed-loop QPS lines this
//! binary prints — single-worker per scale, and the 4-vs-1-worker scaling
//! floor that arms on >= 4 cores — are printed and never written.

use keybridge_bench::{
    check_baseline, naive_heap_bytes, naive_index_snapshot_bytes, naive_store_snapshot_bytes,
    paper, replay_diversified, replay_durable, replay_mixed, replay_serve,
};
use keybridge_core::{
    execute_interpretation_cached, execute_interpretation_naive, DiversifyOptions, DurableOptions,
    ExecCache, Interpreter, InterpreterConfig, KeywordQuery, SearchService, SearchSnapshot,
    TemplateCatalog,
};
use keybridge_datagen::{
    holdout_plan, sharded_holdout_plan, ImdbConfig, ImdbDataset, IngestConfig, MixedWorkload,
    ShardedIngestPlan, Workload, WorkloadConfig,
};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{Database, ExecOptions, ExecStats};
use std::sync::Arc;

/// Workload sizing: `--smoke` selects `quick` (a genuinely reduced fixture)
/// so the CI job stays fast as workloads grow; the default `full` profile is
/// for local runs. Snapshots record the profile and the checker refuses
/// cross-profile comparisons.
struct Profile {
    name: &'static str,
    fixture: &'static str,
    imdb: ImdbConfig,
    /// Queries of the seeded log the serve phases replay.
    serve_queries: usize,
    /// Per-row holdout probability of the live-ingestion phase.
    ingest_holdout: f64,
    /// Insert batches (= epoch swaps) of the live-ingestion phase.
    ingest_batches: usize,
    /// Insert batches of the sharded phase.
    shard_batches: usize,
    /// Scale factors of the `--scale` storage-footprint tier. The full
    /// profile adds an x100 rung for the README footprint table; CI's quick
    /// profile stops at x50 to keep the job fast.
    scales: &'static [u32],
}

impl Profile {
    fn full() -> Self {
        Profile {
            name: "full",
            fixture: "imdb-default",
            imdb: ImdbConfig::default(),
            serve_queries: 108,
            ingest_holdout: 0.15,
            ingest_batches: 10,
            shard_batches: 6,
            scales: &[1, 10, 50, 100],
        }
    }

    fn quick() -> Self {
        Profile {
            name: "quick",
            fixture: "imdb-quick",
            imdb: ImdbConfig {
                seed: 1,
                actors: 400,
                directors: 100,
                movies: 500,
                companies: 50,
                avg_cast: 3,
                scale: 1.0,
            },
            serve_queries: 48,
            ingest_holdout: 0.15,
            ingest_batches: 6,
            shard_batches: 4,
            scales: &[1, 10, 50],
        }
    }
}

/// Queries replayed (single worker) per scale for the printed QPS line.
const SCALE_QUERIES: usize = 24;

/// Shard count of the scatter-gather phase.
const SHARDS: usize = 4;

/// Top-k of the serve and scale replays.
const REPLAY_K: usize = 5;

/// One `"key": value` pair of the snapshot, the value already rendered.
type Field = (String, String);

fn field(key: impl Into<String>, value: impl ToString) -> Field {
    (key.into(), value.to_string())
}

/// `fields` as the lines of a JSON object body at `indent`.
fn json_fields(indent: &str, fields: &[Field]) -> String {
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{indent}\"{key}\": {value}"))
        .collect();
    lines.join(",\n")
}

/// `fields` as one nested section of the snapshot.
fn json_section(name: &str, fields: &[Field]) -> Field {
    field(name, format!("{{\n{}\n  }}", json_fields("    ", fields)))
}

/// The first `n` keyword queries of the seeded IMDB log over `data`.
fn log_queries(data: &ImdbDataset, n: usize) -> Vec<Vec<String>> {
    let cfg = WorkloadConfig {
        seed: 7,
        n_queries: n,
        mc_fraction: 0.5,
    };
    let workload = Workload::imdb(data, cfg);
    workload.queries.into_iter().map(|q| q.keywords).collect()
}

/// A serving snapshot over a copy of `db`, its index built from scratch.
fn snapshot_of(db: &Database, catalog: &TemplateCatalog) -> Arc<SearchSnapshot> {
    Arc::new(SearchSnapshot::new(
        db.clone(),
        InvertedIndex::build(db),
        catalog.clone(),
        InterpreterConfig::default(),
    ))
}

/// Median closed-loop QPS of three cold replays.
fn median_qps(snapshot: &Arc<SearchSnapshot>, queries: &[Vec<String>], workers: usize) -> f64 {
    let mut qps: Vec<f64> = (0..3)
        .map(|_| replay_serve(snapshot, queries, workers, REPLAY_K))
        .collect();
    qps.sort_by(f64::total_cmp);
    qps[1]
}

fn smoke_fail(why: &str) -> ! {
    eprintln!("SMOKE FAIL: {why}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut profile = Profile::full();
    let mut serve = false;
    let mut scale = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => profile = Profile::quick(),
            "--serve" => serve = true,
            "--scale" => scale = true,
            "--out" => {
                out_path = args.get(i + 1).cloned();
                i += 1;
            }
            "--check" => {
                check_path = args.get(i + 1).cloned();
                i += 1;
            }
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: smoke [--smoke] [--serve] [--scale] [--out FILE] [--check BASELINE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("building IMDB fixture ({} profile)…", profile.name);
    let data = ImdbDataset::generate(profile.imdb).expect("generation succeeds");
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
    let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
    println!(
        "  {} templates, {} index terms",
        catalog.len(),
        index.term_count()
    );

    // The acceptance scenario: a 4-keyword query with partials enabled.
    let query4 = KeywordQuery::from_terms(vec![
        "hanks".into(),
        "terminal".into(),
        "actor".into(),
        "movie".into(),
    ]);
    let k = 10;
    let exhaustive_len = interpreter.ranked_with_partials(&query4).len();
    let (topk, stats) = interpreter.top_k_with_stats(&query4, k, true);
    let query2 = KeywordQuery::from_terms(vec!["hanks".into(), "terminal".into()]);
    let space2 = interpreter.ranked_interpretations(&query2).len();

    println!("\n== candidate generation (4 keywords, partials) ==");
    println!("  exhaustive : {exhaustive_len} interpretations");
    println!(
        "  best-first : top {} of that space ({} materialized, {} expanded, {} pruned) — \
         {:.1}x fewer materializations",
        topk.len(),
        stats.materialized,
        stats.expanded,
        stats.pruned,
        exhaustive_len as f64 / stats.materialized.max(1) as f64,
    );
    println!("  complete-only space of its first 2 keywords: {space2} interpretations");
    if stats.materialized * 5 > exhaustive_len {
        smoke_fail(&format!(
            "best-first materialized {} of {exhaustive_len} candidates (need >= 5x fewer)",
            stats.materialized
        ));
    }

    // == execution: batched hash joins vs. the naive oracle, and the
    //    end-to-end streaming answers path, on the 4-keyword query. ==
    let exec_opts = ExecOptions {
        limit: 10_000,
        ..Default::default()
    };
    // One cache for the whole replay: the top-k executions share its batch
    // arena (the allocation profile `batch_allocs` gates — the arena stops
    // growing after the first queries warm it).
    let mut cache = ExecCache::new();
    let mut hj = ExecStats::default();
    let mut nv = ExecStats::default();
    for s in &topk {
        let interp = &s.interpretation;
        if let Ok(r) =
            execute_interpretation_cached(&data.db, &index, &catalog, interp, exec_opts, &mut cache)
        {
            hj.absorb(&r.stats);
        }
        if let Ok(r) = execute_interpretation_naive(&data.db, &index, &catalog, interp, exec_opts) {
            nv.absorb(&r.stats);
        }
    }
    let (answers, astats) = interpreter.answers_top_k_with_stats(&query4, k);
    println!(
        "\n== execution (top {} interpretations of the 4-keyword query) ==",
        topk.len()
    );
    println!(
        "  naive      : {} intermediate bindings, {} probes",
        nv.intermediate_bindings, nv.probes,
    );
    println!(
        "  hash join  : {} intermediate bindings, {} probes, {} batches, \
         semi-join kept {}/{} rows ({:.0}% pruned) touching {}",
        hj.intermediate_bindings,
        hj.probes,
        hj.batches,
        hj.semijoin_rows_out,
        hj.semijoin_rows_in,
        hj.semijoin_reduction() * 100.0,
        hj.semijoin_rows_touched,
    );
    println!(
        "  answers    : top {} end-to-end ({} generated, {} executed, {} intermediates)",
        answers.len(),
        astats.generated,
        astats.executed,
        astats.exec.intermediate_bindings,
    );
    println!(
        "  arena      : {} batch columns served from {} arena growths \
         (peak {:.1} KiB resident)",
        hj.batch_cols,
        hj.batch_allocs,
        hj.arena_bytes_peak as f64 / 1024.0,
    );
    if hj.intermediate_bindings >= nv.intermediate_bindings {
        smoke_fail(&format!(
            "hash join did not materialize strictly fewer intermediate bindings ({} vs {})",
            hj.intermediate_bindings, nv.intermediate_bindings
        ));
    }
    // The arena mandate: replaying the top-k interpretations through one
    // cache must grow the arena at least 10x less often than the pre-arena
    // executor allocated batch columns.
    if hj.batch_allocs * 10 > hj.batch_cols {
        smoke_fail(&format!(
            "arena grew {} times for {} batch columns — the reuse path is not \
             absorbing per-batch allocations (need >= 10x fewer)",
            hj.batch_allocs, hj.batch_cols
        ));
    }

    let mut snapshot = vec![
        field("fixture", format!("\"{}\"", profile.fixture)),
        field("profile", format!("\"{}\"", profile.name)),
        field("query4", "\"hanks terminal actor movie\""),
        field("k", k),
        field("exhaustive_candidates", exhaustive_len),
        field("best_first_materialized", stats.materialized),
        field("best_first_expanded", stats.expanded),
        field("best_first_pruned", stats.pruned),
        field("nonempty_probes", stats.nonempty_probes),
        field("nonempty_cache_hits", stats.nonempty_cache_hits),
        field("complete_space_2kw", space2),
        json_section(
            "executor",
            &[
                field("naive_intermediate_bindings", nv.intermediate_bindings),
                field("hashjoin_intermediate_bindings", hj.intermediate_bindings),
                field("naive_probes", nv.probes),
                field("hashjoin_probes", hj.probes),
                field("hashjoin_batches", hj.batches),
                field("semijoin_rows_in", hj.semijoin_rows_in),
                field("semijoin_rows_out", hj.semijoin_rows_out),
                field("semijoin_rows_touched", hj.semijoin_rows_touched),
                field("batch_cols", hj.batch_cols),
                field("batch_allocs", hj.batch_allocs),
                field("answers_generated", astats.generated),
                field("answers_executed", astats.executed),
                field("answers_returned", answers.len()),
            ],
        ),
    ];

    // The paper's experiments: every entry, every invocation. Its claims,
    // like the serve and scale gates, defer their exit so the snapshot is
    // still written as the CI artifact — its cells are what debugging needs.
    println!(
        "\n== paper (every table and figure, {} profile) ==",
        profile.name
    );
    let (cells, failures) = paper::run(profile.name == "quick");
    snapshot.push(json_section("paper", &cells));
    for why in &failures {
        eprintln!("{why}");
    }
    let mut gate_failure = failures.into_iter().next();
    if serve {
        let (fields, failure) = serve_phases(&profile, data, index, catalog);
        snapshot.push(json_section("serve", &fields));
        gate_failure = gate_failure.or(failure);
    }
    if scale {
        let (fields, failure) = scale_tier(&profile);
        snapshot.push(json_section("scale", &fields));
        gate_failure = gate_failure.or(failure);
    }
    let json = format!("{{\n{}\n}}\n", json_fields("  ", &snapshot));

    match &gate_failure {
        None => println!("\nSMOKE OK"),
        Some(why) => eprintln!("\nSMOKE FAIL (exit deferred until snapshot written): {why}"),
    }
    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write snapshot");
        println!("snapshot written to {path}");
    }
    if let Some(path) = &check_path {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match check_baseline(&baseline, &json) {
            Ok(violations) if violations.is_empty() => {
                println!("CHECK OK: every recorded value equals {path}");
            }
            Ok(violations) => {
                eprintln!("CHECK FAIL: {} value(s) moved vs {path}:", violations.len());
                for v in &violations {
                    eprintln!("  - {v}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("CHECK FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(why) = gate_failure {
        smoke_fail(&why);
    }
}

/// The storage-footprint tier: regenerate the profile's IMDB fixture at each
/// scale, measure the interned/delta-coded snapshot codecs against the naive
/// v1 representation of identical content (pure functions of content) and
/// the deterministic heap model of `Database::approx_heap_bytes`, and print
/// a single-worker QPS per scale. Returns the section's fields and the
/// tier's gate failure, if any.
fn scale_tier(profile: &Profile) -> (Vec<Field>, Option<String>) {
    let ladder: Vec<String> = profile.scales.iter().map(|s| format!("x{s}")).collect();
    println!(
        "\n== scale (IMDB fixture at {}, {} profile) ==",
        ladder.join("/"),
        profile.name
    );
    let mut fields = Vec::new();
    let mut failure = None;
    for &n in profile.scales {
        let data = ImdbDataset::generate(ImdbConfig {
            scale: n as f64,
            ..profile.imdb
        })
        .expect("generation succeeds");
        let rows = data.db.total_rows();
        let index = InvertedIndex::build(&data.db);
        let store = data
            .db
            .snapshot_bytes()
            .expect("store fits the codec")
            .len() as u64;
        let store_naive = naive_store_snapshot_bytes(&data.db);
        let idx = index.snapshot_bytes().expect("index fits the codec").len() as u64;
        let idx_naive = naive_index_snapshot_bytes(&data.db, &index);
        let heap = data.db.approx_heap_bytes();
        let heap_naive = naive_heap_bytes(&data.db);
        let per_row = |bytes: u64| bytes as f64 / rows.max(1) as f64;
        let (bpr, bpr_naive) = (per_row(store + idx), per_row(store_naive + idx_naive));

        let queries = log_queries(&data, SCALE_QUERIES);
        let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
        let snapshot = Arc::new(SearchSnapshot::new(
            data.db,
            index,
            catalog,
            InterpreterConfig::default(),
        ));
        println!(
            "  x{n:<3}: {rows:>8} rows   {bpr:>6.1} B/row on disk (naive {bpr_naive:>6.1})   \
             heap {:>6.2} MiB (naive {:>6.2})   {:>7.1} qps",
            heap as f64 / (1024.0 * 1024.0),
            heap_naive as f64 / (1024.0 * 1024.0),
            median_qps(&snapshot, &queries, 1),
        );
        fields.extend([
            field(format!("scale{n}_rows"), rows),
            field(format!("scale{n}_store_bytes"), store),
            field(format!("scale{n}_store_bytes_naive"), store_naive),
            field(format!("scale{n}_index_bytes"), idx),
            field(format!("scale{n}_index_bytes_naive"), idx_naive),
            field(format!("scale{n}_heap_bytes"), heap),
            field(format!("scale{n}_heap_bytes_naive"), heap_naive),
            field(format!("scale{n}_bytes_per_row"), format!("{bpr:.2}")),
            field(
                format!("scale{n}_bytes_per_row_naive"),
                format!("{bpr_naive:.2}"),
            ),
        ]);
        // The tier's two hard gates: the x50 fixture must clear 100k rows,
        // and at x10 the interned + delta-coded snapshot must be at least
        // 25% smaller than the naive codec.
        if n == 50 && rows < 100_000 {
            failure.get_or_insert(format!(
                "scale-50 fixture built only {rows} rows (need >= 100000)"
            ));
        }
        if n == 10 && (store + idx) * 4 > (store_naive + idx_naive) * 3 {
            failure.get_or_insert(format!(
                "scale-10 snapshot is {} bytes vs {} naive — less than the required 25% saving",
                store + idx,
                store_naive + idx_naive
            ));
        }
    }
    (fields, failure)
}

/// The serve phases: the closed-loop QPS lines, then the seeded log replayed
/// one request at a time — diversified, mixed with insert batches through a
/// single service, the same through a durable one (crash + reopen), and a
/// second holdout through the K-shard router. Returns the section's fields
/// and the first gate failure, if any.
fn serve_phases(
    profile: &Profile,
    data: ImdbDataset,
    index: InvertedIndex,
    catalog: TemplateCatalog,
) -> (Vec<Field>, Option<String>) {
    let mut failure: Option<String> = None;
    let queries = log_queries(&data, profile.serve_queries);
    // The live-ingestion phase re-serves the same fixture from a preload +
    // insert batches; plan it before the snapshot takes the database.
    let ingest_plan = holdout_plan(
        &data.db,
        IngestConfig {
            seed: 11,
            holdout: profile.ingest_holdout,
            batches: profile.ingest_batches,
        },
    );
    let snapshot = Arc::new(SearchSnapshot::new(
        data.db,
        index,
        catalog.clone(),
        InterpreterConfig::default(),
    ));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n== serve ({} queries from the seeded IMDB log, {cores} cores) ==",
        queries.len()
    );
    let qps1 = median_qps(&snapshot, &queries, 1);
    println!("  1 worker : {qps1:8.1} qps");
    // The repository's only multi-core check, armed by what the machine
    // shows: it trips on outright concurrency breakage (an accidental
    // global lock serializes the replay to ~1x); between 1.3x and the 2x
    // target it warns, because the sub-millisecond closed-loop replay has
    // never been tuned on multi-core hardware and queue-pop overhead eats
    // into ideal scaling.
    if cores >= 4 {
        let qps4 = median_qps(&snapshot, &queries, 4);
        let scaling = qps4 / qps1.max(1e-12);
        println!("  4 workers: {qps4:8.1} qps   ({scaling:.2}x the 1-worker QPS)");
        if scaling < 1.3 {
            failure = Some(format!(
                "{cores} cores available but 4-worker replay reached only \
                 {scaling:.2}x the 1-worker QPS — concurrency is broken \
                 (a healthy pool reaches ~2x; hard floor is 1.3x)"
            ));
        } else if scaling < 2.0 {
            println!(
                "  warning: scaling {scaling:.2}x is below the 2x target \
                 on {cores} cores (hard floor 1.3x)"
            );
        }
    } else {
        println!(
            "  note: only {cores} core(s) visible — parallel scaling cannot \
             manifest here; scaling gate skipped"
        );
    }

    // == diversified: the log replayed as Alg. 4.1 requests. ==
    let (pool_items, selected) =
        replay_diversified(&snapshot, &queries, DiversifyOptions::default());
    println!(
        "\n== diversified ({} queries, Alg. 4.1 top-10, pool 25) ==\n  \
         {pool_items} pool items, {selected} selected across the log",
        queries.len()
    );

    // == ingest: the epoch-swap path under the seeded mixed read/write
    //    stream. ==
    let mixed = MixedWorkload::interleave(ingest_plan, &queries, 13);
    let (mixed_queries, batches) = mixed.counts();
    let service = SearchService::start(snapshot_of(&mixed.initial, &catalog), 1);
    let ingest = replay_mixed(&service, &mixed.ops, REPLAY_K, |_| {});
    drop(service);
    println!(
        "\n== ingest ({} rows held out of the fixture, {batches} batches mixed into \
         {mixed_queries} queries) ==\n  \
         {} epoch swaps, {} stale cache entries retired",
        ingest.rows_ingested, ingest.epoch_swaps, ingest.stale_evictions
    );
    if ingest.epoch_swaps != batches {
        failure.get_or_insert(format!(
            "ingest published {} epochs for {batches} batches — the swap path is broken",
            ingest.epoch_swaps
        ));
    }

    // == recovery: the same stream through a durable service — WAL every
    //    batch, checkpoint once mid-stream, drop the service (the simulated
    //    crash), reopen. ==
    let dir = std::env::temp_dir().join(format!("keybridge-smoke-{}", std::process::id()));
    let opts = DurableOptions {
        max_joins: 4,
        max_templates: 100_000,
        ..DurableOptions::default()
    };
    let (at_crash, recovered) = replay_durable(&mixed, REPLAY_K, &opts, &dir);
    println!(
        "\n== recovery (WAL every batch, one mid-stream checkpoint, kill, reopen) ==\n  \
         durability : {} WAL records ({} bytes framed), {} checkpoint\n  \
         reopen     : {} batches replayed from the log tail",
        at_crash.wal_batches,
        at_crash.wal_bytes,
        at_crash.checkpoints,
        recovered.recovery_replayed_batches
    );

    // == sharded: a second holdout of the preload, replayed through the
    //    K-shard scatter-gather router. The shard directory is planned over
    //    the *full* pre-holdout corpus, so replayed ingest lands every
    //    held-out row exactly where a cold partitioning would. ==
    let ShardedIngestPlan { plan, assignment } = sharded_holdout_plan(
        &mixed.initial,
        IngestConfig {
            seed: 19,
            holdout: 0.05,
            batches: profile.shard_batches,
        },
        SHARDS,
    );
    let shard_mixed = MixedWorkload::interleave(plan, &queries, 23);
    let shard_batches = shard_mixed.counts().1;
    let service = SearchService::start_with_assignment(
        snapshot_of(&shard_mixed.initial, &catalog),
        assignment,
        1,
    );
    let sharded = replay_mixed(&service, &shard_mixed.ops, REPLAY_K, |_| {});
    drop(service);
    println!(
        "\n== sharded ({SHARDS} shards, 1 worker each, {shard_batches} batches mixed into {} \
         queries) ==\n  \
         routing    : {} shard epoch advances across {} of {SHARDS} shards \
         ({} global epochs, {} stale cache entries retired)\n  \
         merge      : {} gathered rows left untouched by the bounded top-k merge",
        queries.len(),
        sharded.shard_epoch_swaps,
        sharded.shards_touched,
        sharded.epoch,
        sharded.stale_evictions,
        sharded.shard_rows_skipped,
    );
    // The bounded-merge mandate: over the whole replay some query must
    // produce more rows across the shards than the global limit, so a
    // coordinator that still drains every shard reads 0.
    if sharded.shard_rows_skipped == 0 {
        failure.get_or_insert(
            "bounded scatter-gather merge never skipped a gathered row — \
             the coordinator is draining every shard"
                .into(),
        );
    }
    if sharded.epoch != shard_batches as u64 {
        failure.get_or_insert(format!(
            "sharded service published {} epochs for {shard_batches} batches — the \
             per-shard swap path is broken",
            sharded.epoch
        ));
    }

    let fields = vec![
        field("serve_queries", queries.len()),
        field("div_pool_items", pool_items),
        field("div_selected", selected),
        field("ingest_rows", ingest.rows_ingested),
        field("ingest_batches", batches),
        field("epoch_swaps", ingest.epoch_swaps),
        field("stale_evictions", ingest.stale_evictions),
        field("wal_batches", at_crash.wal_batches),
        field("wal_bytes", at_crash.wal_bytes),
        field("recovery_checkpoints", at_crash.checkpoints),
        field(
            "recovery_replayed_batches",
            recovered.recovery_replayed_batches,
        ),
        field("sharded_shards", SHARDS),
        field("shard_epoch_swaps", sharded.shard_epoch_swaps),
        field("shards_touched", sharded.shards_touched),
        field("shard_rows_skipped", sharded.shard_rows_skipped),
        field("sharded_stale_evictions", sharded.stale_evictions),
    ];
    (fields, failure)
}
