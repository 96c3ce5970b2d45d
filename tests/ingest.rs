//! Differential update-equivalence suite — the correctness spine of the
//! live-ingestion path (**Hot path 4**).
//!
//! A `SearchService` boots from a *preload* slice of a fixture and then
//! absorbs the held-out rows through `ingest`: integrity-checked batch
//! insertion into the writer's store, incremental posting splices into the
//! inverted index, and an epoch swap publishing the result with a fresh
//! shared-cache generation. After **every** batch, every query's reply
//! through the warm, live-updated service must be *byte-identical* (same
//! interpretations, bit-exact scores, same joining tuple trees, same keys,
//! same order) to a cold `Interpreter` over a from-scratch rebuilt
//! `Database` + `InvertedIndex` holding the same rows — across all four
//! datagen fixtures and ≥ 3 randomized insert schedules each, plus
//! concurrent readers racing the epoch swaps.

use keybridge::core::{
    InterpreterConfig, KeywordQuery, RankedAnswer, SearchService, SearchSnapshot, ServeRequests,
    TemplateCatalog,
};
use keybridge::datagen::{
    holdout_plan, FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, IngestConfig,
    LyricsConfig, LyricsDataset, Workload, WorkloadConfig, YagoConfig, YagoOntology,
};
use keybridge::index::{InvertedIndex, Tokenizer};
use keybridge::relstore::Database;
use std::sync::Arc;

const K: usize = 5;

/// Render one answer list with bit-exact scores so "identical" means
/// identical.
fn canon(answers: &[RankedAnswer]) -> String {
    let mut out = String::new();
    for a in answers {
        out.push_str(&format!(
            "tpl={:?} bindings={:?} score_bits={:016x} jtt={:?} keys={:?}\n",
            a.interpretation.template,
            a.interpretation.bindings,
            a.log_score.to_bits(),
            a.jtt,
            a.keys.iter().map(|k| (k.table, k.pk)).collect::<Vec<_>>(),
        ));
    }
    out
}

/// Cold oracle: a fresh index + single-threaded interpreter over `db`, no
/// state reused from anywhere.
fn cold_answers(db: &Database, catalog: &TemplateCatalog, queries: &[Vec<String>]) -> Vec<String> {
    let index = InvertedIndex::build(db);
    let interp =
        keybridge::core::Interpreter::new(db, &index, catalog, InterpreterConfig::default());
    queries
        .iter()
        .map(|terms| canon(&interp.answers_top_k(&KeywordQuery::from_terms(terms.clone()), K)))
        .collect()
}

/// The suite body: split `full_db`, boot a service on the preload, and after
/// every ingested batch assert all `queries` byte-identical to the cold
/// rebuild. Returns the number of batches exercised.
fn assert_update_equivalence(
    full_db: &Database,
    queries: &[Vec<String>],
    max_joins: usize,
    schedule_seed: u64,
    workers: usize,
) -> usize {
    let plan = holdout_plan(
        full_db,
        IngestConfig {
            seed: schedule_seed,
            holdout: 0.3,
            batches: 3,
        },
    );
    assert!(plan.total_rows() > 0, "holdout produced no inserts");
    let catalog = TemplateCatalog::enumerate(full_db, max_joins, 50_000).unwrap();
    let service = SearchService::start(
        Arc::new(SearchSnapshot::new(
            plan.initial.clone(),
            InvertedIndex::build(&plan.initial),
            catalog.clone(),
            InterpreterConfig::default(),
        )),
        workers,
    );

    // The oracle applies the *same* batch sequence to its own copy, so live
    // and rebuilt row ids agree by construction.
    let mut oracle_db = plan.initial.clone();
    let check = |service: &SearchService, oracle_db: &Database, epoch: u64| {
        let expected = cold_answers(oracle_db, &catalog, queries);
        for (qi, terms) in queries.iter().enumerate() {
            let reply = service.search(&KeywordQuery::from_terms(terms.clone()), K);
            assert_eq!(
                reply.epoch.0, epoch,
                "reply epoch drifted (query {qi}, seed {schedule_seed})"
            );
            assert_eq!(
                canon(&reply.answers),
                expected[qi],
                "live service diverged from cold rebuild at epoch {epoch}, \
                 query {terms:?}, seed {schedule_seed}"
            );
        }
    };

    check(&service, &oracle_db, 0);
    for (i, batch) in plan.batches.iter().enumerate() {
        let receipt = service.ingest(batch).unwrap();
        assert_eq!(receipt.epoch.0 as usize, i + 1);
        assert_eq!(receipt.rows, batch.len());
        oracle_db.insert_batch(batch).unwrap();
        check(&service, &oracle_db, receipt.epoch.0);
    }
    // The full fixture was restored.
    assert_eq!(oracle_db.total_rows(), full_db.total_rows());
    let stats = service.stats();
    assert_eq!(stats.epoch_swaps, plan.batches.len());
    assert_eq!(stats.rows_ingested, plan.total_rows());
    plan.batches.len()
}

/// Seeded keyword log + full database for a fixture with a real workload
/// generator.
fn imdb_fixture() -> (Database, Vec<Vec<String>>) {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let w = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 123,
            n_queries: 6,
            mc_fraction: 0.5,
        },
    );
    let queries = w.queries.iter().map(|q| q.keywords.clone()).collect();
    (data.db, queries)
}

fn lyrics_fixture() -> (Database, Vec<Vec<String>>) {
    let data = LyricsDataset::generate(LyricsConfig::tiny(7)).unwrap();
    let w = Workload::lyrics(
        &data,
        WorkloadConfig {
            seed: 21,
            n_queries: 6,
            mc_fraction: 0.5,
        },
    );
    let queries = w.queries.iter().map(|q| q.keywords.clone()).collect();
    (data.db, queries)
}

/// First tokens of the leading rows of `table` as single-keyword queries.
fn token_log(db: &Database, table: keybridge::relstore::TableId, n: usize) -> Vec<Vec<String>> {
    let tok = Tokenizer::new();
    let mut out = Vec::new();
    for i in 0..db.table(table).len().min(12) as u32 {
        let row = db.table(table).row(keybridge::relstore::RowId(i));
        let toks = tok.tokenize(row[1].as_text().unwrap_or(""));
        if let Some(t) = toks.first() {
            out.push(vec![t.clone()]);
        }
        if out.len() >= n {
            break;
        }
    }
    assert!(!out.is_empty(), "no tokens drawn from fixture");
    out
}

fn freebase_fixture() -> (Database, Vec<Vec<String>>) {
    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 6,
        types_per_domain: 4,
        topics: 300,
        rows_per_table: 12,
        seed: 5,
        scale: 1.0,
    })
    .unwrap();
    let queries = token_log(&fb.db, fb.topic, 5);
    (fb.db, queries)
}

fn yago_fixture() -> (Database, Vec<Vec<String>>) {
    // YAGO instances live in the Freebase universe; draw the log from the
    // first gold-matched table like the golden pipeline tests do.
    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 6,
        types_per_domain: 4,
        topics: 400,
        rows_per_table: 15,
        seed: 31,
        scale: 1.0,
    })
    .unwrap();
    let yago = YagoOntology::generate(YagoConfig::tiny(32), &fb);
    let queries = token_log(&fb.db, yago.gold[0].1, 4);
    (fb.db, queries)
}

#[test]
fn differential_imdb_three_schedules() {
    let (db, queries) = imdb_fixture();
    for seed in [1, 2, 3] {
        assert_update_equivalence(&db, &queries, 4, seed, 2);
    }
}

#[test]
fn differential_lyrics_three_schedules() {
    let (db, queries) = lyrics_fixture();
    for seed in [4, 5, 6] {
        assert_update_equivalence(&db, &queries, 4, seed, 2);
    }
}

#[test]
fn differential_freebase_three_schedules() {
    let (db, queries) = freebase_fixture();
    for seed in [7, 8, 9] {
        assert_update_equivalence(&db, &queries, 2, seed, 2);
    }
}

#[test]
fn differential_yago_three_schedules() {
    let (db, queries) = yago_fixture();
    for seed in [10, 11, 12] {
        assert_update_equivalence(&db, &queries, 2, seed, 2);
    }
}

/// Concurrent readers racing the writer: every versioned reply obtained
/// *while batches are being ingested* must be byte-identical to the cold
/// oracle of exactly the epoch it reports — never a blend of two epochs.
#[test]
fn concurrent_readers_race_epoch_swaps() {
    let (db, queries) = imdb_fixture();
    let plan = holdout_plan(
        &db,
        IngestConfig {
            seed: 42,
            holdout: 0.3,
            batches: 3,
        },
    );
    let catalog = TemplateCatalog::enumerate(&db, 4, 50_000).unwrap();

    // Precompute the per-epoch oracles: epoch e = preload + batches[..e].
    let mut oracle_db = plan.initial.clone();
    let mut oracles: Vec<Vec<String>> = vec![cold_answers(&oracle_db, &catalog, &queries)];
    for batch in &plan.batches {
        oracle_db.insert_batch(batch).unwrap();
        oracles.push(cold_answers(&oracle_db, &catalog, &queries));
    }

    let service = Arc::new(SearchService::start(
        Arc::new(SearchSnapshot::new(
            plan.initial.clone(),
            InvertedIndex::build(&plan.initial),
            catalog,
            InterpreterConfig::default(),
        )),
        4,
    ));

    std::thread::scope(|scope| {
        for c in 0..4usize {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            let oracles = &oracles;
            scope.spawn(move || {
                for pass in 0..3 {
                    for i in 0..queries.len() {
                        let j = (i + c) % queries.len();
                        let q = KeywordQuery::from_terms(queries[j].clone());
                        let reply = service.search(&q, K);
                        let epoch = reply.epoch.0 as usize;
                        assert!(epoch < oracles.len(), "impossible epoch {epoch}");
                        assert_eq!(
                            canon(&reply.answers),
                            oracles[epoch][j],
                            "client {c} pass {pass}: reply mixed epochs for {:?}",
                            queries[j]
                        );
                    }
                }
            });
        }
        // The writer thread: swap epochs while the readers are mid-replay.
        let writer = Arc::clone(&service);
        let batches = plan.batches.clone();
        scope.spawn(move || {
            for batch in &batches {
                std::thread::sleep(std::time::Duration::from_millis(2));
                writer.ingest(batch).unwrap();
            }
        });
    });

    let stats = service.stats();
    assert_eq!(stats.epoch, plan.batches.len() as u64);
    assert_eq!(stats.epoch_swaps, plan.batches.len());
    // Post-race, the fully grown service still matches its final oracle.
    for (j, terms) in queries.iter().enumerate() {
        let reply = service.search(&KeywordQuery::from_terms(terms.clone()), K);
        assert_eq!(reply.epoch.0 as usize, plan.batches.len());
        assert_eq!(canon(&reply.answers), oracles[plan.batches.len()][j]);
    }
}
