//! Concurrency correctness of the serving layer: N threads issuing
//! `answers_top_k` through one `SearchService` must produce *byte-identical*
//! results to the cold single-threaded path — same interpretations, same
//! bit-exact scores, same joining tuple trees, same key sets, same order —
//! on all four datagen fixtures, including under overlapping query logs
//! hammering the shared caches from many clients at once.

use keybridge::core::{
    InterpreterConfig, KeywordQuery, RankedAnswer, SearchService, SearchSnapshot, ServeRequests,
    TemplateCatalog,
};
use keybridge::datagen::{
    holdout_plan, FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, IngestConfig,
    LyricsConfig, LyricsDataset, Workload, WorkloadConfig, YagoConfig, YagoOntology,
};
use keybridge::index::{InvertedIndex, Tokenizer};
use std::sync::Arc;

/// Render one answer with bit-exact scores so "identical" means identical.
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

/// The cold single-threaded reference: a fresh interpreter per query log
/// replay, no shared state between queries at all.
fn reference(snapshot: &SearchSnapshot, queries: &[Vec<String>], k: usize) -> Vec<String> {
    queries
        .iter()
        .map(|terms| {
            let q = KeywordQuery::from_terms(terms.clone());
            canon(&snapshot.interpreter().answers_top_k(&q, k))
        })
        .collect()
}

/// Replay `queries` through `service` from `clients` concurrent threads
/// (every client replays the *whole* log, so every query races against
/// itself and its neighbors on the shared caches) and assert each reply is
/// byte-identical to the reference.
fn assert_identical_under_concurrency(
    snapshot: Arc<SearchSnapshot>,
    queries: &[Vec<String>],
    workers: usize,
    clients: usize,
    k: usize,
) {
    let expected = Arc::new(reference(&snapshot, queries, k));
    let service = Arc::new(SearchService::start(snapshot, workers));
    std::thread::scope(|scope| {
        for c in 0..clients {
            let service = Arc::clone(&service);
            let expected = Arc::clone(&expected);
            let queries = queries.to_vec();
            scope.spawn(move || {
                // Stagger starting offsets so clients overlap on *different*
                // queries, not in lockstep.
                for i in 0..queries.len() {
                    let j = (i + c * 3) % queries.len();
                    let q = KeywordQuery::from_terms(queries[j].clone());
                    let got = canon(&service.search(&q, k).answers);
                    assert_eq!(
                        got, expected[j],
                        "client {c}: query {:?} diverged from single-threaded run",
                        queries[j]
                    );
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.served, clients * queries.len());
    assert!(stats.nonempty_entries > 0, "shared cache never populated");
}

/// Seeded keyword log for a fixture that has a real workload generator.
fn imdb_log() -> (Arc<SearchSnapshot>, Vec<Vec<String>>) {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let w = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 123,
            n_queries: 8,
            mc_fraction: 0.5,
        },
    );
    let queries = w.queries.iter().map(|q| q.keywords.clone()).collect();
    let snap = SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap();
    (Arc::new(snap), queries)
}

fn lyrics_log() -> (Arc<SearchSnapshot>, Vec<Vec<String>>) {
    let data = LyricsDataset::generate(LyricsConfig::tiny(7)).unwrap();
    let w = Workload::lyrics(
        &data,
        WorkloadConfig {
            seed: 21,
            n_queries: 8,
            mc_fraction: 0.5,
        },
    );
    let queries = w.queries.iter().map(|q| q.keywords.clone()).collect();
    let snap = SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap();
    (Arc::new(snap), queries)
}

/// First tokens of the leading rows of `table` as single-keyword queries.
fn token_log(
    db: &keybridge::relstore::Database,
    table: keybridge::relstore::TableId,
    n: usize,
) -> Vec<Vec<String>> {
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

fn freebase_log() -> (Arc<SearchSnapshot>, Vec<Vec<String>>) {
    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 6,
        types_per_domain: 4,
        topics: 300,
        rows_per_table: 12,
        seed: 5,
        scale: 1.0,
    })
    .unwrap();
    let queries = token_log(&fb.db, fb.topic, 6);
    let snap = SearchSnapshot::build(fb.db, InterpreterConfig::default(), 2, 50_000).unwrap();
    (Arc::new(snap), queries)
}

fn yago_log() -> (Arc<SearchSnapshot>, Vec<Vec<String>>) {
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
    let queries = token_log(&fb.db, yago.gold[0].1, 5);
    let snap = SearchSnapshot::build(fb.db, InterpreterConfig::default(), 2, 50_000).unwrap();
    (Arc::new(snap), queries)
}

#[test]
fn concurrent_identical_imdb() {
    let (snap, queries) = imdb_log();
    assert_identical_under_concurrency(snap, &queries, 4, 4, 5);
}

#[test]
fn concurrent_identical_lyrics() {
    let (snap, queries) = lyrics_log();
    assert_identical_under_concurrency(snap, &queries, 4, 4, 5);
}

#[test]
fn concurrent_identical_freebase() {
    let (snap, queries) = freebase_log();
    assert_identical_under_concurrency(snap, &queries, 4, 4, 5);
}

#[test]
fn concurrent_identical_yago() {
    let (snap, queries) = yago_log();
    assert_identical_under_concurrency(snap, &queries, 4, 4, 5);
}

/// Loom-free stress: two passes of eight clients over one warm service with
/// overlapping, interleaved logs — late requests are served almost entirely
/// from caches another thread filled, and must still be byte-identical.
#[test]
fn stress_overlapping_logs_warm_caches() {
    let (snap, queries) = imdb_log();
    let k = 5;
    let expected = Arc::new(reference(&snap, &queries, k));
    let service = Arc::new(SearchService::start(snap, 4));
    for pass in 0..2 {
        std::thread::scope(|scope| {
            for c in 0..8 {
                let service = Arc::clone(&service);
                let expected = Arc::clone(&expected);
                let queries = queries.clone();
                scope.spawn(move || {
                    for i in 0..queries.len() {
                        // Forward on even clients, backward on odd ones:
                        // maximal overlap on distinct queries.
                        let j = if c % 2 == 0 {
                            (i + c) % queries.len()
                        } else {
                            (queries.len() - 1 + c - i) % queries.len()
                        };
                        let q = KeywordQuery::from_terms(queries[j].clone());
                        let got = canon(&service.search(&q, k).answers);
                        assert_eq!(
                            got, expected[j],
                            "pass {pass} client {c}: {:?} diverged",
                            queries[j]
                        );
                    }
                });
            }
        });
    }
    let stats = service.stats();
    assert_eq!(stats.served, 2 * 8 * queries.len());
    // The second pass must have been served from shared state.
    assert!(stats.nonempty_hits > 0);
    assert!(
        stats.result_hits > 0,
        "warm replays never hit the shared results"
    );
}

/// Epoch-swap stress: eight clients replay an overlapping log while a
/// writer thread ingests batches (swapping epochs) mid-replay. Every reply
/// must be byte-identical to the cold oracle of *exactly* the epoch it
/// reports — a reply may race ahead of or behind the writer, but it must
/// never mix state from two epochs (e.g. an epoch-0 cached verdict pruning
/// an epoch-1 answer).
#[test]
fn stress_writer_swaps_epochs_mid_replay() {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let w = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 123,
            n_queries: 8,
            mc_fraction: 0.5,
        },
    );
    let queries: Vec<Vec<String>> = w.queries.iter().map(|q| q.keywords.clone()).collect();
    let k = 5;
    let plan = holdout_plan(
        &data.db,
        IngestConfig {
            seed: 77,
            holdout: 0.25,
            batches: 4,
        },
    );
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();

    // One cold single-threaded oracle per epoch: preload + batches[..e].
    let mut oracle_db = plan.initial.clone();
    let oracle_for = |db: &keybridge::relstore::Database| -> Vec<String> {
        let index = InvertedIndex::build(db);
        let snap = SearchSnapshot::new(
            db.clone(),
            index,
            catalog.clone(),
            InterpreterConfig::default(),
        );
        queries
            .iter()
            .map(|terms| {
                let q = KeywordQuery::from_terms(terms.clone());
                canon(&snap.interpreter().answers_top_k(&q, k))
            })
            .collect()
    };
    let mut oracles: Vec<Vec<String>> = vec![oracle_for(&oracle_db)];
    for batch in &plan.batches {
        oracle_db.insert_batch(batch).unwrap();
        oracles.push(oracle_for(&oracle_db));
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

    // Warm epoch 0 before the race so the first swap provably displaces a
    // populated cache generation.
    let warm = service.search(&KeywordQuery::from_terms(queries[0].clone()), k);
    assert_eq!(canon(&warm.answers), oracles[0][0]);

    std::thread::scope(|scope| {
        for c in 0..8usize {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            let oracles = &oracles;
            scope.spawn(move || {
                for pass in 0..2 {
                    for i in 0..queries.len() {
                        // Forward on even clients, backward on odd ones:
                        // maximal overlap on distinct queries.
                        let j = if c % 2 == 0 {
                            (i + c) % queries.len()
                        } else {
                            (queries.len() - 1 + c - i) % queries.len()
                        };
                        let q = KeywordQuery::from_terms(queries[j].clone());
                        let reply = service.search(&q, k);
                        let epoch = reply.epoch.0 as usize;
                        assert!(epoch < oracles.len(), "impossible epoch {epoch}");
                        assert_eq!(
                            canon(&reply.answers),
                            oracles[epoch][j],
                            "pass {pass} client {c}: {:?} does not match the \
                             epoch-{epoch} oracle — cross-epoch state leaked",
                            queries[j]
                        );
                    }
                }
            });
        }
        // The writer: one epoch swap roughly every few replies.
        let writer = Arc::clone(&service);
        let batches = plan.batches.clone();
        scope.spawn(move || {
            for batch in &batches {
                std::thread::sleep(std::time::Duration::from_millis(3));
                writer.ingest(batch).unwrap();
            }
        });
    });

    let stats = service.stats();
    assert_eq!(stats.epoch_swaps, plan.batches.len());
    assert_eq!(stats.epoch, plan.batches.len() as u64);
    assert_eq!(stats.served, 8 * 2 * queries.len() + 1);
    // The first swap displaced the warmed epoch-0 generation.
    assert!(
        stats.stale_evictions > 0,
        "displaced cache generations were never accounted"
    );
    // The settled service serves the final epoch, byte-identical.
    for (j, terms) in queries.iter().enumerate() {
        let reply = service.search(&KeywordQuery::from_terms(terms.clone()), k);
        assert_eq!(reply.epoch.0 as usize, plan.batches.len());
        assert_eq!(canon(&reply.answers), oracles[plan.batches.len()][j]);
    }
}
