//! Sharded scatter-gather correctness: a K-shard `ShardedService` must be
//! **byte-identical** — same interpretations, bit-exact scores, same joining
//! tuple trees in global row ids, same key sets, same order — to the
//! single-shard oracle on all four datagen fixtures, under concurrent
//! mixed-mode load and while a writer swaps shard epochs mid-replay. Plus
//! the routing contract (a batch touching shards {i, j} bumps *only* those
//! shards' epochs) and the "one wave loop" contract: a cold sequential
//! replay drives identical per-request pipeline counters on both topologies.

use keybridge::core::{
    AnswerStats, DiversifiedReply, DiversifyOptions, IngestError, InterpreterConfig, KeywordQuery,
    RankedAnswer, Reply, Request, SearchService, SearchSnapshot, ServeRequests, ServiceBuilder,
    ServiceError, ShardedService, TemplateCatalog,
};
use keybridge::datagen::{
    sharded_holdout_plan, FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, IngestConfig,
    LyricsConfig, LyricsDataset, Workload, WorkloadConfig, YagoConfig, YagoOntology,
};
use keybridge::index::{InvertedIndex, Tokenizer};
use keybridge::relstore::{BatchError, RowBatch, Value};
use std::sync::Arc;

const SHARDS: usize = 4;

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

/// Bit-exact rendering of a diversified reply (modulo uncompared stats).
fn canon_div(reply: &DiversifiedReply) -> String {
    let mut out = format!("pool={}\n", reply.pool);
    for a in &reply.answers {
        out.push_str(&format!(
            "tpl={:?} bindings={:?} score_bits={:016x} rel_bits={:016x} rank={} atoms={:?} keys={:?}\n",
            a.interpretation.template,
            a.interpretation.bindings,
            a.log_score.to_bits(),
            a.relevance.to_bits(),
            a.pool_rank,
            a.atoms,
            a.keys.iter().map(|k| (k.table, k.pk)).collect::<Vec<_>>(),
        ));
    }
    out
}

/// Blocking diversified top-k through the request seam.
fn diversified<S: ServeRequests>(service: &S, query: &KeywordQuery) -> DiversifiedReply {
    let (query, opts) = (query.clone(), DiversifyOptions::default());
    match service
        .submit_request(Request::Diversified { query, opts })
        .wait()
    {
        Some(Reply::Diversified(Ok(reply))) => reply,
        _ => panic!("Request::Diversified must resolve to a served Reply::Diversified"),
    }
}

/// The counters the shared wave loop drives — everything in [`AnswerStats`]
/// that does not depend on where predicate rows are cached.
fn wave_counters(s: &AnswerStats) -> [usize; 7] {
    [
        s.waves,
        s.generated,
        s.executed,
        s.nonempty,
        s.exec_errors,
        s.answers,
        s.result_cache_hits,
    ]
}

/// The cold single-threaded reference: a fresh interpreter per query.
fn reference(snapshot: &SearchSnapshot, queries: &[Vec<String>], k: usize) -> Vec<String> {
    queries
        .iter()
        .map(|terms| {
            let q = KeywordQuery::from_terms(terms.clone());
            canon(&snapshot.interpreter().answers_top_k(&q, k))
        })
        .collect()
}

// --- fixtures (same seeds as tests/service.rs) ------------------------------

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

// --- scatter-gather differential --------------------------------------------

/// Replay `queries` through a K=4 sharded service from `clients` concurrent
/// threads, mixing answer and diversified requests, and assert every reply
/// is byte-identical to the single-shard cold oracle.
fn assert_sharded_identical(
    snapshot: Arc<SearchSnapshot>,
    queries: &[Vec<String>],
    workers: usize,
    clients: usize,
    k: usize,
) {
    let expected = Arc::new(reference(&snapshot, queries, k));
    // Diversified oracle: the single-shard service (itself proven identical
    // to the pipeline in tests/diversify.rs).
    let single = SearchService::start(Arc::clone(&snapshot), workers);
    let expected_div: Arc<Vec<String>> = Arc::new(
        queries
            .iter()
            .map(|terms| {
                let q = KeywordQuery::from_terms(terms.clone());
                canon_div(&diversified(&single, &q))
            })
            .collect(),
    );
    drop(single);

    // One loop: both topologies run the same pipeline, so a cold,
    // single-client, sequential replay must count the same waves, pulls,
    // executions and cache hits request by request.
    let cold = |shards: usize| {
        ServiceBuilder::new()
            .workers(1)
            .shards(shards)
            .start(Arc::clone(&snapshot))
            .unwrap()
    };
    let (one, many) = (cold(1), cold(SHARDS));
    for terms in queries {
        let q = KeywordQuery::from_terms(terms.clone());
        assert_eq!(
            wave_counters(&one.search(&q, k).stats),
            wave_counters(&many.search(&q, k).stats),
            "answers {terms:?}: wave-loop counters differ across topologies"
        );
        assert_eq!(
            wave_counters(&diversified(&one, &q).stats),
            wave_counters(&diversified(&many, &q).stats),
            "diversified {terms:?}: wave-loop counters differ across topologies"
        );
    }
    drop((one, many));

    let service = ServiceBuilder::new()
        .workers(workers)
        .shards(SHARDS)
        .start(snapshot)
        .unwrap();
    let sharded = service.as_sharded().expect("shards(4) builds sharded");
    assert_eq!(sharded.shard_count(), SHARDS);
    let service = Arc::new(service);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let service = Arc::clone(&service);
            let expected = Arc::clone(&expected);
            let expected_div = Arc::clone(&expected_div);
            let queries = queries.to_vec();
            scope.spawn(move || {
                for i in 0..queries.len() {
                    let j = (i + c * 3) % queries.len();
                    let q = KeywordQuery::from_terms(queries[j].clone());
                    let reply = service.search(&q, k);
                    assert_eq!(
                        reply.shard_epochs.len(),
                        SHARDS,
                        "reply must carry the per-shard epoch vector"
                    );
                    assert_eq!(
                        canon(&reply.answers),
                        expected[j],
                        "client {c}: query {:?} diverged from the single-shard oracle",
                        queries[j]
                    );
                    // Every other query doubles as a diversified probe.
                    if i % 2 == c % 2 {
                        let div = diversified(&*service, &q);
                        assert_eq!(div.shard_epochs.len(), SHARDS);
                        assert_eq!(
                            canon_div(&div),
                            expected_div[j],
                            "client {c}: diversified {:?} diverged",
                            queries[j]
                        );
                    }
                }
            });
        }
    });
    let stats = service.service_stats();
    assert!(stats.served >= clients * queries.len());
    assert!(stats.nonempty_entries > 0, "shared cache never populated");
}

#[test]
fn sharded_identical_imdb() {
    let (snap, queries) = imdb_log();
    assert_sharded_identical(snap, &queries, 4, 4, 5);
}

#[test]
fn sharded_identical_lyrics() {
    let (snap, queries) = lyrics_log();
    assert_sharded_identical(snap, &queries, 4, 4, 5);
}

#[test]
fn sharded_identical_freebase() {
    let (snap, queries) = freebase_log();
    assert_sharded_identical(snap, &queries, 4, 4, 5);
}

#[test]
fn sharded_identical_yago() {
    let (snap, queries) = yago_log();
    assert_sharded_identical(snap, &queries, 4, 4, 5);
}

// --- routing: only touched shards swap epochs --------------------------------

#[test]
fn ingest_bumps_only_touched_shard_epochs() {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let sharded_plan = sharded_holdout_plan(
        &data.db,
        IngestConfig {
            seed: 77,
            holdout: 0.25,
            batches: 4,
        },
        SHARDS,
    );
    let plan = &sharded_plan.plan;
    let schema = data.db.schema().clone();
    let snap = Arc::new(
        SearchSnapshot::build(
            plan.initial.clone(),
            InterpreterConfig::default(),
            4,
            50_000,
        )
        .unwrap(),
    );
    let service = ShardedService::start_with_assignment(snap, sharded_plan.assignment.clone(), 2);

    let mut expected_swaps = 0usize;
    let mut touched_union = std::collections::BTreeSet::new();
    for (b, batch) in plan.batches.iter().enumerate() {
        // The full-corpus directory pins every held-out row's shard, so the
        // touched set is known before the ingest.
        let touched: std::collections::BTreeSet<usize> = batch
            .iter()
            .map(|(t, row)| {
                let pk = row[schema.table(*t).pk.0 as usize].as_int().unwrap();
                sharded_plan
                    .assignment
                    .shard_of(*t, pk)
                    .expect("full-corpus directory covers held-out rows")
            })
            .collect();
        assert!(!touched.is_empty());

        let before = service.shard_epochs();
        let receipt = service.ingest(batch).unwrap();
        let after = service.shard_epochs();
        assert_eq!(receipt.epoch.0, b as u64 + 1, "one global epoch per batch");
        assert_eq!(receipt.rows, batch.len());
        for s in 0..SHARDS {
            if touched.contains(&s) {
                assert_eq!(
                    after[s].0,
                    before[s].0 + 1,
                    "batch {b}: touched shard {s} must advance exactly once"
                );
            } else {
                assert_eq!(
                    after[s], before[s],
                    "batch {b}: untouched shard {s} must keep its epoch"
                );
            }
        }
        expected_swaps += touched.len();
        touched_union.extend(touched);
    }
    let stats = service.service_stats();
    assert_eq!(stats.epoch_swaps, plan.batches.len());
    assert_eq!(stats.shard_epoch_swaps, expected_swaps);
    assert_eq!(stats.shards_touched, touched_union.len());
    assert_eq!(stats.rows_ingested, plan.total_rows());
    assert!(
        expected_swaps < plan.batches.len() * SHARDS || SHARDS == 1,
        "fixture too dense: every batch touched every shard, isolation unobserved"
    );
}

// --- routing: children follow their parents, or the batch is refused ----------

/// The routing step of the sharded write path, on hand-built batches the
/// holdout replays never produce: a chain of intra-batch parents listed
/// children-first (resolved over several passes onto one shard), and a row
/// whose stored parents live on two different shards (refused as
/// `Unroutable` with nothing changed).
#[test]
fn ingest_routes_children_to_their_parents_or_refuses() {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let (actor, movie, acts, company) = (data.actor, data.movie, data.acts, data.company);
    let assignment = keybridge::relstore::assign_shards(&data.db, SHARDS);
    // A stored actor and a stored movie that live on different shards.
    let pks = |t| -> Vec<i64> {
        let table = data.db.table(t);
        table.rows().map(|(r, _)| data.db.pk_value(t, r)).collect()
    };
    let (actors, movies) = (pks(actor), pks(movie));
    let (split_actor, split_movie) = actors
        .iter()
        .flat_map(|&a| movies.iter().map(move |&m| (a, m)))
        .find(|&(a, m)| assignment.shard_of(actor, a) != assignment.shard_of(movie, m))
        .expect("fixture spans more than one shard");
    let directory = assignment.clone();
    let actor_off = |shard: usize| -> i64 {
        let off = |&a: &i64| directory.shard_of(actor, a) != Some(shard);
        actors.iter().copied().find(|a| off(a)).unwrap()
    };
    let snap =
        Arc::new(SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap());
    let service = ShardedService::start_with_assignment(snap, assignment, 1);

    // acts -> movie -> company, each parent *after* its child in the batch.
    let chain: RowBatch = vec![
        (
            acts,
            vec![
                Value::Int(910_001),
                Value::Null,
                Value::Int(910_002),
                Value::text("understudy"),
            ],
        ),
        (
            movie,
            vec![
                Value::Int(910_002),
                Value::text("late parents"),
                Value::Int(2001),
                Value::Int(910_003),
                Value::Null,
            ],
        ),
        (
            company,
            vec![Value::Int(910_003), Value::text("rootless films")],
        ),
    ];
    let receipt = service.ingest(&chain).unwrap();
    assert_eq!((receipt.epoch.0, receipt.rows), (1, 3));
    let epochs = service.shard_epochs();
    assert_eq!(
        epochs.iter().map(|e| e.0).sum::<u64>(),
        1,
        "the whole chain must land on one shard: {epochs:?}"
    );
    let reply = service.search(&KeywordQuery::from_terms(vec!["understudy".into()]), 5);
    assert!(
        reply
            .answers
            .iter()
            .any(|a| a.keys.iter().any(|k| k.table == acts && k.pk == 910_001)),
        "the routed row must be findable"
    );

    // Parents on two shards: no home for the child, and nothing moves.
    let torn: RowBatch = vec![(
        acts,
        vec![
            Value::Int(910_004),
            Value::Int(split_actor),
            Value::Int(split_movie),
            Value::text("torn"),
        ],
    )];
    match service.ingest(&torn) {
        Err(IngestError::Unroutable { table, key }) => {
            assert_eq!((table.as_str(), key), ("acts", 910_004));
        }
        other => panic!("expected Unroutable, got {other:?}"),
    }
    assert_eq!(service.shard_epochs(), epochs);
    let stats = service.service_stats();
    assert_eq!((stats.epoch_swaps, stats.rows_ingested), (1, 3));
    // The same conflict reached through intra-batch parents: the new movie
    // follows its new (rootless, hence hashed) company, and the acts row is
    // torn between that shard and a stored actor elsewhere.
    let home = keybridge::relstore::hash_shard(company, 910_007, SHARDS);
    let torn_late: RowBatch = vec![
        (
            acts,
            vec![
                Value::Int(910_005),
                Value::Int(actor_off(home)),
                Value::Int(910_006),
                Value::text("torn late"),
            ],
        ),
        (
            movie,
            vec![
                Value::Int(910_006),
                Value::text("elsewhere"),
                Value::Int(2002),
                Value::Int(910_007),
                Value::Null,
            ],
        ),
        (
            company,
            vec![Value::Int(910_007), Value::text("elsewhere inc")],
        ),
    ];
    assert!(matches!(
        service.ingest(&torn_late),
        Err(IngestError::Unroutable { key: 910_005, .. })
    ));
    assert_eq!(service.shard_epochs(), epochs);

    // Still serving writes: the chain's company takes another movie.
    let more: RowBatch = vec![(
        movie,
        vec![
            Value::Int(910_008),
            Value::text("sequel"),
            Value::Int(2003),
            Value::Int(910_003),
            Value::Null,
        ],
    )];
    assert_eq!(service.ingest(&more).unwrap().epoch.0, 2);
    let after = service.shard_epochs();
    let bumped: Vec<usize> = (0..SHARDS).filter(|&s| after[s] != epochs[s]).collect();
    let chain_shard = epochs.iter().position(|e| e.0 == 1).unwrap();
    assert_eq!(
        bumped,
        vec![chain_shard],
        "a child goes where its parent went"
    );
}

// --- rejections: one validator, two topologies --------------------------------

/// Both services validate through relstore's one batch validator, so the
/// same bad batch must come back as the *same* `BatchError` value from a
/// single and a K=4 service, leave every epoch and ingest counter where it
/// was, and not get in the way of the next good batch.
#[test]
fn rejections_are_identical_across_topologies() {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let (actor, movie) = (data.actor, data.movie);
    let stored_pk = data.db.pk_value(actor, keybridge::relstore::RowId(0));
    let snap =
        Arc::new(SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap());
    let start = |shards: usize| {
        ServiceBuilder::new()
            .workers(1)
            .shards(shards)
            .start(Arc::clone(&snap))
            .unwrap()
    };
    let (single, many) = (start(1), start(SHARDS));
    let sharded = many.as_sharded().unwrap();

    let good_actor = |pk: i64| (actor, vec![Value::Int(pk), Value::text("fresh face")]);
    let bad: Vec<(&str, RowBatch)> = vec![
        ("short arity", vec![(actor, vec![Value::Int(900_001)])]),
        (
            "wrong type",
            vec![(actor, vec![Value::Int(900_002), Value::Int(7)])],
        ),
        (
            "null pk",
            vec![(actor, vec![Value::Null, Value::text("x")])],
        ),
        ("pk duplicates the store", vec![good_actor(stored_pk)]),
        (
            "pk duplicated inside the batch",
            vec![good_actor(900_003), good_actor(900_003)],
        ),
        (
            "dangling fk",
            vec![(
                movie,
                vec![
                    Value::Int(900_004),
                    Value::text("orphan"),
                    Value::Int(1999),
                    Value::Int(777_777),
                    Value::Null,
                ],
            )],
        ),
        (
            "second row is the bad one",
            vec![good_actor(900_005), (actor, vec![Value::Int(900_006)])],
        ),
    ];
    let rejection = |r: Result<_, ServiceError>| -> BatchError {
        match r {
            Err(ServiceError::Ingest(IngestError::Batch(e))) => e,
            other => panic!("expected a batch rejection, got {other:?}"),
        }
    };
    let counters = |s: &dyn ServeRequests| {
        let st = s.service_stats();
        (
            s.serving_epoch(),
            st.epoch_swaps,
            st.rows_ingested,
            st.shard_epoch_swaps,
        )
    };
    let (single_before, many_before) = (counters(&single), counters(&many));
    let shard_epochs_before = sharded.shard_epochs();
    for (what, batch) in &bad {
        let a = rejection(single.ingest_batch(batch));
        let b = rejection(many.ingest_batch(batch));
        assert_eq!(a, b, "{what}: topologies disagree on the rejection");
        assert_eq!(counters(&single), single_before, "{what}: single moved");
        assert_eq!(counters(&many), many_before, "{what}: sharded moved");
        assert_eq!(sharded.shard_epochs(), shard_epochs_before, "{what}");
    }
    // The last case pins the *second* row: order of discovery is shared too.
    assert!(matches!(
        rejection(many.ingest_batch(&bad[6].1)),
        BatchError::Arity { batch_row: 1, .. }
    ));

    // Neither service was left wedged: a good batch lands on both, once.
    let good: RowBatch = vec![good_actor(900_007)];
    for service in [&single, &many] {
        let receipt = service.ingest_batch(&good).unwrap();
        assert_eq!((receipt.epoch.0, receipt.rows), (1, 1));
        let stats = service.service_stats();
        assert_eq!((stats.epoch_swaps, stats.rows_ingested), (1, 1));
    }
    assert_eq!(many.service_stats().shard_epoch_swaps, 1);
    assert_eq!(sharded.shard_epochs().iter().map(|e| e.0).sum::<u64>(), 1);
}

// --- writer swaps shard epochs mid-replay ------------------------------------

/// Eight clients replay an overlapping log through a K=4 sharded service
/// while a writer ingests batches mid-replay. Every reply must match the
/// *unsharded* cold oracle of exactly the global epoch it reports.
#[test]
fn sharded_writer_swaps_epochs_mid_replay() {
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
    let sharded_plan = sharded_holdout_plan(
        &data.db,
        IngestConfig {
            seed: 77,
            holdout: 0.25,
            batches: 4,
        },
        SHARDS,
    );
    let plan = &sharded_plan.plan;
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();

    // One cold unsharded single-threaded oracle per epoch.
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

    let service = Arc::new(ShardedService::start_with_assignment(
        Arc::new(SearchSnapshot::new(
            plan.initial.clone(),
            InvertedIndex::build(&plan.initial),
            catalog,
            InterpreterConfig::default(),
        )),
        sharded_plan.assignment.clone(),
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
                             epoch-{epoch} unsharded oracle — sharding or \
                             cross-epoch state leaked",
                            queries[j]
                        );
                    }
                }
            });
        }
        let writer = Arc::clone(&service);
        let batches = plan.batches.clone();
        scope.spawn(move || {
            for batch in &batches {
                std::thread::sleep(std::time::Duration::from_millis(3));
                writer.ingest(batch).unwrap();
            }
        });
    });

    let stats = service.service_stats();
    assert_eq!(stats.epoch_swaps, plan.batches.len());
    assert_eq!(stats.epoch, plan.batches.len() as u64);
    assert!(stats.shard_epoch_swaps >= stats.epoch_swaps);
    assert!(stats.stale_evictions > 0, "swaps displaced no cached state");
    // The settled service serves the final epoch, byte-identical to the
    // full-fixture unsharded oracle.
    for (j, terms) in queries.iter().enumerate() {
        let reply = service.search(&KeywordQuery::from_terms(terms.clone()), k);
        assert_eq!(reply.epoch.0 as usize, plan.batches.len());
        assert_eq!(canon(&reply.answers), oracles[plan.batches.len()][j]);
    }
}
