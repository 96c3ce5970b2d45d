//! Serving correctness: every mode the service serves — top-k answers,
//! interpretations, diversified top-k (ch. 4), construction sessions
//! (ch. 3), and their timed twins — must return exactly what the cold
//! algorithms return, on all four datagen fixtures, on the single, durable
//! and K=4 sharded services, under concurrent clients racing a writer, and
//! across crashes at every WAL/checkpoint kill point. Each test below is a
//! named history over the one harness in `history.rs`, or a focused test of
//! a property no history expresses (routing, rejections, the torn-tail
//! sweep, and the one-wave-loop counters).

mod history;

use history::*;
use keybridge::core::{
    scan_wal, DiversifyOptions, DurableOptions, FaultPoint, IngestError, InterpreterConfig,
    KeywordQuery, KeywordService, Reply, Request, SearchService, SearchSnapshot, ServeRequests,
    ServiceBuilder, ServiceError, ServiceStats, ShardedService, TemplateCatalog, SNAPSHOT_FILE,
    WAL_FILE,
};
use keybridge::datagen::{sharded_holdout_plan, ImdbConfig, ImdbDataset, IngestConfig};
use keybridge::index::InvertedIndex;
use keybridge::relstore::{BatchError, Database, RowBatch, SchemaBuilder, TableKind, Value};
use std::sync::Arc;

/// One `#[test]` per fixture, each running `$body` on it.
macro_rules! per_fixture {
    ($body:ident: $($name:ident => $fx:ident,)*) => {
        $(#[test]
        fn $name() {
            $body(Fixture::load(Fx::$fx));
        })*
    };
}

// --- reads only ---------------------------------------------------------------

/// Reads only, over the whole fixture and its first `n` queries, from
/// `clients` threads: every reply is its cold oracle's, at epoch 0, and
/// every request was served.
fn reads<I: IntoIterator<Item = Op>>(
    fx: &'static Fixture,
    n: usize,
    target: Target,
    clients: usize,
    sweeps: usize,
    per_query: impl Fn(usize) -> I,
) -> ServiceStats {
    let h = History::full(format!("reads-{:?}", fx.fx)).with(passes(n, sweeps, per_query));
    let stats = verify(fx, &h, target, Mode::Threaded(clients)).stats;
    assert_eq!(stats.served, h.ops.len());
    stats
}

/// Four clients over one warm shared cache, answers only.
fn concurrent_identical(fx: &'static Fixture) {
    let stats = reads(fx, fx.queries.len(), Target::Single, 4, 4, answers);
    assert!(stats.nonempty_entries > 0, "shared cache never populated");
}

per_fixture! { concurrent_identical:
    concurrent_identical_imdb => Imdb,
    concurrent_identical_lyrics => Lyrics,
    concurrent_identical_freebase => Freebase,
    concurrent_identical_yago => Yago,
}

/// Four clients on K=4 shards, answers and default diversified requests;
/// every reply carries the shard epoch vector of its epoch.
fn sharded_identical(fx: &'static Fixture) {
    let mixed = |q| {
        [
            Op::Answers(q, 5),
            Op::Answers(q, 5),
            Op::Diversified(q, false),
        ]
    };
    let stats = reads(fx, fx.queries.len(), Target::Sharded, 4, 2, mixed);
    assert!(stats.nonempty_entries > 0, "shared cache never populated");
}

per_fixture! { sharded_identical:
    sharded_identical_imdb => Imdb,
    sharded_identical_lyrics => Lyrics,
    sharded_identical_freebase => Freebase,
    sharded_identical_yago => Yago,
}

/// Plain searches warm the shared tier with results executed under other
/// limits than the small pool's cap: the cross-mode truncation case.
fn diversified_identical(fx: &'static Fixture) {
    reads(fx, fx.short, Target::Single, 4, 8, |q| {
        [Op::Answers(q, 5), Op::Diversified(q, true)]
    });
}

per_fixture! { diversified_identical:
    diversified_identical_imdb => Imdb,
    diversified_identical_lyrics => Lyrics,
    diversified_identical_freebase => Freebase,
    diversified_identical_yago => Yago,
}

/// A session per query, pre-warmed by plain traffic, driven in lockstep
/// with its oracle: `remaining`, `steps`, `next_option` and the window
/// answers at every step.
fn session_identical(fx: &'static Fixture) {
    let h = History::full(format!("lockstep-{:?}", fx.fx)).with(lockstep(fx.short));
    let run = verify(fx, &h, Target::Single, Mode::Sequential);
    assert_eq!(run.stats.sessions_open, 0, "every session was closed");
}

per_fixture! { session_identical:
    session_identical_imdb => Imdb,
    session_identical_lyrics => Lyrics,
    session_identical_freebase => Freebase,
    session_identical_yago => Yago,
}

/// Eight clients, two passes' worth of overlapping logs on one warm
/// service: late requests are served almost entirely from caches another
/// thread filled.
#[test]
fn stress_overlapping_logs_warm_caches() {
    let fx = Fixture::load(Fx::Imdb);
    let stats = reads(fx, fx.queries.len(), Target::Single, 8, 16, answers);
    assert!(stats.nonempty_hits > 0);
    assert!(
        stats.result_hits > 0,
        "warm replays never hit the shared results"
    );
}

// --- ingest -------------------------------------------------------------------

/// Every query after every batch, against a cold rebuild of the same rows.
fn differential_three_schedules(fx: &'static Fixture) {
    // Seeds 1-3 on IMDB, 4-6 on Lyrics, 7-9 on Freebase, 10-12 on YAGO.
    let first = 1 + 3 * FIXTURES.iter().position(|&f| f == fx.fx).unwrap() as u64;
    for seed in first..first + 3 {
        let h = History::new(format!("sweep-{:?}", fx.fx), seed, 0.3, 3);
        let case = Case::new(fx, h.ingest);
        let plan = &case.plan;
        let batches = plan.batches.len();
        let sweep = with_batches(passes(fx.short, batches + 1, answers), batches);
        let run = verify(fx, &h.with(sweep), Target::Single, Mode::Sequential);
        assert!(plan.total_rows() > 0, "holdout produced no inserts");
        assert_eq!(run.stats.epoch_swaps, batches);
        assert_eq!(run.stats.rows_ingested, plan.total_rows());
        let restored = run.service.as_single().unwrap().snapshot().db.total_rows();
        assert_eq!(
            restored,
            fx.db.total_rows(),
            "the full fixture was restored"
        );
    }
}

per_fixture! { differential_three_schedules:
    differential_imdb_three_schedules => Imdb,
    differential_lyrics_three_schedules => Lyrics,
    differential_freebase_three_schedules => Freebase,
    differential_yago_three_schedules => Yago,
}

/// `passes` sweeps of answers from `clients` threads racing `batches`
/// swaps, then one settled sweep that must serve the final epoch: every
/// racing reply matches the oracle of exactly the epoch it reports, and
/// every epoch is observed.
fn writer_race(h: History, n: usize, sweeps: usize) -> History {
    let batches = h.ingest.batches;
    h.with(with_batches(passes(n, sweeps, answers), batches))
        .with([Op::Settle])
        .with(passes(n, 1, answers))
}

#[test]
fn concurrent_readers_race_epoch_swaps() {
    let fx = Fixture::load(Fx::Imdb);
    let h = writer_race(History::new("race-readers", 42, 0.3, 3), fx.short, 12);
    let run = verify(fx, &h, Target::Single, Mode::Threaded(4));
    assert_eq!((run.stats.epoch_swaps, run.stats.epoch), (3, 3));
}

/// Eight clients against a writer swapping four epochs, on a service whose
/// epoch-0 cache is warm before the first swap.
#[test]
fn stress_writer_swaps_epochs_mid_replay() {
    let fx = Fixture::load(Fx::Imdb);
    let n = fx.queries.len();
    let h = writer_race(History::new("writer-single", 77, 0.25, 4), n, 16);
    let run = verify(fx, &h, Target::Single, Mode::Threaded(8));
    assert_eq!((run.stats.epoch_swaps, run.stats.epoch), (4, 4));
    assert_eq!(run.stats.served, 17 * n);
    assert!(
        run.stats.stale_evictions > 0,
        "displaced generations never accounted"
    );
}

/// The same race through K=4 shards against the unsharded oracle.
#[test]
fn sharded_writer_swaps_epochs_mid_replay() {
    let fx = Fixture::load(Fx::Imdb);
    let h = writer_race(
        History::new("writer-sharded", 77, 0.25, 4),
        fx.queries.len(),
        16,
    );
    let run = verify(fx, &h, Target::Sharded, Mode::Threaded(8));
    assert_eq!((run.stats.epoch_swaps, run.stats.epoch), (4, 4));
    assert!(run.stats.shard_epoch_swaps >= run.stats.epoch_swaps);
    assert!(
        run.stats.stale_evictions > 0,
        "swaps displaced no cached state"
    );
}

/// Sessions opened before any swap keep answering from epoch 0 while
/// eight clients race diversified and plain requests against three swaps;
/// once settled, diversified replies serve the final epoch, the early
/// sessions still answer from epoch 0, and a new session pins epoch 3.
#[test]
fn stress_sessions_pinned_across_epoch_swaps() {
    let fx = Fixture::load(Fx::Imdb);
    let n = fx.short;
    let mixed = |q| [Op::Answers(q, 5), Op::Diversified(q, true), Op::Window(q)];
    let h = History::new("pinned-sessions", 77, 0.25, 3)
        .with((0..n).map(|q| Op::Open(q, q)))
        .with([Op::Settle])
        .with(with_batches(passes(n, 5, mixed), 3))
        .with([Op::Settle])
        .with(passes(n, 1, |q| [Op::Diversified(q, true), Op::Window(q)]))
        .with([Op::Open(n, 0), Op::Window(n)]);
    let run = verify(fx, &h, Target::Single, Mode::Threaded(8));
    let opens = (h.ops.iter().zip(&run.entries)).filter(|(op, _)| matches!(op, Op::Open(..)));
    let pins: Vec<u64> = opens.map(|(_, e)| e.epoch).collect();
    assert_eq!(pins, [vec![0; n], vec![3]].concat());
    assert_eq!(run.stats.epoch_swaps, 3);
    assert_eq!(run.stats.sessions_open, n + 1);
}

// --- crash recovery -----------------------------------------------------------

/// Every kill point: the recovered service serves exactly the durable
/// prefix (answers, whole-store bytes, torn tail, replayed-batch count),
/// refused writes while poisoned, and finishes the schedule live.
fn crash_equivalence(fx: &'static Fixture) {
    for at in KILL_POINTS {
        let h = History::new(format!("kill-{:?}-{at:?}", fx.fx), 17, 0.3, 3);
        let run = verify(
            fx,
            &h.with(kill(fx.short, at, 3)),
            Target::Durable,
            Mode::Sequential,
        );
        let replayed = match at {
            FaultPoint::MidWalAppend | FaultPoint::WalRollbackFail => 1,
            FaultPoint::PostWalAppendPreSwap | FaultPoint::MidCheckpoint => 2,
            FaultPoint::PostCheckpointPreTruncate => 0, // all checkpointed
        };
        assert_eq!(run.stats.recovery_replayed_batches, replayed, "at {at:?}");
        assert_eq!(run.stats.epoch, 3, "the schedule finished after recovery");
    }
}

per_fixture! { crash_equivalence:
    crash_equivalence_imdb_all_kill_points => Imdb,
    crash_equivalence_lyrics_all_kill_points => Lyrics,
    crash_equivalence_freebase_all_kill_points => Freebase,
    crash_equivalence_yago_all_kill_points => Yago,
}

// --- seeded random histories --------------------------------------------------

/// Every `Request` arm, sessions where the target has a registry, and on
/// the durable target checkpoint → crash → reopen mid-history: one seed
/// sequentially, twice — the two transcripts and final counters must be
/// identical — and one threaded.
fn seeded(target: Target) {
    let fx = Fixture::load(Fx::Imdb);
    let run = |seed, mode| {
        let mut h = generate(seed, target, fx);
        h.name = format!("{}-{mode:?}", h.name);
        verify(fx, &h, target, mode)
    };
    let (a, b) = (run(1, Mode::Sequential), run(1, Mode::Sequential));
    assert_eq!(a.entries, b.entries, "{target:?}: transcripts differ");
    assert_eq!(a.stats, b.stats, "{target:?}: counters differ");
    run(2, Mode::Threaded(2));
}

#[test]
fn seeded_histories_single() {
    seeded(Target::Single);
}

#[test]
fn seeded_histories_durable() {
    seeded(Target::Durable);
}

#[test]
fn seeded_histories_sharded() {
    seeded(Target::Sharded);
}

// --- the harness cannot pass vacuously ----------------------------------------

#[test]
fn generator_is_a_pure_function_of_the_seed() {
    let fx = Fixture::load(Fx::Imdb);
    for target in [Target::Single, Target::Durable, Target::Sharded] {
        let render = |seed| format!("{:?}", generate(seed, target, fx));
        assert_eq!(render(5), render(5));
        assert_ne!(render(5), render(6));
    }
}

/// Tamper with one entry of `h`'s transcript on `target`; the checker must
/// reject it naming the seed and the op index.
fn rejects(h: &History, target: Target, tamper: impl FnOnce(&Case, &mut Vec<Entry>) -> usize) {
    let case = Case::new(Fixture::load(Fx::Imdb), h.ingest);
    let run = execute(&case, h, target, Mode::Sequential);
    let mut entries = run.entries.clone();
    let i = tamper(&case, &mut entries);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check(&case, h, target, Mode::Sequential, &entries)
    }));
    let payload = caught.expect_err("the checker accepted a tampered transcript");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    let names = [format!("(seed {})", h.seed), format!("op {i} ")];
    assert!(names.iter().all(|s| msg.contains(s.as_str())), "{msg}");
    run.remove_store();
}

#[test]
fn checker_rejects_tampered_transcripts() {
    let n = Fixture::load(Fx::Imdb).short;
    // A reply relabelled with its neighbouring epoch.
    let h = History::new("tamper-epoch", 3, 0.3, 3).with(with_batches(passes(n, 2, answers), 1));
    rejects(&h, Target::Single, |_, entries| {
        entries.last_mut().unwrap().epoch -= 1;
        entries.len() - 1
    });
    // A pinned session's window replaced by its epoch-(e+1) oracle.
    let h = History::new("tamper-window", 3, 0.3, 3)
        .with((0..n).map(|q| Op::Open(q, q)))
        .with([Op::Ingest(0)])
        .with((0..n).map(Op::Window));
    rejects(&h, Target::Single, |case, entries| {
        let (i, newer) = (n + 1..2 * n + 1)
            .map(|i| (i, fresh_window(case, 1, i - n - 1)))
            .find(|(i, newer)| *newer != entries[*i].reply)
            .expect("some window changes with the first batch");
        entries[i].reply = newer;
        i
    });
    // A recovery that lands one batch short.
    let h = History::new("tamper-recovery", 3, 0.3, 3).with(kill(n, FaultPoint::MidCheckpoint, 3));
    rejects(&h, Target::Durable, |_, entries| {
        let i = h.ops.iter().position(|&op| op == Op::Reopen).unwrap();
        entries[i].epoch -= 1;
        i
    });
}

// --- focused tests ------------------------------------------------------------

/// One wave loop: both topologies run the same pipeline, so two cold
/// sequential transcripts of the same answers + diversified history count
/// the same waves, pulls, executions and cache hits request by request.
#[test]
fn wave_counters_agree_across_topologies() {
    for fx in FIXTURES.map(Fixture::load) {
        let mixed = |q| [Op::Answers(q, 5), Op::Diversified(q, false)];
        let h = History::full(format!("waves-{:?}", fx.fx));
        let h = h.with(passes(fx.queries.len(), 1, mixed));
        let one = verify(fx, &h, Target::Single, Mode::Sequential);
        let many = verify(fx, &h, Target::Sharded, Mode::Sequential);
        for (a, b) in one.entries.iter().zip(&many.entries) {
            let op = a.op;
            assert_eq!(
                a.stats, b.stats,
                "{:?} op {op}: wave-loop counters differ",
                fx.fx
            );
        }
    }
}

/// K=1 is one merge stream over identity row maps: a one-shard service
/// answers the IMDB log exactly as the single service does — JTTs, keys
/// and score bits, plain and diversified.
#[test]
fn one_shard_equals_the_single_service() {
    let fx = Fixture::load(Fx::Imdb);
    let snap = SearchSnapshot::build(fx.db.clone(), InterpreterConfig::default(), 4, 50_000);
    let snap = Arc::new(snap.unwrap());
    let single = transcript(&SearchService::start(Arc::clone(&snap), 2), &fx.queries);
    let sharded = transcript(&ShardedService::start(snap, 1, 2), &fx.queries);
    assert!(single.iter().any(|line| line.contains("jtt")), "no answers");
    assert_eq!(single, sharded);
}

/// Every answer's interpretation, JTT, keys and score bits, then every
/// diversified pick's, query by query.
fn transcript(svc: &impl ServeRequests, queries: &[Vec<String>]) -> Vec<String> {
    let mut out = Vec::new();
    for terms in queries {
        let query = KeywordQuery::from_terms(terms.clone());
        let answers = svc.search(&query, 10).answers;
        out.extend(answers.iter().map(|a| {
            let bits = a.log_score.to_bits();
            format!(
                "{:?} jtt={:?} {:?} {bits:x}",
                a.interpretation, a.jtt, a.keys
            )
        }));
        let opts = DiversifyOptions::default();
        let request = Request::Diversified { query, opts };
        let Some(Reply::Diversified(Ok(div))) = svc.submit_request(request).wait() else {
            panic!("{terms:?}: no diversified reply")
        };
        out.push(format!("pool={}", div.pool));
        out.extend(div.answers.iter().map(|a| {
            let bits = (a.log_score.to_bits(), a.relevance.to_bits());
            format!(
                "{:?} {:?} {:?} {bits:x?}",
                a.interpretation, a.atoms, a.keys
            )
        }));
    }
    out
}

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
    let KeywordService::Sharded(sharded) = &many else {
        panic!("{SHARDS} shards start a sharded service")
    };

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

/// End-to-end torn-tail coverage: take a store whose log holds two records,
/// truncate the log at **every byte boundary** of the second record, and
/// reopen each prefix through `SearchService::open`. Every cut strictly
/// inside the record must recover exactly the one-batch state (the torn
/// record fully discarded, never partially applied); the full length must
/// recover both.
#[test]
fn torn_wal_tail_at_every_byte_recovers_prefix() {
    let mut b = SchemaBuilder::new();
    b.table("doc", TableKind::Entity).pk("id").text_attr("body");
    let mut db = Database::new(b.finish().unwrap());
    let doc = db.schema().table_id("doc").unwrap();
    db.insert(doc, vec![Value::Int(1), Value::text("seed row alpha")])
        .unwrap();
    let catalog = TemplateCatalog::enumerate(&db, 1, 100).unwrap();
    let opts = DurableOptions {
        checkpoint_every: 0,
        config: InterpreterConfig::default(),
        max_joins: 1,
        max_templates: 100,
    };
    let batches: Vec<RowBatch> = vec![
        vec![
            (doc, vec![Value::Int(2), Value::text("bravo charlie")]),
            (doc, vec![Value::Int(3), Value::text("delta echo")]),
        ],
        vec![(doc, vec![Value::Int(4), Value::text("foxtrot golf")])],
    ];
    let queries: Vec<Vec<String>> = vec![
        vec!["alpha".into()],
        vec!["delta".into()],
        vec!["foxtrot".into()],
    ];
    // The never-crashed store after 0, 1 and 2 batches.
    let config = InterpreterConfig::default();
    let index = InvertedIndex::build(&db);
    let mut oracle = vec![SearchSnapshot::new(
        db.clone(),
        index,
        catalog.clone(),
        config,
    )];
    for batch in &batches {
        let mut next = oracle.last().unwrap().db.clone();
        next.insert_batch(batch).unwrap();
        let index = InvertedIndex::build(&next);
        let config = InterpreterConfig::default();
        oracle.push(SearchSnapshot::new(next, index, catalog.clone(), config));
    }

    // Build the master store: two logged batches, no checkpoint.
    let master = test_dir("torn-master");
    let service = SearchService::start_durable(
        Arc::new(SearchSnapshot::new(
            db.clone(),
            InvertedIndex::build(&db),
            catalog.clone(),
            InterpreterConfig::default(),
        )),
        1,
        &master,
        &opts,
    )
    .unwrap();
    service.ingest(&batches[0]).unwrap();
    let len_one = std::fs::metadata(master.join(WAL_FILE)).unwrap().len();
    service.ingest(&batches[1]).unwrap();
    let len_two = std::fs::metadata(master.join(WAL_FILE)).unwrap().len();
    drop(service);
    assert!(len_two > len_one, "second record added no bytes");
    let full_wal = std::fs::read(master.join(WAL_FILE)).unwrap();
    let snapshot_file = std::fs::read(master.join(SNAPSHOT_FILE)).unwrap();

    let case = test_dir("torn-case");
    std::fs::create_dir_all(&case).unwrap();
    for cut in len_one..=len_two {
        std::fs::write(case.join(SNAPSHOT_FILE), &snapshot_file).unwrap();
        std::fs::write(case.join(WAL_FILE), &full_wal[..cut as usize]).unwrap();
        let expected_batches = if cut < len_two { 1 } else { 2 };

        let recovered = SearchService::open(&case, 1, &opts).unwrap();
        assert_eq!(
            recovered.current_epoch().0 as usize,
            expected_batches,
            "cut at byte {cut}"
        );
        assert_eq!(
            recovered.stats().recovery_replayed_batches,
            expected_batches,
            "cut at byte {cut}"
        );
        let snap = recovered.snapshot();
        assert_eq!(
            snap.db.snapshot_bytes().unwrap(),
            oracle[expected_batches].db.snapshot_bytes().unwrap(),
            "partial batch visible after cut at byte {cut}"
        );
        assert_eq!(
            snap.index.snapshot_bytes().unwrap(),
            oracle[expected_batches].index.snapshot_bytes().unwrap(),
            "index diverged after cut at byte {cut}"
        );
        for (qi, terms) in queries.iter().enumerate() {
            let q = KeywordQuery::from_terms(terms.clone());
            let cold = oracle[expected_batches].interpreter().answers_top_k(&q, 5);
            assert_eq!(
                canon_answers(&recovered.search(&q, 5).answers),
                canon_answers(&cold),
                "cut at byte {cut}, query {qi}"
            );
        }
        // Reopening truncated the torn tail, so the log is clean again.
        drop(recovered);
        let scan = scan_wal(&case).unwrap();
        assert_eq!(scan.torn_bytes, 0, "cut at byte {cut} left torn bytes");
        assert_eq!(scan.records.len(), expected_batches, "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&case).unwrap();
    std::fs::remove_dir_all(&master).unwrap();
}
