//! Crash-recovery equivalence suite — the correctness spine of the
//! durability path (**Hot path 6**).
//!
//! A durable `SearchService` is killed — deterministically, via the
//! fault-injection plan — at every point of the WAL/checkpoint path:
//! mid-WAL-append (torn record on disk), wal-rollback-fail (torn record
//! durable *and* the append rollback failed, poisoning the log handle),
//! post-append/pre-swap (record durable, epoch never published),
//! mid-checkpoint (partial temp file), and post-checkpoint/pre-truncate
//! (snapshot and log overlap). For each kill
//! point × each datagen fixture, `SearchService::open` must recover exactly
//! the durable prefix: replies byte-identical (bit-exact score bits) to a
//! never-crashed cold oracle of the same batch count, and the recovered
//! store byte-identical as a whole — a torn or unpublished batch is either
//! fully visible or fully absent, never partial. The torn-tail test
//! additionally truncates a log at *every byte boundary* of its final
//! record and reopens each prefix end to end.

use keybridge::core::{
    scan_wal, DurabilityError, DurableOptions, FaultPoint, IngestError, InterpreterConfig,
    KeywordQuery, RankedAnswer, SearchService, SearchSnapshot, ServeRequests, TemplateCatalog,
    SNAPSHOT_FILE, WAL_FILE,
};
use keybridge::datagen::{
    holdout_plan, FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, IngestConfig,
    LyricsConfig, LyricsDataset, Workload, WorkloadConfig, YagoConfig, YagoOntology,
};
use keybridge::index::{InvertedIndex, Tokenizer};
use keybridge::relstore::{Database, RowBatch, SchemaBuilder, TableKind, Value};
use std::path::PathBuf;
use std::sync::Arc;

const K: usize = 5;

const KILL_POINTS: [FaultPoint; 5] = [
    FaultPoint::MidWalAppend,
    FaultPoint::WalRollbackFail,
    FaultPoint::PostWalAppendPreSwap,
    FaultPoint::MidCheckpoint,
    FaultPoint::PostCheckpointPreTruncate,
];

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

/// Cold oracle: a fresh index + single-threaded interpreter over `db`.
fn cold_answers(db: &Database, catalog: &TemplateCatalog, queries: &[Vec<String>]) -> Vec<String> {
    let index = InvertedIndex::build(db);
    let interp =
        keybridge::core::Interpreter::new(db, &index, catalog, InterpreterConfig::default());
    queries
        .iter()
        .map(|terms| canon(&interp.answers_top_k(&KeywordQuery::from_terms(terms.clone()), K)))
        .collect()
}

/// A fresh store directory for one recovery case. Honors
/// `KEYBRIDGE_RECOVERY_DIR` (CI points it into the runner temp dir so the
/// store files of a *failing* case — the suite removes passing ones — get
/// uploaded as the debugging artifact).
fn test_dir(tag: &str) -> PathBuf {
    let root = std::env::var_os("KEYBRIDGE_RECOVERY_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = root.join(format!("keybridge-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::create_dir_all(&root);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything the crash-equivalence matrix compares against, per number of
/// durable batches: cold answers plus whole-store snapshot bytes.
struct Oracle {
    answers: Vec<Vec<String>>,
    db_bytes: Vec<Vec<u8>>,
    index_bytes: Vec<Vec<u8>>,
}

impl Oracle {
    fn build(
        initial: &Database,
        batches: &[RowBatch],
        catalog: &TemplateCatalog,
        queries: &[Vec<String>],
    ) -> Oracle {
        let mut db = initial.clone();
        let mut answers = vec![cold_answers(&db, catalog, queries)];
        let mut db_bytes = vec![db.snapshot_bytes().unwrap()];
        let mut index_bytes = vec![InvertedIndex::build(&db).snapshot_bytes().unwrap()];
        for batch in batches {
            db.insert_batch(batch).unwrap();
            answers.push(cold_answers(&db, catalog, queries));
            db_bytes.push(db.snapshot_bytes().unwrap());
            index_bytes.push(InvertedIndex::build(&db).snapshot_bytes().unwrap());
        }
        Oracle {
            answers,
            db_bytes,
            index_bytes,
        }
    }
}

/// The matrix body for one fixture: for every kill point, boot a durable
/// service, ingest one batch, kill it at the point, recover, and assert the
/// recovered service equals the never-crashed oracle of the durable batch
/// count — answers and whole store, byte for byte. Then finish the schedule
/// through the recovered service and assert the final state too.
fn assert_crash_equivalence(
    full_db: &Database,
    queries: &[Vec<String>],
    max_joins: usize,
    fixture: &str,
) {
    let plan = holdout_plan(
        full_db,
        IngestConfig {
            seed: 17,
            holdout: 0.3,
            batches: 3,
        },
    );
    assert!(plan.batches.len() >= 3, "matrix needs three batches");
    let catalog = TemplateCatalog::enumerate(full_db, max_joins, 50_000).unwrap();
    let opts = DurableOptions {
        checkpoint_every: 0,
        config: InterpreterConfig::default(),
        max_joins,
        max_templates: 50_000,
    };
    let oracle = Oracle::build(&plan.initial, &plan.batches, &catalog, queries);

    for point in KILL_POINTS {
        let dir = test_dir(&format!("{fixture}-{point}"));
        let service = SearchService::start_durable(
            Arc::new(SearchSnapshot::new(
                plan.initial.clone(),
                InvertedIndex::build(&plan.initial),
                catalog.clone(),
                InterpreterConfig::default(),
            )),
            2,
            &dir,
            &opts,
        )
        .unwrap();
        service.ingest(&plan.batches[0]).unwrap();
        service.fault_plan().expect("durable service").arm(point);

        // Trigger the kill and work out how many batches are durable.
        let durable: usize = match point {
            FaultPoint::MidWalAppend
            | FaultPoint::WalRollbackFail
            | FaultPoint::PostWalAppendPreSwap => {
                let err = service.ingest(&plan.batches[1]).unwrap_err();
                match err {
                    IngestError::Durability(DurabilityError::FaultInjected(p)) => {
                        assert_eq!(p, point)
                    }
                    other => panic!("expected injected fault at {point}, got {other:?}"),
                }
                // The epoch was never published either way.
                assert_eq!(service.current_epoch().0, 1, "at {point}");
                if point == FaultPoint::PostWalAppendPreSwap {
                    2 // the record is durable: recovery must surface it
                } else {
                    1 // the record is torn: the batch is lost
                }
            }
            FaultPoint::MidCheckpoint | FaultPoint::PostCheckpointPreTruncate => {
                service.ingest(&plan.batches[1]).unwrap();
                let err = service.checkpoint().unwrap_err();
                match err {
                    DurabilityError::FaultInjected(p) => assert_eq!(p, point),
                    other => panic!("expected injected fault at {point}, got {other:?}"),
                }
                2
            }
        };

        // The "dead" process refuses all further writes…
        assert!(service.is_poisoned(), "at {point}");
        assert!(
            matches!(service.ingest(&plan.batches[2]), Err(IngestError::Poisoned)),
            "poisoned service accepted a batch at {point}"
        );
        assert!(
            matches!(service.checkpoint(), Err(DurabilityError::Poisoned)),
            "poisoned service checkpointed at {point}"
        );
        // …but keeps serving reads from the last published epoch.
        let _ = service.search(&KeywordQuery::from_terms(queries[0].clone()), K);
        drop(service);

        if matches!(
            point,
            FaultPoint::MidWalAppend | FaultPoint::WalRollbackFail
        ) {
            let scan = scan_wal(&dir).unwrap();
            assert!(scan.torn_bytes > 0, "{point} kill left no torn tail");
        }

        // Recover and compare against the never-crashed oracle.
        let recovered = SearchService::open(&dir, 2, &opts).unwrap();
        assert_eq!(recovered.current_epoch().0 as usize, durable, "at {point}");
        let expected_replayed = match point {
            FaultPoint::MidWalAppend | FaultPoint::WalRollbackFail => 1,
            FaultPoint::PostWalAppendPreSwap | FaultPoint::MidCheckpoint => 2,
            FaultPoint::PostCheckpointPreTruncate => 0, // all checkpointed
        };
        assert_eq!(
            recovered.stats().recovery_replayed_batches,
            expected_replayed,
            "at {point}"
        );
        for (qi, terms) in queries.iter().enumerate() {
            let reply = recovered.search(&KeywordQuery::from_terms(terms.clone()), K);
            assert_eq!(reply.epoch.0 as usize, durable, "query {qi} at {point}");
            assert_eq!(
                canon(&reply.answers),
                oracle.answers[durable][qi],
                "recovered answers diverged from the never-crashed oracle \
                 (fixture {fixture}, kill point {point}, query {terms:?})"
            );
        }
        // No partial apply: the recovered store equals the oracle's as a
        // whole, byte for byte — database and incrementally-replayed index.
        let snap = recovered.snapshot();
        assert_eq!(
            snap.db.snapshot_bytes().unwrap(),
            oracle.db_bytes[durable],
            "recovered database not byte-identical at {point}"
        );
        assert_eq!(
            snap.index.snapshot_bytes().unwrap(),
            oracle.index_bytes[durable],
            "recovered index not byte-identical at {point}"
        );

        // The recovered service is fully live: finish the schedule and land
        // on the final oracle.
        for batch in &plan.batches[durable..] {
            recovered.ingest(batch).unwrap();
        }
        assert_eq!(recovered.current_epoch().0 as usize, plan.batches.len());
        for (qi, terms) in queries.iter().enumerate() {
            let reply = recovered.search(&KeywordQuery::from_terms(terms.clone()), K);
            assert_eq!(
                canon(&reply.answers),
                oracle.answers[plan.batches.len()][qi],
                "post-recovery ingest diverged (fixture {fixture}, kill point {point}, query {qi})"
            );
        }
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
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
fn crash_equivalence_imdb_all_kill_points() {
    let (db, queries) = imdb_fixture();
    assert_crash_equivalence(&db, &queries, 4, "imdb");
}

#[test]
fn crash_equivalence_lyrics_all_kill_points() {
    let (db, queries) = lyrics_fixture();
    assert_crash_equivalence(&db, &queries, 4, "lyrics");
}

#[test]
fn crash_equivalence_freebase_all_kill_points() {
    let (db, queries) = freebase_fixture();
    assert_crash_equivalence(&db, &queries, 2, "freebase");
}

#[test]
fn crash_equivalence_yago_all_kill_points() {
    let (db, queries) = yago_fixture();
    assert_crash_equivalence(&db, &queries, 2, "yago");
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
    let oracle = Oracle::build(&db, &batches, &catalog, &queries);

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
            oracle.db_bytes[expected_batches],
            "partial batch visible after cut at byte {cut}"
        );
        assert_eq!(
            snap.index.snapshot_bytes().unwrap(),
            oracle.index_bytes[expected_batches],
            "index diverged after cut at byte {cut}"
        );
        for (qi, terms) in queries.iter().enumerate() {
            let reply = recovered.search(&KeywordQuery::from_terms(terms.clone()), K);
            assert_eq!(
                canon(&reply.answers),
                oracle.answers[expected_batches][qi],
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
