//! Differential correctness of the two new `SearchService` request modes:
//! warm, concurrent **diversified top-k** replies and **service-managed
//! construction sessions** must be *byte-identical* (bit-exact scores, same
//! atoms, same result keys, same tuple trees) to the cold offline oracles —
//! `divq::executed_div_pool` + `divq::diversify` and
//! `iqp::ConstructionSession` — on all four datagen fixtures, and a session
//! opened before an `ingest` must keep answering from its pinned epoch
//! after the swap.

use keybridge::core::{
    DiversifiedReply, DiversifyConfig, DiversifyOptions, InterpreterConfig, KeywordQuery, Reply,
    Request, SearchService, SearchSnapshot, ServeRequests, SessionConfig, SessionView,
    TemplateCatalog,
};
use keybridge::datagen::{
    holdout_plan, FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, IngestConfig,
    LyricsConfig, LyricsDataset, Workload, WorkloadConfig, YagoConfig, YagoOntology,
};
use keybridge::divq::{diversify, executed_div_pool, DivExecOptions};
use keybridge::index::{InvertedIndex, Tokenizer};
use keybridge::iqp::ConstructionSession;
use std::sync::Arc;

/// Diversified-mode knobs of the whole suite. The small cap forces
/// per-interpretation truncation, so a warm cache hit carrying a *complete*
/// result must be cut back to exactly what a fresh capped run returns.
const POOL: usize = 12;
const CAP: usize = 5;
const DIV_CFG: DiversifyConfig = DiversifyConfig { lambda: 0.1, k: 4 };

const fn div_opts() -> DiversifyOptions {
    DiversifyOptions {
        config: DIV_CFG,
        pool: POOL,
        cap: CAP,
    }
}

/// Blocking diversified top-k under [`div_opts`] through the request seam.
fn diversified(service: &SearchService, query: &KeywordQuery) -> DiversifiedReply {
    let (query, opts) = (query.clone(), div_opts());
    match service
        .submit_request(Request::Diversified { query, opts })
        .wait()
    {
        Some(Reply::Diversified(Ok(reply))) => reply,
        _ => panic!("Request::Diversified must resolve to a served Reply::Diversified"),
    }
}

/// Session-mode knobs: window below the pool, answers limit below the div
/// cap so cross-mode cache hits exercise truncation in both directions.
const WINDOW: usize = 8;
const WLIMIT: usize = 3;

/// Cold diversified oracle: best-first pool over a fresh interpreter,
/// `executed_div_pool` with a plain cache, Alg. 4.1 — rendered with
/// bit-exact relevance so "identical" means identical.
fn div_oracle(snapshot: &SearchSnapshot, terms: &[String]) -> (usize, String) {
    let q = KeywordQuery::from_terms(terms.to_vec());
    let interpreter = snapshot.interpreter();
    let ranked = interpreter.top_k(&q, POOL);
    let (items, keys, _stats) = executed_div_pool(
        &snapshot.db,
        &snapshot.index,
        &snapshot.catalog,
        &ranked,
        DivExecOptions { limit: CAP },
    );
    let sel = diversify(&items, DIV_CFG);
    let mut out = String::new();
    for &i in &sel {
        out.push_str(&format!(
            "rank={i} rel_bits={:016x} atoms={:?} keys={:?}\n",
            items[i].relevance.to_bits(),
            items[i].atoms,
            keys[i].iter().map(|k| (k.table, k.pk)).collect::<Vec<_>>(),
        ));
    }
    (items.len(), out)
}

/// Render a served diversified reply in the oracle's format.
fn canon_div(reply: &DiversifiedReply) -> String {
    let mut out = String::new();
    for a in &reply.answers {
        out.push_str(&format!(
            "rank={} rel_bits={:016x} atoms={:?} keys={:?}\n",
            a.pool_rank,
            a.relevance.to_bits(),
            a.atoms,
            a.keys.iter().map(|k| (k.table, k.pk)).collect::<Vec<_>>(),
        ));
    }
    out
}

/// Render one window-answers run: indexes, raw tuple trees, and both key
/// sets — the full observable content of an `ExecutedResult`.
fn canon_window(answers: &[(usize, Arc<keybridge::core::ExecutedResult>)]) -> String {
    let mut out = String::new();
    for (i, r) in answers {
        out.push_str(&format!(
            "idx={i} jtts={:?} keys={:?} all={:?}\n",
            r.jtts,
            r.keys.iter().map(|k| (k.table, k.pk)).collect::<Vec<_>>(),
            r.all_keys
                .iter()
                .map(|k| (k.table, k.pk))
                .collect::<Vec<_>>(),
        ));
    }
    out
}

// --- fixture logs (mirroring tests/service.rs) ---------------------------

fn imdb_log() -> (Arc<SearchSnapshot>, Vec<Vec<String>>) {
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
    let snap = SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap();
    (Arc::new(snap), queries)
}

fn lyrics_log() -> (Arc<SearchSnapshot>, Vec<Vec<String>>) {
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
    let queries = token_log(&fb.db, fb.topic, 5);
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
    let queries = token_log(&fb.db, yago.gold[0].1, 4);
    let snap = SearchSnapshot::build(fb.db, InterpreterConfig::default(), 2, 50_000).unwrap();
    (Arc::new(snap), queries)
}

// --- diversified: warm concurrent service == cold offline oracle ---------

/// Replay the log's diversified requests from several concurrent clients
/// over a warm service (plain searches interleave to cross-pollute the
/// shared caches) and assert every reply is byte-identical to the cold
/// `divq` oracle.
fn assert_diversified_identical(snapshot: Arc<SearchSnapshot>, queries: &[Vec<String>]) {
    let oracles: Vec<(usize, String)> = queries
        .iter()
        .map(|terms| div_oracle(&snapshot, terms))
        .collect();
    let service = Arc::new(SearchService::start(snapshot, 4));
    std::thread::scope(|scope| {
        for c in 0..4usize {
            let service = Arc::clone(&service);
            let oracles = &oracles;
            let queries = queries.to_vec();
            scope.spawn(move || {
                for pass in 0..2 {
                    for i in 0..queries.len() {
                        let j = (i + c) % queries.len();
                        let q = KeywordQuery::from_terms(queries[j].clone());
                        // Plain searches warm the shared tier with results
                        // executed under *different* limits than the pool
                        // cap — the cross-mode truncation case.
                        let _ = service.search(&q, 5);
                        let reply = diversified(&service, &q);
                        assert_eq!(
                            reply.pool, oracles[j].0,
                            "pass {pass} client {c}: pool size diverged for {:?}",
                            queries[j]
                        );
                        assert_eq!(
                            canon_div(&reply),
                            oracles[j].1,
                            "pass {pass} client {c}: {:?} diverged from the cold oracle",
                            queries[j]
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn diversified_identical_imdb() {
    let (snap, queries) = imdb_log();
    assert_diversified_identical(snap, &queries);
}

#[test]
fn diversified_identical_lyrics() {
    let (snap, queries) = lyrics_log();
    assert_diversified_identical(snap, &queries);
}

#[test]
fn diversified_identical_freebase() {
    let (snap, queries) = freebase_log();
    assert_diversified_identical(snap, &queries);
}

#[test]
fn diversified_identical_yago() {
    let (snap, queries) = yago_log();
    assert_diversified_identical(snap, &queries);
}

// --- sessions: served registry == cold offline iqp session ---------------

/// Open a service session and a cold offline session for the same query,
/// drive both through an identical deterministic verdict sequence, and
/// assert the proposed options, window sizes, and executed window answers
/// stay byte-identical at every step.
fn assert_session_identical(snapshot: Arc<SearchSnapshot>, queries: &[Vec<String>]) {
    let service = SearchService::start(Arc::clone(&snapshot), 2);
    for terms in queries {
        let q = KeywordQuery::from_terms(terms.clone());
        let interpreter = snapshot.interpreter();
        let mut oracle =
            ConstructionSession::for_query(&interpreter, &q, WINDOW, SessionConfig::default());
        // Plain traffic first: the session path must stay identical even
        // when its shared tier is pre-warmed by other request modes.
        let _ = service.search(&q, 5);
        let mut view: SessionView = service.open_session(&q, WINDOW, SessionConfig::default());
        assert_eq!(view.remaining, oracle.remaining().len(), "{terms:?}");
        assert_eq!(
            view.next_option,
            oracle.next_option(&snapshot.catalog),
            "{terms:?}"
        );
        for step in 0..3 {
            let served = service
                .session_answers(view.id, WLIMIT)
                .expect("session open");
            let cold =
                oracle.window_answers(&snapshot.db, &snapshot.index, &snapshot.catalog, WLIMIT);
            assert_eq!(
                canon_window(&served.answers),
                canon_window(&cold),
                "{terms:?}: window answers diverged at step {step}"
            );
            let Some(option) = view.next_option.clone() else {
                break;
            };
            let accepted = step % 2 == 0;
            oracle.apply(&snapshot.catalog, option.clone(), accepted);
            view = service
                .advance_session(view.id, &option, accepted)
                .expect("session open");
            assert_eq!(
                view.remaining,
                oracle.remaining().len(),
                "{terms:?}: windows diverged after step {step}"
            );
            assert_eq!(view.steps, oracle.steps(), "{terms:?}");
            assert_eq!(
                view.next_option,
                oracle.next_option(&snapshot.catalog),
                "{terms:?}: proposed options diverged after step {step}"
            );
        }
        assert!(service.close_session(view.id));
    }
}

#[test]
fn session_identical_imdb() {
    let (snap, queries) = imdb_log();
    assert_session_identical(snap, &queries);
}

#[test]
fn session_identical_lyrics() {
    let (snap, queries) = lyrics_log();
    assert_session_identical(snap, &queries);
}

#[test]
fn session_identical_freebase() {
    let (snap, queries) = freebase_log();
    assert_session_identical(snap, &queries);
}

#[test]
fn session_identical_yago() {
    let (snap, queries) = yago_log();
    assert_session_identical(snap, &queries);
}

// --- concurrent stress: sessions pinned across epoch swaps ---------------

/// Eight clients hammer a service with all three request modes while a
/// writer swaps epochs mid-replay. Sessions opened at epoch 0 must keep
/// producing epoch-0 window answers throughout; every racing diversified
/// reply must match the cold oracle of *exactly* the epoch it reports; and
/// sessions opened after the last swap must pin the final epoch.
#[test]
fn stress_sessions_pinned_across_epoch_swaps() {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let w = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 123,
            n_queries: 6,
            mc_fraction: 0.5,
        },
    );
    let queries: Vec<Vec<String>> = w.queries.iter().map(|q| q.keywords.clone()).collect();
    let plan = holdout_plan(
        &data.db,
        IngestConfig {
            seed: 77,
            holdout: 0.25,
            batches: 3,
        },
    );
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();

    // One cold snapshot per epoch: preload + batches[..e].
    let snapshot_for = |db: &keybridge::relstore::Database| -> Arc<SearchSnapshot> {
        Arc::new(SearchSnapshot::new(
            db.clone(),
            InvertedIndex::build(db),
            catalog.clone(),
            InterpreterConfig::default(),
        ))
    };
    let mut oracle_db = plan.initial.clone();
    let mut epoch_snapshots: Vec<Arc<SearchSnapshot>> = vec![snapshot_for(&oracle_db)];
    for batch in &plan.batches {
        oracle_db.insert_batch(batch).unwrap();
        epoch_snapshots.push(snapshot_for(&oracle_db));
    }
    // Per-epoch diversified oracles, and epoch-0 session-window oracles.
    let div_oracles: Vec<Vec<(usize, String)>> = epoch_snapshots
        .iter()
        .map(|snap| queries.iter().map(|t| div_oracle(snap, t)).collect())
        .collect();
    let session_oracles: Vec<String> = queries
        .iter()
        .map(|terms| {
            let q = KeywordQuery::from_terms(terms.clone());
            let interpreter = epoch_snapshots[0].interpreter();
            let oracle =
                ConstructionSession::for_query(&interpreter, &q, WINDOW, SessionConfig::default());
            canon_window(&oracle.window_answers(
                &epoch_snapshots[0].db,
                &epoch_snapshots[0].index,
                &epoch_snapshots[0].catalog,
                WLIMIT,
            ))
        })
        .collect();

    let service = Arc::new(SearchService::start(Arc::clone(&epoch_snapshots[0]), 4));
    // Pin one session per query at epoch 0, before any swap.
    let sessions: Vec<SessionView> = queries
        .iter()
        .map(|terms| {
            service.open_session(
                &KeywordQuery::from_terms(terms.clone()),
                WINDOW,
                SessionConfig::default(),
            )
        })
        .collect();
    for s in &sessions {
        assert_eq!(s.epoch.0, 0);
    }

    std::thread::scope(|scope| {
        for c in 0..8usize {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            let sessions = &sessions;
            let div_oracles = &div_oracles;
            let session_oracles = &session_oracles;
            scope.spawn(move || {
                for pass in 0..2 {
                    for i in 0..queries.len() {
                        let j = if c % 2 == 0 {
                            (i + c) % queries.len()
                        } else {
                            (queries.len() - 1 + c - i) % queries.len()
                        };
                        let q = KeywordQuery::from_terms(queries[j].clone());
                        match (c + i) % 3 {
                            0 => {
                                // Plain search: epoch-tagged, warms caches.
                                let reply = service.search(&q, 5);
                                assert!((reply.epoch.0 as usize) < div_oracles.len());
                            }
                            1 => {
                                let reply = diversified(&service, &q);
                                let e = reply.epoch.0 as usize;
                                assert!(e < div_oracles.len(), "impossible epoch {e}");
                                assert_eq!(
                                    reply.pool, div_oracles[e][j].0,
                                    "pass {pass} client {c}: pool diverged at epoch {e}"
                                );
                                assert_eq!(
                                    canon_div(&reply),
                                    div_oracles[e][j].1,
                                    "pass {pass} client {c}: {:?} does not match its \
                                     epoch-{e} oracle — cross-epoch state leaked",
                                    queries[j]
                                );
                            }
                            _ => {
                                // The pinned session must answer from epoch
                                // 0 no matter how many swaps have landed.
                                let got = service
                                    .session_answers(sessions[j].id, WLIMIT)
                                    .expect("session open");
                                assert_eq!(got.epoch.0, 0, "session lost its pin");
                                assert_eq!(
                                    canon_window(&got.answers),
                                    session_oracles[j],
                                    "pass {pass} client {c}: pinned session {:?} \
                                     drifted off its epoch-0 answers",
                                    queries[j]
                                );
                            }
                        }
                    }
                }
            });
        }
        // The writer: swap epochs mid-replay.
        let writer = Arc::clone(&service);
        let batches = plan.batches.clone();
        scope.spawn(move || {
            for batch in &batches {
                std::thread::sleep(std::time::Duration::from_millis(3));
                writer.ingest(batch).unwrap();
            }
        });
    });

    let final_epoch = plan.batches.len();
    assert_eq!(service.current_epoch().0 as usize, final_epoch);
    // Settled: diversified requests serve the final epoch byte-identically…
    for (j, terms) in queries.iter().enumerate() {
        let reply = diversified(&service, &KeywordQuery::from_terms(terms.clone()));
        assert_eq!(reply.epoch.0 as usize, final_epoch);
        assert_eq!(canon_div(&reply), div_oracles[final_epoch][j].1);
    }
    // …the old sessions still answer from epoch 0…
    for (j, s) in sessions.iter().enumerate() {
        let got = service.session_answers(s.id, WLIMIT).expect("open");
        assert_eq!(got.epoch.0, 0);
        assert_eq!(canon_window(&got.answers), session_oracles[j]);
    }
    // …and a fresh session pins the final epoch, matching its cold oracle.
    let q = KeywordQuery::from_terms(queries[0].clone());
    let fresh = service.open_session(&q, WINDOW, SessionConfig::default());
    assert_eq!(fresh.epoch.0 as usize, final_epoch);
    let snap = &epoch_snapshots[final_epoch];
    let interpreter = snap.interpreter();
    let oracle = ConstructionSession::for_query(&interpreter, &q, WINDOW, SessionConfig::default());
    assert_eq!(fresh.remaining, oracle.remaining().len());
    let got = service.session_answers(fresh.id, WLIMIT).expect("open");
    assert_eq!(
        canon_window(&got.answers),
        canon_window(&oracle.window_answers(&snap.db, &snap.index, &snap.catalog, WLIMIT))
    );
    let stats = service.stats();
    assert_eq!(stats.epoch_swaps, plan.batches.len());
    assert!(stats.sessions_open >= queries.len());
}
