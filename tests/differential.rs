//! Differential execution tests: the batched hash-join executor must return
//! exactly the same results as the retained naive nested-loop oracle
//! (`execute_join_tree_naive`), on randomized schemas, instances, candidate
//! sets, and interpretations — including the two-predicates-on-one-node
//! intersection path and empty-candidate edge cases.
//!
//! Every property runs over `SEEDS` (≥ 3 distinct seeds; CI gates on this
//! suite). Failures reproduce by seed.

mod common;

use common::oracle_answers;
use keybridge::core::{
    execute_interpretation, execute_interpretation_naive, BindingTarget, Interpreter,
    InterpreterConfig, KeywordBinding, KeywordQuery, ProbabilityConfig, QueryInterpretation,
    TemplateCatalog,
};
use keybridge::index::InvertedIndex;
use keybridge::relstore::{
    execute_join_tree_naive, execute_join_tree_with_stats_in, BatchArena, Candidates, Database,
    ExecOptions, JoinTree, JoinTreeEdge, JoinedRow, RowId, SchemaBuilder, TableKind, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The differential suite's seed set — at least 3 distinct seeds, per the
/// CI gate.
const SEEDS: [u64; 4] = [11, 23, 47, 91];

/// A random three-table movie-ish schema with skewed, ambiguous text —
/// the same family `tests/properties.rs` uses for the generation oracle.
fn random_db(rng: &mut StdRng) -> Database {
    let mut b = SchemaBuilder::new();
    b.table("actor", TableKind::Entity)
        .pk("id")
        .text_attr("name");
    b.table("movie", TableKind::Entity)
        .pk("id")
        .text_attr("title");
    b.table("acts", TableKind::Relation)
        .pk("id")
        .int_attr("actor_id")
        .int_attr("movie_id");
    b.foreign_key("acts", "actor_id", "actor").unwrap();
    b.foreign_key("acts", "movie_id", "movie").unwrap();
    let mut db = Database::new(b.finish().unwrap());
    let actor = db.schema().table_id("actor").unwrap();
    let movie = db.schema().table_id("movie").unwrap();
    let acts = db.schema().table_id("acts").unwrap();
    const VOCAB: &[&str] = &["tom", "meg", "stone", "london", "terminal", "guest", "fire"];
    let n_actor = rng.gen_range(2..8usize);
    let n_movie = rng.gen_range(2..8usize);
    for i in 0..n_actor {
        let name = format!(
            "{} {}",
            VOCAB[rng.gen_range(0..VOCAB.len())],
            VOCAB[rng.gen_range(0..VOCAB.len())]
        );
        db.insert(actor, vec![Value::Int(i as i64), Value::text(name)])
            .unwrap();
    }
    for i in 0..n_movie {
        let words = rng.gen_range(1..=2usize);
        let title = (0..words)
            .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())])
            .collect::<Vec<_>>()
            .join(" ");
        db.insert(movie, vec![Value::Int(i as i64), Value::text(title)])
            .unwrap();
    }
    for i in 0..rng.gen_range(0..12usize) {
        // Occasionally a null fk, exercising the null-join edge case.
        let a = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(0..n_actor as i64))
        };
        db.insert(
            acts,
            vec![
                Value::Int(i as i64),
                a,
                Value::Int(rng.gen_range(0..n_movie as i64)),
            ],
        )
        .unwrap();
    }
    db
}

/// The join-tree shapes the differential suite exercises: single node, the
/// 3-node path, and the 5-node self-join.
fn trees(db: &Database) -> Vec<JoinTree> {
    let s = db.schema();
    let actor = s.table_id("actor").unwrap();
    let movie = s.table_id("movie").unwrap();
    let acts = s.table_id("acts").unwrap();
    let fk_actor = s.fks().find(|(_, f)| f.to.table == actor).unwrap().0;
    let fk_movie = s.fks().find(|(_, f)| f.to.table == movie).unwrap().0;
    vec![
        JoinTree::single(movie),
        JoinTree {
            nodes: vec![actor, acts, movie],
            edges: vec![
                JoinTreeEdge {
                    a: 1,
                    b: 0,
                    fk: fk_actor,
                },
                JoinTreeEdge {
                    a: 1,
                    b: 2,
                    fk: fk_movie,
                },
            ],
        },
        JoinTree {
            nodes: vec![actor, acts, movie, acts, actor],
            edges: vec![
                JoinTreeEdge {
                    a: 1,
                    b: 0,
                    fk: fk_actor,
                },
                JoinTreeEdge {
                    a: 1,
                    b: 2,
                    fk: fk_movie,
                },
                JoinTreeEdge {
                    a: 3,
                    b: 2,
                    fk: fk_movie,
                },
                JoinTreeEdge {
                    a: 3,
                    b: 4,
                    fk: fk_actor,
                },
            ],
        },
    ]
}

/// Random per-node candidates: free, a random sorted subset, or (sometimes)
/// explicitly empty.
fn random_candidates(rng: &mut StdRng, db: &Database, tree: &JoinTree) -> Candidates {
    let mut c = Candidates::free(tree.nodes.len());
    for i in 0..tree.nodes.len() {
        let roll: f64 = rng.gen();
        if roll < 0.45 {
            continue; // free node
        }
        let len = db.table(tree.nodes[i]).len();
        let rows: Vec<RowId> = if roll < 0.55 || len == 0 {
            Vec::new() // empty candidate set
        } else {
            (0..len as u32)
                .filter(|_| rng.gen_bool(0.5))
                .map(RowId)
                .collect()
        };
        c = c.restrict(i, rows);
    }
    c
}

fn sorted(mut rows: Vec<JoinedRow>) -> Vec<JoinedRow> {
    rows.sort();
    rows
}

/// No limit: both executors enumerate their full result.
fn opts() -> ExecOptions {
    ExecOptions {
        limit: usize::MAX,
        ..Default::default()
    }
}

#[test]
fn join_tree_execution_matches_naive_oracle() {
    let mut total_hj_intermediates = 0usize;
    let mut total_nv_intermediates = 0usize;
    let mut nonempty_cases = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..20 {
            let db = random_db(&mut rng);
            for (ti, tree) in trees(&db).iter().enumerate() {
                let cands = random_candidates(&mut rng, &db, tree);
                let note = format!("seed {seed} case {case} tree {ti}");
                let hj = execute_join_tree_with_stats_in(
                    &db,
                    tree,
                    &cands,
                    opts(),
                    &mut BatchArena::new(),
                )
                .unwrap_or_else(|e| panic!("{note}: hash join failed: {e}"));
                let nv = execute_join_tree_naive(&db, tree, &cands, opts())
                    .unwrap_or_else(|e| panic!("{note}: naive failed: {e}"));
                assert_eq!(
                    sorted(hj.rows.clone()),
                    sorted(nv.rows.clone()),
                    "{note}: result multisets differ"
                );
                assert_eq!(hj.stats.result_count, nv.stats.result_count, "{note}");
                if !hj.rows.is_empty() {
                    nonempty_cases += 1;
                }
                total_hj_intermediates += hj.stats.intermediate_bindings;
                total_nv_intermediates += nv.stats.intermediate_bindings;

                // limit caps results and the result set stays a subset.
                let limited = execute_join_tree_with_stats_in(
                    &db,
                    tree,
                    &cands,
                    ExecOptions {
                        limit: 2,
                        ..Default::default()
                    },
                    &mut BatchArena::new(),
                )
                .unwrap();
                assert!(limited.rows.len() <= 2, "{note}: limit violated");
                assert_eq!(
                    limited.rows.len(),
                    hj.rows.len().min(2),
                    "{note}: limit under-delivered"
                );
                let all = sorted(hj.rows);
                for r in &limited.rows {
                    assert!(
                        all.binary_search(r).is_ok(),
                        "{note}: limited row not in full result"
                    );
                }
            }
        }
    }
    assert!(
        nonempty_cases >= 30,
        "corpus too degenerate: {nonempty_cases}"
    );
    // The batched executor's whole point: across the corpus it materializes
    // no more intermediate bindings than the naive oracle.
    assert!(
        total_hj_intermediates <= total_nv_intermediates,
        "hash join materialized more bindings overall: {total_hj_intermediates} vs {total_nv_intermediates}"
    );
}

/// A random 1–4 keyword query over the vocabulary.
fn random_query(rng: &mut StdRng) -> KeywordQuery {
    const POOL: &[&str] = &[
        "tom", "meg", "stone", "london", "terminal", "guest", "fire", "actor", "movie", "title",
        "name", "zzzz",
    ];
    let n = rng.gen_range(1..=4usize);
    KeywordQuery::from_terms(
        (0..n)
            .map(|_| POOL[rng.gen_range(0..POOL.len())].to_owned())
            .collect(),
    )
}

#[test]
fn interpretation_execution_matches_naive_oracle() {
    let mut executed = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919));
        for case in 0..12 {
            let db = random_db(&mut rng);
            let index = InvertedIndex::build(&db);
            let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
            let config = InterpreterConfig {
                prob: ProbabilityConfig {
                    unmapped_prob: 1e-4,
                    ..Default::default()
                },
                ..Default::default()
            };
            let interp = Interpreter::new(&db, &index, &catalog, config);
            let query = random_query(&mut rng);
            let note = format!("seed {seed} case {case} query \"{query}\"");
            for qi in interp.enumerate_interpretations(&query).iter().take(40) {
                let hj = execute_interpretation(&db, &index, &catalog, qi, opts()).unwrap();
                let nv = execute_interpretation_naive(&db, &index, &catalog, qi, opts()).unwrap();
                assert_eq!(
                    sorted(hj.jtts.clone()),
                    sorted(nv.jtts.clone()),
                    "{note}: JTT multisets differ for {qi:?}"
                );
                assert_eq!(hj.keys, nv.keys, "{note}: ResultKey sets differ");
                assert_eq!(hj.all_keys, nv.all_keys, "{note}: all_keys differ");
                executed += 1;
            }
        }
    }
    assert!(
        executed >= 100,
        "too few interpretations executed: {executed}"
    );
}

/// The two-predicates-on-one-node intersection path: separate keyword bags
/// bound to the same node must intersect identically under both executors,
/// including empty intersections.
#[test]
fn same_node_intersection_matches_oracle() {
    const VOCAB: &[&str] = &["tom", "meg", "stone", "london", "terminal", "guest", "fire"];
    let mut checked = 0usize;
    let mut nonempty = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(104729));
        for _case in 0..10 {
            let db = random_db(&mut rng);
            let index = InvertedIndex::build(&db);
            let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
            let actor = db.schema().table_id("actor").unwrap();
            let name = db.schema().resolve("actor", "name").unwrap().attr;
            let kw_a = VOCAB[rng.gen_range(0..VOCAB.len())].to_owned();
            let kw_b = VOCAB[rng.gen_range(0..VOCAB.len())].to_owned();
            for tpl in catalog.iter() {
                let Some(&node) = tpl.nodes_of_table(actor).first() else {
                    continue;
                };
                if tpl.tree.nodes.len() > 3 {
                    continue;
                }
                let qi = QueryInterpretation::new(
                    tpl.id,
                    vec![
                        KeywordBinding {
                            keywords: vec![kw_a.clone()],
                            target: BindingTarget::Value { node, attr: name },
                        },
                        KeywordBinding {
                            keywords: vec![kw_b.clone()],
                            target: BindingTarget::Value { node, attr: name },
                        },
                    ],
                );
                let hj = execute_interpretation(&db, &index, &catalog, &qi, opts()).unwrap();
                let nv = execute_interpretation_naive(&db, &index, &catalog, &qi, opts()).unwrap();
                assert_eq!(
                    sorted(hj.jtts.clone()),
                    sorted(nv.jtts),
                    "seed {seed} {kw_a}+{kw_b} on template {:?}",
                    tpl.id
                );
                assert_eq!(hj.keys, nv.keys);
                checked += 1;
                if !hj.jtts.is_empty() {
                    nonempty += 1;
                }
            }
        }
    }
    assert!(checked >= 50, "too few intersection cases: {checked}");
    assert!(nonempty >= 5, "intersection corpus degenerate: {nonempty}");
}

/// End-to-end: best-first generation + hash-join execution equals
/// exhaustive generation + naive execution — the full pipeline differential.
#[test]
fn answers_pipeline_matches_exhaustive_naive_oracle() {
    let mut nonempty_cases = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31337));
        for case in 0..8 {
            let db = random_db(&mut rng);
            let index = InvertedIndex::build(&db);
            let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
            let config = InterpreterConfig {
                prob: ProbabilityConfig {
                    unmapped_prob: 1e-4,
                    ..Default::default()
                },
                ..Default::default()
            };
            let fast = Interpreter::new(&db, &index, &catalog, config);
            let query = random_query(&mut rng);
            let note = format!("seed {seed} case {case} query \"{query}\"");
            for k in [1, 4, 10] {
                let a = fast.answers_top_k(&query, k);
                let b = oracle_answers(&fast, &query, k);
                assert_eq!(a.len(), b.len(), "{note} k={k}: answer count");
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        x.interpretation, y.interpretation,
                        "{note} k={k}: interpretation at answer {i}"
                    );
                    assert!(
                        (x.log_score - y.log_score).abs() < 1e-12,
                        "{note} k={k}: score at answer {i}"
                    );
                }
                // JTT order within one interpretation is executor-defined;
                // compare key multisets.
                let mut ka: Vec<_> = a.iter().map(|x| x.keys.clone()).collect();
                let mut kb: Vec<_> = b.iter().map(|x| x.keys.clone()).collect();
                ka.sort();
                kb.sort();
                assert_eq!(ka, kb, "{note} k={k}: answer key multisets");
                if !a.is_empty() {
                    nonempty_cases += 1;
                }
            }
        }
    }
    assert!(
        nonempty_cases >= 12,
        "corpus too degenerate: {nonempty_cases}"
    );
}
