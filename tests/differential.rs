//! Differential execution tests: the batched hash-join executor must return
//! exactly the same results as the retained naive nested-loop oracle
//! (`execute_join_tree_naive`), on randomized schemas, instances, candidate
//! sets, and interpretations — including the two-predicates-on-one-node
//! intersection path and empty-candidate edge cases. The semi-join reducer
//! is held, node by node, to the rows of an unlimited naive execution, and
//! the foreign-key parent column it runs on to the pk index it caches.
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
use keybridge::datagen::{ImdbConfig, ImdbDataset, Workload, WorkloadConfig};
use keybridge::index::InvertedIndex;
use keybridge::relstore::{
    assign_shards, execute_join_tree_naive, execute_join_tree_with_stats_in, reduce_join_tree,
    split_database, AttrRef, BatchArena, Candidates, Database, ExecOptions, JoinTree, JoinTreeEdge,
    JoinedRow, RelError, RowBatch, RowId, SchemaBuilder, TableId, TableKind, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

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

/// The `max_intermediate` guard refuses with its own variant on both
/// executors: the tree it refuses is well formed.
#[test]
fn intermediate_limit_is_typed_on_both_executors() {
    let mut refused = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(65537));
        for case in 0..5 {
            let db = random_db(&mut rng);
            let tree = &trees(&db)[1];
            let cands = Candidates::free(tree.nodes.len());
            let full = execute_join_tree_naive(&db, tree, &cands, opts()).unwrap();
            if full.rows.len() < 2 {
                continue; // nothing for a one-binding budget to refuse
            }
            let tight = ExecOptions {
                limit: usize::MAX,
                max_intermediate: 1,
            };
            let hj =
                execute_join_tree_with_stats_in(&db, tree, &cands, tight, &mut BatchArena::new());
            let nv = execute_join_tree_naive(&db, tree, &cands, tight);
            let want = RelError::IntermediateLimitExceeded { limit: 1 };
            assert_eq!(hj.unwrap_err(), want, "seed {seed} case {case}: hash join");
            assert_eq!(nv.unwrap_err(), want, "seed {seed} case {case}: naive");
            refused += 1;
        }
    }
    assert!(refused >= 8, "corpus too degenerate: {refused}");
}

/// Fisher–Yates over the suite's rng.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// dept <- emp (-> emp, its manager) <- proj.lead, and assign -> emp, proj.
/// A self-referencing foreign key, a table with two parents, null fk cells;
/// with `dangling`, also a few keys no row answers to. `scale` multiplies
/// the row counts: past a few dozen parent rows a small candidate list makes
/// the reducer gather a free child table instead of scanning its column.
fn company_rows(rng: &mut StdRng, dangling: bool, scale: i64) -> (Database, RowBatch) {
    let mut b = SchemaBuilder::new();
    b.table("dept", TableKind::Entity)
        .pk("id")
        .text_attr("name");
    b.table("emp", TableKind::Entity)
        .pk("id")
        .text_attr("name")
        .int_attr("dept_id")
        .int_attr("manager_id");
    b.table("proj", TableKind::Entity)
        .pk("id")
        .text_attr("title")
        .int_attr("lead_id");
    b.table("assign", TableKind::Relation)
        .pk("id")
        .int_attr("emp_id")
        .int_attr("proj_id");
    b.foreign_key("emp", "dept_id", "dept").unwrap();
    b.foreign_key("emp", "manager_id", "emp").unwrap();
    b.foreign_key("proj", "lead_id", "emp").unwrap();
    b.foreign_key("assign", "emp_id", "emp").unwrap();
    b.foreign_key("assign", "proj_id", "proj").unwrap();
    let db = Database::new(b.finish().unwrap());
    let table = |name: &str| db.schema().table_id(name).unwrap();
    let (n_dept, n_emp, n_proj) = (
        scale * rng.gen_range(1..4i64),
        scale * rng.gen_range(2..9i64),
        scale * rng.gen_range(1..6i64),
    );
    // A key into a table of `n` rows (pks are 10 * position, so row ids and
    // keys never coincide); sometimes null, rarely one that matches nothing.
    let key = |rng: &mut StdRng, n: i64| {
        if rng.gen_bool(0.15) {
            Value::Null
        } else if dangling && rng.gen_bool(0.05) {
            Value::Int(7)
        } else {
            Value::Int(10 * rng.gen_range(0..n))
        }
    };
    let mut rows: RowBatch = Vec::new();
    for i in 0..n_dept {
        rows.push((
            table("dept"),
            vec![Value::Int(10 * i), Value::text(format!("d{i}"))],
        ));
    }
    for i in 0..n_emp {
        let row = vec![
            Value::Int(10 * i),
            Value::text(format!("e{i}")),
            key(rng, n_dept),
            key(rng, n_emp),
        ];
        rows.push((table("emp"), row));
    }
    for i in 0..n_proj {
        let row = vec![
            Value::Int(10 * i),
            Value::text(format!("p{i}")),
            key(rng, n_emp),
        ];
        rows.push((table("proj"), row));
    }
    for i in 0..scale * rng.gen_range(0..14i64) {
        let row = vec![Value::Int(10 * i), key(rng, n_emp), key(rng, n_proj)];
        rows.push((table("assign"), row));
    }
    // Loaders insert in arbitrary order: children before their parents.
    shuffle(rng, &mut rows);
    (db, rows)
}

fn company_db(rng: &mut StdRng, dangling: bool, scale: i64) -> Database {
    let (mut db, rows) = company_rows(rng, dangling, scale);
    for (table, row) in rows {
        db.insert(table, row).unwrap();
    }
    db
}

/// A random join tree of up to five nodes over `db`'s schema graph. Edge
/// endpoints come in either order; on the self-referencing key that order
/// decides which node is the referencing one.
fn random_tree(rng: &mut StdRng, db: &Database) -> JoinTree {
    let s = db.schema();
    let mut tree = JoinTree::single(TableId(rng.gen_range(0..s.table_count() as u32)));
    for _ in 0..rng.gen_range(0..5usize) {
        let at = rng.gen_range(0..tree.nodes.len());
        let here = tree.nodes[at];
        let incident: Vec<_> = s
            .fks()
            .filter(|(_, fk)| fk.from.table == here || fk.to.table == here)
            .collect();
        let (fk, def) = incident[rng.gen_range(0..incident.len())];
        let other = if def.from.table == here && (def.to.table != here || rng.gen_bool(0.5)) {
            def.to.table
        } else {
            def.from.table
        };
        let new = tree.nodes.len();
        tree.nodes.push(other);
        let (a, b) = if rng.gen_bool(0.5) {
            (at, new)
        } else {
            (new, at)
        };
        tree.edges.push(JoinTreeEdge { a, b, fk });
    }
    tree.validate(db).unwrap();
    tree
}

/// Candidates the index would never produce: drawn with replacement, so
/// unsorted and with duplicates; sometimes empty; sometimes none at all.
/// `short` restricts fewer nodes and keeps every list to one or two rows.
fn messy_candidates(rng: &mut StdRng, db: &Database, tree: &JoinTree, short: bool) -> Candidates {
    let mut c = Candidates::free(tree.nodes.len());
    if rng.gen_bool(0.15) {
        return c; // the all-free tree
    }
    for i in 0..tree.nodes.len() {
        let roll: f64 = rng.gen();
        if roll < if short { 0.7 } else { 0.4 } {
            continue;
        }
        let len = db.table(tree.nodes[i]).len() as u32;
        let rows = if roll < if short { 0.72 } else { 0.48 } || len == 0 {
            Vec::new()
        } else {
            let most = if short || rng.gen_bool(0.5) {
                2
            } else {
                len + 2
            };
            (0..rng.gen_range(1..=most))
                .map(|_| RowId(rng.gen_range(0..len)))
                .collect()
        };
        c = c.restrict(i, rows);
    }
    c
}

/// The reducer against an oracle that shares nothing with it: a node's
/// reduced set must be exactly the rows bound at that node in some JTT of an
/// unlimited naive execution — given order and duplicates kept where the
/// node was restricted, ascending and distinct where it was free — and the
/// reduction counters must be the sums over those sets. Returns the JTTs.
fn assert_reduced_is_the_naive_projection(
    db: &Database,
    tree: &JoinTree,
    cands: &Candidates,
    note: &str,
) -> Vec<JoinedRow> {
    let unlimited = ExecOptions {
        limit: usize::MAX,
        max_intermediate: usize::MAX,
    };
    let jtts = execute_join_tree_naive(db, tree, cands, unlimited)
        .unwrap_or_else(|e| panic!("{note}: naive failed: {e}"))
        .rows;
    let reduced =
        reduce_join_tree(db, tree, cands).unwrap_or_else(|e| panic!("{note}: reducer failed: {e}"));
    let (mut rows_in, mut rows_out) = (0usize, 0usize);
    for (node, given) in cands.per_node.iter().enumerate() {
        let alive: BTreeSet<RowId> = jtts.iter().map(|jtt| jtt[node]).collect();
        let want: Vec<RowId> = match given {
            Some(rows) => rows.iter().copied().filter(|r| alive.contains(r)).collect(),
            None => alive.into_iter().collect(),
        };
        let given_len = given
            .as_ref()
            .map_or(db.table(tree.nodes[node]).len(), Vec::len);
        assert_eq!(reduced.sets[node], want, "{note}: node {node}");
        assert_eq!(reduced.given[node], given_len, "{note}: node {node}");
        rows_in += given_len;
        rows_out += want.len();
    }
    assert_eq!(reduced.stats.semijoin_rows_in, rows_in, "{note}");
    assert_eq!(reduced.stats.semijoin_rows_out, rows_out, "{note}");
    jtts
}

/// Random trees over the company schema under candidates the index would
/// never produce, then the executions of the tiny IMDB fixture's log queries
/// under the candidates the index does produce.
#[test]
fn reducer_sets_equal_the_rows_of_the_naive_join() {
    let (mut nonempty, mut all_free, mut self_joins) = (0usize, 0usize, 0usize);
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(2_654_435_761));
        for case in 0..120 {
            // Every third case: big tables under one- and two-row lists,
            // where free child tables are gathered, not scanned.
            let big = case % 3 == 1;
            let db = company_db(&mut rng, case % 3 == 0, if big { 24 } else { 1 });
            let tree = random_tree(&mut rng, &db);
            let cands = messy_candidates(&mut rng, &db, &tree, big);
            let note = format!("seed {seed} case {case}: {tree:?} {cands:?}");
            let jtts = assert_reduced_is_the_naive_projection(&db, &tree, &cands, &note);
            nonempty += usize::from(!jtts.is_empty());
            all_free += usize::from(cands.per_node.iter().all(Option::is_none));
            self_joins += usize::from(
                tree.edges
                    .iter()
                    .any(|e| tree.nodes[e.a] == tree.nodes[e.b]),
            );
        }
    }
    assert!(nonempty >= 120, "corpus too degenerate: {nonempty}");
    assert!(all_free >= 20, "too few all-free trees: {all_free}");
    assert!(self_joins >= 40, "too few self-joins: {self_joins}");

    // Executions the answers pipeline performs: the tiny IMDB fixture's
    // seeded log, each query's top interpretations with a value predicate,
    // under the candidates the index harvests for them. The executor is held
    // to the naive multiset as well.
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 3, 50_000).unwrap();
    let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
    let log = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 5,
            n_queries: 8,
            mc_fraction: 0.5,
        },
    );
    let unlimited = ExecOptions {
        limit: usize::MAX,
        max_intermediate: usize::MAX,
    };
    let (mut executions, mut nonempty) = (0usize, 0usize);
    for q in &log.queries {
        let query = KeywordQuery::from_terms(q.keywords.clone());
        for s in interpreter.top_k(&query, 10) {
            let interp = &s.interpretation;
            let tree = &catalog.get(interp.template).tree;
            let Some(cands) = harvested_candidates(&index, tree, interp) else {
                continue;
            };
            let note = format!("imdb \"{query}\": {interp:?}");
            let jtts = assert_reduced_is_the_naive_projection(&data.db, tree, &cands, &note);
            let rows = execute_join_tree_with_stats_in(
                &data.db,
                tree,
                &cands,
                unlimited,
                &mut BatchArena::new(),
            )
            .unwrap_or_else(|e| panic!("{note}: hash join failed: {e}"))
            .rows;
            nonempty += usize::from(!jtts.is_empty());
            assert_eq!(sorted(rows), sorted(jtts), "{note}: executor vs naive");
            executions += 1;
        }
    }
    assert!(executions >= 60, "imdb: only {executions} executions");
    assert!(nonempty >= 40, "imdb: only {nonempty} non-empty executions");
}

/// The candidates the answers pipeline harvests for `interp`: each value
/// binding's `rows_with_all`, intersected where two bind one node. `None`
/// when no binding is a value predicate.
fn harvested_candidates(
    index: &InvertedIndex,
    tree: &JoinTree,
    interp: &QueryInterpretation,
) -> Option<Candidates> {
    let mut cands = Candidates::free(tree.nodes.len());
    for b in &interp.bindings {
        let BindingTarget::Value { node, attr } = b.target else {
            continue;
        };
        let table = tree.nodes[node];
        let mut rows = index.rows_with_all(&b.keywords, AttrRef { table, attr });
        if let Some(prev) = &cands.per_node[node] {
            rows.retain(|r| prev.binary_search(r).is_ok());
        }
        cands = cands.restrict(node, rows);
    }
    cands.per_node.iter().any(Option::is_some).then_some(cands)
}

/// `n` distinct rows of a `len`-row table, ascending (fewer if the table is
/// smaller).
fn some_rows(rng: &mut StdRng, len: usize, n: usize) -> Vec<RowId> {
    let mut rows: Vec<RowId> = (0..len as u32).map(RowId).collect();
    shuffle(rng, &mut rows);
    rows.truncate(n);
    rows.sort_unstable();
    rows
}

/// The shapes the reducer's root and sibling order are chosen on, forced
/// rather than drawn: the root is the restricted node with the most given
/// rows, so each case pins where that node sits — either end of a chain
/// through two free nodes, an internal node, one of two tied nodes, the only
/// restricted node, nowhere (all free), and either endpoint of a
/// self-referencing key. The output may not depend on any of it.
#[test]
fn reducer_output_does_not_depend_on_where_the_largest_node_sits() {
    let mut nonempty = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003));
        // Small tables (free child tables scanned) and big ones (gathered).
        for scale in [1, 24] {
            let db = company_db(&mut rng, scale == 1, scale);
            let s = db.schema();
            let table = |name: &str| s.table_id(name).unwrap();
            let fk = |from: &str, attr: &str| {
                let attr = s.resolve(from, attr).unwrap();
                s.fks().find(|(_, f)| f.from == attr).unwrap().0
            };
            let edge = |a: usize, b: usize, fk| JoinTreeEdge { a, b, fk };
            // dept <- emp <- assign -> proj: a chain R - F - F - R when its
            // two ends are restricted.
            let chain = JoinTree {
                nodes: ["dept", "emp", "assign", "proj"].map(table).to_vec(),
                edges: vec![
                    edge(1, 0, fk("emp", "dept_id")),
                    edge(2, 1, fk("assign", "emp_id")),
                    edge(2, 3, fk("assign", "proj_id")),
                ],
            };
            let len = |tree: &JoinTree, node: usize| db.table(tree.nodes[node]).len();
            // One case: `restricted` lists the restricted nodes with the
            // length of each one's list.
            let mut check = |name: &str, tree: &JoinTree, restricted: &[(usize, usize)]| {
                tree.validate(&db).unwrap();
                let mut cands = Candidates::free(tree.nodes.len());
                for &(node, n) in restricted {
                    let rows = some_rows(&mut rng, len(tree, node), n);
                    cands = cands.restrict(node, rows);
                }
                let note = format!("seed {seed} scale {scale} {name}: {cands:?}");
                let jtts = assert_reduced_is_the_naive_projection(&db, tree, &cands, &note);
                nonempty += usize::from(!jtts.is_empty());
            };
            let (n_dept, n_emp, n_proj) = (len(&chain, 0), len(&chain, 1), len(&chain, 3));
            check("largest first", &chain, &[(0, n_dept), (3, 1)]);
            check("largest last", &chain, &[(0, 1), (3, n_proj)]);
            check("largest internal", &chain, &[(0, 1), (1, n_emp), (3, 2)]);
            check("tie", &chain, &[(0, 2), (1, 2), (3, 2)]);
            for node in 0..4 {
                check(&format!("only node {node}"), &chain, &[(node, 3)]);
            }
            check("all free", &chain, &[]);
            // emp -> emp (its manager), the referencing node first and second.
            for (a, b) in [(0, 1), (1, 0)] {
                let pair = JoinTree {
                    nodes: vec![table("emp"); 2],
                    edges: vec![edge(a, b, fk("emp", "manager_id"))],
                };
                let name = format!("self fk {a}->{b}");
                check(&name, &pair, &[(0, n_emp), (1, 2)]);
                check(&name, &pair, &[(0, 2), (1, n_emp)]);
            }
        }
    }
    assert!(nonempty >= 40, "corpus too degenerate: {nonempty}");
}

/// Every `fk_parent_row` of `db`, by foreign key and child row.
fn parent_column(db: &Database) -> Vec<Vec<Option<RowId>>> {
    db.schema()
        .fks()
        .map(|(id, fk)| {
            db.table(fk.from.table)
                .rows()
                .map(|(r, _)| db.fk_parent_row(id, r))
                .collect()
        })
        .collect()
}

/// The column's invariant: it is `by_pk` of the fk cell, cached.
fn assert_column_is_the_pk_index(db: &Database, note: &str) {
    for (id, fk) in db.schema().fks() {
        for (r, _) in db.table(fk.from.table).rows() {
            let by_pk = db
                .cell(fk.from.table, r, fk.from)
                .as_int()
                .and_then(|key| db.table(fk.to.table).by_pk(key));
            assert_eq!(
                db.fk_parent_row(id, r),
                by_pk,
                "{note}: fk {id:?} row {r:?}"
            );
        }
    }
}

/// The parent column is derived state with one write site; every way a
/// store comes to exist must leave it equal to the pk index it caches.
#[test]
fn fk_parent_column_tracks_the_pk_index() {
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(40_503));
        for case in 0..10 {
            let note = format!("seed {seed} case {case}");
            // (i) Row-at-a-time load in shuffled order, dangling keys included.
            let loose = company_db(&mut rng, true, 1);
            assert_column_is_the_pk_index(&loose, &note);
            let resolved = parent_column(&loose).iter().flatten().flatten().count();
            assert!(resolved > 0, "{note}: nothing resolved");

            // (ii) One batch that lists children before their in-batch parents.
            let (mut db, rows) = company_rows(&mut rng, false, 1);
            db.insert_batch(&rows).unwrap();
            db.validate().unwrap();
            assert_column_is_the_pk_index(&db, &note);

            // (iii) Snapshot round trip: the column is rebuilt, not stored.
            let decoded = Database::from_snapshot_bytes(&db.snapshot_bytes().unwrap()).unwrap();
            assert_column_is_the_pk_index(&decoded, &note);
            assert_eq!(parent_column(&decoded), parent_column(&db), "{note}");

            // (iv) Every shard of a split, in its local row ids.
            let split = split_database(&db, &assign_shards(&db, 3)).unwrap();
            for shard in &split.dbs {
                assert_column_is_the_pk_index(shard, &note);
            }

            // (v) A clone owns its column: a parent arriving on the clone
            // patches the clone's waiting children and nobody else's.
            let emp = db.schema().table_id("emp").unwrap();
            let orphan = vec![
                Value::Int(9001),
                Value::text("o"),
                Value::Null,
                Value::Int(9002),
            ];
            db.insert(emp, orphan).unwrap();
            let before = parent_column(&db);
            let mut fork = db.clone();
            let boss = vec![Value::Int(9002), Value::text("b"), Value::Null, Value::Null];
            let boss = fork.insert(emp, boss).unwrap();
            assert_column_is_the_pk_index(&fork, &note);
            assert_eq!(parent_column(&db), before, "{note}: original moved");
            let waiting = db.table(emp).by_pk(9001).unwrap();
            assert!(parent_column(&fork)
                .iter()
                .any(|col| col.get(waiting.index()) == Some(&Some(boss))));

            // A rejected batch writes nothing, the column included.
            let bad: RowBatch = vec![
                (
                    emp,
                    vec![Value::Int(9002), Value::text("b"), Value::Null, Value::Null],
                ),
                (
                    emp,
                    vec![
                        Value::Int(9003),
                        Value::text("c"),
                        Value::Int(-1),
                        Value::Null,
                    ],
                ),
            ];
            db.insert_batch(&bad).unwrap_err();
            assert_eq!(parent_column(&db), before, "{note}: rejected batch wrote");
        }
    }
}
