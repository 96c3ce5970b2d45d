//! Randomized property tests over the core invariants.
//!
//! Seeded random-case loops (the registry `proptest` crate is unavailable
//! in the offline build; the vendored `rand` drives case generation
//! deterministically, so failures reproduce by seed).

use keybridge::core::{
    BestFirstSource, DiversifyOptions, ExecCache, GenerationStats, InterpretationSource,
    Interpreter, InterpreterConfig, KeywordQuery, NonemptyCache, ProbabilityConfig,
    ProbabilityModel, QueryPipeline, ScoredInterpretation, SharedNonemptyCache, TemplateCatalog,
    TemplatePrior,
};
use keybridge::datagen::{
    FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, LyricsConfig, LyricsDataset,
    Workload, WorkloadConfig, YagoConfig, YagoOntology,
};
use keybridge::divq::{
    alpha_ndcg_w, diversify, jaccard, ws_recall, DivItem, DiversifyConfig, EvalItem,
};
use keybridge::index::{InvertedIndex, Tokenizer};
use keybridge::iqp::{brute_force_plan, greedy_plan, plan_cost, PlanProblem};
use keybridge::relstore::{
    AttrId, AttrRef, Database, ExecOptions, RowId, SchemaBuilder, TableId, TableKind, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Tokenizer and probability-normalization invariants.
// ---------------------------------------------------------------------------

/// A random string mixing letters, digits, punctuation, whitespace, and
/// non-ASCII — the `.{0,120}` strategy of the original proptest suite.
fn random_text(rng: &mut StdRng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'z', 'A', 'Q', '0', '7', ' ', ' ', '\t', '.', ',', '!', '-', '_', '\'', '"', '(',
        ')', 'é', 'ü', 'ß', '中', '✓', '\n',
    ];
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect()
}

#[test]
fn tokenizer_output_is_lowercase_alnum() {
    let mut rng = StdRng::seed_from_u64(101);
    let t = Tokenizer::keep_all();
    for _ in 0..200 {
        let input = random_text(&mut rng, 120);
        for tok in t.tokenize(&input) {
            assert!(!tok.is_empty());
            assert!(tok.chars().all(char::is_alphanumeric), "{tok}");
            assert_eq!(tok, tok.to_lowercase());
        }
    }
}

#[test]
fn tokenizer_idempotent_on_own_output() {
    let mut rng = StdRng::seed_from_u64(102);
    let t = Tokenizer::new();
    for _ in 0..200 {
        let input = random_text(&mut rng, 120);
        let once = t.tokenize(&input);
        let twice = t.tokenize(&once.join(" "));
        assert_eq!(once, twice, "input {input:?}");
    }
}

#[test]
fn normalize_is_distribution() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..100 {
        let n = rng.gen_range(1..40usize);
        let logs: Vec<f64> = (0..n).map(|_| rng.gen_range(-500.0..0.0)).collect();
        let probs = ProbabilityModel::normalize(&logs);
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for p in &probs {
            assert!((0.0..=1.0).contains(p));
        }
        // Order-preserving: higher log-score => no lower probability.
        for i in 0..n {
            for j in 0..n {
                if logs[i] > logs[j] {
                    assert!(probs[i] >= probs[j] - 1e-12);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Diversification and metric invariants.
// ---------------------------------------------------------------------------

fn random_atoms(rng: &mut StdRng) -> BTreeSet<keybridge::core::BindingAtom> {
    let n = rng.gen_range(0..6usize);
    (0..n)
        .map(|_| keybridge::core::BindingAtom {
            keyword: format!("k{}", rng.gen_range(0..5usize)),
            kind: keybridge::core::BindingAtomKind::Value,
            attr: AttrRef {
                table: TableId(rng.gen_range(0..6u32)),
                attr: AttrId(rng.gen_range(0..4u32)),
            },
        })
        .collect()
}

#[test]
fn jaccard_bounds_and_symmetry() {
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..200 {
        let a = random_atoms(&mut rng);
        let b = random_atoms(&mut rng);
        let s = jaccard(&a, &b);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(s, jaccard(&b, &a));
        assert_eq!(jaccard(&a, &a), 1.0);
    }
}

#[test]
fn diversify_is_permutation_prefix() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..100 {
        let n = rng.gen_range(1..20usize);
        let k = rng.gen_range(1..25usize);
        let mut items: Vec<DivItem> = (0..n)
            .map(|i| DivItem {
                relevance: rng.gen_range(0.001..1.0),
                atoms: std::sync::Arc::new(BTreeSet::from([keybridge::core::BindingAtom {
                    keyword: format!("k{}", i % 4),
                    kind: keybridge::core::BindingAtomKind::Value,
                    attr: AttrRef {
                        table: TableId((i % 5) as u32),
                        attr: AttrId(0),
                    },
                }])),
            })
            .collect();
        items.sort_by(|a, b| b.relevance.partial_cmp(&a.relevance).unwrap());
        let sel = diversify(&items, keybridge::divq::DiversifyConfig { lambda: 0.3, k });
        // Selection size, uniqueness, and range.
        assert_eq!(sel.len(), k.min(items.len()));
        let distinct: BTreeSet<_> = sel.iter().collect();
        assert_eq!(distinct.len(), sel.len());
        assert!(sel.iter().all(|&i| i < items.len()));
        // The most relevant item always leads.
        assert_eq!(sel[0], 0);
    }
}

/// Alg. 4.1 as it ran before the served kernel interned atoms: every
/// Jaccard coefficient is a walk of two `BTreeSet`s, recomputed for each
/// pair of the mean and for each (candidate, selected) pair at each greedy
/// step. Kept verbatim as the oracle the served `diversify` must equal
/// index for index; unlike `divq`'s test reference it groups every score
/// exactly as the served kernel does, so near-ties cannot part them.
fn per_pair_diversify(items: &[DivItem], cfg: DiversifyConfig) -> Vec<usize> {
    let n = items.len();
    if n == 0 || cfg.k == 0 {
        return Vec::new();
    }
    debug_assert!(
        items.windows(2).all(|w| w[0].relevance >= w[1].relevance),
        "items must be sorted by relevance descending"
    );

    // Normalization to equal means. Mean similarity is estimated over all
    // pairs of the candidate list (the population the selection draws from).
    let mean_rel = items.iter().map(|i| i.relevance).sum::<f64>() / n as f64;
    let mut sim_sum = 0.0;
    let mut sim_cnt = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            sim_sum += jaccard(&items[i].atoms, &items[j].atoms);
            sim_cnt += 1;
        }
    }
    let mean_sim = if sim_cnt > 0 {
        sim_sum / sim_cnt as f64
    } else {
        0.0
    };
    let rel_scale = if mean_rel > 0.0 { 1.0 / mean_rel } else { 1.0 };
    let sim_scale = if mean_sim > 0.0 { 1.0 / mean_sim } else { 1.0 };

    let lambda = cfg.lambda;
    let mut selected: Vec<usize> = vec![0]; // most relevant always first
    let mut available: Vec<usize> = (1..n).collect();

    while selected.len() < cfg.k.min(n) {
        let mut best_score = f64::NEG_INFINITY;
        let mut best_pos = 0usize;
        for (pos, &j) in available.iter().enumerate() {
            let rel = items[j].relevance * rel_scale;
            // Upper bound: diversity penalty is ≥ 0, so score(j) ≤ λ·rel(j).
            // `available` is relevance-sorted, so once the bound falls below
            // the incumbent nothing later can win.
            if best_score > lambda * rel {
                break;
            }
            let avg_sim = selected
                .iter()
                .map(|&s| jaccard(&items[s].atoms, &items[j].atoms))
                .sum::<f64>()
                / selected.len() as f64;
            let score = lambda * rel - (1.0 - lambda) * avg_sim * sim_scale;
            if score > best_score {
                best_score = score;
                best_pos = pos;
            }
        }
        let chosen = available.remove(best_pos);
        selected.push(chosen);
    }
    selected
}

/// An atom drawn from a universe of `tables × 4 attrs × 4 keywords` atoms.
fn universe_atom(rng: &mut StdRng, tables: u32) -> keybridge::core::BindingAtom {
    keybridge::core::BindingAtom {
        keyword: format!("w{}", rng.gen_range(0..4usize)),
        kind: keybridge::core::BindingAtomKind::Value,
        attr: AttrRef {
            table: TableId(rng.gen_range(0..tables)),
            attr: AttrId(rng.gen_range(0..4u32)),
        },
    }
}

/// Every selection size from 0 to past the pool, at three trade-offs.
fn assert_selection_is_the_oracles(items: &[DivItem], note: &str) {
    for lambda in [0.1, 0.5, 0.9] {
        for k in 0..=items.len() + 2 {
            let cfg = DiversifyConfig { lambda, k };
            assert_eq!(
                diversify(items, cfg),
                per_pair_diversify(items, cfg),
                "{note}: lambda {lambda}, k {k}"
            );
        }
    }
}

#[test]
fn interned_selection_equals_the_per_pair_walk_on_random_pools() {
    let mut rng = StdRng::seed_from_u64(106);
    let (mut multiword, mut empties, mut ties) = (0, 0, 0);
    for case in 0..300 {
        let n = rng.gen_range(1..30usize);
        // A small universe (one bitset word) or a large one (up to 8 words).
        let tables = if case % 2 == 0 { 2 } else { 32 };
        // Few distinct relevances force exact ties.
        let levels = rng.gen_range(1..5usize);
        let mut items: Vec<DivItem> = (0..n)
            .map(|_| {
                let atoms = match rng.gen_range(0..6usize) {
                    0 => BTreeSet::new(),
                    size => (0..size * 3)
                        .map(|_| universe_atom(&mut rng, tables))
                        .collect(),
                };
                DivItem {
                    relevance: rng.gen_range(1..=levels) as f64 / levels as f64,
                    atoms: Arc::new(atoms),
                }
            })
            .collect();
        items.sort_by(|a, b| b.relevance.partial_cmp(&a.relevance).unwrap());
        let distinct: BTreeSet<_> = items.iter().flat_map(|i| i.atoms.iter()).collect();
        multiword += usize::from(distinct.len() > 64);
        empties += usize::from(items.iter().filter(|i| i.atoms.is_empty()).count() > 1);
        ties += usize::from(items.windows(2).any(|w| w[0].relevance == w[1].relevance));
        assert_selection_is_the_oracles(&items, &format!("case {case}"));
    }
    // The cases reached what they are for.
    assert!(multiword > 50, "only {multiword} pools need several words");
    assert!(
        empties > 50,
        "only {empties} pools hold two empty atom sets"
    );
    assert!(ties > 50, "only {ties} pools hold an exact relevance tie");
}

#[test]
fn interned_selection_equals_the_per_pair_walk_on_fixture_pools() {
    let log = |seed| WorkloadConfig {
        seed,
        n_queries: 8,
        mc_fraction: 0.5,
    };
    let keywords = |w: Workload| -> Vec<Vec<String>> {
        w.queries.iter().map(|q| q.keywords.clone()).collect()
    };
    let freebase = |topics, rows_per_table, seed| {
        FreebaseDataset::generate(FreebaseConfig {
            domains: 6,
            types_per_domain: 4,
            topics,
            rows_per_table,
            seed,
            scale: 1.0,
        })
        .unwrap()
    };
    // First tokens of a table's leading rows, as single-keyword queries.
    let token_log = |db: &Database, table: TableId, n: usize| -> Vec<Vec<String>> {
        let tok = Tokenizer::new();
        (0..db.table(table).len() as u32)
            .filter_map(|i| {
                let text = db.table(table).row(RowId(i))[1].as_text().unwrap_or("");
                tok.tokenize(text).first().map(|t| vec![t.clone()])
            })
            .take(n)
            .collect()
    };
    let imdb = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let imdb_log = keywords(Workload::imdb(&imdb, log(123)));
    let lyrics = LyricsDataset::generate(LyricsConfig::tiny(7)).unwrap();
    let lyrics_log = keywords(Workload::lyrics(&lyrics, log(21)));
    let fb = freebase(300, 12, 5);
    let fb_log = token_log(&fb.db, fb.topic, 6);
    let yago_fb = freebase(400, 15, 31);
    let gold = YagoOntology::generate(YagoConfig::tiny(32), &yago_fb).gold[0].1;
    let yago_log = token_log(&yago_fb.db, gold, 5);
    let fixtures = [
        ("imdb", &imdb.db, imdb_log, 4),
        ("lyrics", &lyrics.db, lyrics_log, 4),
        ("freebase", &fb.db, fb_log, 2),
        ("yago", &yago_fb.db, yago_log, 2),
    ];
    let opts = DiversifyOptions::default();
    for (name, db, queries, max_joins) in fixtures {
        let index = InvertedIndex::build(db);
        let catalog = TemplateCatalog::enumerate(db, max_joins, 50_000).unwrap();
        let interp = Interpreter::new(db, &index, &catalog, InterpreterConfig::default());
        let mut largest = 0;
        for terms in queries {
            let query = KeywordQuery::from_terms(terms.clone());
            let ranked = interp.top_k(&query, opts.pool);
            let (mut gen_cache, mut exec_cache) = (NonemptyCache::new(), ExecCache::new());
            let pool = QueryPipeline::new(
                &interp,
                ExecOptions::default(),
                &mut gen_cache,
                &mut exec_cache,
            )
            .executed_pool(&ranked, opts.cap);
            largest = largest.max(pool.items.len());
            assert_selection_is_the_oracles(&pool.items, &format!("{name} {terms:?}"));
        }
        assert!(largest > 2, "{name}: no pool to select from");
    }
}

#[test]
fn metrics_bounded() {
    let mut rng = StdRng::seed_from_u64(106);
    for _ in 0..100 {
        let n = rng.gen_range(1..12usize);
        let pool: Vec<EvalItem> = (0..n)
            .map(|_| {
                let keys = (0..rng.gen_range(0..8usize))
                    .map(|_| keybridge::core::ResultKey {
                        table: TableId(0),
                        pk: rng.gen_range(0..30i64),
                    })
                    .collect();
                EvalItem {
                    relevance: rng.gen_range(0.0..1.0),
                    keys,
                }
            })
            .collect();
        for alpha in [0.0, 0.5, 0.99] {
            for v in alpha_ndcg_w(&pool, &pool, alpha, 10) {
                assert!((0.0..=1.0 + 1e-9).contains(&v), "ndcg {v}");
            }
        }
        let recall = ws_recall(&pool, &pool, 10);
        for w in recall.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "ws-recall not monotone");
        }
        assert!(recall.last().copied().unwrap_or(0.0) <= 1.0 + 1e-9);
    }
}

#[test]
fn greedy_plan_never_beats_optimal() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..64 {
        let m = rng.gen_range(4..12usize);
        let n = rng.gen_range(2..7usize);
        let seed = rng.gen_range(0..500u64);
        let p = PlanProblem::random(m, n, seed);
        let (bf_plan, bf) = brute_force_plan(&p);
        let (greedy_tree, gr) = greedy_plan(&p);
        assert!(gr + 1e-9 >= bf, "greedy {gr} < optimal {bf}");
        // Costs agree with the standalone evaluator.
        assert!((plan_cost(&p, &bf_plan) - bf).abs() < 1e-9);
        assert!((plan_cost(&p, &greedy_tree) - gr).abs() < 1e-9);
    }
}

#[test]
fn nary_round_trip_preserves_plans() {
    let mut rng = StdRng::seed_from_u64(108);
    for _ in 0..64 {
        let m = rng.gen_range(4..12usize);
        let n = rng.gen_range(2..6usize);
        let seed = rng.gen_range(0..200u64);
        let p = PlanProblem::random(m, n, seed);
        let (plan, cost) = greedy_plan(&p);
        let back = keybridge::iqp::to_binary(&keybridge::iqp::to_nary(&plan));
        assert_eq!(back, plan);
        assert!((plan_cost(&p, &back) - cost).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Engine- and statistics-level invariants.
// ---------------------------------------------------------------------------

fn tiny_db(names: &[String]) -> Database {
    let mut b = SchemaBuilder::new();
    b.table("t", TableKind::Entity).pk("id").text_attr("name");
    let mut db = Database::new(b.finish().expect("valid schema"));
    let t = db.schema().table_id("t").expect("declared");
    for (i, n) in names.iter().enumerate() {
        db.insert(t, vec![Value::Int(i as i64), Value::text(n.clone())])
            .expect("insert succeeds");
    }
    db
}

/// `count` random values of 1–3 tokens over a tiny alphabet (dense term
/// collisions, like the original `[a-d]{1,3}( [a-d]{1,3}){0,2}` strategy).
fn random_names(rng: &mut StdRng, count: usize, alphabet: &[&str]) -> Vec<String> {
    (0..count)
        .map(|_| {
            let words = rng.gen_range(1..=3usize);
            (0..words)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())].to_owned())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn pk_lookup_roundtrip() {
    let mut rng = StdRng::seed_from_u64(109);
    for _ in 0..32 {
        let count = rng.gen_range(1..30usize);
        let names = random_names(&mut rng, count, &["ab", "cd", "e f", "gh"]);
        let db = tiny_db(&names);
        let t = db.schema().table_id("t").unwrap();
        assert_eq!(db.table(t).len(), names.len());
        for (i, name) in names.iter().enumerate() {
            let row = db.table(t).by_pk(i as i64).expect("pk present");
            assert_eq!(db.pk_value(t, row), i as i64);
            assert_eq!(db.table(t).row(row)[1].as_text().unwrap(), name.as_str());
        }
        assert!(db.table(t).by_pk(names.len() as i64 + 7).is_none());
    }
}

#[test]
fn atf_is_probability_and_joint_bounded() {
    let mut rng = StdRng::seed_from_u64(110);
    for _ in 0..32 {
        let count = rng.gen_range(2..25usize);
        let names = random_names(&mut rng, count, &["a", "b", "c", "d", "ab", "cd"]);
        let db = tiny_db(&names);
        let idx = InvertedIndex::build(&db);
        let attr = db.schema().resolve("t", "name").unwrap();
        let stats = idx.attr_stats(attr);
        if stats.total_tokens == 0 {
            continue;
        }
        // ATF of every seen term lies in (0, 1] and joint ATF of any pair
        // never exceeds either marginal (co-occurrence is rarer than
        // occurrence, up to the shared smoothing term).
        let terms: Vec<String> = names
            .iter()
            .flat_map(|n| n.split(' ').map(str::to_owned))
            .take(12)
            .collect();
        for a in &terms {
            let atf = idx.atf(a, attr, 1.0);
            assert!(atf > 0.0 && atf <= 1.0, "atf {atf}");
            for b in &terms {
                if a == b {
                    continue;
                }
                let joint = idx.joint_atf(&[a.clone(), b.clone()], attr, 1.0);
                assert!(joint <= idx.atf(a, attr, 1.0) + 1e-12);
                assert!(joint <= idx.atf(b, attr, 1.0) + 1e-12);
            }
        }
    }
}

#[test]
fn rows_with_all_is_intersection() {
    let mut rng = StdRng::seed_from_u64(111);
    for _ in 0..32 {
        let count = rng.gen_range(2..20usize);
        let names = random_names(&mut rng, count, &["a", "b", "c", "ab", "ba"]);
        let db = tiny_db(&names);
        let idx = InvertedIndex::build(&db);
        let attr = db.schema().resolve("t", "name").unwrap();
        for a in ["a", "b", "ab"] {
            for b in ["c", "ba", "a"] {
                let both = idx.rows_with_all(&[a.to_owned(), b.to_owned()], attr);
                let only_a = idx.rows_with_all(&[a.to_owned()], attr);
                let only_b = idx.rows_with_all(&[b.to_owned()], attr);
                for r in &both {
                    assert!(only_a.contains(r) && only_b.contains(r));
                }
                assert!(both.len() <= only_a.len().min(only_b.len()));
                // The early-exit probe agrees with the full intersection.
                assert_eq!(
                    idx.has_row_with_all(&[a.to_owned(), b.to_owned()], attr),
                    !both.is_empty()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Best-first top-k equals the exhaustive oracle.
// ---------------------------------------------------------------------------

/// A random three-table movie-ish schema with skewed, ambiguous text and a
/// random row count — small enough to enumerate exhaustively, varied enough
/// to exercise joins, self-joins, schema-name bindings, and empty
/// predicates.
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
    // Tiny vocabulary: heavy term sharing between names and titles, which
    // is what makes interpretations ambiguous.
    const VOCAB: &[&str] = &["tom", "meg", "stone", "london", "terminal", "guest", "fire"];
    let n_actor = rng.gen_range(2..7usize);
    let n_movie = rng.gen_range(2..7usize);
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
    for i in 0..rng.gen_range(0..8usize) {
        db.insert(
            acts,
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..n_actor as i64)),
                Value::Int(rng.gen_range(0..n_movie as i64)),
            ],
        )
        .unwrap();
    }
    db
}

/// A random 1–4 keyword query over the vocabulary (occasionally a schema
/// word or an unknown token).
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

/// A random interpreter configuration covering every scoring mode.
fn random_config(rng: &mut StdRng) -> InterpreterConfig {
    let prob = ProbabilityConfig {
        alpha: if rng.gen_bool(0.5) { 1.0 } else { 0.25 },
        use_joint_atf: rng.gen_bool(0.7),
        unmapped_prob: if rng.gen_bool(0.5) { 1e-4 } else { 1e-8 },
        uniform_keywords: rng.gen_bool(0.15),
        ..Default::default()
    };
    let prior = if rng.gen_bool(0.3) {
        TemplatePrior::from_usage(vec![
            (vec!["actor".to_owned()], rng.gen_range(1..50usize)),
            (
                vec!["actor".to_owned(), "acts".to_owned(), "movie".to_owned()],
                rng.gen_range(1..50usize),
            ),
        ])
    } else {
        TemplatePrior::Uniform
    };
    InterpreterConfig {
        prob,
        prior,
        ..Default::default()
    }
}

fn assert_prefix_equal(
    got: &[ScoredInterpretation],
    oracle: &[ScoredInterpretation],
    k: usize,
    seed_note: &str,
) {
    assert_eq!(
        got.len(),
        oracle.len().min(k),
        "{seed_note}: top-{k} length ({} oracle candidates)",
        oracle.len()
    );
    for (rank, (g, w)) in got.iter().zip(oracle).enumerate() {
        assert_eq!(
            g.interpretation, w.interpretation,
            "{seed_note}: interpretation at rank {rank}"
        );
        assert!(
            (g.log_score - w.log_score).abs() < 1e-12,
            "{seed_note}: log-score at rank {rank}: {} vs {}",
            g.log_score,
            w.log_score
        );
    }
}

/// The tentpole property: on randomized schemas, data, queries, and scoring
/// configurations, `top_k(q, k)` equals the first `k` of the exhaustive
/// `ranked_with_partials` oracle — same interpretations, same scores, same
/// (tie-broken) order — and `top_k_complete` equals `ranked_interpretations`.
#[test]
fn top_k_equals_exhaustive_oracle() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut nonempty_cases = 0usize;
    for case in 0..60 {
        let db = random_db(&mut rng);
        let index = InvertedIndex::build(&db);
        let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
        let config = random_config(&mut rng);
        let interp = Interpreter::new(&db, &index, &catalog, config);
        let query = random_query(&mut rng);
        let note = format!("case {case} query \"{query}\"");

        let oracle_partials = interp.ranked_with_partials(&query);
        let oracle_complete = interp.ranked_interpretations(&query);
        if !oracle_partials.is_empty() {
            nonempty_cases += 1;
        }
        for k in [1, 2, 5, oracle_partials.len().max(1)] {
            let got = interp.top_k(&query, k);
            assert_prefix_equal(&got, &oracle_partials, k, &format!("{note} partials"));
            let got = interp.top_k_complete(&query, k);
            assert_prefix_equal(&got, &oracle_complete, k, &format!("{note} complete"));
        }
        // Tie-break determinism: two runs emit byte-identical rankings.
        let a = interp.top_k(&query, 7);
        let b = interp.top_k(&query, 7);
        assert_eq!(a.len(), b.len(), "{note}: nondeterministic length");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.interpretation, y.interpretation,
                "{note}: nondeterministic order"
            );
            assert_eq!(x.log_score, y.log_score, "{note}: nondeterministic score");
        }
    }
    assert!(
        nonempty_cases >= 30,
        "corpus too degenerate: only {nonempty_cases} non-empty cases"
    );
}

/// Both generation strategies — the best-first search and the exhaustive
/// reference, truncated to `k` and renormalized over the survivors — must
/// agree on content, scores, and probabilities.
#[test]
fn strategy_flag_agreement() {
    let mut rng = StdRng::seed_from_u64(7878);
    for case in 0..20 {
        let db = random_db(&mut rng);
        let index = InvertedIndex::build(&db);
        let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
        let config = random_config(&mut rng);
        let query = random_query(&mut rng);
        let best = Interpreter::new(&db, &index, &catalog, config);
        let a = best.top_k(&query, 6);
        let mut b = best.ranked_with_partials(&query);
        b.truncate(6);
        let logs: Vec<f64> = b.iter().map(|s| s.log_score).collect();
        for (s, p) in b.iter_mut().zip(ProbabilityModel::normalize(&logs)) {
            s.probability = p;
        }
        assert_eq!(a.len(), b.len(), "case {case}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.interpretation, y.interpretation, "case {case}");
            assert!((x.log_score - y.log_score).abs() < 1e-12, "case {case}");
            assert!((x.probability - y.probability).abs() < 1e-9, "case {case}");
        }
    }
}

/// Every field of two generation-counter records, for equality assertions.
fn counters(s: &GenerationStats) -> [usize; 8] {
    [
        s.materialized,
        s.expanded,
        s.pushed,
        s.pruned,
        s.nonempty_probes,
        s.nonempty_cache_hits,
        s.nonempty_shared_hits,
        s.emitted,
    ]
}

/// A resumed search is indistinguishable from a fresh one: one
/// `BestFirstSource` pulled at `k, 4k, 16k, …` up to and past the size of the
/// interpretation space returns at every step exactly what a fresh
/// `top_k_with_cache` at that `k` returns — interpretations, order, score
/// bits, probability bits — with the pulls' counters adding up to the fresh
/// call's, and both equal the exhaustive oracle's prefix. Randomized schemas
/// and scoring configurations, partials on and off, schema-name bindings,
/// repeated keywords, and interpretation caps small enough to be hit; then
/// the tiny IMDB fixture's seeded log pulled at 10 → 40 → 160.
#[test]
fn resumed_pulls_equal_fresh_top_k() {
    let mut multi_pull_cases = 0usize;
    let mut capped_cases = 0usize;
    for seed in [2024u64, 2025, 2026, 2027] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..30 {
            let db = random_db(&mut rng);
            let index = InvertedIndex::build(&db);
            let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
            let mut config = random_config(&mut rng);
            if case % 3 == 2 {
                config.max_interpretations = rng.gen_range(2..15usize);
            }
            let cap = config.max_interpretations;
            let interp = Interpreter::new(&db, &index, &catalog, config);
            let mut terms = random_query(&mut rng).terms().to_vec();
            if case % 4 == 1 {
                terms.push(terms[0].clone());
            }
            let query = KeywordQuery::from_terms(terms);
            for partials in [true, false] {
                let note = format!("seed {seed} case {case} query \"{query}\" partials {partials}");
                let oracle = if partials {
                    interp.ranked_with_partials(&query)
                } else {
                    interp.ranked_interpretations(&query)
                };
                // The oracle caps its candidate list in canonical order, the
                // search in rank order: comparable only below the cap.
                let oracle_is_whole = oracle.len() < cap;
                let mut source = BestFirstSource::new(&interp, &query, partials);
                let mut cache = NonemptyCache::new();
                let mut total = GenerationStats::default();
                let mut k = rng.gen_range(1..4usize);
                let mut pulls = 0usize;
                let mut previous = Vec::new();
                loop {
                    let (resumed, stats) = source.pull(k, &mut cache);
                    total.absorb(&stats);
                    pulls += 1;
                    assert_extends(&resumed, &previous, &format!("{note} k {k}"));
                    let (fresh, fresh_stats) =
                        interp.top_k_with_cache(&query, k, partials, &mut NonemptyCache::new());
                    assert_same_ranking(&resumed, &fresh, &format!("{note} k {k}"));
                    assert_eq!(
                        counters(&total),
                        counters(&fresh_stats),
                        "{note} k {k}: counters after {pulls} pulls"
                    );
                    if oracle_is_whole {
                        assert_prefix_equal(&resumed, &oracle, k, &format!("{note} k {k}"));
                    } else {
                        assert_eq!(resumed.len(), k.min(cap), "{note} k {k}: capped length");
                    }
                    if k > oracle.len().max(1) {
                        break;
                    }
                    previous = resumed;
                    k *= 4;
                }
                // The last pull went past the whole space: below the cap,
                // its search ran dry.
                assert_tier_serves(&interp, &query, partials, k, oracle_is_whole, &note);
                if pulls >= 3 && !oracle.is_empty() {
                    multi_pull_cases += 1;
                }
                if !oracle_is_whole {
                    capped_cases += 1;
                }
            }
        }
    }
    assert!(
        multi_pull_cases >= 40,
        "corpus too degenerate: {multi_pull_cases} cases resumed twice or more"
    );
    assert!(
        capped_cases >= 10,
        "the cap was hit in {capped_cases} cases"
    );

    // The tiny IMDB fixture's seeded log, pulled at the serving pipeline's
    // wave sizes: generated skew and template fan-out, not a random schema.
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
    let interp = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
    let log = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 5,
            n_queries: 12,
            mc_fraction: 0.5,
        },
    );
    // Per later wave: queries whose pull went past the previous wave's k.
    let mut extended = [0usize; 2];
    for q in &log.queries {
        let query = KeywordQuery::from_terms(q.keywords.clone());
        let mut source = BestFirstSource::new(&interp, &query, true);
        let mut cache = NonemptyCache::new();
        let mut total = GenerationStats::default();
        let mut previous = Vec::new();
        for (wave, k) in [10, 40, 160].into_iter().enumerate() {
            let (resumed, stats) = source.pull(k, &mut cache);
            total.absorb(&stats);
            assert_extends(&resumed, &previous, &format!("imdb \"{query}\" k {k}"));
            let (fresh, fresh_stats) =
                interp.top_k_with_cache(&query, k, true, &mut NonemptyCache::new());
            let note = format!("imdb \"{query}\" k {k}");
            assert_same_ranking(&resumed, &fresh, &note);
            assert_eq!(counters(&total), counters(&fresh_stats), "{note}: counters");
            if wave > 0 {
                extended[wave - 1] += usize::from(resumed.len() > k / 4);
            }
            previous = resumed;
        }
        let dry = previous.len() < 160;
        assert_tier_serves(
            &interp,
            &query,
            true,
            160,
            dry,
            &format!("imdb \"{query}\""),
        );
    }
    assert!(
        extended[0] >= 5 && extended[1] >= 1,
        "pulls past the previous wave at k 40, 160: {extended:?}"
    );
}

/// The shared tier's rankings answer a pull as a fresh search does. One
/// handle on a fresh tier, filled by a pull at `largest`, then pulled at
/// every smaller `k` and, when the search ran dry (`dry`), past the
/// ranking's length: each reply equals a fresh `top_k_with_cache` at its
/// `k` (interpretations, order, score and probability bits), and is served
/// without a search. A ranking from a dry search below the cap is always
/// admitted; one the cap stopped never is, and its pulls search again.
fn assert_tier_serves(
    interp: &Interpreter<'_>,
    query: &KeywordQuery,
    partials: bool,
    largest: usize,
    dry: bool,
    note: &str,
) {
    let shared = Arc::new(SharedNonemptyCache::new());
    let mut cache = NonemptyCache::with_shared(Arc::clone(&shared));
    interp.top_k_with_cache(query, largest, partials, &mut cache);
    let admitted = shared.ranking_count() == 1;
    assert!(admitted || !dry, "{note}: a dry ranking was not admitted");
    let beyond = if dry {
        vec![largest + 1, 4 * largest + 3]
    } else {
        Vec::new()
    };
    for k in (1..largest).chain(beyond) {
        let (served, stats) = interp.top_k_with_cache(query, k, partials, &mut cache);
        let (fresh, _) = interp.top_k_with_cache(query, k, partials, &mut NonemptyCache::new());
        let note = format!("{note} tier k {k}");
        assert_same_ranking(&served, &fresh, &note);
        if admitted {
            assert_eq!(
                (stats.expanded, stats.materialized, stats.emitted),
                (0, 0, served.len()),
                "{note}: searched"
            );
        }
    }
}

/// A larger pull starts with the previous pull's reply — same
/// interpretations, same score bits, same order — which is what lets the
/// serving pipeline's next wave walk only the entries past the previous
/// one. Probabilities are normalized per reply, so they may differ.
fn assert_extends(resumed: &[ScoredInterpretation], previous: &[ScoredInterpretation], note: &str) {
    assert!(resumed.len() >= previous.len(), "{note}: reply shrank");
    for (rank, (r, p)) in resumed.iter().zip(previous).enumerate() {
        assert_eq!(
            r.interpretation, p.interpretation,
            "{note}: interpretation at rank {rank} moved"
        );
        assert_eq!(
            r.log_score.to_bits(),
            p.log_score.to_bits(),
            "{note}: score bits at rank {rank} moved"
        );
    }
}

/// `resumed` is `fresh`, rank by rank: interpretation, score bits,
/// probability bits.
fn assert_same_ranking(
    resumed: &[ScoredInterpretation],
    fresh: &[ScoredInterpretation],
    note: &str,
) {
    assert_eq!(resumed.len(), fresh.len(), "{note}: length");
    for (rank, (r, f)) in resumed.iter().zip(fresh).enumerate() {
        assert_eq!(
            r.interpretation, f.interpretation,
            "{note}: interpretation at rank {rank}"
        );
        assert_eq!(
            r.log_score.to_bits(),
            f.log_score.to_bits(),
            "{note}: score bits at rank {rank}"
        );
        assert_eq!(
            r.probability.to_bits(),
            f.probability.to_bits(),
            "{note}: probability bits at rank {rank}"
        );
    }
}

/// A query longer than the search's inline assignment slots (8 keywords)
/// still equals the oracle, fresh and resumed: ten keywords over one table,
/// so every keyword subset is one interpretation (2^10 - 1 of them).
#[test]
fn long_queries_match_the_oracle_fresh_and_resumed() {
    let words: Vec<String> = (0..10).map(|i| format!("w{i}")).collect();
    let mut names = vec![words.join(" ")];
    // Skewed frequencies, so scores differ between subsets.
    for i in 0..10 {
        names.push(words[i..].join(" "));
    }
    let db = tiny_db(&names);
    let index = InvertedIndex::build(&db);
    let catalog = TemplateCatalog::enumerate(&db, 0, 10).unwrap();
    let config = InterpreterConfig {
        prob: ProbabilityConfig {
            unmapped_prob: 1e-4,
            ..Default::default()
        },
        ..Default::default()
    };
    let interp = Interpreter::new(&db, &index, &catalog, config);
    let mut terms = words.clone();
    terms.rotate_left(3);
    let query = KeywordQuery::from_terms(terms);
    let oracle = interp.ranked_with_partials(&query);
    assert_eq!(oracle.len(), (1 << 10) - 1);
    let mut source = BestFirstSource::new(&interp, &query, true);
    let mut cache = NonemptyCache::new();
    for k in [1, 7, 100, 2000] {
        let fresh = interp.top_k(&query, k);
        assert_prefix_equal(&fresh, &oracle, k, &format!("fresh k {k}"));
        let (resumed, _) = source.pull(k, &mut cache);
        assert_eq!(resumed.len(), fresh.len(), "resumed k {k}: length");
        for (r, f) in resumed.iter().zip(&fresh) {
            assert_eq!(r.interpretation, f.interpretation, "resumed k {k}");
            assert_eq!(r.log_score.to_bits(), f.log_score.to_bits(), "k {k}");
            assert_eq!(r.probability.to_bits(), f.probability.to_bits(), "k {k}");
        }
    }
}
