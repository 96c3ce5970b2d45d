//! Criterion microbenches over the pipeline's hot paths, including the
//! ablations DESIGN.md calls out: index construction, interpretation
//! generation, probabilistic vs SQAK scoring, greedy option selection,
//! diversification with and without the early-stop bound, join execution,
//! the lazy traversal, (`generate_waves`) what a generation wave costs
//! fresh against resumed, and (`exec_cold`) the cold execute path — predicate
//! decode, semi-join reduction, join — over the executions the answers
//! pipeline performs for 256 log queries on the x10 fixture. The
//! `generate_waves` group asserts resumed == fresh and memo score == oracle
//! score, and the `exec_cold` group asserts executor == naive reference,
//! reduced sets == the reference's projection and row-only decode ==
//! postings iterator, before they time anything, so the `-- --test` run CI
//! does is also a correctness pass.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use keybridge_core::{
    execute_interpretation, execute_interpretation_cached, sqak_score, BestFirstSource,
    BindingTarget, ExecCache, IncrementalScorer, InterpretationSource, Interpreter,
    InterpreterConfig, KeywordQuery, NonemptyCache, ProbabilityConfig, ProbabilityModel,
    ScoredInterpretation, TemplateCatalog, TemplatePrior,
};
use keybridge_datagen::{
    FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, Workload, WorkloadConfig,
};
use keybridge_divq::{diversify, DivItem, DiversifyConfig};
use keybridge_freeq::{LazyExplorer, TraversalConfig};
use keybridge_index::InvertedIndex;
use keybridge_iqp::{ConstructionSession, SessionConfig};
use keybridge_relstore::{
    execute_join_tree_naive, execute_join_tree_with_stats_in, execute_reduced_in, plan_join_order,
    reduce_join_tree, AttrRef, BatchArena, Candidates, ExecOptions, ExecStats, JoinTree, RowId,
};
use std::collections::{BTreeSet, HashSet};

fn bench_pipeline(c: &mut Criterion) {
    let data = ImdbDataset::generate(ImdbConfig::default()).unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).unwrap();
    let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
    let query = KeywordQuery::from_terms(vec!["hanks".into(), "terminal".into()]);
    let ranked = interpreter.ranked_interpretations(&query);

    c.bench_function("index_build_imdb", |b| {
        b.iter(|| InvertedIndex::build(&data.db))
    });

    c.bench_function("template_enumeration_imdb", |b| {
        b.iter(|| TemplateCatalog::enumerate(&data.db, 4, 100_000).unwrap())
    });

    c.bench_function("interpretation_generation_2kw", |b| {
        b.iter(|| interpreter.ranked_interpretations(&query))
    });

    c.bench_function("top10_best_first_2kw", |b| {
        b.iter(|| interpreter.top_k_complete(&query, 10))
    });

    // The headline comparison: a 4-keyword query with partial
    // interpretations enabled — the exhaustive pipeline re-enumerates every
    // keyword subset (2^4 passes), best-first folds the lattice into one
    // search. Also report how many interpretations each side materializes.
    let query4 = KeywordQuery::from_terms(vec![
        "hanks".into(),
        "terminal".into(),
        "actor".into(),
        "movie".into(),
    ]);
    c.bench_function("partials_exhaustive_4kw", |b| {
        b.iter(|| interpreter.ranked_with_partials(&query4))
    });
    c.bench_function("partials_top10_best_first_4kw", |b| {
        b.iter(|| interpreter.top_k(&query4, 10))
    });
    {
        let exhaustive = interpreter.ranked_with_partials(&query4).len();
        let (_, stats) = interpreter.top_k_with_stats(&query4, 10, true);
        println!(
            "4kw partials: exhaustive materialized {exhaustive}, best-first {} \
             ({} expanded, {} pruned, {}/{} non-emptiness probes cached)",
            stats.materialized,
            stats.expanded,
            stats.pruned,
            stats.nonempty_cache_hits,
            stats.nonempty_cache_hits + stats.nonempty_probes,
        );
    }

    // Ablation: ATF scoring vs SQAK TF-IDF scoring over the same space.
    let model = ProbabilityModel::new(
        &data.db,
        &index,
        &catalog,
        TemplatePrior::Uniform,
        ProbabilityConfig::default(),
    );
    c.bench_function("score_atf_joint", |b| {
        b.iter(|| {
            ranked
                .iter()
                .map(|s| model.log_score(&s.interpretation, 2))
                .sum::<f64>()
        })
    });
    c.bench_function("score_sqak", |b| {
        b.iter(|| {
            ranked
                .iter()
                .map(|s| sqak_score(&data.db, &index, &catalog, &s.interpretation))
                .sum::<f64>()
        })
    });

    if !ranked.is_empty() {
        c.bench_function("session_next_option", |b| {
            let session = ConstructionSession::new(&catalog, &ranked, SessionConfig::default());
            b.iter(|| session.next_option(&catalog))
        });

        c.bench_function("execute_interpretation_top1", |b| {
            b.iter(|| {
                execute_interpretation(
                    &data.db,
                    &index,
                    &catalog,
                    &ranked[0].interpretation,
                    ExecOptions::default(),
                )
                .unwrap()
            })
        });
    }

    // Diversification: early-stop bound vs brute scan is verified equal in
    // unit tests; here we measure the bounded version at realistic size.
    let items: Vec<DivItem> = ranked
        .iter()
        .map(|s| DivItem {
            relevance: s.probability,
            atoms: s.interpretation.atoms(&catalog).into_iter().collect(),
        })
        .collect();
    if items.len() >= 5 {
        c.bench_function("diversify_top10", |b| {
            b.iter_batched(
                || items.clone(),
                |items| diversify(&items, DiversifyConfig { lambda: 0.1, k: 10 }),
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_freebase(c: &mut Criterion) {
    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 40,
        types_per_domain: 25,
        topics: 10_000,
        rows_per_table: 25,
        seed: 5,
        scale: 1.0,
    })
    .unwrap();
    let index = InvertedIndex::build(&fb.db);
    // A frequent keyword.
    let kw = {
        let mut best = ("tom".to_owned(), 0usize);
        for (_, row) in fb.db.table(fb.topic).rows().take(200) {
            for tok in row[1].as_text().unwrap_or("").split(' ') {
                let n = index.attrs_containing(tok).len();
                if n > best.1 {
                    best = (tok.to_owned(), n);
                }
            }
        }
        best.0
    };
    let query = KeywordQuery::from_terms(vec![kw.clone(), kw]);
    let explorer = LazyExplorer::new(
        &fb.db,
        &index,
        TraversalConfig {
            top_n: 200,
            ..Default::default()
        },
    );
    c.bench_function("lazy_traversal_top200_1000tables", |b| {
        b.iter(|| explorer.top_interpretations(&query))
    });
}

/// A scorer over `q`'s value candidates (no schema-name candidates: name
/// bindings are charged a constant).
fn scorer_over<'q>(
    index: &'q InvertedIndex,
    prob: ProbabilityConfig,
    n_tables: usize,
    q: &'q KeywordQuery,
) -> IncrementalScorer<'q> {
    let value_attrs: Vec<_> = q
        .terms()
        .iter()
        .map(|t| index.attrs_containing(t).to_vec())
        .collect();
    let no_names = vec![Vec::new(); q.len()];
    IncrementalScorer::new(
        index,
        prob,
        n_tables,
        q.terms(),
        &value_attrs,
        &no_names,
        true,
    )
}

/// The x10 IMDB fixture kbench's `scale_search` runs on: store, index,
/// catalog.
fn imdb_x10() -> (ImdbDataset, InvertedIndex, TemplateCatalog) {
    let data = ImdbDataset::generate(ImdbConfig {
        scale: 10.0,
        ..ImdbConfig::default()
    })
    .unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 3, 50_000).unwrap();
    (data, index, catalog)
}

/// The first `n` queries of the fixture's seeded log.
fn log_queries(data: &ImdbDataset, n: usize) -> Vec<KeywordQuery> {
    let log = Workload::imdb(
        data,
        WorkloadConfig {
            seed: 5,
            n_queries: n,
            mc_fraction: 0.5,
        },
    );
    log.queries
        .into_iter()
        .map(|q| KeywordQuery::from_terms(q.keywords))
        .collect()
}

/// Generation waves on the x10 IMDB fixture: what the pipeline's `k → 4k →
/// 16k` growth costs as three fresh searches against one source pulled three
/// times, and what scoring an emitted list costs from a cold and a warm
/// group memo against the oracle's postings walks.
fn bench_generate_waves(c: &mut Criterion) {
    const WAVES: [usize; 3] = [10, 40, 160];
    let (data, index, catalog) = imdb_x10();
    let config = InterpreterConfig::default();
    let interpreter = Interpreter::new(&data.db, &index, &catalog, config.clone());
    let queries = log_queries(&data, 64);

    let fresh = |q: &KeywordQuery, k: usize| {
        interpreter
            .top_k_with_cache(q, k, true, &mut NonemptyCache::new())
            .0
    };
    let bits = |ranked: &[ScoredInterpretation]| -> Vec<(u64, u64)> {
        ranked
            .iter()
            .map(|s| (s.log_score.to_bits(), s.probability.to_bits()))
            .collect()
    };
    // Correctness first: a resumed pull is a fresh one.
    for q in &queries {
        let mut source = BestFirstSource::new(&interpreter, q, true);
        let mut cache = NonemptyCache::new();
        for k in WAVES {
            let (resumed, _) = source.pull(k, &mut cache);
            let fresh = fresh(q, k);
            assert!(
                resumed.len() == fresh.len()
                    && resumed
                        .iter()
                        .zip(&fresh)
                        .all(|(r, f)| r.interpretation == f.interpretation)
                    && bits(&resumed) == bits(&fresh),
                "resumed pull at k = {k} differs from a fresh top_k for \"{q}\""
            );
        }
    }

    for k in WAVES {
        c.bench_function(&format!("generate_fresh_k{k}"), |b| {
            b.iter(|| queries.iter().map(|q| fresh(q, k).len()).sum::<usize>())
        });
    }
    c.bench_function("generate_fresh_10_40_160", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| {
                    // What the wave loop did before pulls resumed: one memo
                    // across waves, every wave a search from the roots.
                    let mut cache = NonemptyCache::new();
                    WAVES
                        .iter()
                        .map(|&k| interpreter.top_k_with_cache(q, k, true, &mut cache).0.len())
                        .sum::<usize>()
                })
                .sum::<usize>()
        })
    });
    c.bench_function("generate_resumed_10_40_160", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| {
                    let mut source = BestFirstSource::new(&interpreter, q, true);
                    let mut cache = NonemptyCache::new();
                    WAVES
                        .iter()
                        .map(|&k| source.pull(k, &mut cache).0.len())
                        .sum::<usize>()
                })
                .sum::<usize>()
        })
    });

    // Emission: the exact score of every interpretation in the top 160,
    // from the oracle (postings walks), from a scorer with a cold group
    // memo (the same walks, once per group), and from a warm one (lookups).
    let oracle = ProbabilityModel::new(
        &data.db,
        &index,
        &catalog,
        config.prior.clone(),
        config.prob,
    );
    let emitted: Vec<(&KeywordQuery, Vec<ScoredInterpretation>)> =
        queries.iter().map(|q| (q, fresh(q, 160))).collect();
    let n_tables = data.db.schema().table_count();
    let scorer_of = |q| scorer_over(&index, config.prob, n_tables, q);
    // The binding terms of `log_score`, summed, for every emitted
    // interpretation of one query. (Log keywords are distinct, so a
    // binding's occurrence mask is its keywords' positions.)
    let memo_terms =
        |scorer: &mut IncrementalScorer, q: &KeywordQuery, ranked: &[ScoredInterpretation]| {
            let mut sum = 0.0;
            for s in ranked {
                let tpl = catalog.get(s.interpretation.template);
                for b in &s.interpretation.bindings {
                    let mask = q
                        .terms()
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| b.keywords.contains(t))
                        .fold(0u64, |m, (i, _)| m | 1 << i);
                    sum += scorer.binding_ln(b.target, mask, tpl.tree.nodes[b.target.node()]);
                }
            }
            sum
        };
    for (q, ranked) in &emitted {
        let mut distinct = q.terms().to_vec();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), q.len(), "log queries repeat no keyword");
        // Memo terms are the oracle's: a one-value-binding interpretation's
        // score is prior + that term (+ the unmapped charge).
        let mut scorer = scorer_of(q);
        for s in ranked {
            if let [b] = s.interpretation.bindings.as_slice() {
                if matches!(b.target, BindingTarget::Value { .. }) {
                    let one = std::slice::from_ref(s);
                    let prior = (1.0 / catalog.len() as f64).ln();
                    let unmapped = (q.len() - b.keywords.len()) as f64 * scorer.unmapped_ln();
                    let mut want = prior + memo_terms(&mut scorer, q, one);
                    if unmapped != 0.0 {
                        want += unmapped;
                    }
                    assert_eq!(
                        want.to_bits(),
                        oracle.log_score(&s.interpretation, q.len()).to_bits(),
                        "memo term differs from the oracle's for \"{q}\""
                    );
                }
            }
        }
    }
    c.bench_function("emission_scores_oracle_log_score", |b| {
        b.iter(|| {
            emitted
                .iter()
                .flat_map(|(q, ranked)| {
                    ranked
                        .iter()
                        .map(|s| oracle.log_score(&s.interpretation, q.len()))
                })
                .sum::<f64>()
        })
    });
    c.bench_function("emission_scores_cold_group_memo", |b| {
        b.iter(|| {
            emitted
                .iter()
                .map(|(q, ranked)| memo_terms(&mut scorer_of(q), q, ranked))
                .sum::<f64>()
        })
    });
    c.bench_function("emission_scores_warm_group_memo", |b| {
        let mut scorers: Vec<_> = emitted.iter().map(|(q, _)| scorer_of(q)).collect();
        b.iter(|| {
            emitted
                .iter()
                .zip(&mut scorers)
                .map(|((q, ranked), scorer)| memo_terms(scorer, q, ranked))
                .sum::<f64>()
        })
    });
}

/// One execution the answers pipeline performed: the template's join tree,
/// the candidates harvested for it, the limit it ran under.
struct ColdExec<'a> {
    tree: &'a JoinTree,
    candidates: Candidates,
    limit: usize,
}

/// The cold execute path on the x10 IMDB fixture: for the first 256
/// distinct-bag log queries, every execution the answers pipeline performs
/// (the wave loop re-enacted over a per-query cache, cross-checked against
/// the pipeline's own counters), candidates harvested once. Asserts the
/// executor, the reducer and the one-list decode against their references,
/// then times the reducer, the join over reduced sets and the predicate
/// decode, and prints the reducer's rows touched per execution.
fn bench_exec_cold(c: &mut Criterion) {
    const K: usize = 10;
    const QUERIES: usize = 256;
    let (data, index, catalog) = imdb_x10();
    let db = &data.db;
    let config = InterpreterConfig::default();
    let cap = config.max_interpretations;
    let interpreter = Interpreter::new(db, &index, &catalog, config);
    let mut seen = HashSet::new();
    let queries: Vec<KeywordQuery> = log_queries(&data, 2 * QUERIES)
        .into_iter()
        .filter(|q| {
            let mut bag = q.terms().to_vec();
            bag.sort();
            seen.insert(bag)
        })
        .take(QUERIES)
        .collect();
    assert_eq!(queries.len(), QUERIES, "log too short");

    // The wave loop of `QueryPipeline::answers`, keeping what it executes.
    let mut execs: Vec<ColdExec> = Vec::new();
    let mut predicates: Vec<(Vec<String>, AttrRef)> = Vec::new();
    let mut pipeline = ExecStats::default();
    for q in &queries {
        pipeline.absorb(&interpreter.answers_top_k_with_stats(q, K).1.exec);
        let mut source = BestFirstSource::new(&interpreter, q, true);
        let (mut gen_cache, mut exec_cache) = (NonemptyCache::new(), ExecCache::new());
        let mut materialized = HashSet::new();
        let mut gen_k = K.max(8).min(cap);
        loop {
            let (ranked, _) = source.pull(gen_k, &mut gen_cache);
            let mut have = 0;
            for s in &ranked {
                if have >= K {
                    break;
                }
                let interp = &s.interpretation;
                let limit = K - have;
                let opts = ExecOptions {
                    limit,
                    ..ExecOptions::default()
                };
                let hits = exec_cache.result_hits;
                let Ok(res) = execute_interpretation_cached(
                    db,
                    &index,
                    &catalog,
                    interp,
                    opts,
                    &mut exec_cache,
                ) else {
                    continue;
                };
                have += res.len().min(limit);
                if exec_cache.result_hits != hits {
                    continue;
                }
                let tree = &catalog.get(interp.template).tree;
                let mut per_node: Vec<Option<Vec<RowId>>> = vec![None; tree.nodes.len()];
                for b in &interp.bindings {
                    let BindingTarget::Value { node, attr } = b.target else {
                        continue;
                    };
                    let table = tree.nodes[node];
                    let aref = AttrRef { table, attr };
                    let rows = index.rows_with_all(&b.keywords, aref);
                    let mut bag = b.keywords.clone();
                    bag.sort();
                    if materialized.insert((bag, aref)) {
                        predicates.push((b.keywords.clone(), aref));
                    }
                    per_node[node] = Some(match per_node[node].take() {
                        Some(prev) => prev
                            .into_iter()
                            .filter(|r| rows.binary_search(r).is_ok())
                            .collect(),
                        None => rows,
                    });
                }
                execs.push(ColdExec {
                    tree,
                    candidates: Candidates { per_node },
                    limit,
                });
            }
            if have >= K || ranked.len() < gen_k || gen_k >= cap {
                break;
            }
            gen_k = gen_k.saturating_mul(4).min(cap);
        }
    }

    // Correctness first. (i) The re-enactment reduces what the pipeline
    // reduced; (ii) every reduced set is the projection of the unlimited
    // reference join, and the executor returns that join as a multiset;
    // (iii) a one-list predicate decodes to its postings' rows.
    let unlimited = ExecOptions {
        limit: usize::MAX,
        max_intermediate: usize::MAX,
    };
    let mut reduced_stats = ExecStats::default();
    let mut arena = BatchArena::new();
    for e in &execs {
        let reduced = reduce_join_tree(db, e.tree, &e.candidates).unwrap();
        reduced_stats.absorb(&reduced.stats);
        let mut naive = execute_join_tree_naive(db, e.tree, &e.candidates, unlimited)
            .unwrap()
            .rows;
        for (node, given) in e.candidates.per_node.iter().enumerate() {
            let alive: BTreeSet<RowId> = naive.iter().map(|jtt| jtt[node]).collect();
            let want: Vec<RowId> = match given {
                Some(rows) => rows.iter().copied().filter(|r| alive.contains(r)).collect(),
                None => alive.into_iter().collect(),
            };
            assert_eq!(reduced.sets[node], want, "reduced set of node {node}");
        }
        let mut rows =
            execute_join_tree_with_stats_in(db, e.tree, &e.candidates, unlimited, &mut arena)
                .unwrap()
                .rows;
        rows.sort();
        naive.sort();
        assert_eq!(rows, naive, "executor vs naive reference");
    }
    let reduction = |s: &ExecStats| {
        (
            s.semijoin_rows_in,
            s.semijoin_rows_out,
            s.semijoin_rows_touched,
        )
    };
    assert_eq!(
        reduction(&reduced_stats),
        reduction(&pipeline),
        "re-enacted executions vs the pipeline's own"
    );
    let mut one_list = 0usize;
    for (keywords, aref) in &predicates {
        if let [term] = keywords.as_slice() {
            let entry = index.postings(term, *aref).expect("executed predicate");
            let want: Vec<RowId> = entry.rows().map(|(r, _)| r).collect();
            assert_eq!(index.rows_with_all(keywords, *aref), want, "{term}");
            one_list += 1;
        }
    }
    let n = execs.len() as f64;
    println!(
        "exec_cold: {QUERIES} queries, {} executions, {} predicates ({one_list} one-list); \
         per execution: {:.0} rows in, {:.0} touched, {:.1} out",
        execs.len(),
        predicates.len(),
        reduced_stats.semijoin_rows_in as f64 / n,
        reduced_stats.semijoin_rows_touched as f64 / n,
        reduced_stats.semijoin_rows_out as f64 / n,
    );

    c.bench_function("exec_cold_reduce_join_tree", |b| {
        b.iter(|| {
            execs
                .iter()
                .map(|e| {
                    let reduced = reduce_join_tree(db, e.tree, &e.candidates).unwrap();
                    reduced.stats.semijoin_rows_out
                })
                .sum::<usize>()
        })
    });
    c.bench_function("exec_cold_execute_reduced_in", |b| {
        b.iter_batched(
            || {
                execs
                    .iter()
                    .map(|e| reduce_join_tree(db, e.tree, &e.candidates).unwrap())
                    .collect::<Vec<_>>()
            },
            |reduced| {
                let mut results = 0;
                for (e, r) in execs.iter().zip(reduced) {
                    let sizes: Vec<usize> = r.sets.iter().map(Vec::len).collect();
                    let plan = plan_join_order(e.tree, &r.given, &sizes);
                    let opts = ExecOptions {
                        limit: e.limit,
                        ..ExecOptions::default()
                    };
                    let out = execute_reduced_in(db, e.tree, r.sets, &plan, opts, &mut arena);
                    results += out.unwrap().rows.len();
                }
                results
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("exec_cold_rows_with_all_into", |b| {
        let (mut rows, mut scratch) = (Vec::new(), Vec::new());
        b.iter(|| {
            predicates
                .iter()
                .map(|(keywords, aref)| {
                    index.rows_with_all_into(keywords, *aref, &mut rows, &mut scratch);
                    rows.len()
                })
                .sum::<usize>()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline, bench_freebase, bench_generate_waves, bench_exec_cold
}
criterion_main!(benches);
