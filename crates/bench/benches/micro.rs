//! Criterion microbenches over the pipeline's hot paths, including the
//! ablations DESIGN.md calls out: index construction, interpretation
//! generation, probabilistic vs SQAK scoring, greedy option selection,
//! diversification with and without the early-stop bound, join execution,
//! the lazy traversal, and (`generate_waves`) what a generation wave costs
//! fresh against resumed. The `generate_waves` group asserts resumed ==
//! fresh and memo score == oracle score before it times anything, so the
//! `-- --test` run CI does is also a correctness pass.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use keybridge_core::{
    execute_interpretation, sqak_score, BestFirstSource, BindingTarget, IncrementalScorer,
    InterpretationSource, Interpreter, InterpreterConfig, KeywordQuery, NonemptyCache,
    ProbabilityConfig, ProbabilityModel, ScoredInterpretation, TemplateCatalog, TemplatePrior,
};
use keybridge_datagen::{
    FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, Workload, WorkloadConfig,
};
use keybridge_divq::{diversify, DivItem, DiversifyConfig};
use keybridge_freeq::{LazyExplorer, TraversalConfig};
use keybridge_index::InvertedIndex;
use keybridge_iqp::{ConstructionSession, SessionConfig};
use keybridge_relstore::ExecOptions;

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

/// Generation waves on the x10 IMDB fixture: what the pipeline's `k → 4k →
/// 16k` growth costs as three fresh searches against one source pulled three
/// times, and what scoring an emitted list costs from a cold and a warm
/// group memo against the oracle's postings walks.
fn bench_generate_waves(c: &mut Criterion) {
    const WAVES: [usize; 3] = [10, 40, 160];
    let data = ImdbDataset::generate(ImdbConfig {
        scale: 10.0,
        ..ImdbConfig::default()
    })
    .unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 3, 50_000).unwrap();
    let config = InterpreterConfig::default();
    let interpreter = Interpreter::new(&data.db, &index, &catalog, config.clone());
    let log = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 5,
            n_queries: 64,
            mc_fraction: 0.5,
        },
    );
    let queries: Vec<KeywordQuery> = log
        .queries
        .into_iter()
        .map(|q| KeywordQuery::from_terms(q.keywords))
        .collect();

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline, bench_freebase, bench_generate_waves
}
criterion_main!(benches);
