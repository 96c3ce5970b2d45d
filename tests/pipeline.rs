//! End-to-end integration tests across the workspace: generated data →
//! index → templates → interpretations → ranking → construction →
//! diversification → execution.

mod common;

use common::oracle_answers;
use keybridge::core::{
    execute_interpretation, render_natural, render_sql, Interpreter, InterpreterConfig,
    KeywordQuery, ProbabilityConfig, ProbabilityModel, RankedAnswer, TemplateCatalog,
    TemplatePrior,
};
use keybridge::datagen::{
    FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, LyricsConfig, LyricsDataset,
    Workload, WorkloadConfig, YagoConfig, YagoOntology,
};
use keybridge::divq::{diversify, DivItem, DiversifyConfig};
use keybridge::freeq::{
    FreeQSession, FreeQSessionConfig, LazyExplorer, SchemaOntology, TraversalConfig,
};
use keybridge::index::{InvertedIndex, Tokenizer};
use keybridge::iqp::{SessionConfig, SimulatedUser};
use keybridge::relstore::{Database, ExecOptions, TableId};
use keybridge::yagof::{combine, evaluate_matching, match_categories, MatchConfig};

struct Pipeline {
    data: ImdbDataset,
    index: InvertedIndex,
    catalog: TemplateCatalog,
}

fn pipeline() -> Pipeline {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).expect("generation succeeds");
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).expect("medium schema");
    Pipeline {
        data,
        index,
        catalog,
    }
}

#[test]
fn keyword_to_results_end_to_end() {
    let p = pipeline();
    let interp = Interpreter::new(
        &p.data.db,
        &p.index,
        &p.catalog,
        InterpreterConfig::default(),
    );
    // Take a real actor's surname so results are guaranteed.
    let name = p
        .data
        .db
        .table(p.data.actor)
        .row(keybridge::relstore::RowId(0))[1]
        .as_text()
        .unwrap()
        .to_owned();
    let surname = name.split(' ').nth(1).unwrap();
    let query = KeywordQuery::parse(p.index.tokenizer(), surname);
    let ranked = interp.ranked_interpretations(&query);
    assert!(!ranked.is_empty(), "no interpretations for {surname}");

    // Every interpretation is complete, minimal, and renderable; the most
    // probable one returns results.
    for s in &ranked {
        assert!(s.interpretation.is_complete(&query));
        assert!(s.interpretation.is_minimal(&p.catalog));
        assert!(!render_natural(&p.data.db, &p.catalog, &s.interpretation).is_empty());
        assert!(render_sql(&p.data.db, &p.catalog, &s.interpretation).starts_with("SELECT"));
    }
    let top = execute_interpretation(
        &p.data.db,
        &p.index,
        &p.catalog,
        &ranked[0].interpretation,
        ExecOptions::default(),
    )
    .expect("execution succeeds");
    assert!(!top.is_empty(), "top interpretation returned no results");
}

#[test]
fn workload_construction_always_retains_intent() {
    let p = pipeline();
    let interp = Interpreter::new(
        &p.data.db,
        &p.index,
        &p.catalog,
        InterpreterConfig::default(),
    );
    let workload = Workload::imdb(
        &p.data,
        WorkloadConfig {
            seed: 123,
            n_queries: 30,
            mc_fraction: 0.5,
        },
    );
    let mut evaluated = 0;
    for q in &workload.queries {
        let query = KeywordQuery::from_terms(q.keywords.clone());
        let ranked = interp.ranked_interpretations(&query);
        let user = SimulatedUser {
            db: &p.data.db,
            catalog: &p.catalog,
            intent: keybridge::core::IntentDescription {
                bindings: q
                    .intent
                    .bindings
                    .iter()
                    .map(|b| (b.keywords.clone(), b.table.clone(), b.attr.clone()))
                    .collect(),
                tables: q.intent.tables.clone(),
            },
        };
        if let Some(outcome) = user.run(&ranked, SessionConfig::default()) {
            assert!(outcome.target_retained, "lost intent for {:?}", q.keywords);
            evaluated += 1;
        }
    }
    assert!(evaluated >= 10, "too few evaluable queries: {evaluated}");
}

#[test]
fn diversified_results_cover_more_tuples() {
    let p = pipeline();
    let interp = Interpreter::new(
        &p.data.db,
        &p.index,
        &p.catalog,
        InterpreterConfig::default(),
    );
    // A common first name is maximally ambiguous.
    let query = KeywordQuery::from_terms(vec!["tom".into()]);
    let mut ranked = interp.ranked_interpretations(&query);
    ranked.truncate(25);
    if ranked.len() < 6 {
        return; // not enough ambiguity at tiny scale
    }
    let items: Vec<DivItem> = ranked
        .iter()
        .map(|s| DivItem {
            relevance: s.probability,
            atoms: std::sync::Arc::new(s.interpretation.atoms(&p.catalog).into_iter().collect()),
        })
        .collect();
    let k = 5;
    let div = diversify(&items, DiversifyConfig { lambda: 0.1, k });

    let keys_of = |idx: usize| {
        execute_interpretation(
            &p.data.db,
            &p.index,
            &p.catalog,
            &ranked[idx].interpretation,
            ExecOptions::default(),
        )
        .map(|r| std::sync::Arc::unwrap_or_clone(r.keys))
        .unwrap_or_default()
    };
    let mut rank_cover = std::collections::BTreeSet::new();
    for i in 0..k {
        rank_cover.extend(keys_of(i));
    }
    let mut div_cover = std::collections::BTreeSet::new();
    for &i in &div {
        div_cover.extend(keys_of(i));
    }
    // Diversification must not cover fewer distinct tuples.
    assert!(
        div_cover.len() >= rank_cover.len(),
        "diversified coverage {} < ranked coverage {}",
        div_cover.len(),
        rank_cover.len()
    );
}

#[test]
fn freebase_ontology_beats_plain_options() {
    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 12,
        types_per_domain: 8,
        topics: 1500,
        rows_per_table: 20,
        seed: 77,
        scale: 1.0,
    })
    .unwrap();
    let index = InvertedIndex::build(&fb.db);
    let domains: Vec<(String, Vec<TableId>)> = fb
        .domains
        .iter()
        .map(|d| (d.name.clone(), d.tables.clone()))
        .collect();
    let ontology = SchemaOntology::from_domains(&domains);

    // The most widespread keyword.
    let mut best = (String::new(), 0usize);
    for (_, row) in fb.db.table(fb.topic).rows().take(300) {
        for tok in row[1].as_text().unwrap_or("").split(' ') {
            let n = index.attrs_containing(tok).len();
            if n > best.1 {
                best = (tok.to_owned(), n);
            }
        }
    }
    let query = KeywordQuery::from_terms(vec![best.0.clone(), best.0]);
    let explorer = LazyExplorer::new(&fb.db, &index, TraversalConfig::default());
    let tops = explorer.top_interpretations(&query);
    if tops.len() < 20 {
        return;
    }
    let target: Vec<TableId> = tops[tops.len() - 1]
        .bindings
        .iter()
        .map(|a| a.table)
        .collect();
    let plain = FreeQSession::new(None, tops.clone(), FreeQSessionConfig::default())
        .run_with_target(&target)
        .unwrap();
    let onto = FreeQSession::new(Some(&ontology), tops, FreeQSessionConfig::default())
        .run_with_target(&target)
        .unwrap();
    assert!(plain.target_retained && onto.target_retained);
    assert!(
        onto.steps <= plain.steps,
        "ontology {} > plain {}",
        onto.steps,
        plain.steps
    );
}

#[test]
fn yago_matching_recovers_gold_end_to_end() {
    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 10,
        types_per_domain: 6,
        topics: 1200,
        rows_per_table: 20,
        seed: 31,
        scale: 1.0,
    })
    .unwrap();
    let yago = YagoOntology::generate(YagoConfig::tiny(32), &fb);
    let matches = match_categories(&yago, &fb, MatchConfig::default());
    let quality = evaluate_matching(&matches, &yago.gold);
    assert!(quality.precision > 0.6, "precision {quality:?}");
    assert!(quality.recall > 0.4, "recall {quality:?}");
    let yf = combine(&matches);
    let stats = yf.stats(&yago, &fb);
    assert_eq!(stats.matched_categories, matches.len());
    assert!(stats.covered_instances > 0);
}

// ---------------------------------------------------------------------------
// End-to-end golden tests: `answers_top_k` on seeded query logs, one per
// datagen fixture. Each run is double-checked against the independent
// oracle pipeline (exhaustive generation + naive nested-loop execution) and
// the top answer is snapshot-asserted, so generation *and* execution
// regressions are caught together.
// ---------------------------------------------------------------------------

/// The expected top answer of one golden query: interpretation log-score and
/// the answer's identifying `(table name, pk)` keys.
struct Snapshot {
    query: &'static [&'static str],
    answers: usize,
    top_score: f64,
    top_keys: &'static [(&'static str, i64)],
}

fn run_golden(
    name: &str,
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    snapshots: &[Snapshot],
) {
    let fast = Interpreter::new(db, index, catalog, InterpreterConfig::default());
    for snap in snapshots {
        let q = KeywordQuery::from_terms(snap.query.iter().map(|s| s.to_string()).collect());
        let note = format!("{name} query {:?}", snap.query);
        let answers = fast.answers_top_k(&q, 5);

        // 1. Snapshot: answer count, top score, top keys.
        assert_eq!(answers.len(), snap.answers, "{note}: answer count drifted");
        let top = answers
            .first()
            .unwrap_or_else(|| panic!("{note}: no answers"));
        assert!(
            (top.log_score - snap.top_score).abs() < 1e-6,
            "{note}: top score drifted: {} vs {}",
            top.log_score,
            snap.top_score
        );
        let keys: Vec<(String, i64)> = top
            .keys
            .iter()
            .map(|k| (db.schema().table(k.table).name.clone(), k.pk))
            .collect();
        let want: Vec<(String, i64)> = snap
            .top_keys
            .iter()
            .map(|(t, pk)| (t.to_string(), *pk))
            .collect();
        assert_eq!(keys, want, "{note}: top answer keys drifted");

        // 2. Differential: the independent oracle pipeline agrees on every
        //    answer's interpretation, score, and key multiset.
        let expect = oracle_answers(&fast, &q, 5);
        assert_eq!(answers.len(), expect.len(), "{note}: oracle count");
        for (i, (a, b)) in answers.iter().zip(&expect).enumerate() {
            assert_eq!(a.interpretation, b.interpretation, "{note}: answer {i}");
            assert!(
                (a.log_score - b.log_score).abs() < 1e-12,
                "{note}: score {i}"
            );
        }
        let sorted_keys = |v: &[RankedAnswer]| {
            let mut ks: Vec<_> = v.iter().map(|a| a.keys.clone()).collect();
            ks.sort();
            ks
        };
        assert_eq!(
            sorted_keys(&answers),
            sorted_keys(&expect),
            "{note}: key multisets"
        );

        // 3. Structural invariants.
        for w in answers.windows(2) {
            assert!(w[0].log_score >= w[1].log_score, "{note}: not rank-ordered");
        }
    }
}

#[test]
fn golden_answers_imdb() {
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
    // Sanity: the seeded query log is what the snapshots were taken from.
    let w = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 123,
            n_queries: 10,
            mc_fraction: 0.5,
        },
    );
    let logged: Vec<Vec<String>> = w
        .queries
        .iter()
        .take(4)
        .map(|q| q.keywords.clone())
        .collect();
    let snaps = [
        Snapshot {
            query: &["mary", "kriclafrio"],
            answers: 5,
            top_score: -9.568014816,
            top_keys: &[("actor", 40)],
        },
        Snapshot {
            query: &["ziawea", "moore"],
            answers: 5,
            top_score: -9.568014816,
            top_keys: &[("actor", 55)],
        },
        Snapshot {
            query: &["terminal"],
            answers: 5,
            top_score: -7.841240197,
            top_keys: &[("movie", 2)],
        },
        Snapshot {
            query: &["elena", "breasloutai", "nukro", "day"],
            answers: 5,
            top_score: -14.392320532,
            top_keys: &[("actor", 57), ("movie", 7)],
        },
    ];
    for (s, l) in snaps.iter().zip(&logged) {
        assert_eq!(
            &s.query.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
            l,
            "query log drifted — regenerate the snapshots"
        );
    }
    run_golden("imdb", &data.db, &index, &catalog, &snaps);
}

#[test]
fn golden_answers_lyrics() {
    let data = LyricsDataset::generate(LyricsConfig::tiny(7)).unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
    let w = Workload::lyrics(
        &data,
        WorkloadConfig {
            seed: 21,
            n_queries: 10,
            mc_fraction: 0.5,
        },
    );
    let logged: Vec<Vec<String>> = w
        .queries
        .iter()
        .take(4)
        .map(|q| q.keywords.clone())
        .collect();
    let snaps = [
        Snapshot {
            query: &["day"],
            answers: 5,
            top_score: -8.044438194,
            top_keys: &[("song", 15)],
        },
        Snapshot {
            query: &["mind", "night"],
            answers: 5,
            top_score: -9.614204199,
            top_keys: &[("song", 195)],
        },
        Snapshot {
            query: &["sliotrou", "houjoji"],
            answers: 5,
            top_score: -9.614204199,
            top_keys: &[("song", 38)],
        },
        Snapshot {
            query: &["wild", "soul"],
            answers: 5,
            top_score: -9.614204199,
            top_keys: &[("song", 143)],
        },
    ];
    for (s, l) in snaps.iter().zip(&logged) {
        assert_eq!(
            &s.query.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
            l,
            "query log drifted — regenerate the snapshots"
        );
    }
    run_golden("lyrics", &data.db, &index, &catalog, &snaps);
}

#[test]
fn golden_answers_freebase() {
    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 6,
        types_per_domain: 4,
        topics: 300,
        rows_per_table: 12,
        seed: 5,
        scale: 1.0,
    })
    .unwrap();
    let index = InvertedIndex::build(&fb.db);
    let catalog = TemplateCatalog::enumerate(&fb.db, 2, 50_000).unwrap();
    // The seeded "query log": first tokens of the first topic names.
    let tok = Tokenizer::new();
    let mut logged = Vec::new();
    for i in 0..6u32 {
        let row = fb.db.table(fb.topic).row(keybridge::relstore::RowId(i));
        let toks = tok.tokenize(row[1].as_text().unwrap());
        if !toks.is_empty() {
            logged.push(toks[0].clone());
        }
        if logged.len() >= 3 {
            break;
        }
    }
    assert_eq!(
        logged,
        vec!["tom", "light", "tadruste"],
        "topic log drifted"
    );
    let snaps = [
        Snapshot {
            query: &["tom"],
            answers: 5,
            top_score: -7.983303628,
            top_keys: &[("tv_producer", 163)],
        },
        Snapshot {
            query: &["light"],
            answers: 5,
            top_score: -8.923124857,
            top_keys: &[("film_producer", 28)],
        },
        Snapshot {
            query: &["tadruste"],
            answers: 5,
            top_score: -8.627660644,
            top_keys: &[("film_director", 17)],
        },
    ];
    run_golden("freebase", &fb.db, &index, &catalog, &snaps);
}

#[test]
fn golden_answers_yago() {
    // YAGO instances live in the Freebase universe; the golden queries pull
    // tokens from the generator's first gold-matched table.
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
    let gold_table = yago.gold[0].1;
    assert_eq!(
        fb.db.schema().table(gold_table).name,
        "location_director",
        "gold mapping drifted — regenerate the snapshots"
    );
    let index = InvertedIndex::build(&fb.db);
    let catalog = TemplateCatalog::enumerate(&fb.db, 2, 50_000).unwrap();
    let tok = Tokenizer::new();
    let mut logged = Vec::new();
    for i in 0..6u32 {
        if (i as usize) >= fb.db.table(gold_table).len() {
            break;
        }
        let row = fb.db.table(gold_table).row(keybridge::relstore::RowId(i));
        let toks = tok.tokenize(row[1].as_text().unwrap());
        if !toks.is_empty() {
            logged.push(toks[0].clone());
        }
        if logged.len() >= 2 {
            break;
        }
    }
    assert_eq!(logged, vec!["fly", "david"], "gold-table log drifted");
    let snaps = [
        Snapshot {
            query: &["fly"],
            answers: 3,
            top_score: -9.093750374,
            top_keys: &[("music_writer", 107)],
        },
        Snapshot {
            query: &["david"],
            answers: 5,
            top_score: -9.132216655,
            top_keys: &[("location_director", 304)],
        },
    ];
    run_golden("yago", &fb.db, &index, &catalog, &snaps);
}

// ---------------------------------------------------------------------------
// The generator's memo-assembled scores are the oracle's scores.
// ---------------------------------------------------------------------------

/// The scoring configurations the generator is served under: the default
/// joint-ATF model, the uniform baseline, the independence model, and the
/// default model under a usage prior.
fn scoring_configs(usage: TemplatePrior) -> Vec<(ProbabilityConfig, TemplatePrior)> {
    vec![
        (ProbabilityConfig::default(), TemplatePrior::Uniform),
        (ProbabilityConfig::baseline(), TemplatePrior::Uniform),
        (ProbabilityConfig::atf_independent(), TemplatePrior::Uniform),
        (ProbabilityConfig::default(), usage),
    ]
}

/// Every interpretation `top_k` emits for `queries` carries exactly the score
/// `ProbabilityModel::log_score` computes for it from the postings — same
/// bits — under each of `configs`. Returns how many interpretations were
/// compared.
fn assert_scores_are_the_oracles(
    name: &str,
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    configs: &[(ProbabilityConfig, TemplatePrior)],
    queries: &[Vec<String>],
) -> usize {
    let mut compared = 0;
    for (prob, prior) in configs.iter().cloned() {
        let generator = Interpreter::new(
            db,
            index,
            catalog,
            InterpreterConfig {
                prob,
                prior: prior.clone(),
                ..Default::default()
            },
        );
        let oracle = ProbabilityModel::new(db, index, catalog, prior, prob);
        for terms in queries {
            let q = KeywordQuery::from_terms(terms.clone());
            for partials in [true, false] {
                let (emitted, _) = generator.top_k_with_stats(&q, 400, partials);
                for s in &emitted {
                    assert_eq!(
                        s.log_score.to_bits(),
                        oracle.log_score(&s.interpretation, q.len()).to_bits(),
                        "{name} {terms:?} {prob:?}: {:?}",
                        s.interpretation
                    );
                }
                compared += emitted.len();
            }
        }
    }
    compared
}

/// A usage prior over a catalog that has no workload generator: seeded
/// counts on every third template signature.
fn catalog_usage(db: &Database, catalog: &TemplateCatalog) -> TemplatePrior {
    TemplatePrior::from_usage(
        catalog
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(i, t)| (t.signature(db), 1 + i % 7)),
    )
}

/// Three words of one `song.lyrics` value, in an order for which the
/// independence score of the bag (`ln P(T) + ln(ATF·ATF·ATF)`, Eq. 3.5, as
/// the oracle adds it up for the one-binding interpretation on a `song`
/// node) differs in bits from the score taken in canonical (sorted) order —
/// the order a binding's keywords are scored in, whatever order the query
/// listed them in.
fn order_sensitive_lyrics_words(
    data: &LyricsDataset,
    index: &InvertedIndex,
    n_templates: usize,
) -> Vec<String> {
    let tok = Tokenizer::new();
    let lyrics = data.db.schema().resolve("song", "lyrics").unwrap();
    let score = |words: &[String]| -> u64 {
        let product: f64 = words.iter().map(|w| index.atf(w, lyrics, 1.0)).product();
        ((1.0 / n_templates as f64).ln() + product.ln()).to_bits()
    };
    data.db
        .table(data.song)
        .rows()
        .find_map(|(_, row)| {
            let mut words = tok.tokenize(row[lyrics.attr.0 as usize].as_text().unwrap());
            words.sort();
            words.dedup();
            words.truncate(8);
            // Every sorted triple of the value's words, against a rotation.
            let n = words.len();
            (0..n)
                .flat_map(|a| (a + 1..n).flat_map(move |b| (b + 1..n).map(move |c| [a, b, c])))
                .map(|[a, b, c]| {
                    let pick = |ix: [usize; 3]| ix.map(|i| words[i].clone()).to_vec();
                    (pick([a, b, c]), pick([b, c, a]))
                })
                .find(|(sorted, rotated)| score(sorted) != score(rotated))
                .map(|(_, rotated)| rotated)
        })
        .expect("some lyrics score depends on the keyword order")
}

#[test]
fn memo_scores_equal_oracle_scores_on_every_fixture() {
    // IMDB: the seeded log, plus the repeated-keyword and three-keyword-bag
    // cases the occurrence-mask memo has to get right.
    let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
    let w = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 123,
            n_queries: 10,
            mc_fraction: 0.5,
        },
    );
    let mut queries: Vec<Vec<String>> = w.queries.iter().map(|q| q.keywords.clone()).collect();
    let tok = Tokenizer::new();
    // A surname twice and a first name: the generator binds the pair into one
    // `name` group and also splits it across two actor nodes.
    let name = data.db.table(data.actor).row(keybridge::relstore::RowId(0))[1]
        .as_text()
        .unwrap()
        .to_owned();
    let name = tok.tokenize(&name);
    let repeated = vec![name[1].clone(), name[0].clone(), name[1].clone()];
    queries.push(repeated.clone());
    // The schema word twice: both occurrences bind to the one table-name
    // target, a two-keyword name binding.
    let named_twice = vec!["actor".into(), "actor".into(), name[1].clone()];
    queries.push(named_twice.clone());
    let usage =
        TemplatePrior::from_usage(w.template_usage.iter().map(|u| (u.tables.clone(), u.count)));
    let configs = scoring_configs(usage);
    let n = assert_scores_are_the_oracles("imdb", &data.db, &index, &catalog, &configs, &queries);
    assert!(n > 1_000, "imdb: only {n} interpretations compared");
    // The oracle scores that binding `ln(p²)`, the search's prefix `2 ln p`;
    // across thirty name probabilities the two differ in the last bit often.
    let name_probs: Vec<(ProbabilityConfig, TemplatePrior)> = (30..60)
        .map(|p| ProbabilityConfig {
            name_match_prob: p as f64 / 100.0,
            ..Default::default()
        })
        .map(|prob| (prob, TemplatePrior::Uniform))
        .collect();
    assert_scores_are_the_oracles(
        "imdb",
        &data.db,
        &index,
        &catalog,
        &name_probs,
        &[named_twice],
    );
    // The repeated-keyword query did exercise both shapes.
    let generator = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
    let emitted = generator.top_k(&KeywordQuery::from_terms(repeated.clone()), 400);
    let surname = &repeated[0];
    let uses =
        |b: &keybridge::core::KeywordBinding| b.keywords.iter().filter(|k| *k == surname).count();
    assert!(
        emitted
            .iter()
            .any(|s| s.interpretation.bindings.iter().any(|b| uses(b) == 2)),
        "no interpretation binds the repeated keyword into one group"
    );
    assert!(
        emitted.iter().any(|s| s
            .interpretation
            .bindings
            .iter()
            .filter(|b| uses(b) == 1)
            .count()
            == 2),
        "no interpretation splits the repeated keyword across two groups"
    );

    let data = LyricsDataset::generate(LyricsConfig::tiny(7)).unwrap();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
    let w = Workload::lyrics(
        &data,
        WorkloadConfig {
            seed: 21,
            n_queries: 10,
            mc_fraction: 0.5,
        },
    );
    let mut queries: Vec<Vec<String>> = w.queries.iter().map(|q| q.keywords.clone()).collect();
    queries.push(order_sensitive_lyrics_words(&data, &index, catalog.len()));
    let usage =
        TemplatePrior::from_usage(w.template_usage.iter().map(|u| (u.tables.clone(), u.count)));
    let configs = scoring_configs(usage);
    let n = assert_scores_are_the_oracles("lyrics", &data.db, &index, &catalog, &configs, &queries);
    assert!(n > 1_000, "lyrics: only {n} interpretations compared");

    // Freebase and YAGO have no workload generator: the golden tests' token
    // logs, and a usage prior over the catalog's own signatures.
    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 6,
        types_per_domain: 4,
        topics: 300,
        rows_per_table: 12,
        seed: 5,
        scale: 1.0,
    })
    .unwrap();
    let index = InvertedIndex::build(&fb.db);
    let catalog = TemplateCatalog::enumerate(&fb.db, 2, 50_000).unwrap();
    let queries: Vec<Vec<String>> = [&["tom"][..], &["light"], &["tadruste"], &["tom", "light"]]
        .iter()
        .map(|q| q.iter().map(|t| t.to_string()).collect())
        .collect();
    let usage = catalog_usage(&fb.db, &catalog);
    let configs = scoring_configs(usage);
    let n = assert_scores_are_the_oracles("freebase", &fb.db, &index, &catalog, &configs, &queries);
    assert!(n > 100, "freebase: only {n} interpretations compared");

    let fb = FreebaseDataset::generate(FreebaseConfig {
        domains: 6,
        types_per_domain: 4,
        topics: 400,
        rows_per_table: 15,
        seed: 31,
        scale: 1.0,
    })
    .unwrap();
    let index = InvertedIndex::build(&fb.db);
    let catalog = TemplateCatalog::enumerate(&fb.db, 2, 50_000).unwrap();
    let queries: Vec<Vec<String>> = [&["fly"][..], &["david"], &["david", "fly"]]
        .iter()
        .map(|q| q.iter().map(|t| t.to_string()).collect())
        .collect();
    let usage = catalog_usage(&fb.db, &catalog);
    let configs = scoring_configs(usage);
    let n = assert_scores_are_the_oracles("yago", &fb.db, &index, &catalog, &configs, &queries);
    assert!(n > 100, "yago: only {n} interpretations compared");
}
