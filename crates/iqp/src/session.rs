//! The interactive construction session (Alg. 3.2) and the simulated user.
//!
//! The session itself — candidate window, information-gain option selection
//! (Eqs. 3.11–3.13), verdict application, and the pipeline-backed window
//! execution — lives in `keybridge_core::construct` (re-exported here), so
//! the concurrent `SearchService` can host sessions server-side with pinned
//! snapshot epochs. This module keeps the Chapter 3 evaluation harness on
//! top of it: the simulated user that answers options against a known
//! intent, standing in for the §3.8.2 study participants.

pub use keybridge_core::{ConstructionSession, SessionConfig};

use keybridge_core::{
    IntentDescription, QueryInterpretation, ScoredInterpretation, TemplateCatalog,
};
use keybridge_relstore::Database;

/// Outcome of a simulated construction run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructionOutcome {
    /// Options the user evaluated (the interaction cost of construction).
    pub steps: usize,
    /// Candidates left when the session stopped.
    pub remaining: usize,
    /// Whether the intended interpretation survived to the final window.
    pub target_retained: bool,
}

/// A simulated user holding an intended interpretation, judging options the
/// way §3.8.2 automates it: accept options the intent subsumes, reject the
/// rest.
pub struct SimulatedUser<'a> {
    pub db: &'a Database,
    pub catalog: &'a TemplateCatalog,
    pub intent: IntentDescription,
}

impl<'a> SimulatedUser<'a> {
    /// Find the candidate realizing the intent, if generation produced it.
    pub fn find_target<'b>(
        &self,
        ranked: &'b [ScoredInterpretation],
    ) -> Option<&'b QueryInterpretation> {
        ranked
            .iter()
            .map(|s| &*s.interpretation)
            .find(|i| self.intent.matches(i, self.db, self.catalog))
    }

    /// 1-based rank of the intended interpretation in a ranked list — the
    /// interaction cost of the pure ranking interface (§3.8.3).
    pub fn rank_of_target(&self, ranked: &[ScoredInterpretation]) -> Option<usize> {
        ranked
            .iter()
            .position(|s| {
                self.intent
                    .matches(&s.interpretation, self.db, self.catalog)
            })
            .map(|p| p + 1)
    }

    /// Drive a session to completion, answering every proposed option
    /// against the target interpretation.
    pub fn run(
        &self,
        ranked: &[ScoredInterpretation],
        config: SessionConfig,
    ) -> Option<ConstructionOutcome> {
        let target = self.find_target(ranked)?.clone();
        let mut session = ConstructionSession::new(self.catalog, ranked, config);
        while session.remaining().len() > config.stop_at {
            let Some(option) = session.next_option(self.catalog) else {
                break;
            };
            let accept = option.subsumed_by(&target, self.catalog);
            session.apply(self.catalog, option, accept);
        }
        let target_retained = session.remaining().iter().any(|(c, _)| **c == target);
        Some(ConstructionOutcome {
            steps: session.steps(),
            remaining: session.remaining().len(),
            target_retained,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_core::{Interpreter, InterpreterConfig, KeywordQuery};
    use keybridge_datagen::{ImdbConfig, ImdbDataset, Workload, WorkloadConfig};
    use keybridge_index::InvertedIndex;

    struct Fixture {
        data: ImdbDataset,
        index: InvertedIndex,
        catalog: TemplateCatalog,
    }

    fn fixture() -> Fixture {
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        let index = InvertedIndex::build(&data.db);
        let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
        Fixture {
            data,
            index,
            catalog,
        }
    }

    fn intent_of(q: &keybridge_datagen::WorkloadQuery) -> IntentDescription {
        IntentDescription {
            bindings: q
                .intent
                .bindings
                .iter()
                .map(|b| (b.keywords.clone(), b.table.clone(), b.attr.clone()))
                .collect(),
            tables: q.intent.tables.clone(),
        }
    }

    #[test]
    fn session_shrinks_and_retains_target() {
        let f = fixture();
        let w = Workload::imdb(
            &f.data,
            WorkloadConfig {
                seed: 3,
                n_queries: 25,
                mc_fraction: 0.6,
            },
        );
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let mut ran = 0;
        for q in &w.queries {
            let query = KeywordQuery::from_terms(q.keywords.clone());
            let ranked = interp.ranked_interpretations(&query);
            if ranked.is_empty() {
                continue;
            }
            let user = SimulatedUser {
                db: &f.data.db,
                catalog: &f.catalog,
                intent: intent_of(q),
            };
            let Some(outcome) = user.run(&ranked, SessionConfig::default()) else {
                continue; // generation missed the intent; skip like the paper
            };
            ran += 1;
            assert!(outcome.target_retained, "target lost for {:?}", q.keywords);
            assert!(outcome.remaining <= ranked.len());
            if ranked.len() > 5 {
                assert!(outcome.steps >= 1);
            }
        }
        assert!(ran >= 10, "too few runnable queries: {ran}");
    }

    #[test]
    fn construction_cost_bounded_by_log_for_uniform() {
        // With near-uniform probabilities, IG splitting halves the space, so
        // steps should be O(log n) + stop window slack, far below n.
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig {
                prob: keybridge_core::ProbabilityConfig::baseline(),
                ..Default::default()
            },
        );
        let q = KeywordQuery::from_terms(vec!["hanks".into()]);
        let ranked = interp.ranked_interpretations(&q);
        if ranked.len() < 8 {
            return; // dataset too small to say anything
        }
        let mut session = ConstructionSession::new(&f.catalog, &ranked, SessionConfig::default());
        let target = ranked.last().unwrap().interpretation.clone();
        while !session.finished(&f.catalog) {
            let o = session.next_option(&f.catalog).unwrap();
            let a = o.subsumed_by(&target, &f.catalog);
            session.apply(&f.catalog, o, a);
        }
        assert!(
            session.steps() <= 2 * (ranked.len() as f64).log2().ceil() as usize + 4,
            "steps {} too high for {} candidates",
            session.steps(),
            ranked.len()
        );
        assert!(session.remaining().iter().any(|(c, _)| *c == target));
    }

    #[test]
    fn rank_of_target_is_one_based() {
        let f = fixture();
        let w = Workload::imdb(
            &f.data,
            WorkloadConfig {
                seed: 4,
                n_queries: 10,
                mc_fraction: 0.0,
            },
        );
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        for q in &w.queries {
            let query = KeywordQuery::from_terms(q.keywords.clone());
            let ranked = interp.ranked_interpretations(&query);
            let user = SimulatedUser {
                db: &f.data.db,
                catalog: &f.catalog,
                intent: intent_of(q),
            };
            if let Some(r) = user.rank_of_target(&ranked) {
                assert!(r >= 1 && r <= ranked.len());
            }
        }
    }

    #[test]
    fn for_query_builds_topk_window() {
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let session = ConstructionSession::for_query(&interp, &q, 20, SessionConfig::default());
        let manual = interp.top_k_complete(&q, 20);
        assert_eq!(session.remaining().len(), manual.len());
        for ((c, p), s) in session.remaining().iter().zip(&manual) {
            assert_eq!(*c, s.interpretation);
            assert!((p - s.probability.max(1e-12)).abs() < 1e-12);
        }
    }

    #[test]
    fn window_answers_execute_remaining_candidates() {
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let session = ConstructionSession::for_query(&interp, &q, 10, SessionConfig::default());
        let answers = session.window_answers(&f.data.db, &f.index, &f.catalog, 5);
        assert!(!answers.is_empty(), "window produced no answers");
        for (i, r) in &answers {
            assert!(*i < session.remaining().len());
            assert!(!r.is_empty());
            assert!(r.len() <= 5);
        }
        // Window order is preserved.
        assert!(answers.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn window_answers_with_cache_replays_identically() {
        // Repeated refreshes through one cache must return byte-identical
        // results while re-intersecting no predicates (the cached executor
        // seam the satellite fix routes through).
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let session = ConstructionSession::for_query(&interp, &q, 10, SessionConfig::default());
        let cold = session.window_answers(&f.data.db, &f.index, &f.catalog, 5);
        let mut cache = keybridge_core::ExecCache::new();
        let first =
            session.window_answers_with_cache(&f.data.db, &f.index, &f.catalog, 5, &mut cache);
        let predicates_after_first = cache.predicate_count();
        let hits_after_first = cache.predicate_hits;
        let second =
            session.window_answers_with_cache(&f.data.db, &f.index, &f.catalog, 5, &mut cache);
        assert_eq!(
            cache.predicate_count(),
            predicates_after_first,
            "refresh re-materialized predicates"
        );
        assert!(
            cache.predicate_hits > hits_after_first || cache.result_hits > 0,
            "refresh never hit the cache"
        );
        for (run, name) in [(&first, "first"), (&second, "second")] {
            assert_eq!(cold.len(), run.len(), "{name}");
            for ((ci, cr), (ri, rr)) in cold.iter().zip(run.iter()) {
                assert_eq!(ci, ri, "{name}");
                assert_eq!(cr.jtts, rr.jtts, "{name}");
                assert_eq!(cr.keys, rr.keys, "{name}");
            }
        }
    }

    #[test]
    fn deterministic_option_sequence() {
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let ranked = interp.ranked_interpretations(&q);
        if ranked.len() < 3 {
            return;
        }
        let s1 = ConstructionSession::new(&f.catalog, &ranked, SessionConfig::default());
        let s2 = ConstructionSession::new(&f.catalog, &ranked, SessionConfig::default());
        assert_eq!(s1.next_option(&f.catalog), s2.next_option(&f.catalog));
    }
}
