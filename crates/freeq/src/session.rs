//! The FreeQ construction session (§5.5.3, §5.7): the IQP interaction loop
//! over lazily-materialized candidates, with or without ontology-based QCOs.

use crate::ontology::SchemaOntology;
use crate::qco::{derive_options, entropy, split_gain, FreeQOption};
use crate::traversal::LazyInterpretation;
use keybridge_relstore::TableId;

/// Session knobs.
#[derive(Debug, Clone, Copy)]
pub struct FreeQSessionConfig {
    /// Stop when at most this many candidates remain.
    pub stop_at: usize,
    /// Safety cap on interaction steps.
    pub max_steps: usize,
}

impl Default for FreeQSessionConfig {
    fn default() -> Self {
        FreeQSessionConfig {
            stop_at: 5,
            max_steps: 500,
        }
    }
}

/// Outcome of a simulated FreeQ construction run.
#[derive(Debug, Clone, PartialEq)]
pub struct FreeQOutcome {
    /// Options the user evaluated.
    pub steps: usize,
    /// Candidates remaining at the end.
    pub remaining: usize,
    /// Whether the intended interpretation survived.
    pub target_retained: bool,
}

/// An interactive session over materialized top candidates.
pub struct FreeQSession<'a> {
    ontology: Option<&'a SchemaOntology>,
    candidates: Vec<(LazyInterpretation, f64)>,
    asked: Vec<FreeQOption>,
    steps: usize,
    config: FreeQSessionConfig,
}

impl<'a> FreeQSession<'a> {
    /// Start a session. `ontology = None` is the plain-QCO baseline of
    /// Fig. 5.2/5.4.
    pub fn new(
        ontology: Option<&'a SchemaOntology>,
        interpretations: Vec<LazyInterpretation>,
        config: FreeQSessionConfig,
    ) -> Self {
        let probs = LazyInterpretation::normalize(&interpretations);
        FreeQSession {
            ontology,
            candidates: interpretations.into_iter().zip(probs).collect(),
            asked: Vec::new(),
            steps: 0,
            config,
        }
    }

    /// Remaining candidates.
    pub fn remaining(&self) -> &[(LazyInterpretation, f64)] {
        &self.candidates
    }

    /// Options evaluated so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether to stop.
    pub fn finished(&self) -> bool {
        self.candidates.len() <= self.config.stop_at
            || self.steps >= self.config.max_steps
            || self.next_option().is_none()
    }

    /// Most efficient unasked option (§5.5.2's measure = information gain).
    pub fn next_option(&self) -> Option<FreeQOption> {
        let probs: Vec<f64> = self.candidates.iter().map(|(_, p)| *p).collect();
        let (h, total) = (entropy(&probs), probs.iter().sum::<f64>());
        let opts = derive_options(self.candidates.iter().map(|(i, _)| i), self.ontology);
        let mut best: Option<(f64, FreeQOption)> = None;
        for o in opts {
            if self.asked.contains(&o) {
                continue;
            }
            let accepts = |i: usize| o.subsumed_by(&self.candidates[i].0, self.ontology);
            // An option's answer is a function of the candidate, so its gain
            // is exactly the entropy of its accept/reject split. An option
            // whose split entropy falls clearly short of the best gain so far
            // cannot win and is not scored.
            if let Some((b, _)) = best {
                let pa = (0..probs.len())
                    .filter(|&i| accepts(i))
                    .map(|i| probs[i])
                    .sum::<f64>()
                    / total;
                if entropy(&[pa, 1.0 - pa]) + 1e-9 < b - 1e-12 {
                    continue;
                }
            }
            // `qco_efficiency`, with the step's entropy computed once.
            let eff = split_gain(h, &probs, accepts);
            if eff <= 0.0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((b, bo)) => eff > b + 1e-12 || (eff > b - 1e-12 && o < bo),
            };
            if better {
                best = Some((eff, o));
            }
        }
        best.map(|(_, o)| o)
    }

    /// Apply a verdict.
    pub fn apply(&mut self, option: FreeQOption, accepted: bool) {
        self.steps += 1;
        self.candidates.retain(|(c, _)| {
            let s = option.subsumed_by(c, self.ontology);
            if accepted {
                s
            } else {
                !s
            }
        });
        self.asked.push(option);
    }

    /// Drive the session with a truthful user whose intent binds keyword
    /// `k` to `target_tables[k]`. Returns `None` if the intent is not among
    /// the candidates (the lazy cut missed it).
    pub fn run_with_target(mut self, target_tables: &[TableId]) -> Option<FreeQOutcome> {
        let matches_target = |c: &LazyInterpretation| {
            c.bindings.len() == target_tables.len()
                && c.bindings
                    .iter()
                    .zip(target_tables)
                    .all(|(a, t)| a.table == *t)
        };
        if !self.candidates.iter().any(|(c, _)| matches_target(c)) {
            return None;
        }
        while self.candidates.len() > self.config.stop_at && self.steps < self.config.max_steps {
            let Some(option) = self.next_option() else {
                break;
            };
            let accept = match option {
                FreeQOption::KeywordInTable { keyword, table } => {
                    target_tables.get(keyword) == Some(&table)
                }
                FreeQOption::KeywordInConcept { keyword, concept } => {
                    self.ontology.is_some_and(|o| {
                        target_tables
                            .get(keyword)
                            .is_some_and(|t| o.contains(concept, *t))
                    })
                }
            };
            self.apply(option, accept);
        }
        let target_retained = self.candidates.iter().any(|(c, _)| matches_target(c));
        Some(FreeQOutcome {
            steps: self.steps,
            remaining: self.candidates.len(),
            target_retained,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{LazyExplorer, TraversalConfig};
    use keybridge_core::KeywordQuery;
    use keybridge_datagen::{FreebaseConfig, FreebaseDataset};
    use keybridge_index::InvertedIndex;

    struct Fixture {
        fb: FreebaseDataset,
        idx: InvertedIndex,
        ontology: SchemaOntology,
    }

    fn fixture() -> Fixture {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(1)).unwrap();
        let idx = InvertedIndex::build(&fb.db);
        let domains: Vec<(String, Vec<TableId>)> = fb
            .domains
            .iter()
            .map(|d| (d.name.clone(), d.tables.clone()))
            .collect();
        let ontology = SchemaOntology::from_domains(&domains);
        Fixture { fb, idx, ontology }
    }

    /// A keyword + the tables binding it (from actual index content).
    fn ambiguous_keyword(f: &Fixture) -> (String, Vec<TableId>) {
        // Pick the keyword occurring in the most type tables.
        let mut best: Option<(String, usize)> = None;
        for (_, row) in f.fb.db.table(f.fb.topic).rows().take(100) {
            let name = row[1].as_text().unwrap();
            for tok in name.split(' ') {
                let n = f.idx.attrs_containing(tok).len();
                if best.as_ref().is_none_or(|(_, b)| n > *b) {
                    best = Some((tok.to_owned(), n));
                }
            }
        }
        let (kw, _) = best.unwrap();
        let tables: Vec<TableId> = f
            .idx
            .attrs_containing(&kw)
            .iter()
            .map(|a| a.table)
            .filter(|t| *t != f.fb.topic)
            .collect();
        (kw, tables)
    }

    #[test]
    fn ontology_sessions_cost_fewer_steps() {
        let f = fixture();
        let (kw, _) = ambiguous_keyword(&f);
        let q = KeywordQuery::from_terms(vec![kw.clone(), kw]);
        let explorer = LazyExplorer::new(&f.fb.db, &f.idx, TraversalConfig::default());
        let tops = explorer.top_interpretations(&q);
        if tops.len() < 10 {
            return; // not ambiguous enough on this tiny fixture
        }
        let target: Vec<TableId> = tops
            .last()
            .unwrap()
            .bindings
            .iter()
            .map(|a| a.table)
            .collect();

        let plain = FreeQSession::new(None, tops.clone(), FreeQSessionConfig::default())
            .run_with_target(&target)
            .expect("target among candidates");
        let onto = FreeQSession::new(
            Some(&f.ontology),
            tops.clone(),
            FreeQSessionConfig::default(),
        )
        .run_with_target(&target)
        .expect("target among candidates");

        assert!(plain.target_retained);
        assert!(onto.target_retained);
        assert!(
            onto.steps <= plain.steps,
            "ontology {} vs plain {}",
            onto.steps,
            plain.steps
        );
    }

    #[test]
    fn session_terminates_and_retains_target() {
        let f = fixture();
        let (kw, _) = ambiguous_keyword(&f);
        let q = KeywordQuery::from_terms(vec![kw]);
        let explorer = LazyExplorer::new(&f.fb.db, &f.idx, TraversalConfig::default());
        let tops = explorer.top_interpretations(&q);
        if tops.is_empty() {
            return;
        }
        for pick in [0, tops.len() / 2, tops.len() - 1] {
            let target: Vec<TableId> = tops[pick].bindings.iter().map(|a| a.table).collect();
            let out = FreeQSession::new(
                Some(&f.ontology),
                tops.clone(),
                FreeQSessionConfig::default(),
            )
            .run_with_target(&target)
            .unwrap();
            assert!(out.target_retained, "target {pick} lost");
            assert!(out.remaining <= tops.len());
        }
    }

    #[test]
    fn missing_target_reported() {
        let f = fixture();
        let (kw, _) = ambiguous_keyword(&f);
        let q = KeywordQuery::from_terms(vec![kw]);
        let explorer = LazyExplorer::new(&f.fb.db, &f.idx, TraversalConfig::default());
        let tops = explorer.top_interpretations(&q);
        // The `topic` table itself is a valid binding, so an intent on a
        // nonexistent table id is never a candidate.
        let bogus = vec![TableId(9999)];
        assert!(FreeQSession::new(None, tops, FreeQSessionConfig::default())
            .run_with_target(&bogus)
            .is_none());
    }

    #[test]
    fn steps_capped() {
        let f = fixture();
        let (kw, _) = ambiguous_keyword(&f);
        let q = KeywordQuery::from_terms(vec![kw.clone(), kw]);
        let explorer = LazyExplorer::new(&f.fb.db, &f.idx, TraversalConfig::default());
        let tops = explorer.top_interpretations(&q);
        if tops.len() < 4 {
            return;
        }
        let target: Vec<TableId> = tops[0].bindings.iter().map(|a| a.table).collect();
        let out = FreeQSession::new(
            None,
            tops,
            FreeQSessionConfig {
                stop_at: 1,
                max_steps: 3,
            },
        )
        .run_with_target(&target)
        .unwrap();
        assert!(out.steps <= 3);
    }
}
