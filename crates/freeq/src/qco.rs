//! Query construction options over large schemas and their efficiency
//! measure (§5.5).

use crate::ontology::SchemaOntology;
use crate::traversal::LazyInterpretation;
use keybridge_relstore::TableId;

/// A FreeQ construction option, always about one keyword position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FreeQOption {
    /// "Keyword `k` is a value inside concept `c`" — the ontology-based QCO.
    KeywordInConcept { keyword: usize, concept: usize },
    /// "Keyword `k` is a value of table `t`" — the plain schema-level QCO.
    KeywordInTable { keyword: usize, table: TableId },
}

impl FreeQOption {
    /// Whether `interp` subsumes this option.
    pub fn subsumed_by(
        &self,
        interp: &LazyInterpretation,
        ontology: Option<&SchemaOntology>,
    ) -> bool {
        match *self {
            FreeQOption::KeywordInTable { keyword, table } => {
                interp.bindings.get(keyword).map(|a| a.table) == Some(table)
            }
            FreeQOption::KeywordInConcept { keyword, concept } => match ontology {
                Some(o) => interp
                    .bindings
                    .get(keyword)
                    .is_some_and(|a| o.contains(concept, a.table)),
                None => false,
            },
        }
    }
}

/// Shannon entropy of normalized weights.
pub(crate) fn entropy(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &w in weights {
        let p = w / total;
        if p > 0.0 {
            h -= p * p.log2();
        }
    }
    h
}

/// The efficiency of a QCO (§5.5.2): the information it reveals about the
/// interpretation space, `IG(I|O) = H(I) − E[H(I | answer)]`, measured over
/// `candidates` with probability weights `probs`. An efficient QCO splits
/// probability mass evenly; a useless one (subsuming everything or nothing)
/// scores 0.
pub fn qco_efficiency(
    option: FreeQOption,
    candidates: &[LazyInterpretation],
    probs: &[f64],
    ontology: Option<&SchemaOntology>,
) -> f64 {
    debug_assert_eq!(candidates.len(), probs.len());
    split_gain(entropy(probs), probs, |i| {
        option.subsumed_by(&candidates[i], ontology)
    })
}

/// [`qco_efficiency`] given `h = entropy(probs)`, with `accepts(i)` telling
/// whether candidate `i` subsumes the option: a session computes `h` once
/// per step instead of once per option.
pub(crate) fn split_gain(h: f64, probs: &[f64], accepts: impl Fn(usize) -> bool) -> f64 {
    let (mut acc, mut rej) = (Vec::new(), Vec::new());
    for (i, &p) in probs.iter().enumerate() {
        if accepts(i) {
            acc.push(p);
        } else {
            rej.push(p);
        }
    }
    let total: f64 = probs.iter().sum();
    if total <= 0.0 || acc.is_empty() || rej.is_empty() {
        return 0.0;
    }
    let pa: f64 = acc.iter().sum::<f64>() / total;
    h - (pa * entropy(&acc) + (1.0 - pa) * entropy(&rej))
}

/// All options derivable from a candidate set: per keyword, the distinct
/// bound tables; with an ontology, also every ancestor concept of those
/// tables (excluding the root, which never discriminates).
pub fn derive_options<'a>(
    candidates: impl IntoIterator<Item = &'a LazyInterpretation>,
    ontology: Option<&SchemaOntology>,
) -> Vec<FreeQOption> {
    use std::collections::BTreeSet;
    let mut out: BTreeSet<FreeQOption> = BTreeSet::new();
    for c in candidates {
        for (k, attr) in c.bindings.iter().enumerate() {
            out.insert(FreeQOption::KeywordInTable {
                keyword: k,
                table: attr.table,
            });
            if let Some(o) = ontology {
                if let Some(leaf) = o.concept_of(attr.table) {
                    for anc in o.ancestors(leaf) {
                        if anc != 0 {
                            out.insert(FreeQOption::KeywordInConcept {
                                keyword: k,
                                concept: anc,
                            });
                        }
                    }
                }
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_relstore::{AttrId, AttrRef};

    fn interp(tables: &[u32], score: f64) -> LazyInterpretation {
        let bindings: Vec<AttrRef> = tables
            .iter()
            .map(|&t| AttrRef {
                table: TableId(t),
                attr: AttrId(1),
            })
            .collect();
        let mut ts: Vec<TableId> = tables.iter().map(|&t| TableId(t)).collect();
        ts.sort();
        ts.dedup();
        LazyInterpretation {
            bindings,
            tables: ts,
            log_score: score,
        }
    }

    fn ontology_two_domains() -> SchemaOntology {
        // Domain A: tables 0..4, Domain B: tables 5..9.
        SchemaOntology::from_domains(&[
            ("a".to_owned(), (0..5).map(TableId).collect()),
            ("b".to_owned(), (5..10).map(TableId).collect()),
        ])
    }

    #[test]
    fn concept_option_prunes_whole_domain() {
        let o = ontology_two_domains();
        // 10 candidates: keyword 0 bound to tables 0..10 uniformly.
        let cands: Vec<LazyInterpretation> = (0..10).map(|t| interp(&[t], 0.0)).collect();
        let probs = vec![0.1; 10];
        let concept_opt = FreeQOption::KeywordInConcept {
            keyword: 0,
            concept: 1, // domain a
        };
        let table_opt = FreeQOption::KeywordInTable {
            keyword: 0,
            table: TableId(0),
        };
        let eff_concept = qco_efficiency(concept_opt, &cands, &probs, Some(&o));
        let eff_table = qco_efficiency(table_opt, &cands, &probs, Some(&o));
        // Concept option halves the space (1 bit); table option removes one
        // of ten (≈ 0.47 bits).
        assert!(eff_concept > eff_table, "{eff_concept} vs {eff_table}");
        assert!((eff_concept - 1.0).abs() < 1e-9);
    }

    #[test]
    fn useless_options_score_zero() {
        let o = ontology_two_domains();
        let cands: Vec<LazyInterpretation> = (0..5).map(|t| interp(&[t], 0.0)).collect();
        let probs = vec![0.2; 5];
        // All candidates are in domain a: the concept subsumes everything.
        let all = FreeQOption::KeywordInConcept {
            keyword: 0,
            concept: 1,
        };
        assert_eq!(qco_efficiency(all, &cands, &probs, Some(&o)), 0.0);
        // No candidate is in domain b.
        let none = FreeQOption::KeywordInConcept {
            keyword: 0,
            concept: 2,
        };
        assert_eq!(qco_efficiency(none, &cands, &probs, Some(&o)), 0.0);
    }

    #[test]
    fn derive_includes_tables_and_concepts() {
        let o = ontology_two_domains();
        let cands = vec![interp(&[0, 5], 0.0), interp(&[1, 6], -1.0)];
        let opts = derive_options(&cands, Some(&o));
        assert!(opts.contains(&FreeQOption::KeywordInTable {
            keyword: 0,
            table: TableId(0)
        }));
        assert!(opts.contains(&FreeQOption::KeywordInConcept {
            keyword: 0,
            concept: 1
        }));
        assert!(opts.contains(&FreeQOption::KeywordInConcept {
            keyword: 1,
            concept: 2
        }));
        // Root concept excluded.
        assert!(!opts
            .iter()
            .any(|o| matches!(o, FreeQOption::KeywordInConcept { concept: 0, .. })));
        // Without an ontology only table options appear.
        let plain = derive_options(&cands, None);
        assert!(plain
            .iter()
            .all(|o| matches!(o, FreeQOption::KeywordInTable { .. })));
    }

    #[test]
    fn subsumption_per_keyword_position() {
        let o = ontology_two_domains();
        let c = interp(&[0, 5], 0.0);
        assert!(FreeQOption::KeywordInTable {
            keyword: 0,
            table: TableId(0)
        }
        .subsumed_by(&c, Some(&o)));
        assert!(!FreeQOption::KeywordInTable {
            keyword: 1,
            table: TableId(0)
        }
        .subsumed_by(&c, Some(&o)));
        assert!(FreeQOption::KeywordInConcept {
            keyword: 1,
            concept: 2
        }
        .subsumed_by(&c, Some(&o)));
        // Concept options without ontology never subsume.
        assert!(!FreeQOption::KeywordInConcept {
            keyword: 1,
            concept: 2
        }
        .subsumed_by(&c, None));
    }
}
