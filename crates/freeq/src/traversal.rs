//! Incremental exploration of very large interpretation spaces (§5.6).
//!
//! Over a Freebase-scale schema the interpretation space of a keyword query
//! cannot be materialized: each keyword may occur in hundreds of attributes,
//! and the space is their cross product. [`LazyExplorer`] materializes only
//! the top of the query hierarchy, best-first: partial interpretations
//! (assignments of a keyword-prefix) are expanded in order of an admissible
//! score upper bound, so the first `top_n` complete interpretations popped
//! are exactly the `top_n` most probable ones — without visiting more than
//! an O(top_n · per-keyword-candidates) slice of the space.
//!
//! Entity-centric model (§5.4.1): over the flat schema every keyword maps to
//! a value of some type table's text attribute, and multi-table
//! interpretations join through the shared `topic` hub. Each extra table
//! multiplies a join penalty into the score, standing in for the template
//! prior of the medium-scale model.

use keybridge_core::KeywordQuery;
use keybridge_index::InvertedIndex;
use keybridge_relstore::{AttrRef, Database, TableId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Traversal knobs.
#[derive(Debug, Clone, Copy)]
pub struct TraversalConfig {
    /// How many complete interpretations to materialize.
    pub top_n: usize,
    /// Candidate attributes considered per keyword (ATF-descending cut).
    pub per_keyword_candidates: usize,
    /// ATF smoothing.
    pub alpha: f64,
    /// Log-space penalty per table beyond the first (join cost / template
    /// prior stand-in). More negative = stronger preference for compact
    /// interpretations.
    pub join_log_penalty: f64,
}

impl Default for TraversalConfig {
    fn default() -> Self {
        TraversalConfig {
            top_n: 200,
            per_keyword_candidates: 64,
            alpha: 1.0,
            join_log_penalty: -1.6,
        }
    }
}

/// A complete interpretation materialized by the lazy traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct LazyInterpretation {
    /// One value-binding attribute per keyword, aligned with the query terms.
    pub bindings: Vec<AttrRef>,
    /// Distinct tables, sorted.
    pub tables: Vec<TableId>,
    /// Log probability (unnormalized).
    pub log_score: f64,
}

impl LazyInterpretation {
    /// Normalized probabilities for a batch of interpretations.
    pub fn normalize(items: &[LazyInterpretation]) -> Vec<f64> {
        if items.is_empty() {
            return Vec::new();
        }
        let m = items
            .iter()
            .map(|i| i.log_score)
            .fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = items.iter().map(|i| (i.log_score - m).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }
}

/// A partial interpretation in the best-first frontier.
struct Partial {
    /// The last assignment of the keyword prefix in the traversal's arena of
    /// `(parent, attr)` links; `None` for the empty prefix.
    last: Option<usize>,
    /// Keywords assigned.
    depth: usize,
    /// Exact log score of the assigned prefix (including join penalties so
    /// far).
    g: f64,
    /// Admissible upper bound on the completion (max remaining candidate
    /// scores, assuming no further join penalty).
    bound: f64,
}

impl PartialEq for Partial {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Partial {}
impl PartialOrd for Partial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Partial {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// A frontier prefix in reverse, from its last link in `links` (each a
/// `(parent, attr)` pair) back to the first keyword's assignment.
fn prefix(
    links: &[(Option<usize>, AttrRef)],
    mut at: Option<usize>,
) -> impl Iterator<Item = AttrRef> + '_ {
    std::iter::from_fn(move || {
        let (parent, attr) = links[at?];
        at = parent;
        Some(attr)
    })
}

/// The lazy best-first explorer.
pub struct LazyExplorer<'a> {
    db: &'a Database,
    index: &'a InvertedIndex,
    config: TraversalConfig,
}

impl<'a> LazyExplorer<'a> {
    pub fn new(db: &'a Database, index: &'a InvertedIndex, config: TraversalConfig) -> Self {
        LazyExplorer { db, index, config }
    }

    /// The database being explored (used by callers for rendering).
    pub fn database(&self) -> &Database {
        self.db
    }

    /// Per-keyword candidates `(attr, log ATF)`, best first, truncated.
    fn candidates(&self, query: &KeywordQuery) -> Vec<Vec<(AttrRef, f64)>> {
        query
            .terms()
            .iter()
            .map(|term| {
                let mut v: Vec<(AttrRef, f64)> = self
                    .index
                    .attrs_containing(term)
                    .iter()
                    .map(|&a| (a, self.index.atf(term, a, self.config.alpha).ln()))
                    .collect();
                v.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| (a.0.table.0, a.0.attr.0).cmp(&(b.0.table.0, b.0.attr.0)))
                });
                v.truncate(self.config.per_keyword_candidates);
                v
            })
            .collect()
    }

    /// The estimated size of the full interpretation space (product of
    /// per-keyword candidate counts *before* truncation) — Table 5.2's
    /// space column.
    pub fn space_size(&self, query: &KeywordQuery) -> u128 {
        let mut total: u128 = 1;
        for term in query.terms() {
            total = total.saturating_mul(self.index.attrs_containing(term).len() as u128);
        }
        if query.is_empty() {
            0
        } else {
            total
        }
    }

    /// Materialize the `top_n` most probable complete interpretations,
    /// best first. Returns fewer if the space is smaller.
    pub fn top_interpretations(&self, query: &KeywordQuery) -> Vec<LazyInterpretation> {
        if query.is_empty() {
            return Vec::new();
        }
        let cands = self.candidates(query);
        if cands.iter().any(|c| c.is_empty()) {
            return Vec::new(); // some keyword matches nothing
        }
        // Suffix maxima for the admissible bound.
        let n = cands.len();
        let mut suffix_max = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            suffix_max[i] = suffix_max[i + 1] + cands[i][0].1;
        }

        // Each assignment is one `(parent, attr)` link, so a push copies no
        // prefix.
        let mut links: Vec<(Option<usize>, AttrRef)> = Vec::new();
        let mut heap: BinaryHeap<Partial> = BinaryHeap::new();
        heap.push(Partial {
            last: None,
            depth: 0,
            g: 0.0,
            bound: suffix_max[0],
        });
        let mut out = Vec::with_capacity(self.config.top_n);
        // Expansion budget: generous guard against adversarial inputs.
        let mut expansions = 0usize;
        let budget = self.config.top_n * self.config.per_keyword_candidates * 50 + 10_000;

        while let Some(p) = heap.pop() {
            expansions += 1;
            if expansions > budget {
                break;
            }
            let depth = p.depth;
            if depth == n {
                let mut bindings: Vec<AttrRef> = prefix(&links, p.last).collect();
                bindings.reverse();
                let mut tables: Vec<TableId> = bindings.iter().map(|a| a.table).collect();
                tables.sort();
                tables.dedup();
                out.push(LazyInterpretation {
                    bindings,
                    tables,
                    log_score: p.g,
                });
                if out.len() >= self.config.top_n {
                    break;
                }
                continue;
            }
            for &(attr, lg) in &cands[depth] {
                // Join penalty when this attribute's table is new.
                let new_table = !prefix(&links, p.last).any(|a| a.table == attr.table);
                let penalty = if new_table && depth > 0 {
                    self.config.join_log_penalty
                } else {
                    0.0
                };
                let g = p.g + lg + penalty;
                links.push((p.last, attr));
                heap.push(Partial {
                    last: Some(links.len() - 1),
                    depth: depth + 1,
                    g,
                    bound: g + suffix_max[depth + 1],
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_datagen::{FreebaseConfig, FreebaseDataset};

    fn fixture() -> (FreebaseDataset, InvertedIndex) {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(1)).unwrap();
        let idx = InvertedIndex::build(&fb.db);
        (fb, idx)
    }

    /// A keyword that certainly occurs: a token of some topic name.
    fn common_keyword(fb: &FreebaseDataset) -> String {
        let row = fb.db.table(fb.topic).row(keybridge_relstore::RowId(0));
        let name = row[1].as_text().unwrap();
        name.split(' ').next().unwrap().to_owned()
    }

    #[test]
    fn returns_sorted_top_n() {
        let (fb, idx) = fixture();
        let kw = common_keyword(&fb);
        let q = KeywordQuery::from_terms(vec![kw.clone(), kw]);
        let explorer = LazyExplorer::new(
            &fb.db,
            &idx,
            TraversalConfig {
                top_n: 25,
                ..Default::default()
            },
        );
        let tops = explorer.top_interpretations(&q);
        assert!(!tops.is_empty());
        assert!(tops.len() <= 25);
        for w in tops.windows(2) {
            assert!(
                w[0].log_score >= w[1].log_score - 1e-9,
                "not sorted: {} < {}",
                w[0].log_score,
                w[1].log_score
            );
        }
    }

    #[test]
    fn best_first_matches_exhaustive_on_small_space() {
        let (fb, idx) = fixture();
        let kw = common_keyword(&fb);
        let q = KeywordQuery::from_terms(vec![kw.clone()]);
        let cfg = TraversalConfig {
            top_n: 1000,
            per_keyword_candidates: 1000,
            ..Default::default()
        };
        let explorer = LazyExplorer::new(&fb.db, &idx, cfg);
        let tops = explorer.top_interpretations(&q);
        // Single keyword: one interpretation per attribute containing it.
        let attrs = idx.attrs_containing(&kw);
        assert_eq!(tops.len(), attrs.len());
        // Scores must equal ln ATF exactly.
        for t in &tops {
            let expected = idx.atf(&kw, t.bindings[0], cfg.alpha).ln();
            assert!((t.log_score - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn join_penalty_prefers_single_table() {
        let (fb, idx) = fixture();
        let kw = common_keyword(&fb);
        // Two identical keywords can land in the same attribute (one table)
        // or different tables; the former must rank first when ATFs are
        // comparable because of the join penalty.
        let q = KeywordQuery::from_terms(vec![kw.clone(), kw]);
        let explorer = LazyExplorer::new(&fb.db, &idx, TraversalConfig::default());
        let tops = explorer.top_interpretations(&q);
        assert!(!tops.is_empty());
        assert_eq!(tops[0].tables.len(), 1, "single-table should win");
    }

    #[test]
    fn space_size_counts_products() {
        let (fb, idx) = fixture();
        let kw = common_keyword(&fb);
        let q1 = KeywordQuery::from_terms(vec![kw.clone()]);
        let q2 = KeywordQuery::from_terms(vec![kw.clone(), kw]);
        let explorer = LazyExplorer::new(&fb.db, &idx, TraversalConfig::default());
        let s1 = explorer.space_size(&q1);
        let s2 = explorer.space_size(&q2);
        assert!(s1 > 0);
        assert_eq!(s2, s1 * s1);
    }

    #[test]
    fn unknown_keyword_empty() {
        let (fb, idx) = fixture();
        let q = KeywordQuery::from_terms(vec!["zzzznope".into()]);
        let explorer = LazyExplorer::new(&fb.db, &idx, TraversalConfig::default());
        assert!(explorer.top_interpretations(&q).is_empty());
        assert!(explorer
            .top_interpretations(&KeywordQuery::from_terms(vec![]))
            .is_empty());
    }

    #[test]
    fn truncation_bounds_work() {
        let (fb, idx) = fixture();
        let kw = common_keyword(&fb);
        let q = KeywordQuery::from_terms(vec![kw.clone(), kw.clone(), kw]);
        let explorer = LazyExplorer::new(
            &fb.db,
            &idx,
            TraversalConfig {
                top_n: 10,
                per_keyword_candidates: 4,
                ..Default::default()
            },
        );
        let tops = explorer.top_interpretations(&q);
        assert!(tops.len() <= 10);
        let probs = LazyInterpretation::normalize(&tops);
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
