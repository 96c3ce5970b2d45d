//! The diversification scheme (§4.4): Jaccard similarity between query
//! interpretations and the greedy relevance/novelty selection of Alg. 4.1.
//!
//! The algorithmic core ([`DivItem`], [`jaccard`], [`diversify`],
//! [`div_pool`]) lives in `keybridge_core::pipeline` so the concurrent
//! serving layer can run it (`Request::Diversified`); this module
//! re-exports it and keeps the *offline* pool builder —
//! [`executed_div_pool`] — which is the cold single-threaded oracle the
//! served mode is differentially tested against.

pub use keybridge_core::{div_pool, diversify, jaccard, DivItem, DiversifyConfig};

use keybridge_core::{
    ExecCache, Interpreter, InterpreterConfig, NonemptyCache, QueryPipeline, ResultKey,
    ScoredInterpretation, TemplateCatalog,
};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{Database, ExecOptions, ExecStats};
use std::collections::BTreeSet;

/// Execution knobs of the diversification pool build.
#[derive(Debug, Clone, Copy)]
pub struct DivExecOptions {
    /// Materialization cap: JTTs executed per pool interpretation. Bounds
    /// the work a single broad interpretation can cost the pool; result
    /// keys (the Chapter 4 subtopics) are computed over at most this many
    /// tuple trees.
    pub limit: usize,
}

impl Default for DivExecOptions {
    fn default() -> Self {
        // The historical hardcoded cap of the Chapter 4 experiment harness.
        DivExecOptions { limit: 500 }
    }
}

/// Build the diversification pool *with executed results*: each ranked
/// interpretation is run through the batched hash-join executor (at most
/// `opts.limit` JTTs), interpretations with empty results are dropped (the
/// DivQ zero-probability condition, §4.4.1), and one shared [`ExecCache`]
/// keeps predicates common across the pool intersected once. Returns the
/// surviving pool items, their result-key sets (the subtopics of the
/// Chapter 4 metrics), and the aggregated executor counters.
pub fn executed_div_pool(
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    ranked: &[ScoredInterpretation],
    opts: DivExecOptions,
) -> (Vec<DivItem>, Vec<BTreeSet<ResultKey>>, ExecStats) {
    let interpreter = Interpreter::new(db, index, catalog, InterpreterConfig::default());
    let (mut gen_cache, mut cache) = (NonemptyCache::new(), ExecCache::new());
    let pool = QueryPipeline::new(
        &interpreter,
        ExecOptions::default(),
        &mut gen_cache,
        &mut cache,
    )
    .executed_pool(ranked, opts.limit);
    (pool.items, pool.keys, pool.stats.exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_core::{BindingAtom, BindingAtomKind};
    use keybridge_relstore::{AttrId, AttrRef, TableId};

    fn atom(table: u32, attr: u32, kw: &str) -> BindingAtom {
        BindingAtom {
            keyword: kw.to_owned(),
            kind: BindingAtomKind::Value,
            attr: AttrRef {
                table: TableId(table),
                attr: AttrId(attr),
            },
        }
    }

    fn set(atoms: &[BindingAtom]) -> BTreeSet<BindingAtom> {
        atoms.iter().cloned().collect()
    }

    #[test]
    fn jaccard_basics() {
        let a = set(&[atom(0, 1, "x"), atom(0, 2, "y")]);
        let b = set(&[atom(0, 1, "x"), atom(1, 1, "y")]);
        assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12);
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        let empty = BTreeSet::new();
        assert_eq!(jaccard(&empty, &empty), 1.0);
        assert_eq!(jaccard(&a, &empty), 0.0);
    }

    #[test]
    fn most_relevant_always_first() {
        let items = vec![
            DivItem {
                relevance: 0.9,
                atoms: set(&[atom(0, 1, "x")]),
            },
            DivItem {
                relevance: 0.5,
                atoms: set(&[atom(1, 1, "x")]),
            },
        ];
        let sel = diversify(&items, DiversifyConfig { lambda: 0.1, k: 2 });
        assert_eq!(sel[0], 0);
    }

    #[test]
    fn redundant_runner_up_demoted() {
        // Item 1 nearly duplicates item 0; item 2 is different but less
        // relevant. With novelty-heavy λ the diverse item wins slot 2.
        let items = vec![
            DivItem {
                relevance: 0.9,
                atoms: set(&[atom(0, 1, "hanks"), atom(0, 1, "tom")]),
            },
            DivItem {
                relevance: 0.8,
                atoms: set(&[atom(0, 1, "hanks"), atom(0, 1, "tom")]),
            },
            DivItem {
                relevance: 0.4,
                atoms: set(&[atom(2, 1, "hanks"), atom(3, 1, "tom")]),
            },
        ];
        let sel = diversify(&items, DiversifyConfig { lambda: 0.1, k: 3 });
        assert_eq!(sel, vec![0, 2, 1]);
        // Pure relevance keeps the original order.
        let sel_rel = diversify(&items, DiversifyConfig { lambda: 1.0, k: 3 });
        assert_eq!(sel_rel, vec![0, 1, 2]);
    }

    #[test]
    fn k_larger_than_n_selects_all() {
        let items = vec![
            DivItem {
                relevance: 0.6,
                atoms: set(&[atom(0, 1, "a")]),
            },
            DivItem {
                relevance: 0.4,
                atoms: set(&[atom(1, 1, "a")]),
            },
        ];
        let sel = diversify(&items, DiversifyConfig { lambda: 0.5, k: 10 });
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(diversify(&[], DiversifyConfig::default()).is_empty());
        let items = vec![DivItem {
            relevance: 1.0,
            atoms: BTreeSet::new(),
        }];
        assert!(diversify(&items, DiversifyConfig { lambda: 0.5, k: 0 }).is_empty());
    }

    #[test]
    fn div_exec_options_default_keeps_the_historical_cap() {
        assert_eq!(DivExecOptions::default().limit, 500);
    }

    #[test]
    fn early_stop_matches_exhaustive_scan() {
        // The upper-bound pruning must not change the outcome.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(3..20);
            let mut items: Vec<DivItem> = (0..n)
                .map(|_| {
                    let n_atoms = rng.gen_range(1..4);
                    let atoms: BTreeSet<BindingAtom> = (0..n_atoms)
                        .map(|_| {
                            atom(
                                rng.gen_range(0..4),
                                rng.gen_range(0..3),
                                ["a", "b", "c"][rng.gen_range(0..3usize)],
                            )
                        })
                        .collect();
                    DivItem {
                        relevance: rng.gen_range(0.01..1.0),
                        atoms,
                    }
                })
                .collect();
            items.sort_by(|a, b| b.relevance.partial_cmp(&a.relevance).unwrap());
            let cfg = DiversifyConfig { lambda: 0.3, k: 5 };
            let fast = diversify(&items, cfg);
            let slow = diversify_reference(&items, cfg);
            assert_eq!(fast, slow);
        }
    }

    /// Reference implementation without the early-stop bound.
    fn diversify_reference(items: &[DivItem], cfg: DiversifyConfig) -> Vec<usize> {
        let n = items.len();
        if n == 0 || cfg.k == 0 {
            return Vec::new();
        }
        let mean_rel = items.iter().map(|i| i.relevance).sum::<f64>() / n as f64;
        let mut sim_sum = 0.0;
        let mut cnt = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                sim_sum += jaccard(&items[i].atoms, &items[j].atoms);
                cnt += 1;
            }
        }
        let mean_sim = if cnt > 0 { sim_sum / cnt as f64 } else { 0.0 };
        let rel_scale = if mean_rel > 0.0 { 1.0 / mean_rel } else { 1.0 };
        let sim_scale = if mean_sim > 0.0 { 1.0 / mean_sim } else { 1.0 };
        let mut selected = vec![0usize];
        let mut avail: Vec<usize> = (1..n).collect();
        while selected.len() < cfg.k.min(n) {
            let (pos, _) = avail
                .iter()
                .enumerate()
                .map(|(pos, &j)| {
                    let avg = selected
                        .iter()
                        .map(|&s| jaccard(&items[s].atoms, &items[j].atoms))
                        .sum::<f64>()
                        / selected.len() as f64;
                    (
                        pos,
                        cfg.lambda * items[j].relevance * rel_scale
                            - (1.0 - cfg.lambda) * avg * sim_scale,
                    )
                })
                .max_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        // Ties: prefer the earlier (more relevant) item,
                        // i.e. the SMALLER position, matching the scan order
                        // of the fast implementation.
                        .then(b.0.cmp(&a.0))
                })
                .unwrap();
            selected.push(avail.remove(pos));
        }
        selected
    }
}
