//! The end-to-end reference pipeline the differential and golden suites
//! compare `answers_top_k` against: exhaustive generation
//! (`ranked_with_partials`) walked in rank order, each interpretation run on
//! the naive nested-loop executor, JTTs taken until `k` answers exist.

use keybridge::core::{
    bound_nodes, execute_interpretation_naive, Interpreter, KeywordQuery, RankedAnswer, ResultKey,
};
use keybridge::relstore::ExecOptions;

pub fn oracle_answers(
    interp: &Interpreter<'_>,
    query: &KeywordQuery,
    k: usize,
) -> Vec<RankedAnswer> {
    let (db, catalog) = (interp.db(), interp.catalog());
    let mut answers = Vec::new();
    for s in interp.ranked_with_partials(query) {
        if answers.len() >= k {
            break;
        }
        let opts = ExecOptions {
            limit: k - answers.len(),
            ..Default::default()
        };
        // Like the pipeline, skip interpretations the executor refuses
        // (the intermediate-blowup guard).
        let Ok(res) =
            execute_interpretation_naive(db, interp.index(), catalog, &s.interpretation, opts)
        else {
            continue;
        };
        let nodes = &catalog.get(s.interpretation.template).tree.nodes;
        let bound = bound_nodes(&s.interpretation, nodes.len());
        for jtt in res.jtts {
            let mut keys: Vec<ResultKey> = (0..nodes.len())
                .filter(|&node| bound[node])
                .map(|node| ResultKey {
                    table: nodes[node],
                    pk: db.pk_value(nodes[node], jtt[node]),
                })
                .collect();
            keys.sort();
            keys.dedup();
            answers.push(RankedAnswer {
                interpretation: s.interpretation.clone(),
                log_score: s.log_score,
                jtt,
                keys,
            });
        }
    }
    answers
}
