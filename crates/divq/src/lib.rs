//! # keybridge-divq
//!
//! DivQ: diversification of keyword-search results over structured data
//! (Chapter 4).
//!
//! DivQ re-ranks the query interpretations produced by [`keybridge_core`]
//! *before* any results are materialized: relevance comes from the
//! probabilistic disambiguation model, novelty from the structural
//! dissimilarity between interpretations. The crate provides:
//!
//! * [`jaccard`] / [`DivItem`] — interpretation similarity as the Jaccard
//!   coefficient over keyword-interpretation sets (Eq. 4.3);
//! * [`fn@diversify`] — the greedy top-k selection of Alg. 4.1 with the
//!   λ-weighted relevance/novelty score (Eq. 4.4) and its score upper-bound
//!   early termination;
//! * [`metrics`] — α-nDCG-W (Eqs. 4.5–4.6) and WS-recall (Eq. 4.7), the
//!   paper's graded-relevance, overlap-aware adaptations of α-nDCG and
//!   S-recall, plus the unweighted originals for comparison;
//! * [`assess`] — a simulated assessor population standing in for the
//!   §4.6.2 user study (16 participants, two-point Likert scale, partial
//!   agreement).

pub mod assess;
pub mod diversify;
pub mod metrics;

pub use assess::{simulate_assessments, AssessConfig};
pub use diversify::{
    div_pool, diversify, executed_div_pool, jaccard, DivExecOptions, DivItem, DiversifyConfig,
};
pub use metrics::{alpha_ndcg_w, s_recall, ws_recall, EvalItem};
