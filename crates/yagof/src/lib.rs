//! # keybridge-yagof
//!
//! YAGO+F: combining a large-scale database with an ontology (Chapter 6).
//!
//! Freebase and YAGO share a large number of instances (both descend from
//! Wikipedia); their *schemas* were never aligned. This crate implements the
//! alignment pipeline the thesis describes:
//!
//! * [`analyze`] — the structural analysis of the ontology: category-kind
//!   distribution (Table 6.1), instance distribution over categories
//!   (Table 6.2), and the distribution of shared instances across database
//!   domains (Fig. 6.2);
//! * [`matching`] — instance-overlap matching of categories to tables
//!   (§6.5): a category and a table match when the overlap of their instance
//!   sets is large relative to both (harmonic-mean score with a threshold);
//! * [`mod@combine`] — the resulting YAGO+F hierarchy: matched tables attached
//!   to categories, with the coverage statistics of Table 6.3;
//! * [`quality`] — precision/recall of the matching against the generator's
//!   hidden gold mapping (Fig. 6.4; the thesis used manual assessment).

pub mod analyze;
pub mod combine;
pub mod matching;
pub mod quality;

pub use analyze::{
    category_kind_distribution, instance_histogram, shared_instance_distribution, KindRow,
};
pub use combine::{combine, YagoF, YagoFStats};
pub use matching::{match_categories, CategoryMatch, MatchConfig};
pub use quality::{evaluate_matching, MatchQuality};
