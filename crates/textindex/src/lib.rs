//! # keybridge-index
//!
//! Inverted index over the textual attributes of a [`keybridge_relstore`]
//! database, in the style of §2.2.1 of the paper (Fig. 2.1): the dictionary
//! maps terms to postings at *(table, attribute, row)* granularity, and the
//! index additionally maintains the per-attribute statistics that the
//! probabilistic interpretation model consumes:
//!
//! * **TF / ATF** — attribute term frequency (Eq. 3.8): how typical a term is
//!   among the values of an attribute, with additive smoothing;
//! * **joint ATF** — co-occurrence frequency of a keyword *bag* inside one
//!   attribute (the DivQ refinement of Eq. 4.2);
//! * **DF / IDF** — per-attribute document frequency, used by the SQAK
//!   baseline's TF-IDF scoring;
//! * **schema terms** — matches of keywords against table and attribute
//!   names (metadata interpretations, §2.2.7).

mod index;
mod token;

pub use index::{
    for_each_joint_row, AttrStats, InvertedIndex, Postings, PostingsRepr, SchemaTarget,
    TermAttrEntry,
};
pub use token::Tokenizer;
