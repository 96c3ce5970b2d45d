//! Diversification of keyword-search results (DivQ).
//!
//! Reproduces the Table 4.1 experience interactively: for an ambiguous
//! keyword query, print the top-k interpretations once ranked purely by
//! relevance and once re-ranked by the diversification algorithm, together
//! with the result overlap each ordering accumulates.
//!
//! Run with: `cargo run --release --example diversify`

use keybridge::core::{
    execute_interpretation, render_natural, Interpreter, InterpreterConfig, KeywordQuery,
    TemplateCatalog,
};
use keybridge::datagen::{ImdbConfig, ImdbDataset};
use keybridge::divq::{div_pool, diversify, DiversifyConfig};
use keybridge::index::InvertedIndex;
use keybridge::relstore::ExecOptions;
use std::collections::BTreeSet;

fn main() {
    let data = ImdbDataset::generate(ImdbConfig::default()).expect("generation succeeds");
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
    let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());

    // A single ambiguous surname: many structurally different readings.
    // `top_k` generates the diversification pool best-first; the exhaustive
    // interpretation space is never materialized.
    let query = KeywordQuery::parse(index.tokenizer(), "stone pictures");
    let ranked = interpreter.top_k_complete(&query, 25);
    println!(
        "query \"{query}\": top {} interpretations generated\n",
        ranked.len()
    );
    if ranked.is_empty() {
        return;
    }

    let items = div_pool(&ranked, &catalog);
    let k = 5.min(items.len());
    let div_order = diversify(&items, DiversifyConfig { lambda: 0.1, k });

    // Accumulated result keys show the redundancy difference.
    let keys_of = |idx: usize| -> BTreeSet<_> {
        execute_interpretation(
            &data.db,
            &index,
            &catalog,
            &ranked[idx].interpretation,
            ExecOptions::default(),
        )
        .map(|r| std::sync::Arc::unwrap_or_clone(r.keys))
        .unwrap_or_default()
    };

    println!("top-{k} by relevance ranking:");
    let mut seen = BTreeSet::new();
    for (i, s) in ranked.iter().enumerate().take(k) {
        let keys = keys_of(i);
        let new = keys.difference(&seen).count();
        println!(
            "  p={:5.3}  (+{new:3} new tuples)  {}",
            s.probability,
            render_natural(&data.db, &catalog, &s.interpretation)
        );
        seen.extend(keys);
    }

    println!("\ntop-{k} after diversification (λ = 0.1):");
    let mut seen = BTreeSet::new();
    for &i in &div_order {
        let keys = keys_of(i);
        let new = keys.difference(&seen).count();
        println!(
            "  p={:5.3}  (+{new:3} new tuples)  {}",
            ranked[i].probability,
            render_natural(&data.db, &catalog, &ranked[i].interpretation)
        );
        seen.extend(keys);
    }
}
