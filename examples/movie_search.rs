//! Incremental query construction (IQP) on a movie database.
//!
//! Simulates the Fig. 3.1 interaction: a user issues an ambiguous keyword
//! query, the system proposes construction options chosen by information
//! gain, and the user's accept/reject answers zoom the query window onto the
//! intended structured query. A scripted "user" answers truthfully for a
//! workload intent; the transcript is printed.
//!
//! Run with: `cargo run --release --example movie_search`

use keybridge::core::{
    render_natural, IntentDescription, Interpreter, InterpreterConfig, KeywordQuery,
    TemplateCatalog,
};
use keybridge::datagen::{ImdbConfig, ImdbDataset, Workload, WorkloadConfig};
use keybridge::index::InvertedIndex;
use keybridge::iqp::{ConstructionSession, SessionConfig, SimulatedUser};

fn main() {
    let data = ImdbDataset::generate(ImdbConfig::default()).expect("generation succeeds");
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
    let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());

    // Take multi-concept workload queries (the ambiguous ones).
    let workload = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 11,
            n_queries: 40,
            mc_fraction: 1.0,
        },
    );

    let mut shown = 0;
    for wq in &workload.queries {
        let query = KeywordQuery::from_terms(wq.keywords.clone());
        let ranked = interpreter.ranked_interpretations(&query);
        if ranked.len() < 8 {
            continue; // want a visibly ambiguous example
        }
        let intent = IntentDescription {
            bindings: wq
                .intent
                .bindings
                .iter()
                .map(|b| (b.keywords.clone(), b.table.clone(), b.attr.clone()))
                .collect(),
            tables: wq.intent.tables.clone(),
        };
        let user = SimulatedUser {
            db: &data.db,
            catalog: &catalog,
            intent,
        };
        let Some(target) = user.find_target(&ranked).cloned() else {
            continue;
        };
        let rank = user.rank_of_target(&ranked).expect("target is ranked");

        println!("keyword query : \"{query}\"");
        println!("candidates    : {}", ranked.len());
        println!(
            "intended query: {} (rank {rank} in the list)",
            render_natural(&data.db, &catalog, &target)
        );
        println!("--- construction session ---");
        let mut session = ConstructionSession::new(&catalog, &ranked, SessionConfig::default());
        while !session.finished(&catalog) {
            let Some(option) = session.next_option(&catalog) else {
                break;
            };
            let accept = option.subsumed_by(&target, &catalog);
            println!(
                "  Q{}: {}  ->  {}",
                session.steps() + 1,
                option.describe(&data.db, &catalog),
                if accept { "yes" } else { "no" }
            );
            session.apply(&catalog, option, accept);
        }
        println!(
            "after {} options the query window holds {} interpretations:",
            session.steps(),
            session.remaining().len()
        );
        for (c, p) in session.remaining() {
            let marker = if **c == target { " <= intended" } else { "" };
            println!(
                "  p={:5.3}  {}{}",
                p,
                render_natural(&data.db, &catalog, c),
                marker
            );
        }
        // The payoff: execute the final window through the batched
        // hash-join engine and show actual answer tuples.
        let window = session.window_answers(&data.db, &index, &catalog, 3);
        println!("window answers ({} non-empty candidates):", window.len());
        for (i, result) in window.iter().take(3) {
            let (c, _) = &session.remaining()[*i];
            let tpl = catalog.get(c.template);
            for jtt in result.jtts.iter().take(2) {
                let cells: Vec<String> = jtt
                    .iter()
                    .zip(&tpl.tree.nodes)
                    .map(|(row, table)| {
                        let t = data.db.schema().table(*table);
                        format!("{}({})", t.name, data.db.table(*table).row(*row)[1])
                    })
                    .collect();
                println!("  [{}] {}", i, cells.join(" ⋈ "));
            }
        }
        println!();
        shown += 1;
        if shown >= 3 {
            break;
        }
    }
    if shown == 0 {
        println!("no sufficiently ambiguous workload query found — rerun with another seed");
    }
}
