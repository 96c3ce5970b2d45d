//! Quickstart: keyword search over a small movie database.
//!
//! Builds a seeded IMDB-like database, indexes it, translates an ambiguous
//! keyword query into ranked structured queries, and executes the best one.
//!
//! Run with: `cargo run --release --example quickstart`

use keybridge::core::{
    execute_interpretation, render_natural, render_sql, DiversifyOptions, DurableOptions,
    Interpreter, InterpreterConfig, KeywordQuery, Reply, Request, SearchService, SearchSnapshot,
    ServeRequests, ServiceBuilder, SessionConfig, TemplateCatalog,
};
use keybridge::datagen::{ImdbConfig, ImdbDataset};
use keybridge::index::InvertedIndex;
use keybridge::relstore::{ExecOptions, Value};
use std::sync::Arc;

fn main() {
    // 1. Data + index + templates.
    let data = ImdbDataset::generate(ImdbConfig::default()).expect("generation succeeds");
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
    println!(
        "database: {} tables, {} rows; index: {} terms; catalog: {} templates",
        data.db.schema().table_count(),
        data.db.total_rows(),
        index.term_count(),
        catalog.len()
    );

    // 2. An ambiguous keyword query: "hanks" is a surname but also occurs in
    //    titles and roles; "terminal" is a title word and a company word.
    let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
    let query = KeywordQuery::parse(index.tokenizer(), "hanks terminal");
    let ranked = interpreter.ranked_interpretations(&query);
    println!(
        "\nquery \"{query}\" has {} candidate interpretations; top 5:",
        ranked.len()
    );
    for s in ranked.iter().take(5) {
        println!(
            "  p={:5.3}  {}",
            s.probability,
            render_natural(&data.db, &catalog, &s.interpretation)
        );
    }

    // 3. Execute the most probable interpretation through the batched
    //    hash-join executor (semi-join reduction + columnar batches).
    if let Some(best) = ranked.first() {
        println!(
            "\nSQL: {}",
            render_sql(&data.db, &catalog, &best.interpretation)
        );
        let result = execute_interpretation(
            &data.db,
            &index,
            &catalog,
            &best.interpretation,
            ExecOptions::default(),
        )
        .expect("valid interpretation executes");
        println!(
            "results: {} joining tuple trees ({} probes, {:.0}% of candidate rows \
             pruned by the semi-join pass)",
            result.len(),
            result.stats.probes,
            result.stats.semijoin_reduction() * 100.0
        );
    }

    // 4. Or skip the per-interpretation plumbing entirely: stream the top
    //    answers end to end — generation and execution interleave, and only
    //    as many bindings as needed are ever materialized.
    let (answers, stats) = interpreter.answers_top_k_with_stats(&query, 5);
    println!(
        "\ntop {} answers (of {} interpretations generated, {} executed):",
        answers.len(),
        stats.generated,
        stats.executed
    );
    for a in &answers {
        let tpl = catalog.get(a.interpretation.template);
        let cells: Vec<String> = a
            .jtt
            .iter()
            .zip(&tpl.tree.nodes)
            .map(|(row, table)| {
                let t = data.db.schema().table(*table);
                let vals = data.db.table(*table).row(*row);
                format!("{}({})", t.name, vals[1])
            })
            .collect();
        println!("  score={:7.3}  {}", a.log_score, cells.join(" ⋈ "));
    }

    // 5. Serve many users at once: bundle the immutable structures into an
    //    Arc-shared SearchSnapshot and put a SearchService worker pool in
    //    front of it. Concurrent queries share the thread-safe non-emptiness
    //    and execution caches, so each request prunes the next one's work —
    //    and every reply is byte-identical to the single-threaded path.
    let snapshot = Arc::new(SearchSnapshot::new(
        data.db,
        index,
        catalog,
        InterpreterConfig::default(),
    ));
    let service = SearchService::start(snapshot, 4);
    let tickets: Vec<_> = ["hanks terminal", "tom cruise", "hanks terminal"]
        .into_iter()
        .map(|text| {
            let query = KeywordQuery::from_terms(text.split(' ').map(str::to_owned).collect());
            (
                text,
                service.submit_request(Request::Answers { query, k: 3 }),
            )
        })
        .collect();
    println!(
        "\nserving {} concurrent requests over 4 workers:",
        tickets.len()
    );
    for (text, ticket) in tickets {
        let Some(Reply::Answers(Ok(reply))) = ticket.wait() else {
            panic!("service alive and request served without a worker panic");
        };
        println!(
            "  \"{text}\" -> {} answers (epoch {})",
            reply.answers.len(),
            reply.epoch
        );
    }
    let stats = service.stats();
    println!(
        "service stats: {} served; shared caches hold {} verdicts, {} predicates, \
         {} results ({} cross-query hits)",
        stats.served,
        stats.nonempty_entries,
        stats.predicate_entries,
        stats.result_entries,
        stats.nonempty_hits + stats.predicate_hits + stats.result_hits,
    );

    // 6. The database is live: ingest new rows while serving. A batch is
    //    validated as a unit (referential integrity included), spliced into
    //    the inverted index incrementally, and published as the next epoch —
    //    readers never block, and post-update answers are byte-identical to
    //    a from-scratch rebuild over the grown database.
    let snap = service.snapshot();
    let actor = snap.db.schema().table_id("actor").expect("imdb schema");
    let movie = snap.db.schema().table_id("movie").expect("imdb schema");
    let acts = snap.db.schema().table_id("acts").expect("imdb schema");
    let (new_actor, new_movie, new_acts) = (900_001, 900_002, 900_003);
    let batch: keybridge::relstore::RowBatch = vec![
        (
            actor,
            vec![Value::Int(new_actor), Value::text("tom stoppard")],
        ),
        (
            movie,
            vec![
                Value::Int(new_movie),
                Value::text("the terminal encore"),
                Value::Int(2024),
                Value::Int(1),
                Value::Int(1),
            ],
        ),
        (
            acts,
            vec![
                Value::Int(new_acts),
                Value::Int(new_actor),
                Value::Int(new_movie),
                Value::text("the writer"),
            ],
        ),
    ];
    let receipt = service.ingest(&batch).expect("valid batch");
    let q = KeywordQuery::from_terms(vec!["stoppard".into(), "encore".into()]);
    let reply = service.search(&q, 3);
    println!(
        "\ningested {} rows -> epoch {}; \"stoppard encore\" now finds {} answers \
         (served at epoch {})",
        receipt.rows,
        receipt.epoch,
        reply.answers.len(),
        reply.epoch
    );

    // 7. The expressive modes are served too. `Request::Diversified` returns
    //    a relevant-AND-structurally-novel interpretation list (Alg. 4.1)
    //    instead of near-duplicate readings of the same intent, and the
    //    session registry runs incremental query construction server-side —
    //    each session pinned to the epoch it was opened on, so a user's
    //    window never shifts under them while ingests land.
    let snap = service.snapshot();
    let query = KeywordQuery::from_terms(vec!["hanks".into(), "terminal".into()]);
    let diversified = Request::Diversified {
        query: query.clone(),
        opts: DiversifyOptions::default(),
    };
    let Some(Reply::Diversified(Ok(div))) = service.submit_request(diversified).wait() else {
        panic!("diversified request served");
    };
    println!(
        "\ndiversified \"hanks terminal\": {} selected from a pool of {} \
         executed interpretations (epoch {}):",
        div.answers.len(),
        div.pool,
        div.epoch
    );
    for a in div.answers.iter().take(5) {
        println!(
            "  p={:5.3} (pool rank {:2}, {} result tuples)  {}",
            a.relevance,
            a.pool_rank,
            a.keys.len(),
            render_natural(&snap.db, &snap.catalog, &a.interpretation)
        );
    }

    let mut view = service.open_session(&query, 10, SessionConfig::default());
    println!(
        "\nconstruction session {:?} opened at epoch {} with {} candidates",
        view.id, view.epoch, view.remaining
    );
    // Answer the proposed options like a user hunting the actor⋈movie
    // reading: accept everything it subsumes, reject the rest.
    while !view.finished {
        let Some(option) = view.next_option.clone() else {
            break;
        };
        let accept = view.steps.is_multiple_of(2); // a scripted user
        println!(
            "  Q{}: {}  ->  {}",
            view.steps + 1,
            option.describe(&snap.db, &snap.catalog),
            if accept { "yes" } else { "no" }
        );
        view = service
            .advance_session(view.id, &option, accept)
            .expect("session open");
    }
    let answers = service.session_answers(view.id, 3).expect("session open");
    println!(
        "after {} options the window holds {} candidates; {} answer non-empty \
         (still epoch {} — sessions are snapshot-isolated from ingests)",
        view.steps,
        view.remaining,
        answers.answers.len(),
        answers.epoch
    );
    service.close_session(view.id);

    // 8. Durability: a durable service survives process death. Every
    //    accepted batch is appended to a write-ahead log and fsynced
    //    *before* its epoch is published, and `checkpoint()` folds the log
    //    into an atomically-replaced snapshot file. Opening the directory
    //    recovers the newest durable epoch — including batches that only
    //    ever lived in the log.
    let dir = std::env::temp_dir().join(format!("keybridge-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        max_joins: 4,
        max_templates: 100_000,
        ..DurableOptions::default()
    };
    let durable = SearchService::start_durable(service.snapshot(), 2, &dir, &opts)
        .expect("fresh store directory");
    drop(service);
    let batch: keybridge::relstore::RowBatch = vec![(
        actor,
        vec![Value::Int(900_004), Value::text("tom checkpointed")],
    )];
    durable.ingest(&batch).expect("valid batch");
    durable.checkpoint().expect("checkpoint succeeds");
    let batch: keybridge::relstore::RowBatch = vec![(
        actor,
        vec![Value::Int(900_005), Value::text("tom replayed")],
    )];
    durable.ingest(&batch).expect("valid batch"); // durable only in the WAL
    let q = KeywordQuery::from_terms(vec!["tom".into()]);
    let before = durable.search(&q, 5);
    drop(durable); // "crash": all in-memory state is gone

    let recovered = SearchService::open(&dir, 2, &opts).expect("store recovers");
    let after = recovered.search(&q, 5);
    let identical = before.epoch == after.epoch
        && before.answers.len() == after.answers.len()
        && before
            .answers
            .iter()
            .zip(&after.answers)
            .all(|(a, b)| a.log_score.to_bits() == b.log_score.to_bits() && a.jtt == b.jtt);
    println!(
        "\nrecovered store at epoch {} ({} batch replayed from the WAL); \
         pre-crash and post-recovery \"tom\" answers identical: {identical}",
        after.epoch,
        recovered.stats().recovery_replayed_batches,
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    // 9. Scale out: `ServiceBuilder` serves the same Request/Reply surface
    //    from a sharded scatter-gather deployment. Rows are partitioned
    //    into FK-closed shards — every foreign key stays inside its shard —
    //    each with its own epoch chain and cache generations. The worker
    //    serving a query scatters each execution over the shards and
    //    merges the per-shard answer streams; the merged reply is
    //    byte-identical to the single-shard service over the same data.
    //    Ingested batches route to the shards that own them, so an insert
    //    bumps only the touched shards' epochs and leaves every other
    //    shard's rows untouched.
    let sharded = ServiceBuilder::new()
        .workers(2)
        .shards(4)
        .start(Arc::clone(&snap))
        .expect("an in-memory sharded service always starts");
    let q = KeywordQuery::from_terms(vec!["hanks".into(), "terminal".into()]);
    let reply = sharded.search(&q, 3);
    println!(
        "\nsharded \"hanks terminal\": {} answers merged from {} shards \
         (per-shard epochs {:?})",
        reply.answers.len(),
        reply.shard_epochs.len(),
        reply.shard_epochs.iter().map(|e| e.0).collect::<Vec<_>>(),
    );
    let batch: keybridge::relstore::RowBatch = vec![(
        actor,
        vec![Value::Int(900_006), Value::text("tom scattered")],
    )];
    let receipt = sharded.ingest_batch(&batch).expect("valid batch");
    let reply = sharded.search(&q, 3);
    let stats = sharded.service_stats();
    println!(
        "ingest -> global epoch {}; only the owning shard advanced \
         (per-shard epochs now {:?}; {} of {} shards ever touched)",
        receipt.epoch,
        reply.shard_epochs.iter().map(|e| e.0).collect::<Vec<_>>(),
        stats.shards_touched,
        reply.shard_epochs.len(),
    );
}
