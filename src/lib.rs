//! # keybridge
//!
//! Keyword search over relational databases, bridging the usability of
//! keyword queries and the expressiveness of structured queries — a full
//! reproduction of Demidova's *"Usability and Expressiveness in Database
//! Keyword Search: Bridging the Gap"* (VLDB 2009 PhD Workshop / doctoral
//! dissertation 2013).
//!
//! This facade crate re-exports the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`relstore`] | in-memory relational engine: schema, PK/FK indexes, join-tree execution |
//! | [`index`] | inverted index with TF/ATF/DF/IDF and joint co-occurrence statistics |
//! | [`core`] | keyword → structured-query framework: templates, interpretations, probabilistic model, rankers |
//! | [`iqp`] | incremental query construction: options, information-gain sessions, construction plans |
//! | [`divq`] | diversification of interpretations; α-nDCG-W and WS-recall metrics |
//! | [`freeq`] | ontology-based construction options and lazy traversal for very large schemas |
//! | [`yagof`] | ontology ↔ database matching by instance overlap |
//! | [`datagen`] | seeded synthetic datasets, ontologies, and keyword workloads |
//!
//! ## Quickstart
//!
//! ```
//! use keybridge::core::{Interpreter, InterpreterConfig, KeywordQuery, TemplateCatalog};
//! use keybridge::datagen::{ImdbConfig, ImdbDataset};
//! use keybridge::index::InvertedIndex;
//!
//! // A seeded movie database, its inverted index, and its join templates.
//! let data = ImdbDataset::generate(ImdbConfig::tiny(42)).unwrap();
//! let index = InvertedIndex::build(&data.db);
//! let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
//!
//! // Translate a keyword query into ranked structured queries. `top_k`
//! // generates best-first and stops once the k-th best is provably found;
//! // `ranked_interpretations` materializes and sorts the whole space.
//! let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
//! let query = KeywordQuery::parse(index.tokenizer(), "tom hanks");
//! let top = interpreter.top_k_complete(&query, 10);
//! assert!(!top.is_empty());
//! assert!(top.len() <= 10);
//! ```
//!
//! ## Serving concurrent users over a live store
//!
//! For multi-user traffic, bundle the structures into an `Arc`-shared
//! [`core::SearchSnapshot`] and start a [`core::SearchService`] worker pool
//! over it. Concurrent queries share thread-safe, lock-striped
//! non-emptiness and execution caches, so one user's pruning work prunes
//! every other user's search — while every reply stays byte-identical to
//! the single-threaded path. The store is mutable: `ingest` absorbs insert
//! batches (integrity-checked, index maintained incrementally) and
//! publishes each as the next epoch, with a fresh shared-cache generation
//! so stale derived state can never leak into post-update answers:
//!
//! ```
//! use keybridge::core::{
//!     InterpreterConfig, KeywordQuery, Reply, Request, SearchService, SearchSnapshot,
//!     ServeRequests,
//! };
//! use keybridge::datagen::{ImdbConfig, ImdbDataset};
//! use keybridge::relstore::{RowBatch, Value};
//! use std::sync::Arc;
//!
//! let data = ImdbDataset::generate(ImdbConfig::tiny(42)).unwrap();
//! let actor = data.db.schema().table_id("actor").unwrap();
//! let snapshot = Arc::new(
//!     SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap(),
//! );
//! let service = SearchService::start(snapshot, 2);
//!
//! // Every serving mode is a `Request` value. Submit asynchronously from
//! // any thread; block on the ticket when ready.
//! let query = KeywordQuery::from_terms(vec!["tom".into()]);
//! let ticket = service.submit_request(Request::Answers { query: query.clone(), k: 5 });
//! // The reply arm matches the request, and its payload is a Result: a
//! // panicking worker replies with a typed error (the panic is contained)
//! // instead of hanging up.
//! let Some(Reply::Answers(Ok(reply))) = ticket.wait() else { panic!("request served") };
//! assert!(reply.answers.len() <= 5);
//! assert_eq!(reply.epoch.0, 0);
//!
//! // Ingest a batch: it becomes visible at the next snapshot epoch.
//! let batch: RowBatch = vec![(actor, vec![Value::Int(999), Value::text("tom fresh")])];
//! let receipt = service.ingest(&batch).expect("valid batch");
//! assert_eq!(receipt.epoch.0, 1);
//! assert_eq!(service.search(&query, 5).epoch, receipt.epoch);
//!
//! // Diversified top-k (Alg. 4.1) and incremental construction sessions
//! // are served request modes too; a session pins the epoch it was opened
//! // on, so concurrent ingests never shift its window.
//! use keybridge::core::{DiversifyOptions, SessionConfig};
//! let diversified = Request::Diversified { query: query.clone(), opts: DiversifyOptions::default() };
//! let Some(Reply::Diversified(Ok(div))) = service.submit_request(diversified).wait() else {
//!     panic!("request served")
//! };
//! assert!(div.answers.len() <= 10 && div.answers.len() <= div.pool);
//! assert_eq!(div.epoch, receipt.epoch);
//! let session = service.open_session(&query, 10, SessionConfig::default());
//! assert_eq!(session.epoch, receipt.epoch);
//! let window = service.session_answers(session.id, 3).expect("session open");
//! assert_eq!(window.epoch, session.epoch);
//! assert!(service.close_session(session.id));
//! ```
//!
//! ## Durable stores
//!
//! A service started with [`core::SearchService::start_durable`] survives
//! process death: every accepted batch is appended to a CRC-framed
//! write-ahead log and fsynced *before* its epoch is published,
//! [`core::SearchService::checkpoint`] folds the log into an atomically
//! replaced, checksummed snapshot file, and [`core::SearchService::open`]
//! recovers the newest durable epoch — replaying the log tail and
//! discarding a torn final record. Recovered answers are byte-identical to
//! a never-crashed service's (the `crash_equivalence_*` histories in
//! `tests/serving` prove this at every injected kill point); `examples/quickstart.rs` §8 walks the
//! checkpoint → crash → reopen cycle.
//!
//! ## Sharded scatter-gather serving
//!
//! The same request surface scales out horizontally.
//! [`core::ServiceBuilder`] with `.shards(k)` partitions the rows into k
//! FK-closed shards ([`relstore::assign_shards`]) and starts a
//! [`core::ShardedService`]: per-shard rows and epoch chains under one
//! inverted index and one cache generation, behind one worker pool whose
//! worker scatters each execution over the shards, merges the per-shard
//! streams, and replies **byte-identically** to the single-shard service
//! (the `sharded_identical_*` histories in `tests/serving` prove this on
//! every fixture under concurrent mixed-mode load). Ingested batches route
//! to their owning shards and advance only those shards' epochs; replies
//! carry the per-shard epoch vector. Both deployments implement the
//! [`core::ServeRequests`] trait — one typed [`core::Request`] enum in,
//! one [`core::Reply`] ticket out — so callers are deployment-agnostic;
//! `examples/quickstart.rs` §9 walks the sharded end-to-end.

pub use keybridge_core as core;
pub use keybridge_datagen as datagen;
pub use keybridge_divq as divq;
pub use keybridge_freeq as freeq;
pub use keybridge_index as index;
pub use keybridge_iqp as iqp;
pub use keybridge_relstore as relstore;
pub use keybridge_yagof as yagof;
