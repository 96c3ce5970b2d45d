//! # keybridge-core
//!
//! The shared keyword-search framework of the paper (§3.5, §3.6, §4.4):
//! translating keyword queries into structured queries over a relational
//! database and scoring the possible interpretations.
//!
//! Pipeline:
//!
//! 1. [`KeywordQuery`] — the user's bag of terms (Def. 3.5.1).
//! 2. [`TemplateCatalog`] — query templates: connected join trees enumerated
//!    breadth-first over the schema graph up to a join bound (§3.5.2, the
//!    DISCOVER-style candidate-network shapes).
//! 3. [`Interpreter`] — generates [`QueryInterpretation`]s: assignments of
//!    every keyword to a template element (value predicate, table name, or
//!    attribute name) satisfying uniqueness and minimality (Def. 3.5.4).
//!    `Interpreter::top_k` emits the best k interpretations (complete and
//!    partial) by best-first search guided by an incremental scorer (an
//!    admissible bound plus a memo of group scores), never materializing the
//!    full space. The exhaustive enumerate-then-rank pipeline
//!    ([`Interpreter::ranked_with_partials`]) is the reference the search is
//!    tested against; tests call it by name.
//! 4. [`ProbabilityModel`] — the probabilistic interpretation model
//!    (Eqs. 3.5–3.8) with the DivQ refinements (joint ATF, unmapped-keyword
//!    smoothing; Eq. 4.2), plus the SQAK baseline ranker.
//! 5. [`execute_interpretation`] — runs an interpretation against the
//!    database and materializes its joining tuple trees.
//! 6. [`SearchService`] — the concurrent serving layer: an `Arc`-shared,
//!    epoch-versioned [`SearchSnapshot`] of database + index + catalog
//!    served by N worker threads whose queries share the lock-striped
//!    [`SharedNonemptyCache`] and [`SharedExecCache`], so one user's
//!    pruning work prunes every other user's search. `SearchService::ingest`
//!    absorbs live insert batches and publishes each as the next
//!    [`SnapshotEpoch`] with a fresh shared-cache generation, keeping warm
//!    served answers byte-identical to a cold rebuild.

mod construct;
mod exec;
mod generate;
mod interp;
mod keyword;
mod pipeline;
mod prob;
mod rank;
mod render;
mod service;
mod sharded;
mod striped;
mod template;
mod wal;

pub use construct::{ConstructionOption, ConstructionSession, SessionConfig};
pub use exec::{
    bound_nodes, execute_interpretation, execute_interpretation_cached,
    execute_interpretation_naive, ExecCache, ExecutedResult, ResultKey, SharedExecCache,
};
pub use generate::{
    AnswerStats, GenerationStats, Interpreter, InterpreterConfig, NonemptyCache, RankedAnswer,
    ScoredInterpretation, SharedNonemptyCache,
};
pub use interp::{
    BindingAtom, BindingAtomKind, BindingTarget, IntentDescription, KeywordBinding,
    QueryInterpretation,
};
pub use keyword::KeywordQuery;
pub use pipeline::{
    div_pool, diversify, jaccard, BestFirstSource, DivItem, DiversifiedAnswer, DiversifiedAnswers,
    DiversifyConfig, DiversifyOptions, ExecutedPool, InterpretationSource, QueryPipeline,
};
pub use prob::{ProbabilityConfig, ProbabilityModel, TemplatePrior};
pub use rank::sqak_score;
pub use render::{render_natural, render_sql};
pub use service::{
    CheckpointReceipt, DiversifiedReply, DurableOptions, IngestError, IngestReceipt,
    InterpretationsReply, KeywordService, Reply, Request, RequestError, SearchReply, SearchService,
    SearchSnapshot, ServeRequests, ServiceBuilder, ServiceError, ServiceStats, SessionAnswers,
    SessionId, SessionView, SnapshotEpoch, Ticket, TimedReply,
};
pub use sharded::ShardedService;
pub use template::{QueryTemplate, TemplateCatalog, TemplateId};
pub use wal::{
    scan_wal, DurabilityError, FaultPlan, FaultPoint, Wal, WalScan, SNAPSHOT_FILE, WAL_FILE,
};
