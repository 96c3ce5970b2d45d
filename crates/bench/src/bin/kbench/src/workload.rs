//! The four workloads: what data they serve, what traffic they offer, how
//! the service under them is started, and the live [`Server`] the load
//! generator drives.
//!
//! The dataset, the query log and the holdout split of a workload are fixed
//! (they are part of what the workload *is*, like any benchmark's dataset);
//! `--seed` drives everything the load generator draws: which op follows
//! which, which query each read asks, session verdicts, arrival instants and
//! the verification sample.

use crate::driver::Server;
use crate::schedule::{Mix, Op, OpKind, QueryPick};
use crate::stats::timed;
use keybridge_core::{
    DiversifyOptions, InterpreterConfig, KeywordQuery, KeywordService, Reply, Request,
    SearchService, SearchSnapshot, ServeRequests, ServiceBuilder, SessionAnswers, SessionConfig,
    ShardedService, TemplateCatalog, Ticket,
};
use keybridge_datagen::{
    holdout_plan, sharded_holdout_plan, ImdbConfig, ImdbDataset, IngestConfig, Workload,
    WorkloadConfig,
};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{Database, RowBatch, ShardAssignment};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Answers requested by every `Answers` op.
pub const TOP_K: usize = 10;
/// Interpretation window a session op opens.
pub const SESSION_WINDOW: usize = 20;
/// JTTs per candidate a session op reads back.
pub const SESSION_LIMIT: usize = 5;
/// Catalog bounds — the `DurableOptions` defaults, so `open` rebuilds the
/// same catalog the service was started with.
pub const MAX_JOINS: usize = 3;
pub const MAX_TEMPLATES: usize = 50_000;
/// Seeds of the fixed parts of a workload.
const LOG_SEED: u64 = 5;
const SPLIT_SEED: u64 = 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Single,
    /// `start_durable` in a fresh directory, auto-checkpoint every N batches.
    Durable {
        checkpoint_every: usize,
    },
    /// `ShardedService::start_with_assignment`, K shards x 1 worker.
    Sharded {
        shards: usize,
    },
}

/// Everything that defines a workload. `rate_lo`/`rate_hi` are frozen here
/// (and quoted in `BENCHMARK.json`): ~0.35x and ~0.70x of the `sat_ops_s`
/// measured at the commit that introduced the benchmark, two significant
/// digits, never derived at run time.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub scale: f64,
    pub mix: Mix,
    pub pick: QueryPick,
    /// Queries generated for the pool (deduplicated for `Distinct`).
    pub log_queries: usize,
    /// Held-out share and batch count; 0 batches = read-only.
    pub holdout: f64,
    pub batches: usize,
    pub topology: Topology,
    /// Whether each phase boots its own service (cold caches, initial store)
    /// or all phases share the warmed one.
    pub fresh_service_per_phase: bool,
    pub rate_lo: f64,
    pub rate_hi: f64,
    /// Ops of the unmeasured warm pass.
    pub warm_ops: usize,
    /// Noise guard on `sat`: (max - min) / median of ops/s over five equal-op
    /// segments beyond which its metrics are printed `unresolved`. 0.10 is
    /// the rule; a workload whose segments differ by construction gets the
    /// spread it shows when nothing disturbs it, times 1.5 (heavy-tailed
    /// query costs on `scale_search`; on the write workloads the ingest share
    /// of a segment varies and the store grows ~20% through the phase), so
    /// there the guard only catches stalls.
    pub max_segment_spread: f64,
}

const MIXED: Mix = Mix {
    answers: 85,
    diversified: 5,
    session: 0,
    ingest: 10,
};

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "hot_interactive",
        why: "x1 store, Zipf over 108 queries, 60/20/20 answers/diversified/session: all of it fits the shared caches, so generation, post-processing and dispatch dominate; rate_lo 2800, rate_hi 5600 ops/s",
        scale: 1.0,
        mix: Mix {
            answers: 60,
            diversified: 20,
            session: 20,
            ingest: 0,
        },
        pick: QueryPick::Zipf,
        log_queries: 108,
        holdout: 0.0,
        batches: 0,
        topology: Topology::Single,
        fresh_service_per_phase: false,
        rate_lo: 2800.0,
        rate_hi: 5600.0,
        warm_ops: 1500,
        max_segment_spread: 0.20,
    },
    Spec {
        name: "scale_search",
        why: "x10 store, answers only, no query text repeated in a phase: caches are bypassed, so semi-join reduce/join and postings work dominate and service overhead is noise; rate_lo 250, rate_hi 510 ops/s",
        scale: 10.0,
        mix: Mix {
            answers: 1,
            diversified: 0,
            session: 0,
            ingest: 0,
        },
        pick: QueryPick::Distinct,
        log_queries: 40_000,
        holdout: 0.0,
        batches: 0,
        topology: Topology::Single,
        fresh_service_per_phase: true,
        rate_lo: 250.0,
        rate_hi: 510.0,
        warm_ops: 400,
        max_segment_spread: 0.35,
    },
    Spec {
        name: "durable_mixed",
        why: "x10 store, 85/5/10 answers/diversified/ingest on a WAL-backed service with checkpoints: reads beside clone+publish, index splice, fsync and a cold cache per epoch; rate_lo 99, rate_hi 200 ops/s",
        scale: 10.0,
        mix: MIXED,
        pick: QueryPick::Distinct,
        log_queries: 40_000,
        holdout: 0.15,
        batches: 1000,
        topology: Topology::Durable {
            checkpoint_every: 12,
        },
        fresh_service_per_phase: true,
        rate_lo: 99.0,
        rate_hi: 200.0,
        warm_ops: 150,
        max_segment_spread: 0.80,
    },
    Spec {
        name: "sharded_mixed",
        why: "durable_mixed's data and schedule on 4 shards x 1 worker, non-durable: per-shard execution, coordinator merge, touched-shard swaps and the forked wave loop; rate_lo 84, rate_hi 170 ops/s",
        scale: 10.0,
        mix: MIXED,
        pick: QueryPick::Distinct,
        log_queries: 40_000,
        holdout: 0.15,
        batches: 1000,
        topology: Topology::Sharded { shards: 4 },
        fresh_service_per_phase: true,
        rate_lo: 84.0,
        rate_hi: 170.0,
        warm_ops: 150,
        max_segment_spread: 0.80,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Service worker threads: all cores but the one the dispatcher owns.
pub fn service_workers() -> usize {
    crate::affinity::service_cores(cores())
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Wall-clock seconds of the steps that build a [`Fixture`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FixtureTimings {
    pub generate_s: f64,
    pub holdout_s: f64,
    pub index_build_s: f64,
}

/// The inputs of a workload: the store a service boots from, the query
/// pool, and the held-out insert batches.
pub struct Fixture {
    pub spec: &'static Spec,
    /// The initial store (the preload, for write workloads).
    pub snapshot: Arc<SearchSnapshot>,
    pub queries: Vec<KeywordQuery>,
    pub batches: Vec<RowBatch>,
    /// Shard directory over the full pre-holdout corpus (`Sharded` only).
    pub assignment: Option<ShardAssignment>,
    /// Rows of the full fixture before the holdout split.
    pub full_rows: usize,
    pub timings: FixtureTimings,
}

impl Fixture {
    pub fn build(spec: &'static Spec) -> Fixture {
        let mut timings = FixtureTimings::default();
        let (data, generate_s) = timed(|| {
            ImdbDataset::generate(ImdbConfig {
                scale: spec.scale,
                ..ImdbConfig::default()
            })
            .expect("the IMDB fixture generates")
        });
        timings.generate_s = generate_s;
        let log = Workload::imdb(
            &data,
            WorkloadConfig {
                seed: LOG_SEED,
                n_queries: spec.log_queries,
                mc_fraction: 0.5,
            },
        );
        let mut seen = HashSet::new();
        let queries: Vec<KeywordQuery> = log
            .queries
            .into_iter()
            .filter(|q| match spec.pick {
                QueryPick::Zipf => true,
                QueryPick::Distinct => {
                    let mut bag = q.keywords.clone();
                    bag.sort();
                    seen.insert(bag)
                }
            })
            .map(|q| KeywordQuery::from_terms(q.keywords))
            .collect();
        let full_rows = data.db.total_rows();

        let cfg = IngestConfig {
            seed: SPLIT_SEED,
            holdout: spec.holdout,
            batches: spec.batches,
        };
        let ((initial, batches, assignment), holdout_s) = timed(|| match spec.topology {
            _ if spec.batches == 0 => (data.db, Vec::new(), None),
            Topology::Sharded { shards } => {
                let p = sharded_holdout_plan(&data.db, cfg, shards);
                (p.plan.initial, p.plan.batches, Some(p.assignment))
            }
            _ => {
                let p = holdout_plan(&data.db, cfg);
                (p.initial, p.batches, None)
            }
        });
        timings.holdout_s = holdout_s;

        let (index, index_build_s) = timed(|| InvertedIndex::build(&initial));
        timings.index_build_s = index_build_s;
        let catalog = TemplateCatalog::enumerate(&initial, MAX_JOINS, MAX_TEMPLATES)
            .expect("the IMDB schema enumerates");
        Fixture {
            spec,
            snapshot: Arc::new(SearchSnapshot::new(
                initial,
                index,
                catalog,
                InterpreterConfig::default(),
            )),
            queries,
            batches,
            assignment,
            full_rows,
            timings,
        }
    }

    /// Start a service over the initial store. `dir` is where a durable
    /// service keeps its files; it must not hold a store yet.
    pub fn boot(&self, dir: &Path) -> KeywordService {
        let builder = ServiceBuilder::new().workers(service_workers());
        match self.spec.topology {
            Topology::Single => builder.start(Arc::clone(&self.snapshot)),
            Topology::Durable { checkpoint_every } => builder
                .durable(dir)
                .checkpoint_every(checkpoint_every)
                .start(Arc::clone(&self.snapshot)),
            Topology::Sharded { .. } => Ok(KeywordService::Sharded(
                ShardedService::start_with_assignment(
                    Arc::clone(&self.snapshot),
                    self.assignment.clone().expect("sharded fixture has one"),
                    1,
                ),
            )),
        }
        .expect("service starts")
    }

    /// Reopen the durable store in `dir` (`SearchService::open`).
    pub fn reopen(&self, dir: &Path) -> KeywordService {
        let Topology::Durable { checkpoint_every } = self.spec.topology else {
            panic!("only a durable workload reopens");
        };
        ServiceBuilder::new()
            .workers(service_workers())
            .durable(dir)
            .checkpoint_every(checkpoint_every)
            .open()
            .expect("durable store reopens")
    }

    /// The logical store after the first `acked` batches: preload plus every
    /// acknowledged batch, index rebuilt from scratch — what a served reply
    /// must equal.
    pub fn rebuilt(&self, acked: usize) -> (Database, InvertedIndex) {
        let mut db = self.snapshot.db.clone();
        for b in &self.batches[..acked] {
            db.insert_batch(b).expect("acknowledged batches re-apply");
        }
        let index = InvertedIndex::build(&db);
        (db, index)
    }
}

/// `<target dir>/kbench`: where results, traces and scratch stores go. It is
/// derived from the executable's own location (`<target dir>/release/kbench`,
/// or `<target dir>/release/deps/..` for the unit tests), so the benchmark
/// never writes outside the checkout that built it.
pub fn bench_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            let profile = exe.ancestors().find(|p| {
                p.file_name()
                    .is_some_and(|n| n == "release" || n == "debug")
            })?;
            Some(profile.parent()?.join("kbench"))
        })
        .unwrap_or_else(|| PathBuf::from("target/kbench"))
}

/// A fresh scratch directory for one service's files.
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = bench_dir().join("tmp").join(format!(
        "{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

/// One whole session op against the registry: open a window, answer up to
/// three proposed options with the op's verdicts, read the window, close.
/// `None` when the registry lost the session on the way.
pub fn run_session(
    svc: &SearchService,
    query: &KeywordQuery,
    verdicts: &[bool],
) -> Option<SessionAnswers> {
    let mut view = svc.open_session(query, SESSION_WINDOW, SessionConfig::default());
    let id = view.id;
    for &accept in verdicts {
        let Some(option) = view.next_option.clone().filter(|_| !view.finished) else {
            break;
        };
        view = svc.advance_session(id, &option, accept)?;
    }
    let answers = svc.session_answers(id, SESSION_LIMIT);
    svc.close_session(id);
    answers
}

/// The request an asynchronous op submits.
pub fn request_for(op: &Op, queries: &[KeywordQuery]) -> Request {
    let query = queries[op.arg].clone();
    match op.kind {
        OpKind::Diversified => Request::DiversifiedTimed {
            query,
            opts: DiversifyOptions::default(),
        },
        _ => Request::AnswersTimed { query, k: TOP_K },
    }
}

/// The running service as the load generator sees it.
pub struct Live<'a> {
    pub svc: &'a KeywordService,
    pub fixture: &'a Fixture,
    /// Batches the service acknowledged (an `IngestReceipt` came back).
    pub acked: AtomicUsize,
}

impl<'a> Live<'a> {
    pub fn new(svc: &'a KeywordService, fixture: &'a Fixture) -> Self {
        Live {
            svc,
            fixture,
            acked: AtomicUsize::new(0),
        }
    }

    pub fn acked(&self) -> usize {
        self.acked.load(Ordering::SeqCst)
    }
}

impl Server for Live<'_> {
    type Pending = Ticket<Reply>;

    fn submit(&self, op: &Op) -> Ticket<Reply> {
        self.svc
            .submit_request(request_for(op, &self.fixture.queries))
    }

    fn finish(&self, pending: Ticket<Reply>) -> Option<Instant> {
        match pending.wait()? {
            Reply::AnswersTimed(t) => t.result.is_ok().then_some(t.completed_at),
            Reply::DiversifiedTimed(t) => t.result.is_ok().then_some(t.completed_at),
            _ => None,
        }
    }

    fn run_sync(&self, op: &Op) -> bool {
        match op.kind {
            OpKind::Ingest => {
                let ok = self.svc.ingest_batch(&self.fixture.batches[op.arg]).is_ok();
                if ok {
                    self.acked.fetch_add(1, Ordering::SeqCst);
                }
                ok
            }
            _ => self
                .svc
                .as_single()
                .and_then(|s| run_session(s, &self.fixture.queries[op.arg], &op.verdicts))
                .is_some(),
        }
    }
}
