//! The per-layer run (`--trace 1`): everything measured from outside, by
//! calling each layer's public functions from the benchmark's own thread.
//!
//! Three sources feed the numbers:
//!
//! * the open/closed-loop phases (driver health and the user-visible numbers
//!   only some workloads have);
//! * counters the program already keeps (`service_stats()` and the stats
//!   carried in replies);
//! * the **traced pass**: the workload's own op sequence replayed one op in
//!   flight against a fresh service, with a span around every call. Reads
//!   are sampled; every sampled read is followed by a sibling re-enactment
//!   of the same request over the benchmark's mirror of the store, in the
//!   order the service performs it — `core.pipeline` ⊃ `core.generate` +
//!   `core.exec` ⊃ `textindex` + `relstore.exec`. Every write is followed by
//!   the write path's public calls on the mirror.
//!
//! An untraced one-in-flight pass over the same ops comes first; the
//! difference between the two passes' round-trip totals is what tracing cost.

use crate::driver::{closed_loop, PhaseRun};
use crate::metrics::Report;
use crate::run::{Ctx, Recovery, RunArgs, MAX_LAG_P99_MS, SLO_FAIL_SHARE, SLO_P95_MS};
use crate::schedule::{Op, OpKind};
use crate::stats::{self, ratio, timed};
use crate::trace::{self, Span, Tracer};
use crate::workload::{
    bench_dir, scratch_dir, Fixture, Live, Topology, SESSION_LIMIT, SESSION_WINDOW, TOP_K,
};
use keybridge_core::{
    div_pool, diversify, execute_interpretation_cached, AnswerStats, BindingTarget,
    DiversifyOptions, ExecCache, FaultPlan, Interpreter, KeywordQuery, KeywordService,
    NonemptyCache, QueryPipeline, Reply, Request, ScoredInterpretation, SearchService,
    ServeRequests, ServiceBuilder, ServiceStats, SessionConfig, SharedExecCache,
    SharedNonemptyCache, Wal,
};
use keybridge_index::{InvertedIndex, PostingsRepr};
use keybridge_relstore::snapshot::encode_batch;
use keybridge_relstore::{
    assign_shards, execute_reduced_in, plan_join_order, reduce_join_tree, split_database, AttrRef,
    BatchArena, Candidates, Database, ExecOptions, ExecStats, RowBatch, RowId, TableId,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Ops of the one-in-flight passes, and how many of their reads the traced
/// pass re-enacts (every write is re-enacted).
fn pass_ops(fixture: &Fixture) -> usize {
    if fixture.batches.is_empty() {
        600
    } else {
        1100
    }
}
const READ_SAMPLE: usize = 330;
/// Round trips behind `core.service.dispatch_p50_ms`.
const DISPATCH_PROBES: usize = 300;
/// A query no row contains: its round trip is dispatch and nothing else.
const OOV_TERM: &str = "zzqxjvkbench";

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// The benchmark's private copy of the store, advanced with every batch the
/// traced service acknowledged — the "same snapshot" reads are re-enacted on.
struct Mirror {
    db: Database,
    index: InvertedIndex,
}

/// One generation of shared caches, retired at every swap like an epoch's.
struct Tier {
    nonempty: Arc<SharedNonemptyCache>,
    exec: Arc<SharedExecCache>,
}

impl Tier {
    fn fresh() -> Self {
        Tier {
            nonempty: Arc::new(SharedNonemptyCache::new()),
            exec: Arc::new(SharedExecCache::new()),
        }
    }

    fn caches(&self) -> (NonemptyCache, ExecCache) {
        (
            NonemptyCache::with_shared(Arc::clone(&self.nonempty)),
            ExecCache::with_shared(Arc::clone(&self.exec)),
        )
    }
}

/// Counters summed over the sampled requests.
#[derive(Default)]
struct Tally {
    /// Reply stats of the sampled answers requests.
    answers: Vec<AnswerStats>,
    returned: usize,
    div_pool_items: Vec<f64>,
    div_selected: Vec<f64>,
    session_steps: Vec<f64>,
    /// Predicate lookups / fresh materialisations in the re-enactment.
    predicate_lookups: usize,
    predicate_misses: usize,
    /// Σ df of the predicates materialised.
    postings_walked: usize,
    wal_frame_bytes: u64,
    wal_rows: usize,
}

/// The mutable state of the re-enactment, apart from the store it reads.
struct Scratch {
    tr: Tracer,
    tally: Tally,
    /// Predicates the decomposed tier has materialised in this generation.
    seen_predicates: HashSet<(Vec<String>, AttrRef)>,
    arena: BatchArena,
}

struct Reenactor<'a> {
    fixture: &'a Fixture,
    mirror: Mirror,
    /// Caches behind the whole inline calls, and behind the decomposed ones:
    /// both see every sampled request once, so they warm alike.
    whole: Tier,
    parts: Tier,
    scratch: Scratch,
}

/// How one wave executes what it generates.
#[derive(Clone, Copy)]
enum Demand {
    /// Plain top-k: stop once `k` answers exist, limit = answers missing.
    Answers(usize),
    /// A diversification pool: every candidate, at most `cap` JTTs each.
    Pool(usize),
}

impl Scratch {
    /// `core.generate`'s index calls, re-enacted under its span: one
    /// `attrs_containing` per distinct term, and as many `has_row_with_all`
    /// probes as the generation stats say reached the index, over the value
    /// predicates of the interpretations it emitted (probes spent on pruned
    /// branches are not visible from outside).
    fn reenact_generate(
        &mut self,
        span: u32,
        interpreter: &Interpreter<'_>,
        query: &KeywordQuery,
        ranked: &[ScoredInterpretation],
        index_probes: usize,
    ) {
        let index = interpreter.index();
        for term in query.distinct_terms() {
            self.tr.reenact(span, "textindex", "attrs_containing", || {
                std::hint::black_box(index.attrs_containing(term).len())
            });
        }
        let mut probed = HashSet::new();
        'outer: for s in ranked {
            let tpl = interpreter.catalog().get(s.interpretation.template);
            for b in &s.interpretation.bindings {
                if probed.len() >= index_probes {
                    break 'outer;
                }
                if let BindingTarget::Value { node, attr } = b.target {
                    let aref = AttrRef {
                        table: tpl.tree.nodes[node],
                        attr,
                    };
                    if probed.insert((b.keywords.clone(), aref)) {
                        self.tr.reenact(span, "textindex", "has_row_with_all", || {
                            std::hint::black_box(index.has_row_with_all(&b.keywords, aref))
                        });
                    }
                }
            }
        }
    }

    /// What a fresh `execute_interpretation_cached` did inside, re-enacted
    /// under its span: materialise each predicate this cache generation has
    /// not seen, semi-join reduce, plan and join.
    fn reenact_exec(
        &mut self,
        span: u32,
        interpreter: &Interpreter<'_>,
        s: &ScoredInterpretation,
        limit: usize,
    ) {
        let (db, index) = (interpreter.db(), interpreter.index());
        let tpl = interpreter.catalog().get(s.interpretation.template);
        let mut per_node: Vec<Option<Vec<RowId>>> = vec![None; tpl.tree.nodes.len()];
        let mut scratch = Vec::new();
        for b in &s.interpretation.bindings {
            let BindingTarget::Value { node, attr } = b.target else {
                continue;
            };
            let aref = AttrRef {
                table: tpl.tree.nodes[node],
                attr,
            };
            let mut key = b.keywords.clone();
            key.sort();
            self.tally.predicate_lookups += 1;
            let mut rows = Vec::new();
            if self.seen_predicates.insert((key, aref)) {
                self.tally.predicate_misses += 1;
                self.tally.postings_walked +=
                    b.keywords.iter().map(|t| index.df(t, aref)).sum::<usize>();
                self.tr
                    .reenact(span, "textindex", "rows_with_all_into", || {
                        index.rows_with_all_into(&b.keywords, aref, &mut rows, &mut scratch);
                    });
            } else {
                index.rows_with_all_into(&b.keywords, aref, &mut rows, &mut scratch);
            }
            per_node[node] = Some(match per_node[node].take() {
                Some(prev) => prev
                    .into_iter()
                    .filter(|r| rows.binary_search(r).is_ok())
                    .collect(),
                None => rows,
            });
        }
        let candidates = Candidates { per_node };
        let (reduced, _) = self
            .tr
            .reenact(span, "relstore.exec", "reduce_join_tree", || {
                reduce_join_tree(db, &tpl.tree, &candidates)
            });
        let Ok(reduced) = reduced else { return };
        if reduced.sets.iter().any(Vec::is_empty) {
            return;
        }
        let arena = &mut self.arena;
        self.tr
            .reenact(span, "relstore.exec", "execute_reduced_in", || {
                let sizes: Vec<usize> = reduced.sets.iter().map(Vec::len).collect();
                let plan = plan_join_order(&tpl.tree, &reduced.given, &sizes);
                let opts = ExecOptions {
                    limit,
                    ..ExecOptions::default()
                };
                std::hint::black_box(
                    execute_reduced_in(db, &tpl.tree, reduced.sets, &plan, opts, arena).is_ok(),
                )
            });
    }

    /// One generation wave plus the executions it feeds, as real nested
    /// spans under `parent`. Returns the non-empty executed interpretations,
    /// how many were generated, and how many answers they hold.
    #[allow(clippy::too_many_arguments)]
    fn wave(
        &mut self,
        req: u32,
        parent: u32,
        interpreter: &Interpreter<'_>,
        query: &KeywordQuery,
        gen_k: usize,
        demand: Demand,
        gen_cache: &mut NonemptyCache,
        exec_cache: &mut ExecCache,
    ) -> (Vec<ScoredInterpretation>, usize, usize) {
        let ((ranked, gstats), g) = self.tr.span(
            req,
            Some(parent),
            "core.generate",
            "top_k_with_cache",
            || interpreter.top_k_with_cache(query, gen_k, true, gen_cache),
        );
        let index_probes = gstats.nonempty_probes;
        let paused = self.tr.pause();
        self.reenact_generate(g, interpreter, query, &ranked, index_probes);
        self.tr.resume(paused);
        let mut nonempty = Vec::new();
        let mut have = 0usize;
        for s in &ranked {
            let limit = match demand {
                Demand::Answers(k) if have >= k => break,
                Demand::Answers(k) => k - have,
                Demand::Pool(cap) => cap,
            };
            let opts = ExecOptions {
                limit,
                ..ExecOptions::default()
            };
            let hits_before = exec_cache.result_hits;
            let (res, e) = self.tr.span(
                req,
                Some(parent),
                "core.exec",
                "execute_interpretation_cached",
                || {
                    execute_interpretation_cached(
                        interpreter.db(),
                        interpreter.index(),
                        interpreter.catalog(),
                        &s.interpretation,
                        opts,
                        exec_cache,
                    )
                },
            );
            let Ok(res) = res else { continue };
            if exec_cache.result_hits == hits_before {
                let paused = self.tr.pause();
                self.reenact_exec(e, interpreter, s, limit);
                self.tr.resume(paused);
            }
            if !res.is_empty() {
                have += res.len().min(limit);
                nonempty.push(s.clone());
            }
        }
        (nonempty, ranked.len(), have)
    }
}

impl<'a> Reenactor<'a> {
    fn new(fixture: &'a Fixture) -> Self {
        Reenactor {
            fixture,
            mirror: Mirror {
                db: fixture.snapshot.db.clone(),
                index: fixture.snapshot.index.clone(),
            },
            whole: Tier::fresh(),
            parts: Tier::fresh(),
            scratch: Scratch {
                tr: Tracer::new(),
                tally: Tally::default(),
                seen_predicates: HashSet::new(),
                arena: BatchArena::new(),
            },
        }
    }

    /// The sibling re-enactment of one answers request.
    fn answers(&mut self, req: u32, query: &KeywordQuery) {
        let Reenactor {
            fixture,
            mirror,
            whole,
            parts,
            scratch,
        } = self;
        let snap = &fixture.snapshot;
        let interpreter = Interpreter::new(
            &mirror.db,
            &mirror.index,
            &snap.catalog,
            snap.config.clone(),
        );
        let (mut gen_cache, mut exec_cache) = whole.caches();
        scratch.tr.span(
            req,
            None,
            "core.pipeline",
            "answers_top_k_with_caches",
            || {
                std::hint::black_box(interpreter.answers_top_k_with_caches(
                    query,
                    TOP_K,
                    ExecOptions::default(),
                    &mut gen_cache,
                    &mut exec_cache,
                ))
            },
        );

        // The same request taken apart: the pipeline's wave loop, with a
        // span around each generation and each execution.
        let cap = snap.config.max_interpretations;
        let (mut gen_cache, mut exec_cache) = parts.caches();
        let parent = scratch
            .tr
            .begin(req, None, "core.pipeline", "answers_reenacted");
        let mut gen_k = TOP_K.max(8).min(cap);
        loop {
            let (_, generated, have) = scratch.wave(
                req,
                parent,
                &interpreter,
                query,
                gen_k,
                Demand::Answers(TOP_K),
                &mut gen_cache,
                &mut exec_cache,
            );
            if have >= TOP_K || generated < gen_k || gen_k >= cap {
                break;
            }
            gen_k = gen_k.saturating_mul(4).min(cap);
        }
        scratch.tr.end(parent);
    }

    /// The sibling re-enactment of one diversified request.
    fn diversified(&mut self, req: u32, query: &KeywordQuery) {
        let Reenactor {
            fixture,
            mirror,
            whole,
            parts,
            scratch,
        } = self;
        let snap = &fixture.snapshot;
        let opts = DiversifyOptions::default();
        let interpreter = Interpreter::new(
            &mirror.db,
            &mirror.index,
            &snap.catalog,
            snap.config.clone(),
        );
        let (mut gen_cache, mut exec_cache) = whole.caches();
        scratch
            .tr
            .span(req, None, "core.pipeline", "diversified", || {
                std::hint::black_box(
                    QueryPipeline::new(
                        &interpreter,
                        ExecOptions::default(),
                        &mut gen_cache,
                        &mut exec_cache,
                    )
                    .diversified(query, opts),
                )
            });

        let (mut gen_cache, mut exec_cache) = parts.caches();
        let parent = scratch
            .tr
            .begin(req, None, "core.pipeline", "diversified_reenacted");
        let pool = opts.pool.min(snap.config.max_interpretations.max(1));
        let (nonempty, _, _) = scratch.wave(
            req,
            parent,
            &interpreter,
            query,
            pool,
            Demand::Pool(opts.cap),
            &mut gen_cache,
            &mut exec_cache,
        );
        scratch.tr.span(
            req,
            Some(parent),
            "core.pipeline",
            "diversify_select",
            || {
                let items = div_pool(&nonempty, &snap.catalog);
                std::hint::black_box(diversify(&items, opts.config))
            },
        );
        scratch.tr.end(parent);
    }

    /// The write path's public calls on the mirror, after the service
    /// acknowledged `batch`; retires the cache generations like a swap does.
    fn write(&mut self, req: u32, batch: &RowBatch, seq: u64, wal: Option<&mut Wal>) {
        let Mirror { db, index } = &mut self.mirror;
        let tr = &mut self.scratch.tr;
        let (ids, _) = tr.span(req, None, "relstore.database", "insert_batch", || {
            db.insert_batch(batch)
                .expect("acknowledged batch re-applies")
        });
        let inserted: Vec<(TableId, RowId)> = batch.iter().map(|(t, _)| *t).zip(ids).collect();
        tr.span(req, None, "textindex", "index_batch", || {
            index.index_batch(db, &inserted);
        });
        if let Some(wal) = wal {
            let (bytes, a) = tr.span(req, None, "core.wal", "append", || {
                wal.append(seq, batch, &FaultPlan::new())
                    .expect("scratch WAL appends")
            });
            self.scratch.tally.wal_frame_bytes += bytes;
            self.scratch.tally.wal_rows += batch.len();
            tr.reenact(a, "relstore.snapshot", "encode_batch", || {
                std::hint::black_box(encode_batch(batch).map_or(0, |b| b.len()))
            });
        }
        let (copy, _) = tr.span(req, None, "core.service", "publish_clone", || {
            (db.clone(), index.clone())
        });
        drop(copy);
        self.whole = Tier::fresh();
        self.parts = Tier::fresh();
        self.scratch.seen_predicates.clear();
    }
}

/// A session op with a span around each registry call, nested for real (the
/// registry runs on the caller's thread).
fn traced_session(
    tr: &mut Tracer,
    req: u32,
    svc: &SearchService,
    query: &KeywordQuery,
    verdicts: &[bool],
) -> Option<usize> {
    let parent = tr.begin(req, None, "service", "session");
    let (mut view, _) = tr.span(req, Some(parent), "core.construct", "open_session", || {
        svc.open_session(query, SESSION_WINDOW, SessionConfig::default())
    });
    let id = view.id;
    for &accept in verdicts {
        let Some(option) = view.next_option.clone().filter(|_| !view.finished) else {
            break;
        };
        let (next, _) = tr.span(
            req,
            Some(parent),
            "core.construct",
            "advance_session",
            || svc.advance_session(id, &option, accept),
        );
        view = next?;
    }
    let (answers, _) = tr.span(
        req,
        Some(parent),
        "core.construct",
        "session_answers",
        || svc.session_answers(id, SESSION_LIMIT),
    );
    svc.close_session(id);
    tr.end(parent);
    answers.map(|_| view.steps)
}

/// What the traced pass leaves behind.
struct Traced {
    tr: Tracer,
    tally: Tally,
    stats: ServiceStats,
    /// Request ids by what they were.
    answers_reqs: Vec<u32>,
    div_reqs: Vec<u32>,
    write_reqs: Vec<u32>,
    mirror: Mirror,
    dispatch_ms: Vec<f64>,
    checkpoint: Vec<(f64, u64)>,
}

/// Replay `ops` one in flight against a fresh service with a span around
/// every round trip. With `reenact`, a seeded sample of the reads and every
/// write are followed by their re-enactment (the traced pass); without, the
/// `service` spans are all there is (the untraced pass it is compared with).
fn replay(ctx: &mut Ctx, ops: &[Op], reenact: bool) -> Traced {
    let stage = ctx.boot();
    let fixture = &ctx.fixture;
    let mut re = Reenactor::new(fixture);
    let reads = ops.iter().filter(|o| o.kind.is_async()).count();
    let stride = (reads / READ_SAMPLE).max(1);
    let offset = (ctx.seed as usize) % stride;
    let durable = matches!(fixture.spec.topology, Topology::Durable { .. });
    let wal_dir = (durable && reenact).then(|| scratch_dir("scratch-wal"));
    let mut wal = wal_dir
        .as_ref()
        .map(|d| Wal::create(d).expect("scratch WAL is creatable"));
    let (mut answers_reqs, mut div_reqs, mut write_reqs) = (Vec::new(), Vec::new(), Vec::new());
    let mut read_no = 0usize;
    let mut failed = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let req = i as u32;
        match op.kind {
            OpKind::Answers | OpKind::Diversified => {
                let query = fixture.queries[op.arg].clone();
                let sampled = reenact && read_no % stride == offset;
                read_no += 1;
                let (name, request) = if op.kind == OpKind::Answers {
                    let query = query.clone();
                    ("answers", Request::Answers { query, k: TOP_K })
                } else {
                    let (query, opts) = (query.clone(), DiversifyOptions::default());
                    ("diversified", Request::Diversified { query, opts })
                };
                let (reply, s) = re.scratch.tr.span(req, None, "service", name, || {
                    stage.svc.submit_request(request).wait()
                });
                match reply {
                    Some(Reply::Answers(Ok(r))) => {
                        re.scratch.tr.count(s, "answers", r.answers.len() as u64);
                        if sampled {
                            re.scratch.tally.returned += r.answers.len();
                            re.scratch.tally.answers.push(r.stats);
                            answers_reqs.push(req);
                            re.answers(req, &query);
                        }
                    }
                    Some(Reply::Diversified(Ok(r))) => {
                        re.scratch.tr.count(s, "selected", r.answers.len() as u64);
                        if sampled {
                            re.scratch.tally.div_pool_items.push(r.pool as f64);
                            re.scratch.tally.div_selected.push(r.answers.len() as f64);
                            div_reqs.push(req);
                            re.diversified(req, &query);
                        }
                    }
                    _ => failed += 1,
                }
            }
            OpKind::Session => {
                let svc = stage.svc.as_single().expect("sessions need the registry");
                match traced_session(
                    &mut re.scratch.tr,
                    req,
                    svc,
                    &fixture.queries[op.arg],
                    &op.verdicts,
                ) {
                    Some(steps) => re.scratch.tally.session_steps.push(steps as f64),
                    None => failed += 1,
                }
            }
            OpKind::Ingest => {
                let batch = &fixture.batches[op.arg];
                let (receipt, _) = re
                    .scratch
                    .tr
                    .span(req, None, "service", "ingest_batch", || {
                        stage.svc.ingest_batch(batch)
                    });
                if receipt.is_ok() {
                    write_reqs.push(req);
                    if reenact {
                        re.write(req, batch, op.arg as u64 + 1, wal.as_mut());
                    }
                } else {
                    failed += 1;
                }
            }
        }
    }

    // Dispatch alone: a query nothing matches, one in flight.
    let oov = KeywordQuery::from_terms(vec![OOV_TERM.to_string()]);
    let mut dispatch_ms: Vec<f64> = (0..if reenact { DISPATCH_PROBES } else { 0 })
        .map(|_| {
            let request = Request::Answers {
                query: oov.clone(),
                k: TOP_K,
            };
            ms(timed(|| stage.svc.submit_request(request).wait()).1)
        })
        .collect();
    stats::sort(&mut dispatch_ms);

    // Checkpoints on demand: (ms, bytes) of three `checkpoint()` calls.
    let checkpoint = match (durable && reenact, stage.svc.as_single()) {
        (true, Some(svc)) => (0..3)
            .filter_map(|_| {
                let (receipt, secs) = timed(|| svc.checkpoint());
                receipt.ok().map(|r| (ms(secs), r.snapshot_bytes))
            })
            .collect(),
        _ => Vec::new(),
    };

    let stats = stage.svc.service_stats();
    drop(wal);
    if let Some(d) = wal_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let Reenactor {
        scratch: Scratch { tr, tally, .. },
        mirror,
        ..
    } = re;
    ctx.attempted += ops.len();
    ctx.failed += failed;
    Traced {
        tr,
        tally,
        stats,
        answers_reqs,
        div_reqs,
        write_reqs,
        mirror,
        dispatch_ms,
        checkpoint,
    }
}

/// Same queries, one in flight, on a fresh sharded service and on a
/// single-shard one over the same store: the p50 difference is what the fork
/// costs. Also how long the sharded service took to start.
fn sharded_overhead(ctx: &mut Ctx, ops: &[Op]) -> (f64, usize, f64) {
    let (sharded, start_s) = timed(|| ctx.boot());
    let ctx = &*ctx;
    let single = ServiceBuilder::new()
        .workers(crate::workload::service_workers())
        .start(Arc::clone(&ctx.fixture.snapshot))
        .expect("single-shard twin starts");
    let reads: Vec<Op> = ops
        .iter()
        .filter(|o| o.kind == OpKind::Answers)
        .take(300)
        .copied()
        .collect();
    let round_trips = |svc: &KeywordService| {
        let run = closed_loop(
            &Live::new(svc, &ctx.fixture),
            &reads,
            1,
            Duration::from_secs(30),
        );
        run.latencies(OpKind::Answers)
    };
    let (a, b) = (round_trips(&sharded.svc), round_trips(&single));
    (
        stats::percentile(&a, 0.5) - stats::percentile(&b, 0.5),
        a.len().min(b.len()),
        start_s,
    )
}

/// Worst answers latency overlapping an ingest that ran a checkpoint, minus
/// the phase p50: the foreground stall a median hides.
fn checkpoint_stall_ms(run: &PhaseRun, ops: &[Op], every: usize) -> Option<f64> {
    let searches = run.latencies(OpKind::Answers);
    let worst = run
        .records
        .iter()
        .zip(ops)
        .filter(|(r, o)| o.kind == OpKind::Ingest && r.ok && (o.arg + 1) % every == 0)
        .flat_map(|(ck, _)| {
            run.records.iter().filter(move |r| {
                r.kind == OpKind::Answers && r.ok && r.due < ck.done && r.done > ck.sent
            })
        })
        .map(|r| r.latency_ms())
        .fold(f64::NAN, f64::max);
    worst
        .is_finite()
        .then(|| worst - stats::percentile(&searches, 0.5))
}

/// Whether an open-loop phase met the reporting SLO.
fn meets_slo(run: &PhaseRun) -> bool {
    let p95 = stats::percentile(&run.latencies(OpKind::Answers), 0.95);
    let end = run.schedule_end();
    // "No growing backlog": a handful of ops are always in flight, so the
    // end may exceed the midpoint by what arrives in 5 ms.
    let slack = 2 + (run.attempted() as f64 / end.max(1e-9) * 0.005) as usize;
    p95 <= SLO_P95_MS
        && (run.failed() as f64) <= SLO_FAIL_SHARE * run.attempted() as f64
        && run.outstanding_at(end) <= run.outstanding_at(end / 2.0) + slack
}

fn set_mean(report: &mut Report, name: &'static str, values: &[f64]) {
    if !values.is_empty() {
        report.set(name, stats::mean(values), values.len());
    }
}

fn set_p50(report: &mut Report, name: &'static str, sorted: &[f64]) {
    if !sorted.is_empty() {
        report.set(name, stats::percentile(sorted, 0.5), sorted.len());
    }
}

/// Everything `--trace 1` reports.
#[allow(clippy::too_many_lines)]
pub fn report(
    report: &mut Report,
    ctx: &mut Ctx,
    args: &RunArgs,
    sat: &PhaseRun,
    lo: &PhaseRun,
    hi: &PhaseRun,
    recovery: Option<&Recovery>,
) {
    let spec = args.spec;
    let n_pass = pass_ops(&ctx.fixture).min(ctx.ops.len());
    let ops: Vec<Op> = ctx.ops[..n_pass].to_vec();

    // --- the untraced one-in-flight pass, then the traced one -------------
    let solo = replay(ctx, &ops, false).tr.spans;
    let overhead =
        matches!(spec.topology, Topology::Sharded { .. }).then(|| sharded_overhead(ctx, &ops));
    let traced = replay(ctx, &ops, true);
    let spans = &traced.tr.spans;

    // --- user-visible numbers only some workloads have ---------------------
    if spec.mix.diversified > 0 {
        report.set_percentile("div_p95_ms", &lo.latencies(OpKind::Diversified), 0.95);
    }
    if spec.mix.session > 0 {
        report.set_percentile("session_p95_ms", &lo.latencies(OpKind::Session), 0.95);
    }
    if spec.mix.ingest > 0 {
        let ingest = lo.latencies(OpKind::Ingest);
        report.set_percentile("ingest_p50_ms", &ingest, 0.50);
        report.set_percentile("ingest_p95_ms", &ingest, 0.95);
    }
    if let Some(r) = recovery {
        report.set(
            "recovery_s",
            stats::median(r.reopen_s.clone()),
            r.reopen_s.len(),
        );
        report.set(
            "disk_bytes_per_row",
            ratio(r.checkpoint_bytes as f64, r.checkpoint_rows as f64),
            r.checkpoint_rows,
        );
        report.set("core.wal.scan_ms", r.scan_ms, 1);
        report.set("core.wal.replayed_batches", r.replayed_batches as f64, 1);
    }

    // --- bench.driver: the instrument's own health --------------------------
    let lag = lo.lag_p99_ms().max(hi.lag_p99_ms());
    report.set(
        "bench.driver.lag_p99_ms",
        lag,
        lo.attempted() + hi.attempted(),
    );
    report.set(
        "bench.driver.backlog_end_ops",
        hi.outstanding_at(hi.schedule_end()) as f64,
        hi.attempted(),
    );
    let slo_rate = if meets_slo(hi) {
        spec.rate_hi
    } else if meets_slo(lo) {
        spec.rate_lo
    } else {
        0.0
    };
    report.set("bench.driver.slo_rate_rps", slo_rate, 2);
    report.set(
        "bench.driver.segment_spread",
        sat.segment_spread(5),
        sat.attempted(),
    );
    let lo_search = lo.latencies(OpKind::Answers);
    report.set_percentile("search_p50_ms", &lo_search, 0.50);
    report.set_percentile("search_p95_ms", &lo_search, 0.95);
    report.set_percentile("search_p95_hi_ms", &hi.latencies(OpKind::Answers), 0.95);
    report.set_percentile("bench.driver.search_p99_ms", &lo_search, 0.99);
    report.set(
        "bench.driver.search_max_ms",
        stats::percentile(&lo_search, 1.0),
        lo_search.len(),
    );
    let round_trips = |spans: &[Span]| -> f64 {
        spans
            .iter()
            .filter(|s| s.layer == "service")
            .map(Span::ms)
            .sum()
    };
    let (solo_ms, traced_ms) = (round_trips(&solo), round_trips(spans));
    report.set(
        "bench.driver.trace_overhead_share",
        ratio(traced_ms - solo_ms, solo_ms),
        ops.len(),
    );
    let sampled: HashSet<u32> = traced
        .answers_reqs
        .iter()
        .chain(&traced.div_reqs)
        .copied()
        .collect();
    let whole_ms: f64 = spans
        .iter()
        .filter(|s| {
            s.layer == "core.pipeline"
                && matches!(s.name, "answers_top_k_with_caches" | "diversified")
        })
        .map(Span::ms)
        .sum();
    let real_ms: f64 = spans
        .iter()
        .filter(|s| s.layer == "service" && sampled.contains(&s.req))
        .map(Span::ms)
        .sum();
    report.set(
        "bench.driver.trace_coverage",
        ratio(whole_ms, real_ms),
        sampled.len(),
    );
    if lag > MAX_LAG_P99_MS {
        for name in [
            "search_p50_ms",
            "search_p95_ms",
            "search_p95_hi_ms",
            "div_p95_ms",
            "session_p95_ms",
            "ingest_p50_ms",
            "ingest_p95_ms",
            "core.service.queue_excess_p95_ms",
            "bench.driver.search_p99_ms",
        ] {
            report.mark_unresolved(name);
        }
    }
    if sat.segment_spread(5) > spec.max_segment_spread {
        report.mark_unresolved("bench.driver.segment_spread");
    }

    // --- core.service ------------------------------------------------------
    let st = traced.stats;
    set_p50(report, "core.service.dispatch_p50_ms", &traced.dispatch_ms);
    let solo_search = trace::span_ms(&solo, |s| s.layer == "service" && s.name == "answers");
    report.set(
        "core.service.queue_excess_p95_ms",
        stats::percentile(&hi.latencies(OpKind::Answers), 0.95)
            - stats::percentile(&solo_search, 0.95),
        solo_search.len(),
    );
    report.set("core.service.served", st.served as f64, 1);
    report.set("core.service.epoch_swaps", st.epoch_swaps as f64, 1);
    report.set("core.service.stale_evictions", st.stale_evictions as f64, 1);
    report.set(
        "core.service.sessions_evicted",
        st.sessions_evicted as f64,
        1,
    );
    let by = |layer: &'static str, name: &'static str| {
        move |s: &Span| s.layer == layer && s.name == name
    };
    let areqs = &traced.answers_reqs;
    let wreqs = &traced.write_reqs;
    if !wreqs.is_empty() {
        let clone = trace::per_request_ms(spans, wreqs, by("core.service", "publish_clone"));
        set_p50(report, "core.service.publish_clone_ms", &clone);
        let insert = trace::per_request_ms(spans, wreqs, by("relstore.database", "insert_batch"));
        set_p50(report, "relstore.database.insert_batch_ms", &insert);
        let splice = trace::per_request_ms(spans, wreqs, by("textindex", "index_batch"));
        set_p50(report, "textindex.index_batch_ms", &splice);
        let append = trace::per_request_ms(spans, wreqs, by("core.wal", "append"));
        let total = trace::per_request_ms(spans, wreqs, by("service", "ingest_batch"));
        let parts = |v: &[f64]| stats::percentile(v, 0.5);
        report.set(
            "core.service.ingest_self_ms",
            parts(&total) - parts(&clone) - parts(&insert) - parts(&splice) - parts(&append),
            wreqs.len(),
        );
    }

    // --- core.generate / core.exec / relstore.exec from reply stats ---------
    let replies = &traced.tally.answers;
    let n = replies.len();
    if n > 0 {
        let mean = |f: &dyn Fn(&AnswerStats) -> usize| {
            replies.iter().map(|s| f(s) as f64).sum::<f64>() / n as f64
        };
        let sum = |f: &dyn Fn(&AnswerStats) -> usize| replies.iter().map(f).sum::<usize>() as f64;
        report.set("core.generate.expanded", mean(&|s| s.gen.expanded), n);
        report.set(
            "core.generate.materialized",
            mean(&|s| s.gen.materialized),
            n,
        );
        report.set("core.generate.pruned", mean(&|s| s.gen.pruned), n);
        report.set(
            "core.generate.nonempty_probes",
            mean(&|s| s.gen.nonempty_probes),
            n,
        );
        report.set(
            "core.generate.nonempty_hit_share",
            ratio(
                sum(&|s| s.gen.nonempty_cache_hits + s.gen.nonempty_shared_hits),
                sum(&|s| {
                    s.gen.nonempty_cache_hits + s.gen.nonempty_shared_hits + s.gen.nonempty_probes
                }),
            ),
            n,
        );
        report.set(
            "core.exec.result_hit_share",
            ratio(
                sum(&|s| s.result_cache_hits),
                sum(&|s| s.result_cache_hits + s.executed),
            ),
            n,
        );
        report.set("core.exec.executed_per_request", mean(&|s| s.executed), n);
        report.set(
            "core.exec.nonempty_share",
            ratio(sum(&|s| s.nonempty), sum(&|s| s.executed)),
            n,
        );
        report.set("core.exec.waves_mean", mean(&|s| s.waves), n);
        let ex = |f: &dyn Fn(&ExecStats) -> usize| mean(&|s| f(&s.exec));
        report.set(
            "relstore.exec.semijoin_rows_in",
            ex(&|e| e.semijoin_rows_in),
            n,
        );
        report.set(
            "relstore.exec.semijoin_rows_out",
            ex(&|e| e.semijoin_rows_out),
            n,
        );
        report.set("relstore.exec.probes", ex(&|e| e.probes), n);
        report.set(
            "relstore.exec.intermediate_bindings",
            ex(&|e| e.intermediate_bindings),
            n,
        );
        report.set("relstore.exec.batch_allocs", ex(&|e| e.batch_allocs), n);
        report.set(
            "relstore.exec.arena_bytes_peak",
            replies
                .iter()
                .map(|s| s.exec.arena_bytes_peak)
                .max()
                .unwrap_or(0) as f64,
            n,
        );
        let returned = traced.tally.returned as f64;
        report.set(
            "relstore.exec.rows_in_per_answer",
            ratio(sum(&|s| s.exec.semijoin_rows_in), returned),
            n,
        );
        report.set(
            "textindex.postings_walked_per_answer",
            ratio(traced.tally.postings_walked as f64, returned),
            n,
        );
        report.set(
            "core.exec.predicate_hit_share",
            1.0 - ratio(
                traced.tally.predicate_misses as f64,
                traced.tally.predicate_lookups as f64,
            ),
            traced.tally.predicate_lookups,
        );
    }

    // --- per-request span sums over the sampled answers requests ------------
    if !areqs.is_empty() {
        let per = |layer: &'static str, name: &'static str| {
            trace::per_request_ms(spans, areqs, by(layer, name))
        };
        let top_k = per("core.generate", "top_k_with_cache");
        set_p50(report, "core.generate.top_k_p50_ms", &top_k);
        report.set_percentile("core.generate.top_k_p95_ms", &top_k, 0.95);
        let exec = per("core.exec", "execute_interpretation_cached");
        set_p50(report, "core.exec.execute_p50_ms", &exec);
        report.set_percentile("core.exec.execute_p95_ms", &exec, 0.95);
        set_p50(
            report,
            "core.pipeline.answers_p50_ms",
            &per("core.pipeline", "answers_top_k_with_caches"),
        );
        set_p50(
            report,
            "textindex.candidates_ms",
            &per("textindex", "attrs_containing"),
        );
        set_p50(
            report,
            "textindex.materialize_ms",
            &per("textindex", "rows_with_all_into"),
        );
        set_p50(
            report,
            "relstore.exec.reduce_ms",
            &per("relstore.exec", "reduce_join_tree"),
        );
        set_p50(
            report,
            "relstore.exec.join_ms",
            &per("relstore.exec", "execute_reduced_in"),
        );
    }
    let probes = trace::span_ms(spans, by("textindex", "has_row_with_all"));
    if !probes.is_empty() {
        report.set(
            "textindex.probe_us",
            stats::percentile(&probes, 0.5) * 1e3,
            probes.len(),
        );
    }

    // --- core.pipeline (diversified) and core.construct ---------------------
    if !traced.div_reqs.is_empty() {
        let d = &traced.div_reqs;
        set_p50(
            report,
            "core.pipeline.diversified_p50_ms",
            &trace::per_request_ms(spans, d, by("core.pipeline", "diversified")),
        );
        set_p50(
            report,
            "core.pipeline.diversify_select_ms",
            &trace::per_request_ms(spans, d, by("core.pipeline", "diversify_select")),
        );
        set_mean(
            report,
            "core.pipeline.div_pool_items",
            &traced.tally.div_pool_items,
        );
        set_mean(
            report,
            "core.pipeline.div_selected",
            &traced.tally.div_selected,
        );
    }
    set_p50(
        report,
        "core.construct.open_ms",
        &trace::span_ms(spans, by("core.construct", "open_session")),
    );
    set_p50(
        report,
        "core.construct.advance_ms",
        &trace::span_ms(spans, by("core.construct", "advance_session")),
    );
    set_p50(
        report,
        "core.construct.window_ms",
        &trace::span_ms(spans, by("core.construct", "session_answers")),
    );
    set_mean(
        report,
        "core.construct.steps_mean",
        &traced.tally.session_steps,
    );

    // --- core.wal ----------------------------------------------------------
    if let Topology::Durable { checkpoint_every } = spec.topology {
        let append = trace::span_ms(spans, by("core.wal", "append"));
        set_p50(report, "core.wal.append_p50_ms", &append);
        report.set_percentile("core.wal.append_p95_ms", &append, 0.95);
        report.set(
            "core.wal.bytes_per_row",
            ratio(
                traced.tally.wal_frame_bytes as f64,
                traced.tally.wal_rows as f64,
            ),
            traced.tally.wal_rows,
        );
        report.set("core.wal.records", st.wal_batches as f64, 1);
        report.set("core.wal.checkpoints", st.checkpoints as f64, 1);
        let mut ck_ms: Vec<f64> = traced.checkpoint.iter().map(|c| c.0).collect();
        stats::sort(&mut ck_ms);
        set_p50(report, "core.wal.checkpoint_ms", &ck_ms);
        if let Some(&(_, bytes)) = traced.checkpoint.last() {
            report.set("core.wal.checkpoint_bytes", bytes as f64, 1);
        }
        if let Some(stall) = checkpoint_stall_ms(lo, &ctx.ops[..lo.attempted()], checkpoint_every) {
            report.set("core.wal.checkpoint_stall_ms", stall, lo.attempted());
        }
        let encode = trace::span_ms(spans, by("relstore.snapshot", "encode_batch"));
        if !encode.is_empty() {
            report.set(
                "relstore.snapshot.encode_batch_us",
                stats::percentile(&encode, 0.5) * 1e3,
                encode.len(),
            );
        }
    }

    // --- core.sharded ------------------------------------------------------
    if let Topology::Sharded { shards } = spec.topology {
        if let Some((overhead, n, start_s)) = overhead {
            report.set("core.sharded.overhead_p50_ms", overhead, n);
            report.set("core.sharded.start_s", start_s, 1);
        }
        report.set(
            "core.sharded.shard_rows_skipped",
            st.shard_rows_skipped as f64,
            1,
        );
        report.set(
            "core.sharded.shard_epoch_swaps",
            st.shard_epoch_swaps as f64,
            1,
        );
        report.set("core.sharded.shards_touched", st.shards_touched as f64, 1);
        let db = &traced.mirror.db;
        let (assignment, assign_s) = timed(|| assign_shards(db, shards));
        report.set("relstore.partition.assign_s", assign_s, 1);
        let (split, split_s) = timed(|| split_database(db, &assignment));
        report.set("relstore.partition.split_s", split_s, 1);
        if let Ok(split) = split {
            let rows: Vec<f64> = split.dbs.iter().map(|d| d.total_rows() as f64).collect();
            report.set(
                "relstore.partition.skew",
                ratio(rows.iter().copied().fold(0.0, f64::max), stats::mean(&rows)),
                rows.len(),
            );
        }
    }

    // --- static costs of the store the traced pass ended on ---------------
    let Mirror { db, index } = &traced.mirror;
    report.set("relstore.database.rows", db.total_rows() as f64, 1);
    report.set(
        "relstore.database.heap_bytes",
        db.approx_heap_bytes() as f64,
        1,
    );
    let (copy, clone_s) = timed(|| db.clone());
    drop(copy);
    report.set("relstore.database.clone_ms", ms(clone_s), 1);
    report.set("textindex.postings_bytes", index.postings_bytes() as f64, 1);
    let (mut bitmap_df, mut all_df) = (0usize, 0usize);
    for (_, _, entry) in index.term_attr_postings() {
        all_df += entry.df();
        if entry.repr() == PostingsRepr::Bitmap {
            bitmap_df += entry.df();
        }
    }
    report.set(
        "textindex.bitmap_share",
        ratio(bitmap_df as f64, all_df as f64),
        all_df,
    );
    if let (Ok(bytes), encode_s) = timed(|| db.snapshot_bytes()) {
        report.set("relstore.snapshot.store_encode_ms", ms(encode_s), 1);
        report.set("relstore.snapshot.store_bytes", bytes.len() as f64, 1);
        let (decoded, decode_s) = timed(|| Database::from_snapshot_bytes(&bytes));
        if decoded.is_ok() {
            report.set("relstore.snapshot.store_decode_ms", ms(decode_s), 1);
        }
    }
    if let Ok(bytes) = index.snapshot_bytes() {
        report.set("textindex.snapshot_bytes", bytes.len() as f64, 1);
        let (decoded, decode_s) = timed(|| InvertedIndex::from_snapshot_bytes(&bytes));
        if decoded.is_ok() {
            report.set("textindex.snapshot_decode_ms", ms(decode_s), 1);
        }
    }
    let t = ctx.fixture.timings;
    report.set("textindex.build_s", t.index_build_s, 1);
    report.set("datagen.generate_s", t.generate_s, 1);
    report.set("datagen.holdout_s", t.holdout_s, 1);
    report.set("datagen.rows", ctx.fixture.full_rows as f64, 1);

    // --- the trace file, and where the time went -------------------------
    let path = bench_dir().join(format!("{}.trace.jsonl", spec.name));
    match traced.tr.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
    print_self_times(spans, areqs);

    let attempted = ctx.attempted + ctx.verdict.compared;
    let failed = ctx.failed + ctx.verdict.mismatched;
    report.set(
        "fail_share",
        ratio(failed as f64, attempted as f64),
        attempted,
    );
}

/// Per layer: total self time over the re-enacted answers requests and its
/// share of the re-enacted pipeline spans — the table the README quotes.
fn print_self_times(spans: &[Span], answers_reqs: &[u32]) {
    let sampled: HashSet<u32> = answers_reqs.iter().copied().collect();
    let selfs = trace::self_times(spans);
    let mut in_tree = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_tree[i] = sampled.contains(&s.req)
            && match s.parent {
                None => s.name == "answers_reenacted",
                Some(p) => in_tree[p as usize],
            };
    }
    let mut by_layer: Vec<(&str, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| in_tree[*i]) {
        let ms = selfs[i] as f64 / 1e6;
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, total)) => *total += ms,
            None => by_layer.push((s.layer, ms)),
        }
    }
    let total: f64 = by_layer.iter().map(|(_, t)| t).sum();
    println!(
        "self time over {} re-enacted answers requests ({total:.1} ms):",
        answers_reqs.len()
    );
    for (layer, t) in by_layer {
        println!("  {layer} {t:.1} ms {:.1}%", 100.0 * ratio(t, total));
    }
}
