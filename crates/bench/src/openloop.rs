//! Open-loop load harness for the serving layer.
//!
//! The closed-loop replay ([`crate::replay_serve`]) measures latency from
//! *send* to reply with clients that wait for each reply before sending the
//! next request. When the service slows down, those clients slow down with
//! it — the arrival rate adapts to the thing being measured, and the
//! latency a stalled request *would* have seen is simply never sampled.
//! That is coordinated omission, and it makes closed-loop percentiles a
//! systematic underestimate of what users at a fixed offered rate
//! experience.
//!
//! This module drives the service open-loop instead: a seeded arrival
//! schedule fixes *when* each request is offered before the run starts, the
//! dispatcher fires each request at its scheduled instant whether or not
//! earlier ones completed, and every latency is measured from the
//! *scheduled arrival*, so time spent queueing behind a slow service counts
//! against the service. [`sweep_capacity`] ladders the offered rate upward
//! until the SLO breaks and reports the knee: the highest rate the service
//! sustains with its p95 under the SLO and its failure/timeout rate under
//! the ceiling.

use keybridge_core::{
    DiversifyOptions, KeywordQuery, Reply, Request, SearchService, SearchSnapshot, ServeRequests,
};
use keybridge_relstore::RowBatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one scheduled operation asks of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMode {
    /// Plain top-k search (`Request::AnswersTimed`, async).
    Search,
    /// Diversified top-k (`Request::DiversifiedTimed`, async).
    Diversified,
    /// A construction-session burst: open, read answers, close (sync).
    Session,
    /// One live insert batch (sync, order-preserving).
    Ingest,
}

/// One slot of an arrival schedule: fire `mode` with argument `arg`
/// (query index, or batch index for ingest) at `at` seconds from run start.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOp {
    pub at: f64,
    pub mode: OpMode,
    pub arg: usize,
}

/// Relative weights of the traffic mix. The default skews heavily toward
/// plain search, the dominant serving mode, with a trickle of diversified
/// queries, session bursts, and live writes.
#[derive(Debug, Clone, Copy)]
pub struct MixWeights {
    pub search: u32,
    pub diversified: u32,
    pub session: u32,
    pub ingest: u32,
}

impl Default for MixWeights {
    fn default() -> Self {
        MixWeights {
            search: 90,
            diversified: 4,
            session: 4,
            ingest: 2,
        }
    }
}

impl MixWeights {
    fn total(&self) -> u32 {
        self.search + self.diversified + self.session + self.ingest
    }

    /// Map a draw in `[0, total)` onto a mode (cumulative ranges, in field
    /// order).
    fn pick(&self, w: u32) -> OpMode {
        if w < self.search {
            OpMode::Search
        } else if w < self.search + self.diversified {
            OpMode::Diversified
        } else if w < self.search + self.diversified + self.session {
            OpMode::Session
        } else {
            OpMode::Ingest
        }
    }
}

/// Per-mode operation counts of a schedule. Pure functions of the seed and
/// mix — rate-independent — so CI gates them strictly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeCounts {
    pub search: usize,
    pub diversified: usize,
    pub session: usize,
    pub ingest: usize,
}

impl ModeCounts {
    pub fn of(ops: &[OpenLoopOp]) -> ModeCounts {
        let mut c = ModeCounts::default();
        for op in ops {
            match op.mode {
                OpMode::Search => c.search += 1,
                OpMode::Diversified => c.diversified += 1,
                OpMode::Session => c.session += 1,
                OpMode::Ingest => c.ingest += 1,
            }
        }
        c
    }
}

/// Build a seeded Poisson arrival schedule of `n_ops` operations at
/// `target_rps`. The random draw sequence is *rate-independent*: every op
/// draws one unit-rate exponential interarrival (scaled by `target_rps`
/// after the draw), one mix weight, and one query index, so two schedules
/// with the same seed differ only in their timestamps — the op/mode/query
/// sequence, and hence every [`ModeCounts`] field, is identical at every
/// rung of a sweep. Ingest slots consume insert batches in schedule order
/// (prefix consistency); once `n_batches` are spent, further ingest draws
/// degrade to plain searches.
pub fn openloop_schedule(
    seed: u64,
    n_ops: usize,
    target_rps: f64,
    mix: MixWeights,
    n_queries: usize,
    n_batches: usize,
) -> Vec<OpenLoopOp> {
    assert!(target_rps > 0.0, "offered rate must be positive");
    assert!(n_queries > 0, "schedule needs a query pool");
    let total = mix.total();
    assert!(total > 0, "mix weights must not all be zero");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut next_batch = 0usize;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let u: f64 = rng.gen();
        // Inverse-CDF exponential; 1-u keeps the argument of ln positive.
        t += -(1.0 - u).ln() / target_rps;
        let w = rng.gen_range(0..total);
        let q = rng.gen_range(0..n_queries);
        let (mode, arg) = match mix.pick(w) {
            OpMode::Ingest if next_batch < n_batches => {
                next_batch += 1;
                (OpMode::Ingest, next_batch - 1)
            }
            OpMode::Ingest => (OpMode::Search, q),
            m => (m, q),
        };
        ops.push(OpenLoopOp { at: t, mode, arg });
    }
    ops
}

/// FIFO multi-server queue simulation in virtual time: each of the sorted
/// `arrivals` takes `service_time` on the earliest-free of `servers`
/// identical servers, and its latency is completion minus arrival — the
/// open-loop definition, queueing delay included. This is the analytic
/// reference the virtual-time tests compare measured open-loop latencies
/// against.
pub fn queue_latencies(arrivals: &[f64], service_time: f64, servers: usize) -> Vec<f64> {
    assert!(servers >= 1, "need at least one server");
    let mut free = vec![0.0f64; servers];
    arrivals
        .iter()
        .map(|&a| {
            let idx = free
                .iter()
                .enumerate()
                .min_by(|x, y| x.1.partial_cmp(y.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let start = a.max(free[idx]);
            free[idx] = start + service_time;
            free[idx] - a
        })
        .collect()
}

/// Knobs of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Service worker threads.
    pub workers: usize,
    /// Top-k for plain searches.
    pub k: usize,
    /// Diversified-mode options.
    pub div: DiversifyOptions,
    /// Interpretation window of a session burst.
    pub session_window: usize,
    /// Answers pulled per session burst.
    pub session_limit: usize,
    /// Client threads executing the synchronous modes (session bursts).
    pub sync_clients: usize,
    /// A completed request slower than this (from scheduled arrival) counts
    /// as a timeout against the SLO failure ceiling.
    pub timeout_ms: f64,
    /// Testing seam: replace every *search* op's work with a fixed sleep of
    /// this length on the serving worker, making the service time a known
    /// constant the virtual-time tests can predict queueing from.
    pub inject_sleep: Option<Duration>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            workers: 2,
            k: 10,
            div: DiversifyOptions::default(),
            session_window: 10,
            session_limit: 5,
            sync_clients: 2,
            timeout_ms: 500.0,
            inject_sleep: None,
        }
    }
}

/// Outcome of one open-loop run at a fixed offered rate.
#[derive(Debug, Clone)]
pub struct OpenLoopRun {
    /// Operations the schedule offered.
    pub offered: usize,
    /// Operations that completed successfully (timeouts included — they
    /// finished, just late).
    pub completed: usize,
    /// Operations that errored or whose reply was lost.
    pub failures: usize,
    /// Completed operations slower than `timeout_ms` from scheduled
    /// arrival.
    pub timeouts: usize,
    /// Completed operations per second of wall-clock.
    pub achieved_rps: f64,
    /// Latency percentiles from *scheduled arrival* to completion, ms.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Per-mode counts of the schedule that was offered.
    pub counts: ModeCounts,
    /// The full sorted latency sample, ms (for dominance tests and sweep
    /// curve dumps).
    pub latencies_ms: Vec<f64>,
}

/// A sync-mode job handed to a client thread.
enum SyncJob {
    Session { at: f64, arg: usize },
    Ingest { at: f64, arg: usize },
}

/// What one client thread (or the ticket collector) accumulated.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    failures: usize,
}

fn wait_until(t0: Instant, at: f64) {
    loop {
        let now = t0.elapsed().as_secs_f64();
        if now >= at {
            return;
        }
        let remain = at - now;
        if remain > 0.001 {
            std::thread::sleep(Duration::from_secs_f64(remain - 0.0005));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drive one open-loop replay of `ops` against `service` — any
/// implementation of the unified [`ServeRequests`] seam, the single-shard
/// service and the sharded scatter-gather router alike. The dispatcher
/// fires every operation at its scheduled instant regardless of whether
/// earlier ones completed — if the service falls behind, requests pile up
/// in its queue and their measured latency (scheduled arrival →
/// completion) grows to show it. Async modes (search, diversified) are
/// submitted fire-and-forget with worker-side completion stamps; sync
/// modes run on a small client pool (session bursts, served through
/// [`ServeRequests::session_burst`]) and a dedicated writer thread
/// (ingest, preserving batch order), where channel queueing time counts
/// toward latency exactly like service queueing.
pub fn run_open_loop<S: ServeRequests + Sync>(
    service: &S,
    queries: &[Vec<String>],
    batches: &[RowBatch],
    ops: &[OpenLoopOp],
    cfg: &OpenLoopConfig,
) -> OpenLoopRun {
    let counts = ModeCounts::of(ops);
    let (session_tx, session_rx) = channel::<SyncJob>();
    let session_rx = Mutex::new(session_rx);
    let (ingest_tx, ingest_rx) = channel::<SyncJob>();

    let run_sync = |job: SyncJob, t0: Instant, tally: &mut Tally| {
        let (at, ok) = match job {
            SyncJob::Session { at, arg } => {
                let q = KeywordQuery::from_terms(queries[arg].clone());
                (
                    at,
                    service.session_burst(&q, cfg.session_window, cfg.session_limit),
                )
            }
            SyncJob::Ingest { at, arg } => (at, service.ingest_batch(&batches[arg]).is_ok()),
        };
        if ok {
            tally
                .latencies_ms
                .push((t0.elapsed().as_secs_f64() - at) * 1e3);
        } else {
            tally.failures += 1;
        }
    };

    let t0 = Instant::now();
    let (mut tallies, wall) = std::thread::scope(|scope| {
        let session_clients: Vec<_> = (0..cfg.sync_clients.max(1))
            .map(|_| {
                let session_rx = &session_rx;
                let run_sync = &run_sync;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    loop {
                        let job = {
                            let rx = session_rx.lock().unwrap();
                            rx.recv()
                        };
                        match job {
                            Ok(j) => run_sync(j, t0, &mut tally),
                            Err(_) => return tally,
                        }
                    }
                })
            })
            .collect();
        let writer = {
            let run_sync = &run_sync;
            scope.spawn(move || {
                let mut tally = Tally::default();
                for job in ingest_rx {
                    run_sync(job, t0, &mut tally);
                }
                tally
            })
        };

        // The dispatcher: fire each op at its scheduled instant.
        let mut pending = Vec::new();
        for op in ops {
            wait_until(t0, op.at);
            match op.mode {
                OpMode::Search => {
                    let ticket = match cfg.inject_sleep {
                        Some(d) => service.submit_sleeping(d),
                        None => service.submit_request(Request::AnswersTimed {
                            query: KeywordQuery::from_terms(queries[op.arg].clone()),
                            k: cfg.k,
                        }),
                    };
                    pending.push((op.at, ticket));
                }
                OpMode::Diversified => {
                    let ticket = service.submit_request(Request::DiversifiedTimed {
                        query: KeywordQuery::from_terms(queries[op.arg].clone()),
                        opts: cfg.div,
                    });
                    pending.push((op.at, ticket));
                }
                OpMode::Session => {
                    let _ = session_tx.send(SyncJob::Session {
                        at: op.at,
                        arg: op.arg,
                    });
                }
                OpMode::Ingest => {
                    let _ = ingest_tx.send(SyncJob::Ingest {
                        at: op.at,
                        arg: op.arg,
                    });
                }
            }
        }
        drop(session_tx);
        drop(ingest_tx);

        // Collect the async completions: latency is worker-stamped
        // completion minus *scheduled* arrival, so queueing before a worker
        // picked the job up is charged to the service.
        let mut tally = Tally::default();
        for (at, ticket) in pending {
            let completed_at = match ticket.wait() {
                Some(Reply::AnswersTimed(r)) if r.result.is_ok() => Some(r.completed_at),
                Some(Reply::DiversifiedTimed(r)) if r.result.is_ok() => Some(r.completed_at),
                _ => None,
            };
            match completed_at {
                Some(done) => tally
                    .latencies_ms
                    .push(((done - t0).as_secs_f64() - at) * 1e3),
                None => tally.failures += 1,
            }
        }

        let mut tallies: Vec<Tally> = session_clients
            .into_iter()
            .map(|h| h.join().expect("session client"))
            .collect();
        tallies.push(writer.join().expect("ingest writer"));
        tallies.push(tally);
        (tallies, t0.elapsed().as_secs_f64())
    });

    let mut latencies_ms = Vec::new();
    let mut failures = 0usize;
    for t in &mut tallies {
        latencies_ms.append(&mut t.latencies_ms);
        failures += t.failures;
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let timeouts = latencies_ms.iter().filter(|&&l| l > cfg.timeout_ms).count();
    let completed = latencies_ms.len();
    OpenLoopRun {
        offered: ops.len(),
        completed,
        failures,
        timeouts,
        achieved_rps: completed as f64 / wall.max(1e-12),
        p50_ms: crate::percentile(&latencies_ms, 0.50),
        p95_ms: crate::percentile(&latencies_ms, 0.95),
        p99_ms: crate::percentile(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(f64::NAN),
        counts,
        latencies_ms,
    }
}

/// The service-level objective a sweep rung must hold.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// p95 latency ceiling (from scheduled arrival), ms.
    pub p95_ms: f64,
    /// Ceiling on (failures + timeouts) / offered.
    pub max_failure_rate: f64,
}

/// Knobs of a capacity sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Schedule seed — shared by every rung, so all rungs replay the same
    /// op/mode/query sequence at different speeds.
    pub seed: u64,
    /// Operations per rung.
    pub n_ops: usize,
    /// Offered rate of the first rung.
    pub start_rps: f64,
    /// Multiplicative rung spacing. 1.25 keeps one rung of quantization
    /// noise inside the regression gate's 1.5x allowance.
    pub growth: f64,
    /// Rung ceiling (the sweep also stops at the first SLO violation).
    pub max_rungs: usize,
    pub mix: MixWeights,
    pub slo: SloConfig,
    pub open: OpenLoopConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 23,
            n_ops: 240,
            start_rps: 400.0,
            growth: 1.25,
            max_rungs: 14,
            mix: MixWeights::default(),
            slo: SloConfig {
                p95_ms: 20.0,
                max_failure_rate: 0.02,
            },
            open: OpenLoopConfig::default(),
        }
    }
}

/// One rung of a sweep: the offered rate, the run, and the SLO verdict.
#[derive(Debug, Clone)]
pub struct SweepRung {
    pub target_rps: f64,
    pub passed: bool,
    pub run: OpenLoopRun,
}

/// What a capacity sweep found.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Every rung driven, in ladder order.
    pub rungs: Vec<SweepRung>,
    /// The knee: the highest offered rate whose rung held the SLO (0 when
    /// even the first rung failed).
    pub capacity_rps: f64,
    /// p95 at the knee rung (the first rung's p95 when none passed, so the
    /// snapshot never records NaN).
    pub p95_at_capacity_ms: f64,
    /// Per-mode schedule counts — identical at every rung by construction.
    pub counts: ModeCounts,
}

/// Ladder the offered rate from `start_rps` by `growth` per rung until the
/// SLO breaks (or `max_rungs`), each rung on a fresh cold service over
/// `snapshot`, and report the capacity knee. Because each rung boots its
/// own service, ingest batches consumed by one rung do not leak into the
/// next — every rung sees the same initial epoch.
pub fn sweep_capacity(
    snapshot: &Arc<SearchSnapshot>,
    queries: &[Vec<String>],
    batches: &[RowBatch],
    cfg: &SweepConfig,
) -> SweepOutcome {
    assert!(cfg.growth > 1.0, "a sweep must ladder upward");
    // One short unrecorded warm-up rung: the first requests of a fresh
    // process pay page-cache and allocator cold-start costs that have
    // nothing to do with the offered rate, and a cold first rung is the
    // difference between "knee at the ladder top" and "knee at rung one"
    // on a noisy box.
    {
        let warm = openloop_schedule(
            cfg.seed,
            (cfg.n_ops / 4).max(1),
            cfg.start_rps,
            cfg.mix,
            queries.len(),
            batches.len(),
        );
        let service = SearchService::start(Arc::clone(snapshot), cfg.open.workers);
        let _ = run_open_loop(&service, queries, batches, &warm, &cfg.open);
    }
    let mut rungs: Vec<SweepRung> = Vec::new();
    let mut capacity_rps = 0.0f64;
    let mut p95_at_capacity_ms = f64::NAN;
    let mut counts = ModeCounts::default();
    let mut rps = cfg.start_rps;
    for _ in 0..cfg.max_rungs {
        let ops = openloop_schedule(
            cfg.seed,
            cfg.n_ops,
            rps,
            cfg.mix,
            queries.len(),
            batches.len(),
        );
        counts = ModeCounts::of(&ops);
        let drive = || {
            let service = SearchService::start(Arc::clone(snapshot), cfg.open.workers);
            run_open_loop(&service, queries, batches, &ops, &cfg.open)
        };
        let slo_ok = |run: &OpenLoopRun| {
            let failure_rate = (run.failures + run.timeouts) as f64 / run.offered.max(1) as f64;
            run.p95_ms <= cfg.slo.p95_ms && failure_rate <= cfg.slo.max_failure_rate
        };
        let mut run = drive();
        let mut passed = slo_ok(&run);
        if !passed {
            // A failure ends the ladder, so it must be confirmed: one noisy
            // window (a CPU steal mid-rung) should not set the knee. Genuine
            // saturation reproduces on the rerun; a transient does not.
            let rerun = drive();
            if slo_ok(&rerun) {
                run = rerun;
                passed = true;
            }
        }
        if passed {
            capacity_rps = rps;
            p95_at_capacity_ms = run.p95_ms;
        } else if rungs.is_empty() {
            p95_at_capacity_ms = run.p95_ms;
        }
        rungs.push(SweepRung {
            target_rps: rps,
            passed,
            run,
        });
        if !rungs.last().unwrap().passed {
            break;
        }
        rps *= cfg.growth;
    }
    SweepOutcome {
        rungs,
        capacity_rps,
        p95_at_capacity_ms,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_rate_independent() {
        let mix = MixWeights::default();
        let a = openloop_schedule(42, 200, 100.0, mix, 16, 3);
        let b = openloop_schedule(42, 200, 100.0, mix, 16, 3);
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.arg, y.arg);
        }
        // Doubling the rate halves every timestamp but leaves the
        // op/mode/argument sequence — and hence the per-mode counts —
        // untouched.
        let fast = openloop_schedule(42, 200, 200.0, mix, 16, 3);
        for (x, y) in a.iter().zip(&fast) {
            assert!((x.at - 2.0 * y.at).abs() < 1e-9);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.arg, y.arg);
        }
        assert_eq!(ModeCounts::of(&a), ModeCounts::of(&fast));
    }

    #[test]
    fn schedule_counts_sum_and_ingest_args_are_ordered() {
        let ops = openloop_schedule(7, 500, 50.0, MixWeights::default(), 8, 4);
        let c = ModeCounts::of(&ops);
        assert_eq!(c.search + c.diversified + c.session + c.ingest, 500);
        assert!(c.search > c.diversified, "mix skews toward search");
        // Ingest slots consume batches 0..n in schedule order and never
        // exceed the plan.
        let ingest_args: Vec<usize> = ops
            .iter()
            .filter(|o| o.mode == OpMode::Ingest)
            .map(|o| o.arg)
            .collect();
        assert_eq!(ingest_args, (0..ingest_args.len()).collect::<Vec<_>>());
        assert!(c.ingest <= 4);
        // Arrivals are non-decreasing (exponential gaps are positive).
        for w in ops.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
    }

    #[test]
    fn mix_pick_covers_cumulative_ranges() {
        let mix = MixWeights {
            search: 2,
            diversified: 1,
            session: 1,
            ingest: 1,
        };
        let picks: Vec<OpMode> = (0..mix.total()).map(|w| mix.pick(w)).collect();
        assert_eq!(
            picks,
            vec![
                OpMode::Search,
                OpMode::Search,
                OpMode::Diversified,
                OpMode::Session,
                OpMode::Ingest
            ]
        );
    }

    #[test]
    fn queue_simulation_matches_hand_computed_mm1_and_mm2() {
        // One server, service 3, arrivals every 1: the backlog grows by 2
        // per arrival — completion times 3, 6, 9, 12.
        let lat = queue_latencies(&[0.0, 1.0, 2.0, 3.0], 3.0, 1);
        assert_eq!(lat, vec![3.0, 5.0, 7.0, 9.0]);
        // Two servers absorb more: completions 3, 4, 6, 7.
        let lat = queue_latencies(&[0.0, 1.0, 2.0, 3.0], 3.0, 2);
        assert_eq!(lat, vec![3.0, 3.0, 4.0, 4.0]);
        // An idle system serves at the service time exactly.
        let lat = queue_latencies(&[0.0, 10.0, 20.0], 3.0, 1);
        assert_eq!(lat, vec![3.0, 3.0, 3.0]);
    }
}
