//! One workload, one process: `setup` -> unmeasured `warm` -> `sat` (closed
//! loop) -> `lo`, `hi` (open loop, `--trace 1` only) -> `verify` (-> kill and
//! reopen, for the durable workload).
//!
//! `--trace 0` spends all of `--seconds` in `sat` and reports the gated
//! end-to-end metrics from it: they are the ones that hold still on a shared
//! two-core box (see the README for the spreads measured). `--trace 1` runs a
//! short `sat`, both open-loop phases and the one-in-flight and traced
//! passes, and reports everything else (see `layers.rs`).

use crate::driver::{closed_loop, open_loop, PhaseRun};
use crate::metrics::Report;
use crate::schedule::{ops_in, plan, Op, OpKind};
use crate::verify::{self, Verdict};
use crate::workload::{scratch_dir, service_workers, Fixture, Live, Spec, Topology};
use crate::{layers, stats};
use keybridge_core::{KeywordService, ServeRequests};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Clients of the `sat` closed loop.
pub const SAT_CLIENTS: usize = 2;
/// Times the whole set-up (fixture, boot, warm pass) is repeated; `setup_s`
/// is the median.
const SETUP_REPEATS: usize = 3;
/// Replies compared with the cold oracle after the timed phases.
const VERIFY_SAMPLE: usize = 200;
/// Queries probed before the kill and again after the reopen.
const KILL_PROBE: usize = 50;
/// `SearchService::open` repetitions behind `recovery_s`.
const REOPENS: usize = 5;
/// Noise guard: beyond these the affected metrics are printed `unresolved`.
pub const MAX_LAG_P99_MS: f64 = 1.0;
/// Reporting SLO on the answers p95 from scheduled arrival.
pub const SLO_P95_MS: f64 = 50.0;
pub const SLO_FAIL_SHARE: f64 = 0.02;

/// Share of `--seconds` each phase measures for.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub sat: f64,
    pub lo: f64,
    pub hi: f64,
}

const BUDGET_E2E: Budget = Budget {
    sat: 1.0,
    lo: 0.0,
    hi: 0.0,
};
const BUDGET_LAYERS: Budget = Budget {
    sat: 0.15,
    lo: 0.30,
    hi: 0.20,
};

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub report: Report,
    pub attempted: usize,
    pub failed: usize,
    /// No reply differed from its oracle and recovery lost nothing.
    pub correct: bool,
    /// Scratch directories to remove on success and to name on failure.
    pub dirs: Vec<PathBuf>,
}

/// A booted service and where its files live.
pub struct Stage {
    pub svc: KeywordService,
    pub dir: PathBuf,
}

/// The state every pass of a run shares.
pub struct Ctx {
    pub fixture: Fixture,
    /// The warmed service, when phases share one.
    pub warmed: Option<Stage>,
    pub ops: Vec<Op>,
    pub seed: u64,
    pub dirs: Vec<PathBuf>,
    pub attempted: usize,
    pub failed: usize,
    pub verdict: Verdict,
}

impl Ctx {
    pub fn boot(&mut self) -> Stage {
        let dir = scratch_dir(self.fixture.spec.name);
        self.dirs.push(dir.clone());
        Stage {
            svc: self.fixture.boot(&dir),
            dir,
        }
    }

    /// The service a phase runs against: its own, or the shared warmed one.
    fn phase_stage(&mut self) -> Option<Stage> {
        self.fixture
            .spec
            .fresh_service_per_phase
            .then(|| self.boot())
    }

    pub fn count(&mut self, run: &PhaseRun) {
        self.attempted += run.attempted();
        self.failed += run.failed();
    }

    /// Closed loop over the op sequence for `seconds`. Like [`Ctx::open`],
    /// also returns the batches acknowledged and the phase's own service.
    pub fn closed(&mut self, clients: usize, seconds: f64) -> (PhaseRun, usize, Option<Stage>) {
        let own = self.phase_stage();
        let stage = own.as_ref().or(self.warmed.as_ref()).expect("a service");
        let live = Live::new(&stage.svc, &self.fixture);
        let run = closed_loop(&live, &self.ops, clients, Duration::from_secs_f64(seconds));
        let acked = live.acked();
        self.count(&run);
        (run, acked, own)
    }

    /// Open loop at `rate` for `seconds`.
    pub fn open(&mut self, rate: f64, seconds: f64) -> (PhaseRun, usize, Option<Stage>) {
        let own = self.phase_stage();
        let stage = own.as_ref().or(self.warmed.as_ref()).expect("a service");
        let live = Live::new(&stage.svc, &self.fixture);
        let n = ops_in(rate, seconds).min(self.ops.len());
        let run = open_loop(&live, &self.ops[..n], rate);
        let acked = live.acked();
        self.count(&run);
        (run, acked, own)
    }
}

/// Fixture + boot + warm pass, timed as a whole.
fn set_up(spec: &'static Spec, seed: u64) -> (Fixture, Stage, f64) {
    let t = Instant::now();
    let fixture = Fixture::build(spec);
    let dir = scratch_dir(spec.name);
    let svc = fixture.boot(&dir);
    let warm = plan(
        spec.mix,
        spec.pick,
        fixture.queries.len(),
        fixture.batches.len(),
        seed ^ 0x77a7_2d11,
        spec.warm_ops,
    );
    let run = closed_loop(
        &Live::new(&svc, &fixture),
        &warm,
        1,
        Duration::from_secs(60),
    );
    assert_eq!(run.failed(), 0, "warm pass failed");
    (fixture, Stage { svc, dir }, t.elapsed().as_secs_f64())
}

/// A seeded sample of `n` read ops out of `ops`.
fn read_sample(ops: &[Op], n: usize, seed: u64) -> Vec<Op> {
    let mut reads: Vec<Op> = ops
        .iter()
        .filter(|o| o.kind != OpKind::Ingest)
        .copied()
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = n.min(reads.len());
    for i in 0..n {
        let j = rng.gen_range(i..reads.len());
        reads.swap(i, j);
    }
    reads.truncate(n);
    reads
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the kill-and-reopen step measured.
pub struct Recovery {
    pub reopen_s: Vec<f64>,
    pub replayed_batches: usize,
    pub scan_ms: f64,
    pub checkpoint_bytes: u64,
    pub checkpoint_rows: usize,
}

/// Drop the durable service without a checkpoint, reopen it, and check that
/// nothing acknowledged was lost. The kill leaves the OS page cache intact,
/// so this checks log completeness, not device durability.
fn kill_and_reopen(ctx: &mut Ctx, stage: Stage, acked: usize) -> Recovery {
    let Topology::Durable { checkpoint_every } = ctx.fixture.spec.topology else {
        unreachable!("only the durable workload is killed");
    };
    let probe = read_sample(&ctx.ops, KILL_PROBE, ctx.seed ^ 0x9e37);
    let probe: Vec<Op> = probe
        .into_iter()
        .map(|o| Op {
            kind: OpKind::Answers,
            ..o
        })
        .collect();
    let before: Vec<Option<String>> = probe
        .iter()
        .map(|op| verify::served_bytes(&stage.svc, &ctx.fixture, op))
        .collect();
    let checkpoints = stage.svc.service_stats().checkpoints;
    let Stage { svc, dir } = stage;
    drop(svc);

    let (scan, scan_s) = stats::timed(|| keybridge_core::scan_wal(&dir));
    let logged = scan.map_or(0, |s| s.records.len());
    let checkpoint_bytes =
        std::fs::metadata(dir.join(keybridge_core::SNAPSHOT_FILE)).map_or(0, |m| m.len());
    let checkpoint_epoch = checkpoints * checkpoint_every;
    let checkpoint_rows = ctx.fixture.snapshot.db.total_rows()
        + ctx.fixture.batches[..checkpoint_epoch]
            .iter()
            .map(Vec::len)
            .sum::<usize>();

    let mut reopen_s = Vec::with_capacity(REOPENS);
    let mut replayed_batches = 0;
    for _ in 0..REOPENS {
        let t = Instant::now();
        let svc = ctx.fixture.reopen(&dir);
        reopen_s.push(t.elapsed().as_secs_f64());
        let st = svc.service_stats();
        replayed_batches = st.recovery_replayed_batches;
        ctx.verdict.compared += 1;
        if st.epoch as usize != acked || replayed_batches != logged {
            eprintln!(
                "recovery mismatch: epoch {} vs {acked} acknowledged, replayed {replayed_batches} of {logged} logged",
                st.epoch
            );
            ctx.verdict.mismatched += 1;
        }
        if reopen_s.len() == REOPENS {
            for (op, want) in probe.iter().zip(&before) {
                ctx.verdict.compared += 1;
                if &verify::served_bytes(&svc, &ctx.fixture, op) != want {
                    ctx.verdict.mismatched += 1;
                }
            }
        }
    }
    Recovery {
        reopen_s,
        replayed_batches,
        scan_ms: scan_s * 1e3,
        checkpoint_bytes,
        checkpoint_rows,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let spec = args.spec;
    println!("{}", crate::affinity::split_cpus());
    let (_pollers, note) = crate::affinity::IdlePollers::start();
    println!("{note}");
    let budget = if args.trace {
        BUDGET_LAYERS
    } else {
        BUDGET_E2E
    };
    let mut report = Report::default();

    // setup (+ warm), repeated; the last one is the one measured against.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut dirs = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let (fixture, stage, secs) = set_up(spec, args.seed);
        setups.push(secs);
        dirs.push(stage.dir.clone());
        last = Some((fixture, stage));
    }
    let (fixture, warmed) = last.expect("at least one set-up");
    println!(
        "fixture: {} rows served at start ({} in the full fixture), {} queries in the pool, {} insert batches",
        fixture.snapshot.db.total_rows(),
        fixture.full_rows,
        fixture.queries.len(),
        fixture.batches.len()
    );
    let sat_s = budget.sat * args.seconds;
    // Enough ops for the longest phase; `sat` stops at its deadline.
    let n_ops = ops_in(
        spec.rate_hi,
        (budget.lo.max(budget.hi) * args.seconds).max(sat_s * 3.0),
    );
    let ops = plan(
        spec.mix,
        spec.pick,
        fixture.queries.len(),
        fixture.batches.len(),
        args.seed,
        n_ops,
    );
    let mut ctx = Ctx {
        warmed: (!spec.fresh_service_per_phase).then_some(warmed),
        fixture,
        ops,
        seed: args.seed,
        dirs,
        attempted: 0,
        failed: 0,
        verdict: Verdict::default(),
    };

    let (sat, mut acked, mut last_stage) = ctx.closed(SAT_CLIENTS, sat_s);
    let mut last_ops = sat.attempted();
    let mut open = Vec::new();
    for (rate, share) in [(spec.rate_lo, budget.lo), (spec.rate_hi, budget.hi)] {
        if share > 0.0 {
            drop(last_stage.take());
            let (run, run_acked, stage) = ctx.open(rate, share * args.seconds);
            (acked, last_stage, last_ops) = (run_acked, stage, run.attempted());
            open.push(run);
        }
    }

    // verify: the service that served the last phase against the cold oracle.
    let sample = read_sample(&ctx.ops[..last_ops], VERIFY_SAMPLE, args.seed ^ 0x51f1);
    let stage = last_stage.or(ctx.warmed.take()).expect("a service");
    let v = verify::compare(&stage.svc, &ctx.fixture, acked, &sample);
    ctx.verdict.absorb(v);
    let recovery = matches!(spec.topology, Topology::Durable { .. })
        .then(|| kill_and_reopen(&mut ctx, stage, acked));

    if let [lo, hi] = &open[..] {
        layers::report(&mut report, &mut ctx, args, &sat, lo, hi, recovery.as_ref());
    } else {
        let sat_search = sat.latencies(OpKind::Answers);
        report.set("setup_s", stats::median(setups.clone()), setups.len());
        report.set("sat_ops_s", sat.ops_per_s(), sat.attempted());
        report.set_percentile("sat_search_p50_ms", &sat_search, 0.50);
        report.set_percentile("sat_search_p95_ms", &sat_search, 0.95);
        report.set("rss_peak_mb", rss_peak_mb(), 1);
        let spread = sat.segment_spread(5);
        println!("sat segment spread {spread:.3}");
        if spread > spec.max_segment_spread {
            for name in ["sat_ops_s", "sat_search_p50_ms", "sat_search_p95_ms"] {
                report.mark_unresolved(name);
            }
        }
    }

    let attempted = ctx.attempted + ctx.verdict.compared;
    let failed = ctx.failed + ctx.verdict.mismatched;
    Outcome {
        report,
        attempted,
        failed,
        correct: ctx.verdict.mismatched == 0,
        dirs: ctx.dirs,
    }
}

/// Header lines every run prints: the sizing the numbers depend on.
pub fn describe(args: &RunArgs) -> String {
    let spec = args.spec;
    let flush = match spec.topology {
        Topology::Durable { checkpoint_every } => format!(
            "WAL sync_data on every batch, checkpoint every {checkpoint_every} batches; the kill leaves the OS page cache intact (log completeness, not device durability); fsync/read latencies are the sandbox's"
        ),
        _ => "non-durable".to_string(),
    };
    format!(
        "workload {} seed {} seconds {} trace {}\ncores {} service_workers {} generator_threads 2 (1 dispatcher + 1 sync client; sat: {} closed-loop clients)\nrate_lo {} rate_hi {} ops/s\n{}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        crate::workload::cores(),
        service_workers(),
        SAT_CLIENTS,
        spec.rate_lo,
        spec.rate_hi,
        flush
    )
}
