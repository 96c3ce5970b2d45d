//! The one harness of the serving suite. A **generator** builds op histories
//! over every serving mode; a **runner** drives one through a single,
//! durable or K=4 sharded service, sequentially or from client threads
//! racing one writer, into a transcript; a **checker** holds every line to
//! the cold oracle of exactly the epoch it reports — a fresh `Interpreter`
//! for answers and interpretations, `divq::executed_div_pool` + Alg. 4.1
//! for diversified replies, an `iqp::ConstructionSession` replayed at the
//! pinned epoch for sessions, the never-crashed store's bytes for recovery.
//!
//! Epoch `e` always means "preload + the plan's first `e` batches": every
//! path applies batches in plan order (a lost batch is sent again, a
//! durable one never is), so one memo per epoch serves every target and
//! mode. A sequential run is a pure function of its history, and a failure
//! names the test's seed: re-running the test reproduces it.

use keybridge::core::{
    scan_wal, AnswerStats, BindingAtom, ConstructionOption, ConstructionSession, DiversifyConfig,
    DiversifyOptions, DurabilityError, DurableOptions, ExecutedResult, FaultPoint, IngestError,
    IngestReceipt, InterpreterConfig, KeywordQuery, KeywordService, RankedAnswer, Reply, Request,
    ResultKey, SearchService, SearchSnapshot, ServeRequests, ServiceError, ServiceStats,
    SessionConfig, SessionId, SessionView, ShardedService, SnapshotEpoch, TemplateCatalog,
    TimedReply,
};
use keybridge::datagen::{
    sharded_holdout_plan, FreebaseConfig, FreebaseDataset, ImdbConfig, ImdbDataset, IngestConfig,
    IngestPlan, LyricsConfig, LyricsDataset, MixedOp, MixedWorkload, Workload, WorkloadConfig,
    YagoConfig, YagoOntology,
};
use keybridge::divq::{diversify, executed_div_pool, DivExecOptions};
use keybridge::index::{InvertedIndex, Tokenizer};
use keybridge::relstore::{Database, RowId, ShardAssignment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub const SHARDS: usize = 4;
const WORKERS: usize = 2;
/// Session window and per-candidate answer limit: the window sits below
/// the small diversified pool and the limit below its cap, so cross-mode
/// cache hits exercise truncation in both directions.
const WINDOW: usize = 8;
const WLIMIT: usize = 3;

pub const KILL_POINTS: [FaultPoint; 5] = [
    FaultPoint::MidWalAppend,
    FaultPoint::WalRollbackFail,
    FaultPoint::PostWalAppendPreSwap,
    FaultPoint::MidCheckpoint,
    FaultPoint::PostCheckpointPreTruncate,
];

// --- the fixture table --------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fx {
    Imdb,
    Lyrics,
    Freebase,
    Yago,
}

pub const FIXTURES: [Fx; 4] = [Fx::Imdb, Fx::Lyrics, Fx::Freebase, Fx::Yago];

/// A full datagen fixture, its seeded keyword log and its catalog bound.
pub struct Fixture {
    pub fx: Fx,
    pub db: Database,
    /// 8/8/6/5 queries: the log the read-only and writer-race histories replay.
    pub queries: Vec<Vec<String>>,
    /// 6/6/5/4: the prefix the ingest, recovery and diversify histories
    /// replay (the log draws are sequential, so it is the shorter log).
    pub short: usize,
    max_joins: usize,
    catalog: TemplateCatalog,
    /// One case per ingest plan (seed, holdout bits, batches), so every
    /// history over a plan shares its oracles.
    cases: Mutex<HashMap<(u64, u64, usize), Arc<Case>>>,
}

impl Fixture {
    /// The fixture, built once per test binary and shared by every test.
    pub fn load(fx: Fx) -> &'static Fixture {
        static LOADED: [OnceLock<Fixture>; 4] = [const { OnceLock::new() }; 4];
        LOADED[fx as usize].get_or_init(|| Fixture::build(fx))
    }

    fn build(fx: Fx) -> Fixture {
        let log = |seed| WorkloadConfig {
            seed,
            n_queries: 8,
            mc_fraction: 0.5,
        };
        let freebase = |topics, rows_per_table, seed| {
            FreebaseDataset::generate(FreebaseConfig {
                domains: 6,
                types_per_domain: 4,
                topics,
                rows_per_table,
                seed,
                scale: 1.0,
            })
            .unwrap()
        };
        let keywords = |w: Workload| w.queries.iter().map(|q| q.keywords.clone()).collect();
        let (db, queries, short, max_joins) = match fx {
            Fx::Imdb => {
                let data = ImdbDataset::generate(ImdbConfig::tiny(99)).unwrap();
                let queries = keywords(Workload::imdb(&data, log(123)));
                (data.db, queries, 6, 4)
            }
            Fx::Lyrics => {
                let data = LyricsDataset::generate(LyricsConfig::tiny(7)).unwrap();
                let queries = keywords(Workload::lyrics(&data, log(21)));
                (data.db, queries, 6, 4)
            }
            Fx::Freebase => {
                let fb = freebase(300, 12, 5);
                let queries = token_log(&fb.db, fb.topic, 6);
                (fb.db, queries, 5, 2)
            }
            Fx::Yago => {
                // YAGO instances live in the Freebase universe; the log is
                // drawn from the first gold-matched table.
                let fb = freebase(400, 15, 31);
                let gold = YagoOntology::generate(YagoConfig::tiny(32), &fb).gold[0].1;
                let queries = token_log(&fb.db, gold, 5);
                (fb.db, queries, 4, 2)
            }
        };
        let catalog = TemplateCatalog::enumerate(&db, max_joins, 50_000).unwrap();
        Fixture {
            fx,
            db,
            queries,
            short,
            max_joins,
            catalog,
            cases: Mutex::default(),
        }
    }

    fn durable_opts(&self) -> DurableOptions {
        DurableOptions {
            checkpoint_every: 0,
            config: InterpreterConfig::default(),
            max_joins: self.max_joins,
            max_templates: 50_000,
        }
    }
}

/// First tokens of the leading rows of `table` as single-keyword queries.
fn token_log(db: &Database, table: keybridge::relstore::TableId, n: usize) -> Vec<Vec<String>> {
    let tok = Tokenizer::new();
    let rows = 0..db.table(table).len().min(12) as u32;
    let first = |i| tok.tokenize(db.table(table).row(RowId(i))[1].as_text().unwrap_or(""));
    let out: Vec<Vec<String>> = rows
        .filter_map(|i| first(i).first().map(|t| vec![t.clone()]))
        .take(n)
        .collect();
    assert_eq!(out.len(), n, "too few tokens drawn from fixture");
    out
}

/// A fixture split by one ingest config — the preload every target boots
/// from, the batches that grow it back, the full-corpus shard directory —
/// and the per-epoch oracles built over it so far.
pub struct Case {
    pub fx: &'static Fixture,
    pub plan: IngestPlan,
    pub assignment: ShardAssignment,
    memo: Mutex<Memo>,
}

impl Case {
    pub fn new(fx: &'static Fixture, ingest: IngestConfig) -> Arc<Case> {
        let key = (ingest.seed, ingest.holdout.to_bits(), ingest.batches);
        let mut cases = fx.cases.lock().unwrap_or_else(PoisonError::into_inner);
        let case = cases.entry(key).or_insert_with(|| {
            let split = sharded_holdout_plan(&fx.db, ingest, SHARDS);
            let (plan, assignment, memo) = (split.plan, split.assignment, Mutex::default());
            Arc::new(Case {
                fx,
                plan,
                assignment,
                memo,
            })
        });
        Arc::clone(case)
    }
}

// --- histories ------------------------------------------------------------------

/// One operation. `q` indexes the fixture's log; sessions live in
/// history-local slots; `Ingest(b)` sends the plan's batch `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `(q, k)`.
    Answers(usize, usize),
    Interpretations(usize, usize),
    AnswersTimed(usize, usize),
    /// `(q, small)`: `small` is the capped setting (pool 12, cap 5,
    /// λ 0.1, k 4) instead of `DiversifyOptions::default()`.
    Diversified(usize, bool),
    DiversifiedTimed(usize, bool),
    /// `(slot, q)`.
    Open(usize, usize),
    /// `(slot, accept)`: a verdict on the session's proposed option.
    Advance(usize, bool),
    Window(usize),
    Close(usize),
    Ingest(usize),
    /// Every earlier op completes before any later one starts; nothing is
    /// sent, so the ops after it see the settled service.
    Settle,
    Checkpoint,
    /// `(point, batch)`: arm `point`, fire it (by ingesting `batch` or by
    /// checkpointing), then probe that the poisoned service refuses writes.
    Crash(FaultPoint, usize),
    Reopen,
}

impl Op {
    /// What a read asks, however it was submitted (its oracle memo key).
    fn read(self) -> Option<Op> {
        match self {
            Op::Answers(..) | Op::Interpretations(..) | Op::Diversified(..) => Some(self),
            Op::AnswersTimed(q, k) => Some(Op::Answers(q, k)),
            Op::DiversifiedTimed(q, small) => Some(Op::Diversified(q, small)),
            _ => None,
        }
    }

    fn slot(self) -> Option<usize> {
        match self {
            Op::Open(slot, _) | Op::Advance(slot, _) | Op::Window(slot) | Op::Close(slot) => {
                Some(slot)
            }
            _ => None,
        }
    }

    /// Ops served from whatever epoch is current when they run.
    fn floats(self) -> bool {
        self.read().is_some() || matches!(self, Op::Open(..))
    }

    /// Floating ops whose reply reports its epoch: the ones the threaded
    /// writer paces itself against.
    fn pins_current(self) -> bool {
        self.floats() && !matches!(self, Op::Interpretations(..))
    }

    fn is_barrier(self) -> bool {
        matches!(
            self,
            Op::Settle | Op::Checkpoint | Op::Crash(..) | Op::Reopen
        )
    }
}

#[derive(Debug, Clone)]
pub struct History {
    pub name: String,
    pub seed: u64,
    pub ingest: IngestConfig,
    pub ops: Vec<Op>,
}

impl History {
    /// A history over the plan drawn with `seed` (`holdout`, `batches`).
    pub fn new(name: impl Into<String>, seed: u64, holdout: f64, batches: usize) -> History {
        History {
            name: name.into(),
            seed,
            ingest: IngestConfig {
                seed,
                holdout,
                batches,
            },
            ops: Vec::new(),
        }
    }

    /// A history over the whole fixture: nothing is held out.
    pub fn full(name: impl Into<String>) -> History {
        History::new(name, 0, 0.0, 1)
    }

    pub fn with(mut self, ops: impl IntoIterator<Item = Op>) -> History {
        self.ops.extend(ops);
        self
    }
}

/// `passes` sweeps over the first `n` queries, `per_query` ops per query.
pub fn passes<I: IntoIterator<Item = Op>>(
    n: usize,
    passes: usize,
    per_query: impl Fn(usize) -> I,
) -> Vec<Op> {
    (0..passes)
        .flat_map(|_| (0..n).flat_map(&per_query))
        .collect()
}

pub fn answers(q: usize) -> [Op; 1] {
    [Op::Answers(q, 5)]
}

/// `reads` cut into `batches + 1` even runs with one batch between runs.
pub fn with_batches(reads: Vec<Op>, batches: usize) -> Vec<Op> {
    let run = reads.len().div_ceil(batches + 1);
    let runs = reads.chunks(run).enumerate();
    let ingest = |b: usize| b.checked_sub(1).map(Op::Ingest);
    runs.flat_map(|(b, run)| ingest(b).into_iter().chain(run.iter().copied()))
        .collect()
}

/// One kill point: batches in, the kill, a read from the dead process,
/// reopen, every query, the rest of the schedule, every query. A WAL kill
/// fires on the second batch; a checkpoint kill fires on a checkpoint of
/// two logged batches, so a torn checkpoint replays both and one that
/// landed before the truncate replays none.
pub fn kill(n: usize, at: FaultPoint, batches: usize) -> Vec<Op> {
    let sent = if is_wal(at) { 1 } else { 2 };
    let resume = sent + usize::from(at == FaultPoint::PostWalAppendPreSwap);
    let mut ops: Vec<Op> = (0..sent).map(Op::Ingest).collect();
    ops.extend([Op::Crash(at, sent), Op::Answers(0, 5), Op::Reopen]);
    ops.extend(passes(n, 1, answers));
    ops.extend((resume..batches).map(Op::Ingest));
    ops.extend(passes(n, 1, answers));
    ops
}

/// Per query: plain traffic, then a session driven through three
/// window/verdict steps in lockstep with its oracle, then closed.
pub fn lockstep(n: usize) -> Vec<Op> {
    let steps = |q| (0..3).flat_map(move |step| [Op::Window(q), Op::Advance(q, step % 2 == 0)]);
    let session = |q| {
        let open = [Op::Answers(q, 5), Op::Open(q, q)];
        open.into_iter().chain(steps(q)).chain([Op::Close(q)])
    };
    passes(n, 1, session)
}

/// A seeded random history over IMDB: every arm `target` serves, batches
/// placed by `MixedWorkload::interleave`, and on a durable target a
/// checkpoint/crash/reopen barrier between the two halves of the schedule.
pub fn generate(seed: u64, target: Target, fx: &'static Fixture) -> History {
    const READS: usize = 24;
    let mut rng = StdRng::seed_from_u64(seed);
    // One plan for every seed, so a test's histories share its oracles.
    let mut h = History::new(format!("seeded-{target:?}"), 17, 0.25, 3);
    h.seed = seed;
    let (nq, nb) = (fx.queries.len(), Case::new(fx, h.ingest).plan.batches.len());
    let (mut next, mut slots, mut open) = (0, 0, Vec::new());
    let halves = if target == Target::Durable { 2 } else { 1 };
    for half in 0..halves {
        let take = if half + 1 < halves { nb / 2 } else { nb - next };
        let picks: Vec<usize> = (0..READS).map(|_| rng.gen_range(0..nq)).collect();
        let terms: Vec<Vec<String>> = picks.iter().map(|&q| fx.queries[q].clone()).collect();
        let initial = Database::new(fx.db.schema().clone());
        let batches = vec![Vec::new(); take];
        let placed = MixedWorkload::interleave(IngestPlan { initial, batches }, &terms, rng.gen());
        let mut picks = picks.into_iter();
        for op in placed.ops {
            if let MixedOp::Insert(_) = op {
                h.ops.push(Op::Ingest(next));
                next += 1;
                continue;
            }
            let q = picks.next().expect("one pick per query");
            let (k, small) = ([1, 5, 10][rng.gen_range(0..3usize)], rng.gen_bool(0.5));
            let arms = if target == Target::Sharded { 6 } else { 9 };
            h.ops.push(match rng.gen_range(0..arms) {
                0 | 1 => Op::Answers(q, k),
                2 => Op::Interpretations(q, k),
                3 => Op::Diversified(q, small),
                4 => Op::AnswersTimed(q, k),
                5 => Op::DiversifiedTimed(q, small),
                _ if open.is_empty() || (open.len() < 3 && rng.gen_bool(0.3)) => {
                    open.push(slots);
                    slots += 1;
                    Op::Open(slots - 1, q)
                }
                _ => {
                    let i = rng.gen_range(0..open.len());
                    match rng.gen_range(0..4) {
                        0 | 1 => Op::Advance(open[i], rng.gen_bool(0.5)),
                        2 => Op::Window(open[i]),
                        _ => Op::Close(open.swap_remove(i)),
                    }
                }
            });
        }
        if half + 1 < halves {
            if rng.gen_bool(0.5) {
                h.ops.push(Op::Checkpoint);
            }
            let at = KILL_POINTS[rng.gen_range(0..KILL_POINTS.len())];
            h.ops.extend([Op::Crash(at, next), Op::Reopen]);
            next += usize::from(at == FaultPoint::PostWalAppendPreSwap);
            open.clear(); // a crash takes the registry with it
        }
    }
    h
}

// --- the runner -----------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Single,
    Durable,
    Sharded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Sequential,
    /// Client ops dealt to this many threads racing one writer thread.
    Threaded(usize),
}

/// One transcript line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub op: usize,
    pub reply: String,
    /// The epoch the reply reports: a session's pin; after a write, the one
    /// served; for an interpretations reply, which reports none, the one
    /// served when it was submitted.
    pub epoch: u64,
    /// The per-shard epoch vector of a sharded reply.
    pub shards: Vec<u64>,
    /// The wave-loop counters of an answers or diversified reply.
    pub stats: Option<[usize; 8]>,
}

fn entry(op: usize, epoch: u64, reply: String) -> Entry {
    Entry {
        op,
        reply,
        epoch,
        shards: Vec::new(),
        stats: None,
    }
}

pub struct Run {
    pub entries: Vec<Entry>,
    pub stats: ServiceStats,
    pub service: KeywordService,
    dir: Option<PathBuf>,
}

impl Run {
    pub fn remove_store(&self) {
        if let Some(dir) = &self.dir {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}

/// A fresh store directory per case, named by pid + tag and removed only
/// once the case passes, so a failing case's WAL and snapshot files stay
/// behind. Honors `KEYBRIDGE_RECOVERY_DIR` (CI uploads it on failure).
pub fn test_dir(tag: &str) -> PathBuf {
    let root = std::env::var_os("KEYBRIDGE_RECOVERY_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = root.join(format!("keybridge-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::create_dir_all(&root);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Open sessions of one client: slot → (id, pinned epoch, proposed option).
type Slots = HashMap<usize, (SessionId, u64, Option<ConstructionOption>)>;

fn query(case: &Case, q: usize) -> KeywordQuery {
    KeywordQuery::from_terms(case.fx.queries[q].clone())
}

fn ingest(case: &Case, svc: &KeywordService, b: usize) -> String {
    format!("{:?}", svc.ingest_batch(&case.plan.batches[b]))
}

fn request(case: &Case, op: Op) -> Request {
    let query = |q| query(case, q);
    match op {
        Op::Answers(q, k) => Request::Answers { query: query(q), k },
        Op::AnswersTimed(q, k) => Request::AnswersTimed { query: query(q), k },
        Op::Interpretations(q, k) => Request::Interpretations { query: query(q), k },
        Op::Diversified(q, small) => Request::Diversified {
            query: query(q),
            opts: div_opts(small),
        },
        Op::DiversifiedTimed(q, small) => Request::DiversifiedTimed {
            query: query(q),
            opts: div_opts(small),
        },
        _ => unreachable!("not a read"),
    }
}

/// A read or session op, from any client.
fn client(case: &Case, svc: &KeywordService, i: usize, op: Op, slots: &mut Slots) -> Entry {
    let mut e = entry(i, svc.serving_epoch().0, String::new());
    if op.read().is_some() {
        let (epoch, shards, stats, reply) = match svc.submit_request(request(case, op)).wait() {
            Some(Reply::Answers(Ok(r)) | Reply::AnswersTimed(TimedReply { result: Ok(r), .. })) => {
                (r.epoch, r.shard_epochs, r.stats, canon_answers(&r.answers))
            }
            Some(
                Reply::Diversified(Ok(r))
                | Reply::DiversifiedTimed(TimedReply { result: Ok(r), .. }),
            ) => {
                let picks = r.answers.iter();
                let reply = canon_div(
                    r.pool,
                    picks.map(|a| (a.pool_rank, a.relevance, &a.atoms, &a.keys)),
                );
                (r.epoch, r.shard_epochs, r.stats, reply)
            }
            Some(Reply::Interpretations(Ok((ranked, _)))) => {
                e.reply = format!("{ranked:?}");
                return e;
            }
            other => panic!("op {i} {op:?}: no served reply: {other:?}"),
        };
        (e.epoch, e.stats, e.reply) = (epoch.0, Some(waves(&stats)), reply);
        e.shards = shards.iter().map(|s| s.0).collect();
        return e;
    }
    let s = svc
        .as_single()
        .expect("sessions are served by the single service");
    let slot = op.slot().expect("a client op is a read or a session op");
    let view = |slots: &mut Slots, v: SessionView| {
        slots.insert(slot, (v.id, v.epoch.0, v.next_option.clone()));
        let (remaining, steps, done) = (v.remaining, v.steps, v.finished);
        (
            v.epoch.0,
            canon_view(remaining, steps, done, &v.next_option),
        )
    };
    (e.epoch, e.reply) = match op {
        Op::Open(_, q) => view(
            slots,
            s.open_session(&query(case, q), WINDOW, SessionConfig::default()),
        ),
        Op::Advance(_, accept) => match slots[&slot].clone() {
            (_, pinned, None) => (pinned, "no option".into()),
            (id, _, Some(o)) => view(slots, s.advance_session(id, &o, accept).expect("open")),
        },
        Op::Window(_) => {
            let w = s.session_answers(slots[&slot].0, WLIMIT).expect("open");
            (w.epoch.0, canon_window(&w.answers))
        }
        _ => {
            let (id, pinned, _) = slots.remove(&slot).expect("open");
            (pinned, format!("closed={}", s.close_session(id)))
        }
    };
    e
}

/// A barrier op's reply; `Reopen` replaces the service.
fn barrier(case: &Case, svc: &mut Option<KeywordService>, dir: &Option<PathBuf>, op: Op) -> String {
    let live = svc.as_ref().expect("a live service");
    let single = || {
        live.as_single()
            .expect("a durable op needs the durable service")
    };
    let checkpoint = || format!("{:?}", single().checkpoint().map(|r| r.epoch));
    match op {
        Op::Settle => String::new(),
        Op::Checkpoint => checkpoint(),
        Op::Crash(at, batch) => {
            single().fault_plan().expect("durable service").arm(at);
            let fault = if is_wal(at) {
                ingest(case, live, batch)
            } else {
                checkpoint()
            };
            format!("{fault} | {} | {}", ingest(case, live, batch), checkpoint())
        }
        _ => {
            drop(svc.take()); // the old process is gone before anything is read back
            let dir = dir.as_ref().expect("a durable target has a store");
            let torn = scan_wal(dir).unwrap().torn_bytes > 0;
            let s = SearchService::open(dir, WORKERS, &case.fx.durable_opts()).unwrap();
            let (snap, replayed) = (s.snapshot(), s.stats().recovery_replayed_batches);
            *svc = Some(KeywordService::Single(s));
            canon_recovered(replayed, torn, &snap)
        }
    }
}

fn is_wal(at: FaultPoint) -> bool {
    use FaultPoint::*;
    matches!(at, MidWalAppend | WalRollbackFail | PostWalAppendPreSwap)
}

/// Drive `h` through a fresh `target` service booted on the case's preload.
pub fn execute(case: &Case, h: &History, target: Target, mode: Mode) -> Run {
    let snap = Oracle::new(case).snap(0);
    let dir = (target == Target::Durable).then(|| test_dir(&format!("{}-{}", h.name, h.seed)));
    let mut svc = Some(match (target, &dir) {
        (Target::Sharded, _) => KeywordService::Sharded(ShardedService::start_with_assignment(
            snap,
            case.assignment.clone(),
            WORKERS,
        )),
        (_, Some(dir)) => KeywordService::Single(
            SearchService::start_durable(snap, WORKERS, dir, &case.fx.durable_opts()).unwrap(),
        ),
        _ => KeywordService::Single(SearchService::start(snap, WORKERS)),
    });
    let clients = match mode {
        Mode::Sequential => 1,
        Mode::Threaded(clients) => clients,
    };
    let (mut entries, mut slots, mut start) = (Vec::new(), vec![Slots::new(); clients], 0);
    for end in (0..=h.ops.len()).filter(|&i| i == h.ops.len() || h.ops[i].is_barrier()) {
        let live = svc.as_ref().expect("a live service");
        if mode == Mode::Sequential {
            for (i, &op) in h.ops.iter().enumerate().take(end).skip(start) {
                entries.push(match op {
                    Op::Ingest(b) => {
                        let reply = ingest(case, live, b);
                        entry(i, live.serving_epoch().0, reply)
                    }
                    op => client(case, live, i, op, &mut slots[0]),
                });
            }
        } else {
            entries.extend(race(case, live, h, start..end, &mut slots));
        }
        if end < h.ops.len() {
            let reply = barrier(case, &mut svc, &dir, h.ops[end]);
            let epoch = svc.as_ref().expect("a live service").serving_epoch().0;
            entries.push(entry(end, epoch, reply));
            if h.ops[end] == Op::Reopen {
                slots.iter_mut().for_each(Slots::clear);
            }
        }
        start = end + 1;
    }
    entries.sort_by_key(|e| e.op);
    let service = svc.expect("a live service");
    Run {
        entries,
        stats: service.service_stats(),
        service,
        dir,
    }
}

/// Pacing of one threaded segment: (batches published, pacing ops
/// completed, a client died).
#[derive(Default)]
struct Gate {
    state: Mutex<(usize, usize, bool)>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self, until: impl Fn(&(usize, usize, bool)) -> bool) {
        let mut s = self.state.lock().unwrap();
        while !until(&s) && !s.2 {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn bump(&self, f: impl FnOnce(&mut (usize, usize, bool))) {
        f(&mut self.state.lock().unwrap());
        self.cv.notify_all();
    }
}

/// A dying client releases everyone waiting on the gate.
struct Abort<'g>(&'g Gate);

impl Drop for Abort<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.bump(|s| s.2 = true);
        }
    }
}

/// One barrier-free segment, threaded: reads dealt round-robin, all ops of
/// a session to one client, batches to one writer. No sleeps: the `R`
/// pacing ops fall into `B + 1` phases; a phase-`p` op starts only once
/// batch `p` is published, and the writer publishes batch `p` once all but
/// `clients − 1` ops of the earlier phases completed. Each phase holds more
/// than `clients` ops, so one of them starts after its batch and completes
/// before the next — every epoch is observed — while up to `clients − 1`
/// requests are in flight across each swap.
fn race(
    case: &Case,
    svc: &KeywordService,
    h: &History,
    range: std::ops::Range<usize>,
    slots: &mut [Slots],
) -> Vec<Entry> {
    let clients = slots.len();
    let is_write = |i: &usize| matches!(h.ops[*i], Op::Ingest(_));
    let writes: Vec<usize> = range.clone().filter(is_write).collect();
    let paced = range.clone().filter(|&i| h.ops[i].pins_current()).count();
    let phases = writes.len() + 1;
    let phase_start = |p: usize| (p * paced).div_ceil(phases);
    let thin = (0..phases).any(|p| phase_start(p + 1) - phase_start(p) <= clients);
    assert!(
        writes.is_empty() || !thin,
        "{}: {paced} pacing ops are too few for {} batches and {clients} clients",
        h.name,
        writes.len()
    );
    let mut dealt: Vec<Vec<(usize, Option<usize>)>> = vec![Vec::new(); clients];
    let (mut reads, mut paced_so_far) = (0, 0);
    for i in range.filter(|i| !is_write(i)) {
        let op = h.ops[i];
        let phase = op.pins_current().then(|| paced_so_far * phases / paced);
        paced_so_far += usize::from(op.pins_current());
        reads += usize::from(op.slot().is_none());
        dealt[op.slot().unwrap_or(reads) % clients].push((i, phase));
    }
    let gate = Gate::default();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (dealt.into_iter().zip(slots.iter_mut()))
            .map(|(ops, slots)| {
                let gate = &gate;
                scope.spawn(move || {
                    let _abort = Abort(gate);
                    let mut out = Vec::new();
                    for (i, phase) in ops {
                        if let Some(p) = phase {
                            gate.wait(|s| s.0 >= p);
                        }
                        out.push(client(case, svc, i, h.ops[i], slots));
                        if phase.is_some() {
                            gate.bump(|s| s.1 += 1);
                        }
                    }
                    out
                })
            })
            .collect();
        let writer = scope.spawn(|| {
            let mut out = Vec::new();
            for (n, &i) in writes.iter().enumerate() {
                let due = phase_start(n + 1).saturating_sub(clients - 1);
                gate.wait(|s| s.1 >= due);
                let Op::Ingest(b) = h.ops[i] else {
                    unreachable!("the writer sends batches only")
                };
                let reply = ingest(case, svc, b);
                out.push(entry(i, svc.serving_epoch().0, reply));
                gate.bump(|s| s.0 += 1);
            }
            out
        });
        let mut entries = writer.join().unwrap();
        for reader in readers {
            entries.extend(reader.join().unwrap());
        }
        entries
    })
}

// --- the checker ----------------------------------------------------------------

/// Run `h` on `target` in `mode`, check it, and remove its store once it
/// passed.
pub fn verify(fx: &'static Fixture, h: &History, target: Target, mode: Mode) -> Run {
    let case = Case::new(fx, h.ingest);
    let run = execute(&case, h, target, mode);
    check(&case, h, target, mode, &run.entries);
    run.remove_store();
    run
}

/// Per-epoch cold oracles of one case, built on first use.
#[derive(Default)]
struct Memo {
    snaps: HashMap<u64, Arc<SearchSnapshot>>,
    /// Keyed by epoch and the read's `Debug` form.
    reads: HashMap<(u64, String), String>,
}

struct Oracle<'c> {
    case: &'c Case,
    memo: MutexGuard<'c, Memo>,
}

impl<'c> Oracle<'c> {
    fn new(case: &'c Case) -> Self {
        // A failed check panics holding the lock; every memo entry is
        // inserted whole, so what it guards is still valid.
        let memo = case.memo.lock().unwrap_or_else(PoisonError::into_inner);
        Oracle { case, memo }
    }

    fn snap(&mut self, e: u64) -> Arc<SearchSnapshot> {
        let case = self.case;
        let snap = self.memo.snaps.entry(e).or_insert_with(|| {
            let mut db = case.plan.initial.clone();
            for batch in &case.plan.batches[..e as usize] {
                db.insert_batch(batch).unwrap();
            }
            let (index, config) = (InvertedIndex::build(&db), InterpreterConfig::default());
            Arc::new(SearchSnapshot::new(
                db,
                index,
                case.fx.catalog.clone(),
                config,
            ))
        });
        Arc::clone(snap)
    }

    fn read(&mut self, e: u64, read: Op) -> String {
        let key = (e, format!("{read:?}"));
        if let Some(hit) = self.memo.reads.get(&key) {
            return hit.clone();
        }
        let snap = self.snap(e);
        let interp = snap.interpreter();
        let out = match read {
            Op::Answers(q, k) => canon_answers(&interp.answers_top_k(&query(self.case, q), k)),
            Op::Interpretations(q, k) => format!("{:?}", interp.top_k(&query(self.case, q), k)),
            Op::Diversified(q, small) => {
                let opts = div_opts(small);
                let ranked = interp.top_k(&query(self.case, q), opts.pool);
                let limit = DivExecOptions { limit: opts.cap };
                let (items, keys, _) =
                    executed_div_pool(&snap.db, &snap.index, &snap.catalog, &ranked, limit);
                let picks = diversify(&items, opts.config).into_iter();
                canon_div(
                    items.len(),
                    picks.map(|i| (i, items[i].relevance, &items[i].atoms, &keys[i])),
                )
            }
            _ => unreachable!("not a read"),
        };
        self.memo.reads.insert(key, out.clone());
        out
    }

    fn session(&mut self, e: u64, q: usize) -> ConstructionSession {
        let (snap, config) = (self.snap(e), SessionConfig::default());
        ConstructionSession::for_query(&snap.interpreter(), &query(self.case, q), WINDOW, config)
    }

    fn window(&mut self, e: u64, s: &ConstructionSession) -> String {
        let snap = self.snap(e);
        canon_window(&s.window_answers(&snap.db, &snap.index, &snap.catalog, WLIMIT))
    }

    /// Per-shard epochs after `e` batches: each shard counts the batches
    /// that placed a row on it.
    fn shard_epochs(&self, e: u64) -> Vec<u64> {
        let schema = self.case.fx.db.schema();
        let mut epochs = vec![0; SHARDS];
        for batch in &self.case.plan.batches[..e as usize] {
            let touched: BTreeSet<usize> = (batch.iter())
                .map(|(t, row)| {
                    let pk = row[schema.table(*t).pk.0 as usize].as_int().unwrap();
                    self.case.assignment.shard_of(*t, pk).expect("planned row")
                })
                .collect();
            touched.into_iter().for_each(|s| epochs[s] += 1);
        }
        epochs
    }
}

fn view_of(s: &ConstructionSession, catalog: &TemplateCatalog) -> String {
    let next = s.next_option(catalog);
    let (remaining, steps) = (s.remaining().len(), s.steps());
    canon_view(remaining, steps, s.finished_given(next.as_ref()), &next)
}

/// The window of a session opened for `q` at epoch `e`, before any verdict.
pub fn fresh_window(case: &Case, e: u64, q: usize) -> String {
    let mut oracle = Oracle::new(case);
    let session = oracle.session(e, q);
    oracle.window(e, &session)
}

/// What the store is at a history position: the epoch served, the epochs
/// durable in the log and in the last checkpoint, and the kill state.
#[derive(Default)]
struct Model {
    published: u64,
    durable: u64,
    checkpointed: u64,
    poisoned: bool,
    torn: bool,
}

/// Hold a transcript to the oracles. Panics at the first divergence, naming
/// the history, its seed, the target, the mode, the op index and the op.
pub fn check(case: &Case, h: &History, target: Target, mode: Mode, entries: &[Entry]) {
    let fail = |i: usize, msg: String| -> ! {
        let (name, seed, ops) = (&h.name, h.seed, &h.ops);
        let at = ops
            .get(i)
            .map_or("end of history".into(), |op| format!("op {i} {op:?}"));
        panic!("history {name} (seed {seed}) on {target:?}/{mode:?}: {at}: {msg}\nhistory: {ops:?}")
    };
    assert_eq!(entries.len(), h.ops.len(), "one transcript entry per op");
    let batches = &case.plan.batches;
    let (mut oracle, mut m) = (Oracle::new(case), Model::default());
    let mut sessions: HashMap<usize, (u64, ConstructionSession)> = HashMap::new();
    // Threaded: every epoch a writer moved through must be observed.
    let (mut must, mut seen, mut segment) = (BTreeSet::new(), BTreeSet::new(), 0);
    let ingested =
        |r: Result<IngestReceipt, IngestError>| format!("{:?}", r.map_err(ServiceError::Ingest));
    let poisoned = ingested(Err(IngestError::Poisoned));
    let refused = format!("{:?}", Err::<SnapshotEpoch, _>(DurabilityError::Poisoned));
    for (i, (&op, e)) in h.ops.iter().zip(entries).enumerate() {
        if e.op != i || e.epoch as usize > batches.len() {
            fail(i, format!("entry of op {} at epoch {}", e.op, e.epoch));
        }
        let pinned = |sessions: &HashMap<usize, (u64, ConstructionSession)>, slot| {
            let pin = sessions.get(&slot).map(|s| s.0);
            pin.unwrap_or_else(|| fail(i, "no such session".into()))
        };
        // A floating op racing a writer may report any epoch; every other
        // op reports exactly the one the history has reached.
        let racing = mode != Mode::Sequential
            && (h.ops[segment..].iter().take_while(|op| !op.is_barrier()))
                .any(|op| matches!(op, Op::Ingest(_)));
        let mut want = Some(m.published).filter(|_| !(racing && op.floats()));
        if op.pins_current() {
            seen.insert(e.epoch);
        }
        if target == Target::Sharded && op.pins_current() {
            let vector = oracle.shard_epochs(e.epoch);
            if e.shards != vector {
                fail(i, format!("shard epochs {:?}, want {vector:?}", e.shards));
            }
        }
        let expected = match op {
            _ if op.read().is_some() => {
                let read = op.read().unwrap();
                // An interpretations reply carries no epoch: in a race it
                // may come from any one published since its submit.
                let last = if racing && !op.pins_current() {
                    batches.len() as u64
                } else {
                    e.epoch
                };
                let hit = (e.epoch..=last).find(|&x| oracle.read(x, read) == e.reply);
                oracle.read(hit.unwrap_or(e.epoch), read)
            }
            Op::Open(slot, q) => {
                let session = oracle.session(e.epoch, q);
                let view = view_of(&session, &oracle.snap(e.epoch).catalog);
                sessions.insert(slot, (e.epoch, session));
                view
            }
            Op::Advance(slot, accept) => {
                want = Some(pinned(&sessions, slot));
                let snap = oracle.snap(pinned(&sessions, slot));
                let session = &mut sessions.get_mut(&slot).unwrap().1;
                match session.next_option(&snap.catalog) {
                    None => "no option".into(),
                    Some(o) => {
                        session.apply(&snap.catalog, o, accept);
                        view_of(session, &snap.catalog)
                    }
                }
            }
            Op::Window(slot) => {
                want = Some(pinned(&sessions, slot));
                oracle.window(pinned(&sessions, slot), &sessions[&slot].1)
            }
            Op::Close(slot) => {
                want = Some(pinned(&sessions, slot));
                sessions.remove(&slot);
                "closed=true".into()
            }
            Op::Ingest(_) if m.poisoned => poisoned.clone(),
            Op::Ingest(b) => {
                if b as u64 != m.published {
                    fail(i, format!("batch {b} sent at epoch {}", m.published));
                }
                must.extend([m.published, m.published + 1]);
                m.published += 1;
                m.durable = m.published;
                want = Some(m.published);
                let (epoch, rows) = (SnapshotEpoch(m.published), batches[b].len());
                ingested(Ok(IngestReceipt { epoch, rows }))
            }
            Op::Settle => String::new(),
            Op::Checkpoint if m.poisoned => refused.clone(),
            Op::Checkpoint => {
                m.checkpointed = m.published;
                format!("{:?}", Ok::<_, DurabilityError>(SnapshotEpoch(m.published)))
            }
            Op::Crash(point, batch) => {
                let injected = DurabilityError::FaultInjected(point);
                let fault = if is_wal(point) {
                    if batch as u64 != m.published {
                        fail(i, format!("batch {batch} sent at epoch {}", m.published));
                    }
                    ingested(Err(IngestError::Durability(injected)))
                } else {
                    format!("{:?}", Err::<SnapshotEpoch, _>(injected))
                };
                match point {
                    FaultPoint::PostWalAppendPreSwap => m.durable = m.published + 1,
                    FaultPoint::PostCheckpointPreTruncate => m.checkpointed = m.published,
                    _ => {}
                }
                m.torn = matches!(
                    point,
                    FaultPoint::MidWalAppend | FaultPoint::WalRollbackFail
                );
                m.poisoned = true;
                format!("{fault} | {poisoned} | {refused}")
            }
            Op::Reopen => {
                (m.published, m.poisoned) = (m.durable, false);
                want = Some(m.durable);
                sessions.clear();
                let replayed = (m.durable - m.checkpointed) as usize;
                let torn = std::mem::take(&mut m.torn);
                canon_recovered(replayed, torn, &oracle.snap(m.durable))
            }
            _ => unreachable!("every op kind is covered"),
        };
        if op.is_barrier() {
            segment = i + 1;
        }
        if let Some(want) = want.filter(|&want| want != e.epoch) {
            fail(i, format!("reported epoch {}, want {want}", e.epoch));
        }
        if e.reply != expected {
            let (got, epoch) = (&e.reply, e.epoch);
            let msg = format!(
                "reply differs from the epoch-{epoch} oracle\n got: {got}\nwant: {expected}"
            );
            fail(i, msg);
        }
    }
    if let Some(lost) = must
        .difference(&seen)
        .next()
        .filter(|_| mode != Mode::Sequential)
    {
        let msg = format!("epoch {lost} was published but no racing reply observed it");
        fail(h.ops.len(), msg);
    }
}

// --- canonical replies: bit-exact, so "identical" means identical ----------------
// `Debug` prints every float in its shortest exact round-trip form, so two
// renderings are equal exactly when the score bits are.

fn div_opts(small: bool) -> DiversifyOptions {
    if !small {
        return DiversifyOptions::default();
    }
    DiversifyOptions {
        config: DiversifyConfig { lambda: 0.1, k: 4 },
        pool: 12,
        cap: 5,
    }
}

pub fn canon_answers(answers: &[RankedAnswer]) -> String {
    format!("{answers:?}")
}

/// Selected (pool rank, relevance, atoms, capped keys), in selection order.
type Pick<'a> = (
    usize,
    f64,
    &'a BTreeSet<BindingAtom>,
    &'a BTreeSet<ResultKey>,
);

fn canon_div<'a>(pool: usize, picks: impl Iterator<Item = Pick<'a>>) -> String {
    format!("pool={pool} {:?}", picks.collect::<Vec<_>>())
}

/// Indexes, raw tuple trees and both key sets: all an `ExecutedResult` shows.
fn canon_window(answers: &[(usize, Arc<ExecutedResult>)]) -> String {
    let lines = answers
        .iter()
        .map(|(i, r)| (i, &r.jtts, &r.keys, &r.all_keys));
    format!("{:?}", lines.collect::<Vec<_>>())
}

fn canon_view(
    remaining: usize,
    steps: usize,
    done: bool,
    next: &Option<ConstructionOption>,
) -> String {
    format!("remaining={remaining} steps={steps} finished={done} next={next:?}")
}

fn canon_recovered(replayed: usize, torn: bool, snap: &SearchSnapshot) -> String {
    let digest = |bytes: Vec<u8>| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        bytes.hash(&mut h);
        h.finish()
    };
    let db = digest(snap.db.snapshot_bytes().unwrap());
    let index = digest(snap.index.snapshot_bytes().unwrap());
    format!("replayed={replayed} torn={torn} db={db:016x} index={index:016x}")
}

/// The counters the one wave loop drives, whatever the topology.
fn waves(s: &AnswerStats) -> [usize; 8] {
    let hits = s.result_cache_hits;
    [
        s.waves,
        s.generated,
        s.executed,
        s.nonempty,
        s.exec_errors,
        s.answers,
        hits,
        s.predicate_cache_hits,
    ]
}
