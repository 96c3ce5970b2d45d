//! Load generation: the closed loop (`sat`, and the one-in-flight passes)
//! and the open loop (`lo`, `hi`), against anything that implements
//! [`Server`] — the live service, or the fixed-service-time fake the
//! instrument's own tests use.
//!
//! Open loop: one dispatcher thread sends every op at its scheduled instant
//! whether or not earlier ones completed, one client thread executes the
//! synchronous kinds in order, and latency is charged from the *scheduled*
//! arrival to the completion instant the serving side stamped.

use crate::schedule::{Op, OpKind};
use crate::stats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// An op slower than this from its scheduled arrival counts as failed.
pub const TIMEOUT_MS: f64 = 500.0;

/// What the load generator drives.
pub trait Server: Sync {
    type Pending: Send;
    /// Enqueue an asynchronous op ([`OpKind::is_async`]) without waiting.
    fn submit(&self, op: &Op) -> Self::Pending;
    /// Wait for a submitted op; the completion instant stamped by the
    /// serving side, or `None` when it errored or its reply was lost.
    fn finish(&self, pending: Self::Pending) -> Option<Instant>;
    /// Execute a synchronous op on the caller's thread; whether it succeeded.
    fn run_sync(&self, op: &Op) -> bool;
}

/// One executed op, times in seconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: OpKind,
    /// Scheduled arrival (open loop) or the send instant (closed loop).
    pub due: f64,
    pub sent: f64,
    /// Completion; meaningless when `!ok`.
    pub done: f64,
    pub ok: bool,
}

impl OpRecord {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// Errored, lost, or later than [`TIMEOUT_MS`].
    pub fn failed(&self) -> bool {
        !self.ok || self.latency_ms() > TIMEOUT_MS
    }
}

#[derive(Debug, Clone, Default)]
pub struct PhaseRun {
    pub records: Vec<OpRecord>,
    pub wall_s: f64,
}

/// Keeps ingest ops in batch order when several clients draw from one
/// sequence: batch `n` runs only after batch `n - 1` returned.
struct IngestGate {
    next: Mutex<usize>,
    turn: Condvar,
}

impl IngestGate {
    fn new(first: usize) -> Self {
        IngestGate {
            next: Mutex::new(first),
            turn: Condvar::new(),
        }
    }

    fn run<T>(&self, batch: usize, f: impl FnOnce() -> T) -> T {
        let mut next = self.next.lock().expect("ingest gate poisoned");
        while *next != batch {
            next = self.turn.wait(next).expect("ingest gate poisoned");
        }
        let out = f();
        *next += 1;
        self.turn.notify_all();
        out
    }
}

fn first_batch(ops: &[Op]) -> usize {
    ops.iter()
        .find(|o| o.kind == OpKind::Ingest)
        .map_or(0, |o| o.arg)
}

fn run_sync_gated<S: Server>(server: &S, gate: &IngestGate, op: &Op) -> bool {
    if op.kind == OpKind::Ingest {
        gate.run(op.arg, || server.run_sync(op))
    } else {
        server.run_sync(op)
    }
}

/// Closed loop: `clients` threads each take the next op of `ops` and wait
/// for it before taking another, until `ops` or `budget` is spent.
pub fn closed_loop<S: Server>(
    server: &S,
    ops: &[Op],
    clients: usize,
    budget: Duration,
) -> PhaseRun {
    let cursor = AtomicUsize::new(0);
    let gate = IngestGate::new(first_batch(ops));
    let t0 = Instant::now();
    let mut records: Vec<OpRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    // The deadline is checked before an op is claimed, so
                    // every claimed op runs and the ingest gate cannot wait
                    // on a batch nobody will execute.
                    while t0.elapsed() < budget {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        let sent = t0.elapsed().as_secs_f64();
                        let done = if op.kind.is_async() {
                            server
                                .finish(server.submit(op))
                                .map(|at| at.saturating_duration_since(t0).as_secs_f64())
                        } else {
                            run_sync_gated(server, &gate, op).then(|| t0.elapsed().as_secs_f64())
                        };
                        out.push(OpRecord {
                            kind: op.kind,
                            due: sent,
                            sent,
                            done: done.unwrap_or(f64::NAN),
                            ok: done.is_some(),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    records.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    PhaseRun {
        records,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Sleep until close to `at`, then spin: a sleeping dispatcher leaves its
/// core to the service, the final spin keeps send lag in the microseconds.
fn wait_until(t0: Instant, at: f64) {
    const SPIN_S: f64 = 150e-6;
    loop {
        let remain = at - t0.elapsed().as_secs_f64();
        if remain <= 0.0 {
            return;
        }
        if remain > SPIN_S {
            std::thread::sleep(Duration::from_secs_f64(remain - SPIN_S));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop at `rate` ops/s over the whole of `ops`.
pub fn open_loop<S: Server>(server: &S, ops: &[Op], rate: f64) -> PhaseRun {
    let gate = IngestGate::new(first_batch(ops));
    let (tx, rx) = channel::<usize>();
    let t0 = Instant::now();
    let mut records: Vec<Option<OpRecord>> = vec![None; ops.len()];
    std::thread::scope(|scope| {
        let gate = &gate;
        let client = scope.spawn(move || {
            rx.into_iter()
                .map(|i| {
                    let ok = run_sync_gated(server, gate, &ops[i]);
                    (i, t0.elapsed().as_secs_f64(), ok)
                })
                .collect::<Vec<_>>()
        });
        // Replies are received (and freed) as they complete, like a client
        // would, so a long phase never holds its whole output in memory.
        // Completion was already stamped by the serving side.
        let (pending_tx, pending_rx) = channel::<(usize, S::Pending)>();
        let collector = scope.spawn(move || {
            pending_rx
                .into_iter()
                .map(|(i, p)| {
                    let done = server
                        .finish(p)
                        .map(|at| at.saturating_duration_since(t0).as_secs_f64());
                    (i, done)
                })
                .collect::<Vec<_>>()
        });
        // Both threads above were spawned on the service's CPUs; only the
        // dispatch loop itself runs on the dispatcher's.
        crate::affinity::enter_dispatcher();
        let mut sent = vec![0.0f64; ops.len()];
        for (i, op) in ops.iter().enumerate() {
            wait_until(t0, op.unit_at / rate);
            sent[i] = t0.elapsed().as_secs_f64();
            if op.kind.is_async() {
                let _ = pending_tx.send((i, server.submit(op)));
            } else {
                let _ = tx.send(i);
            }
        }
        drop((tx, pending_tx));
        crate::affinity::enter_service();
        let record = |i: usize, done: Option<f64>| OpRecord {
            kind: ops[i].kind,
            due: ops[i].unit_at / rate,
            sent: sent[i],
            done: done.unwrap_or(f64::NAN),
            ok: done.is_some(),
        };
        for (i, done) in collector.join().expect("reply collector panicked") {
            records[i] = Some(record(i, done));
        }
        for (i, done, ok) in client.join().expect("sync client panicked") {
            records[i] = Some(record(i, ok.then_some(done)));
        }
    });
    PhaseRun {
        records: records
            .into_iter()
            .map(|r| r.expect("every op recorded"))
            .collect(),
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

impl PhaseRun {
    /// Ascending latencies (ms) of the successful ops of `kind`.
    pub fn latencies(&self, kind: OpKind) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.kind == kind && r.ok)
            .map(OpRecord::latency_ms)
            .collect();
        stats::sort(&mut v);
        v
    }

    pub fn attempted(&self) -> usize {
        self.records.len()
    }

    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failed()).count()
    }

    /// Successful ops per second of wall clock.
    pub fn ops_per_s(&self) -> f64 {
        let ok = self.records.iter().filter(|r| r.ok).count();
        ok as f64 / self.wall_s.max(1e-9)
    }

    /// p99 of (actual send − scheduled send), ms: how late the generator ran.
    pub fn lag_p99_ms(&self) -> f64 {
        let mut lag: Vec<f64> = self
            .records
            .iter()
            .map(|r| (r.sent - r.due) * 1e3)
            .collect();
        stats::sort(&mut lag);
        stats::percentile(&lag, 0.99)
    }

    /// Ops due by `t` and not completed by `t` (failed ops never complete).
    pub fn outstanding_at(&self, t: f64) -> usize {
        self.records
            .iter()
            .filter(|r| r.due <= t && (!r.ok || r.done > t))
            .count()
    }

    /// Scheduled arrival of the last op: the end of the schedule.
    pub fn schedule_end(&self) -> f64 {
        self.records.iter().map(|r| r.due).fold(0.0, f64::max)
    }

    /// (max − min) ÷ median of ops/s over `n` equal-op segments in
    /// completion order: whether throughput drifted inside the phase.
    pub fn segment_spread(&self, n: usize) -> f64 {
        let mut done: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.done)
            .collect();
        stats::sort(&mut done);
        let per = done.len() / n;
        if per == 0 {
            return f64::NAN;
        }
        let mut rates = Vec::with_capacity(n);
        let mut start = 0.0;
        for s in 0..n {
            let end = done[(s + 1) * per - 1];
            rates.push(per as f64 / (end - start).max(1e-9));
            start = end;
        }
        stats::sort(&mut rates);
        (rates[n - 1] - rates[0]) / stats::percentile(&rates, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{fifo_latencies, plan, Mix, QueryPick};
    use std::sync::mpsc::{Receiver, Sender};

    /// One serving thread with a fixed service time per async op, FIFO; sync
    /// ops record their order and return at once.
    struct FakeServer {
        jobs: Mutex<Sender<Sender<Instant>>>,
        sync_order: Mutex<Vec<usize>>,
    }

    impl FakeServer {
        fn start(service: Duration) -> (Self, std::thread::JoinHandle<()>) {
            let (tx, rx): (Sender<Sender<Instant>>, Receiver<_>) = channel();
            let worker = std::thread::spawn(move || {
                for reply in rx {
                    let until = Instant::now() + service;
                    while Instant::now() < until {
                        std::hint::spin_loop();
                    }
                    let _ = reply.send(Instant::now());
                }
            });
            let server = FakeServer {
                jobs: Mutex::new(tx),
                sync_order: Mutex::new(Vec::new()),
            };
            (server, worker)
        }
    }

    impl Server for FakeServer {
        type Pending = Receiver<Instant>;
        fn submit(&self, _op: &Op) -> Receiver<Instant> {
            let (tx, rx) = channel();
            self.jobs.lock().unwrap().send(tx).unwrap();
            rx
        }
        fn finish(&self, pending: Receiver<Instant>) -> Option<Instant> {
            pending.recv().ok()
        }
        fn run_sync(&self, op: &Op) -> bool {
            self.sync_order.lock().unwrap().push(op.arg);
            true
        }
    }

    const READS: Mix = Mix {
        answers: 1,
        diversified: 0,
        session: 0,
        ingest: 0,
    };
    const WRITE_HEAVY: Mix = Mix {
        answers: 1,
        diversified: 0,
        session: 0,
        ingest: 1,
    };

    #[test]
    fn open_loop_latency_equals_the_fifo_model_from_scheduled_arrival() {
        // 2 ms service at 300 ops/s: ~60% busy, so some ops queue and the
        // charge-from-schedule rule is what makes measurement match model.
        let service = Duration::from_millis(2);
        let (server, worker) = FakeServer::start(service);
        let ops = plan(READS, QueryPick::Zipf, 10, 0, 11, 150);
        let rate = 300.0;
        let run = open_loop(&server, &ops, rate);
        drop(server);
        worker.join().unwrap();
        let arrivals: Vec<f64> = ops.iter().map(|o| o.unit_at / rate).collect();
        let model = fifo_latencies(&arrivals, service.as_secs_f64(), 1);
        assert_eq!(run.failed(), 0);
        let mut diffs = Vec::new();
        for (r, m) in run.records.iter().zip(&model) {
            let measured = r.latency_ms();
            // The real queue can only be slower than the ideal one.
            assert!(measured >= m * 1e3 - 0.05, "{measured} < model {m}");
            diffs.push(measured - m * 1e3);
        }
        assert!(
            stats::median(diffs.clone()) < 1.0,
            "median excess over the FIFO model {} ms",
            stats::median(diffs)
        );
    }

    #[test]
    fn ingests_keep_batch_order_in_both_loops() {
        let ops = plan(WRITE_HEAVY, QueryPick::Zipf, 10, 1000, 2, 300);
        let expected: Vec<usize> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Ingest)
            .map(|o| o.arg)
            .collect();
        assert!(expected.len() > 100);

        let (server, worker) = FakeServer::start(Duration::from_micros(50));
        let run = closed_loop(&server, &ops, 4, Duration::from_secs(30));
        assert_eq!(run.attempted(), ops.len());
        assert_eq!(*server.sync_order.lock().unwrap(), expected);

        server.sync_order.lock().unwrap().clear();
        let run = open_loop(&server, &ops, 5000.0);
        assert_eq!(run.attempted(), ops.len());
        assert_eq!(*server.sync_order.lock().unwrap(), expected);
        drop(server);
        worker.join().unwrap();
    }

    #[test]
    fn backlog_and_failures_are_counted_from_the_schedule() {
        let rec = |due: f64, done: f64, ok: bool| OpRecord {
            kind: OpKind::Answers,
            due,
            sent: due,
            done,
            ok,
        };
        let run = PhaseRun {
            records: vec![
                rec(0.0, 0.1, true),
                rec(1.0, 1.7, true),  // 700 ms: a timeout
                rec(1.5, 0.0, false), // lost
                rec(2.0, 2.1, true),
            ],
            wall_s: 2.1,
        };
        assert_eq!(run.failed(), 2);
        assert_eq!(run.outstanding_at(1.6), 2);
        assert_eq!(run.outstanding_at(2.0), 2);
        assert_eq!(run.schedule_end(), 2.0);
        assert_eq!(run.latencies(OpKind::Answers).len(), 3);
    }

    #[test]
    fn segment_spread_sees_a_slowdown() {
        let rec = |done: f64| OpRecord {
            kind: OpKind::Answers,
            due: 0.0,
            sent: 0.0,
            done,
            ok: true,
        };
        let steady = PhaseRun {
            records: (1..=100).map(|i| rec(f64::from(i) * 0.01)).collect(),
            wall_s: 1.0,
        };
        assert!(steady.segment_spread(5) < 1e-6);
        // Second half runs at half speed.
        let slowing = PhaseRun {
            records: (1..=100)
                .map(|i| {
                    let i = f64::from(i);
                    rec(if i <= 50.0 {
                        i * 0.01
                    } else {
                        0.5 + (i - 50.0) * 0.02
                    })
                })
                .collect(),
            wall_s: 1.5,
        };
        assert!(slowing.segment_spread(5) > 0.5);
    }
}
