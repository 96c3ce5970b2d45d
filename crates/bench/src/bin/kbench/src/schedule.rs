//! Seeded op sequences and the rate-independent Poisson arrival schedule.
//!
//! Every op draws the same number of random values whatever its kind, and
//! arrival times are unit-rate exponentials scaled by the offered rate only
//! when a phase is dispatched. A sequence is therefore a pure function of
//! (workload spec, seed): both open-loop rates — and the closed loop — issue
//! the same ops with the same arguments, and a longer phase extends a
//! shorter one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// `Request::AnswersTimed`, k = 10.
    Answers,
    /// `Request::DiversifiedTimed`, default options.
    Diversified,
    /// Open a construction session, advance it, read its window, close it.
    Session,
    /// `ingest_batch` of the next held-out batch.
    Ingest,
}

impl OpKind {
    /// Sessions and ingests execute on the caller's thread in this codebase;
    /// the other two are queued to the worker pool and stamped there.
    pub fn is_async(self) -> bool {
        matches!(self, OpKind::Answers | OpKind::Diversified)
    }
}

/// Most verdicts a session op applies (`advance_session` calls).
pub const SESSION_STEPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    /// Query index into the workload's pool, or batch index for ingests.
    pub arg: usize,
    /// Accept/reject verdicts a session op answers `next_option` with.
    pub verdicts: [bool; SESSION_STEPS],
    /// Arrival time at unit rate; a phase at `r` ops/s sends at `unit_at / r`.
    pub unit_at: f64,
}

/// Relative op-kind weights of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub answers: u32,
    pub diversified: u32,
    pub session: u32,
    pub ingest: u32,
}

impl Mix {
    fn total(&self) -> u32 {
        self.answers + self.diversified + self.session + self.ingest
    }

    fn pick(&self, w: u32) -> OpKind {
        if w < self.answers {
            OpKind::Answers
        } else if w < self.answers + self.diversified {
            OpKind::Diversified
        } else if w < self.answers + self.diversified + self.session {
            OpKind::Session
        } else {
            OpKind::Ingest
        }
    }
}

/// How read ops choose their query from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPick {
    /// Zipf(s = 1) over pool ranks: a few hot queries, a long tail. Rank is
    /// pool position, so which queries are hot is a property of the workload,
    /// not of the seed.
    Zipf,
    /// A seeded permutation of the pool walked once: no text repeats until
    /// the pool is exhausted.
    Distinct,
}

/// Inverse-CDF sampler of Zipf(s = 1) over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The first `n_ops` ops of the sequence `(mix, pick, pool_len, n_batches,
/// seed)` defines. Ingest ops consume batches in order; once `n_batches` are
/// spent a further ingest draw becomes an answers op.
pub fn plan(
    mix: Mix,
    pick: QueryPick,
    pool_len: usize,
    n_batches: usize,
    seed: u64,
    n_ops: usize,
) -> Vec<Op> {
    assert!(pool_len > 0, "a workload needs a query pool");
    assert!(mix.total() > 0, "mix weights must not all be zero");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..pool_len).collect();
    for i in (1..pool_len).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let zipf = Zipf::new(pool_len);
    let (mut t, mut next_batch, mut next_distinct) = (0.0f64, 0usize, 0usize);
    (0..n_ops)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln();
            let w = rng.gen_range(0..mix.total());
            let z: f64 = rng.gen();
            let bits: u32 = rng.gen_range(0..1 << SESSION_STEPS);
            let mut kind = mix.pick(w);
            if kind == OpKind::Ingest && next_batch >= n_batches {
                kind = OpKind::Answers;
            }
            let arg = if kind == OpKind::Ingest {
                next_batch += 1;
                next_batch - 1
            } else {
                match pick {
                    QueryPick::Zipf => zipf.sample(z),
                    QueryPick::Distinct => {
                        next_distinct += 1;
                        perm[(next_distinct - 1) % pool_len]
                    }
                }
            };
            Op {
                kind,
                arg,
                verdicts: std::array::from_fn(|i| bits >> i & 1 == 1),
                unit_at: t,
            }
        })
        .collect()
}

/// Ops a phase of `seconds` at `rate` ops/s issues.
pub fn ops_in(rate: f64, seconds: f64) -> usize {
    (rate * seconds).floor().max(1.0) as usize
}

/// FIFO multi-server queue in virtual time: each sorted arrival takes
/// `service_time` on the earliest-free of `servers` servers; latency is
/// completion minus arrival. The analytic reference the open-loop driver is
/// tested against.
#[cfg(test)]
pub fn fifo_latencies(arrivals: &[f64], service_time: f64, servers: usize) -> Vec<f64> {
    let mut free = vec![0.0f64; servers];
    arrivals
        .iter()
        .map(|&a| {
            let idx = (0..servers)
                .min_by(|&x, &y| free[x].total_cmp(&free[y]))
                .expect("at least one server");
            free[idx] = a.max(free[idx]) + service_time;
            free[idx] - a
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Mix = Mix {
        answers: 85,
        diversified: 5,
        session: 0,
        ingest: 10,
    };

    #[test]
    fn sequence_is_a_pure_function_of_spec_and_seed() {
        let a = plan(MIXED, QueryPick::Distinct, 500, 40, 9, 400);
        let b = plan(MIXED, QueryPick::Distinct, 500, 40, 9, 400);
        assert_eq!(a, b);
        let other = plan(MIXED, QueryPick::Distinct, 500, 40, 10, 400);
        assert_ne!(a, other);
    }

    #[test]
    fn a_longer_phase_extends_a_shorter_one_so_rates_share_ops() {
        // rate_hi issues twice the ops of rate_lo in the same time; the
        // prefix they share must be identical in kind, argument and the
        // (unit-rate) arrival time.
        let lo = plan(MIXED, QueryPick::Zipf, 108, 40, 3, ops_in(100.0, 2.0));
        let hi = plan(MIXED, QueryPick::Zipf, 108, 40, 3, ops_in(200.0, 2.0));
        assert_eq!(lo.len() * 2, hi.len());
        assert_eq!(lo[..], hi[..lo.len()]);
    }

    #[test]
    fn ingests_take_batches_in_order_and_degrade_when_spent() {
        let ops = plan(MIXED, QueryPick::Distinct, 500, 7, 5, 400);
        let batches: Vec<usize> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Ingest)
            .map(|o| o.arg)
            .collect();
        assert_eq!(batches, (0..7).collect::<Vec<_>>());
        assert!(ops.windows(2).all(|w| w[0].unit_at < w[1].unit_at));
    }

    #[test]
    fn distinct_pick_never_repeats_within_the_pool() {
        let ops = plan(MIXED, QueryPick::Distinct, 300, 0, 1, 300);
        let mut seen: Vec<usize> = ops.iter().map(|o| o.arg).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 300);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(108);
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(1.0), 107);
        // H(108) ~ 5.27, so rank 1 alone holds ~19% of the mass.
        assert_eq!(z.sample(0.18), 0);
        assert_eq!(z.sample(0.20), 1);
    }

    #[test]
    fn fifo_model_matches_hand_computed_queues() {
        // One server, 1 s service: arrivals at 0, 0.5, 3 -> 1, 1.5, 1.
        assert_eq!(fifo_latencies(&[0.0, 0.5, 3.0], 1.0, 1), [1.0, 1.5, 1.0]);
        // Two servers absorb the overlap.
        assert_eq!(fifo_latencies(&[0.0, 0.5, 3.0], 1.0, 2), [1.0, 1.0, 1.0]);
    }
}
