//! Output checks: a served reply must equal, byte for byte (score bits
//! included), what a cold single-threaded `Interpreter` computes over the
//! same logical store.

use crate::schedule::{Op, OpKind};
use crate::workload::{run_session, Fixture, SESSION_LIMIT, SESSION_WINDOW, TOP_K};
use keybridge_core::{
    ConstructionSession, DiversifiedAnswer, DiversifyOptions, ExecCache, ExecutedResult,
    Interpreter, KeywordService, NonemptyCache, QueryPipeline, RankedAnswer, Reply, Request,
    ServeRequests, SessionConfig,
};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{Database, ExecOptions};
use std::fmt::Write;
use std::sync::Arc;

/// Canonical bytes of an answers reply. `Debug` of the structural parts is
/// derived and deterministic; scores go in as their IEEE bit patterns.
pub fn answers_bytes(answers: &[RankedAnswer]) -> String {
    let mut out = String::new();
    for a in answers {
        let _ = writeln!(
            out,
            "{:?}|{:016x}|{:?}|{:?}",
            a.interpretation,
            a.log_score.to_bits(),
            a.jtt,
            a.keys
        );
    }
    out
}

pub fn diversified_bytes(pool: usize, answers: &[DiversifiedAnswer]) -> String {
    let mut out = format!("pool={pool}\n");
    for a in answers {
        let _ = writeln!(
            out,
            "{:?}|{:016x}|{:016x}|{:?}|{:?}|{}",
            a.interpretation,
            a.log_score.to_bits(),
            a.relevance.to_bits(),
            a.atoms,
            a.keys,
            a.pool_rank
        );
    }
    out
}

pub fn window_bytes(window: &[(usize, Arc<ExecutedResult>)]) -> String {
    let mut out = String::new();
    for (i, r) in window {
        let _ = writeln!(out, "{i}|{:?}|{:?}|{:?}", r.jtts, r.keys, r.all_keys);
    }
    out
}

/// What the live service replies to `op` (`None`: errored or lost).
pub fn served_bytes(svc: &KeywordService, fixture: &Fixture, op: &Op) -> Option<String> {
    let query = fixture.queries[op.arg].clone();
    match op.kind {
        OpKind::Answers => match svc
            .submit_request(Request::Answers { query, k: TOP_K })
            .wait()?
        {
            Reply::Answers(Ok(r)) => Some(answers_bytes(&r.answers)),
            _ => None,
        },
        OpKind::Diversified => {
            let opts = DiversifyOptions::default();
            match svc
                .submit_request(Request::Diversified { query, opts })
                .wait()?
            {
                Reply::Diversified(Ok(r)) => Some(diversified_bytes(r.pool, &r.answers)),
                _ => None,
            }
        }
        OpKind::Session => {
            let window = run_session(svc.as_single()?, &query, &op.verdicts)?;
            Some(window_bytes(&window.answers))
        }
        OpKind::Ingest => None,
    }
}

/// What a cold interpreter over `(db, index)` computes for `op`.
pub fn oracle_bytes(fixture: &Fixture, db: &Database, index: &InvertedIndex, op: &Op) -> String {
    let snap = &fixture.snapshot;
    let interpreter = Interpreter::new(db, index, &snap.catalog, snap.config.clone());
    let query = &fixture.queries[op.arg];
    match op.kind {
        OpKind::Answers => answers_bytes(&interpreter.answers_top_k(query, TOP_K)),
        OpKind::Diversified => {
            let (mut gen_cache, mut exec_cache) = (NonemptyCache::new(), ExecCache::new());
            let out = QueryPipeline::new(
                &interpreter,
                ExecOptions::default(),
                &mut gen_cache,
                &mut exec_cache,
            )
            .diversified(query, DiversifyOptions::default());
            diversified_bytes(out.pool, &out.answers)
        }
        OpKind::Session => {
            let ranked = interpreter.top_k_complete(query, SESSION_WINDOW);
            let mut session =
                ConstructionSession::new(&snap.catalog, &ranked, SessionConfig::default());
            for &accept in &op.verdicts {
                let next = session.next_option(&snap.catalog);
                if session.finished_given(next.as_ref()) {
                    break;
                }
                let Some(option) = next else { break };
                session.apply(&snap.catalog, option, accept);
            }
            window_bytes(&session.window_answers(db, index, &snap.catalog, SESSION_LIMIT))
        }
        OpKind::Ingest => String::new(),
    }
}

/// Outcome of a comparison pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    pub compared: usize,
    pub mismatched: usize,
}

impl Verdict {
    pub fn absorb(&mut self, other: Verdict) {
        self.compared += other.compared;
        self.mismatched += other.mismatched;
    }
}

/// Compare the live service's replies to `ops` (reads only) with the cold
/// oracle over the store rebuilt from the preload plus `acked` batches.
pub fn compare(svc: &KeywordService, fixture: &Fixture, acked: usize, ops: &[Op]) -> Verdict {
    let (db, index) = fixture.rebuilt(acked);
    let mut v = Verdict::default();
    for op in ops.iter().filter(|o| o.kind != OpKind::Ingest) {
        v.compared += 1;
        let served = served_bytes(svc, fixture, op);
        if served.as_deref() != Some(oracle_bytes(fixture, &db, &index, op).as_str()) {
            v.mismatched += 1;
            if v.mismatched <= 3 {
                eprintln!(
                    "verify mismatch: {:?} on {:?}",
                    op.kind, fixture.queries[op.arg]
                );
            }
        }
    }
    v
}
