//! Heap allocations per served read op on a warm service.
//!
//! The benchmark's `hot_interactive` traffic, replayed once through a
//! 1-worker [`SearchService`] over the x1 IMDB fixture and its 108-query
//! log: `Answers` at k = 10, `Diversified` with the default options, and a
//! construction session (window 20, verdicts accept/reject/accept,
//! `session_answers(5)`, close). A first pass warms the shared cache tiers;
//! the second pass is counted by a `#[global_allocator]` that tallies every
//! `alloc`, `alloc_zeroed` and `realloc` on any thread (the service worker
//! included). The test prints the mean per op kind and fails above the
//! budgets below, so an accidental per-answer or per-state copy on the read
//! path shows up as a number, not as a slow benchmark.
//!
//! It is the only test in this binary: the counter is process-wide.
//!
//! `cargo test --release --test alloc_budget -- --nocapture` prints the
//! counts.

use keybridge::core::{
    DiversifyOptions, InterpreterConfig, KeywordQuery, Reply, Request, SearchService,
    SearchSnapshot, ServeRequests, SessionConfig, TemplateCatalog,
};
use keybridge::datagen::{ImdbConfig, ImdbDataset, Workload, WorkloadConfig};
use keybridge::index::InvertedIndex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator with a call counter.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations a warm op of each kind may make on average: 1.2x what
/// the read path makes once a repeated query's ranking is served from the
/// shared tier without a generation session (31.9, 66.7 and 62.9 per op;
/// 142.0, 183.9 and 159.4 when every op opened one). A search state, a
/// reply slot or a cache entry that copies an interpretation again, or a
/// warm op that searches again, shows up here.
const ANSWERS_BUDGET: f64 = 38.0;
const DIVERSIFIED_BUDGET: f64 = 80.0;
const SESSION_BUDGET: f64 = 75.0;

/// What the benchmark's ops ask for.
const TOP_K: usize = 10;
const SESSION_WINDOW: usize = 20;
const SESSION_LIMIT: usize = 5;
const VERDICTS: [bool; 3] = [true, false, true];

fn answers(svc: &SearchService, query: &KeywordQuery) {
    let query = query.clone();
    match svc
        .submit_request(Request::Answers { query, k: TOP_K })
        .wait()
    {
        Some(Reply::Answers(Ok(reply))) => drop(reply),
        other => panic!("answers request not served: {other:?}"),
    }
}

fn diversified(svc: &SearchService, query: &KeywordQuery) {
    let (query, opts) = (query.clone(), DiversifyOptions::default());
    match svc
        .submit_request(Request::Diversified { query, opts })
        .wait()
    {
        Some(Reply::Diversified(Ok(reply))) => drop(reply),
        other => panic!("diversified request not served: {other:?}"),
    }
}

fn session(svc: &SearchService, query: &KeywordQuery) {
    let mut view = svc.open_session(query, SESSION_WINDOW, SessionConfig::default());
    let id = view.id;
    for accept in VERDICTS {
        let Some(option) = view.next_option.clone().filter(|_| !view.finished) else {
            break;
        };
        view = svc
            .advance_session(id, &option, accept)
            .expect("an open session advances");
    }
    let window = svc
        .session_answers(id, SESSION_LIMIT)
        .expect("an open session answers");
    drop(window);
    assert!(svc.close_session(id));
}

/// Mean allocations of `op` over every query of the log.
fn per_op(queries: &[KeywordQuery], mut op: impl FnMut(&KeywordQuery)) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for q in queries {
        op(q);
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / queries.len() as f64
}

#[test]
fn warm_read_ops_stay_within_their_allocation_budgets() {
    let data = ImdbDataset::generate(ImdbConfig::default()).expect("the IMDB fixture generates");
    let log = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 5,
            n_queries: 108,
            mc_fraction: 0.5,
        },
    );
    let queries: Vec<KeywordQuery> = log
        .queries
        .into_iter()
        .map(|q| KeywordQuery::from_terms(q.keywords))
        .collect();
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 3, 50_000).expect("the schema enumerates");
    let snapshot = SearchSnapshot::new(data.db, index, catalog, InterpreterConfig::default());
    let svc = SearchService::start(Arc::new(snapshot), 1);

    // Warm every shared tier the measured pass will read.
    for q in &queries {
        answers(&svc, q);
        diversified(&svc, q);
        session(&svc, q);
    }
    let counts = [
        (
            "answers",
            per_op(&queries, |q| answers(&svc, q)),
            ANSWERS_BUDGET,
        ),
        (
            "diversified",
            per_op(&queries, |q| diversified(&svc, q)),
            DIVERSIFIED_BUDGET,
        ),
        (
            "session",
            per_op(&queries, |q| session(&svc, q)),
            SESSION_BUDGET,
        ),
    ];
    for (kind, count, budget) in counts {
        println!("alloc_budget {kind}: {count:.1} allocations per op (budget {budget})");
    }
    for (kind, count, budget) in counts {
        assert!(
            count <= budget,
            "{kind}: {count:.1} allocations per warm op, budget {budget}"
        );
    }
}
