//! Execution of join trees (the relational shape of candidate networks).
//!
//! A [`JoinTree`] has one node per table *occurrence* — the same table may
//! appear several times (e.g. a movie with two actors joins `acts` twice) —
//! and tree edges labelled with the foreign key that connects two occurrences.
//!
//! The executor receives, per node, an optional candidate row set (the rows
//! matching that node's keyword predicates, produced by the inverted index).
//! `None` means the node is a *free* table: any row may participate. It
//! returns joining tuple trees (JTTs): one [`RowId`] per node.
//!
//! One executor serves ([`execute_join_tree_with_stats_in`]): a semi-join
//! reduction pre-pass ([`reduce_join_tree`]) — one bottom-up and one top-down
//! sweep over the tree, the Yannakakis full reducer — shrinks every candidate
//! set to rows that participate in at least one complete JTT. Bindings then
//! grow in *columnar batches* (one `Vec<RowId>` column per joined node,
//! struct-of-arrays) by build/probe hash joins along the tree, attaching the
//! most selective node first. Because the tree is fully reduced, every
//! partial binding is guaranteed to extend to a result, so
//! [`ExecOptions::limit`] can cut *every* batch, not just the final one — the
//! executor streams top-`limit` answers without materializing the full join.
//!
//! The two phases order the tree by cardinality in opposite directions, and
//! the two decisions are independent. The **reducer roots at the restricted
//! node with the most given rows** and walks towards it from the small
//! lists, because what a reduction costs is the rows its steps touch and its
//! output does not depend on the root; the **join seeds at the node with the
//! fewest** ([`plan_join_order`]), because what a join costs is the bindings
//! it carries and its enumeration order — the bytes of a truncated reply —
//! does depend on the seed.
//!
//! Both phases work in **row-id space**. Every edge is a foreign key, and the
//! database resolves each fk cell to its parent's `RowId` once, at insert
//! ([`Database::fk_parent_row`]); so "these two rows join" is `parent(child)
//! == row`, a dense `u32` column read — no row fetch, no key extraction, no
//! key hashing. The reducer turns each step's source into a bitmap over the
//! edge's pk-side table and filters or materializes the target from it; the
//! join phase keys its build table by pk-side row.
//!
//! [`execute_join_tree_naive`] is the named reference it is tested against:
//! the original nested-loop expansion in key space — cell reads and pk / fk
//! index probes, one `Vec<Option<RowId>>` per partial binding, cloned on
//! every edge attach — and so shares nothing with the parent column. Tests
//! and benches call it by name; no option selects it.

use crate::database::{Database, NO_PARENT};
use crate::error::{RelError, RelResult};
use crate::schema::{FkId, TableId};
use crate::value::RowId;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// An edge of a join tree: node indexes into [`JoinTree::nodes`] plus the
/// foreign key joining the two table occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinTreeEdge {
    pub a: usize,
    pub b: usize,
    pub fk: FkId,
}

/// A tree of table occurrences joined along foreign keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    pub nodes: Vec<TableId>,
    pub edges: Vec<JoinTreeEdge>,
}

impl JoinTree {
    /// A single-table tree.
    pub fn single(table: TableId) -> Self {
        JoinTree {
            nodes: vec![table],
            edges: Vec::new(),
        }
    }

    /// Number of joins (edges).
    pub fn join_count(&self) -> usize {
        self.edges.len()
    }

    /// Check the tree shape: `nodes.len() == edges.len() + 1`, all edge
    /// endpoints valid and connected, and every edge's foreign key actually
    /// joins the two endpoint tables (in either orientation).
    pub fn validate(&self, db: &Database) -> RelResult<()> {
        if self.nodes.is_empty() {
            return Err(RelError::MalformedJoinTree("empty tree".into()));
        }
        if self.edges.len() + 1 != self.nodes.len() {
            return Err(RelError::MalformedJoinTree(format!(
                "{} nodes but {} edges",
                self.nodes.len(),
                self.edges.len()
            )));
        }
        for e in &self.edges {
            if e.a >= self.nodes.len() || e.b >= self.nodes.len() || e.a == e.b {
                return Err(RelError::MalformedJoinTree("bad edge endpoints".into()));
            }
            let fk = db.schema().fk(e.fk);
            let (ta, tb) = (self.nodes[e.a], self.nodes[e.b]);
            let forward = fk.from.table == ta && fk.to.table == tb;
            let backward = fk.from.table == tb && fk.to.table == ta;
            if !forward && !backward {
                return Err(RelError::MalformedJoinTree(
                    "edge fk does not join its endpoints".into(),
                ));
            }
        }
        // Connectivity via union-find over edges.
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for e in &self.edges {
            let (ra, rb) = (find(&mut parent, e.a), find(&mut parent, e.b));
            if ra == rb {
                return Err(RelError::MalformedJoinTree("cycle".into()));
            }
            parent[ra] = rb;
        }
        Ok(())
    }
}

/// Per-node candidate rows. `None` = unrestricted (free table). Candidate
/// lists are expected to be duplicate-free (the inverted index produces
/// sorted, distinct rows); duplicates are tolerated but result multiplicity
/// is then executor-defined.
#[derive(Debug, Clone, Default)]
pub struct Candidates {
    pub per_node: Vec<Option<Vec<RowId>>>,
}

impl Candidates {
    /// All nodes unrestricted.
    pub fn free(n: usize) -> Self {
        Candidates {
            per_node: vec![None; n],
        }
    }

    /// Restrict node `i` to `rows`.
    pub fn restrict(mut self, i: usize, rows: Vec<RowId>) -> Self {
        self.per_node[i] = Some(rows);
        self
    }
}

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Stop after this many result tuples.
    pub limit: usize,
    /// Abort if the intermediate binding count exceeds this bound
    /// (protects against free-table blowups).
    pub max_intermediate: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            limit: 1000,
            max_intermediate: 200_000,
        }
    }
}

/// Counters describing one execution, for benches and regression assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Edge-attach steps performed (batches built).
    pub batches: usize,
    /// Hash/index probe operations (one per partial binding per edge).
    pub probes: usize,
    /// Partial bindings materialized across all steps, seed included — the
    /// quantity the batched executor minimizes.
    pub intermediate_bindings: usize,
    /// Candidate rows across all nodes before semi-join reduction — a
    /// *cardinality bound*, not rows touched: a free node counts its whole
    /// table here although the reducer never reads that table (it
    /// materializes the node from a neighbor). Zero on the naive reference.
    pub semijoin_rows_in: usize,
    /// Candidate rows across all nodes after the bottom-up + top-down
    /// reduction sweeps.
    pub semijoin_rows_out: usize,
    /// Rows the reducer read or wrote, summed over its steps: source rows
    /// marked into the bitmap, target rows bit-tested, parent-column entries
    /// scanned, and rows a materialization produced. Unlike
    /// `semijoin_rows_in` it depends on the order of the semi-join program,
    /// so it is the reducer's machine-independent cost. Zero on the naive
    /// reference.
    pub semijoin_rows_touched: usize,
    /// Result tuples found (capped at `limit`).
    pub result_count: usize,
    /// Columnar batch materializations: what the pre-arena executor paid
    /// one heap allocation for — the selection vector, the new column, and
    /// every regathered column of every attach step. The arena still does
    /// this work, but into reused backing storage.
    pub batch_cols: usize,
    /// Fresh backing allocations the batch arena performed (capacity
    /// growth events). Reusing one [`BatchArena`] across batches and
    /// executions keeps this O(1) per query instead of O(nodes × batches).
    pub batch_allocs: usize,
    /// Peak bytes of arena backing capacity observed during execution.
    pub arena_bytes_peak: usize,
}

impl ExecStats {
    /// Merge `other` into `self` (for aggregating over many executions).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.batches += other.batches;
        self.probes += other.probes;
        self.intermediate_bindings += other.intermediate_bindings;
        self.semijoin_rows_in += other.semijoin_rows_in;
        self.semijoin_rows_out += other.semijoin_rows_out;
        self.semijoin_rows_touched += other.semijoin_rows_touched;
        self.result_count += other.result_count;
        self.batch_cols += other.batch_cols;
        self.batch_allocs += other.batch_allocs;
        // A peak, not a flow: aggregation over executions sharing one
        // arena reports the high-water mark, not a meaningless sum.
        self.arena_bytes_peak = self.arena_bytes_peak.max(other.arena_bytes_peak);
    }

    /// Fraction of candidate rows the semi-join pre-pass removed
    /// (0.0 when the pass did not run or removed nothing).
    pub fn semijoin_reduction(&self) -> f64 {
        if self.semijoin_rows_in == 0 {
            return 0.0;
        }
        1.0 - self.semijoin_rows_out as f64 / self.semijoin_rows_in as f64
    }
}

/// One result: a row id per join-tree node (a joining tuple tree).
pub type JoinedRow = Vec<RowId>;

/// A forced join order for the hash-join executor: the seed node plus the
/// edge indexes in attach order. [`plan_join_order`] replicates exactly the
/// choices [`execute_join_tree_with_stats_in`] makes on its own, but from bare
/// cardinalities — so a coordinator can compute one plan from *global*
/// (cross-shard summed) cardinalities and force every shard to execute the
/// same order, keeping a scatter-gather execution bit-identical to a
/// single-store run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Node index the columnar batches are seeded from.
    pub seed: usize,
    /// Edge indexes into [`JoinTree::edges`], in attach order.
    pub attach: Vec<usize>,
}

/// Output of the semi-join reduction pre-pass ([`reduce_join_tree`]): fully
/// materialized, fully reduced per-node row sets, the pre-reduction (given)
/// cardinalities the join planner keys on, and the reduction counters.
#[derive(Debug, Clone)]
pub struct ReducedTree {
    /// Per node: surviving candidate rows, sorted where the reducer sorts
    /// them. Empty sets mean the join has no results.
    pub sets: Vec<Vec<RowId>>,
    /// Per node: candidate rows *before* reduction (free nodes count their
    /// full table) — the quantity seed selection keys on.
    pub given: Vec<usize>,
    /// `semijoin_rows_in` / `semijoin_rows_out` / `semijoin_rows_touched` for
    /// this reduction; the join-phase counters stay zero.
    pub stats: ExecStats,
}

/// Result rows plus execution counters.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Matching JTTs, at most `limit`.
    pub rows: Vec<JoinedRow>,
    pub stats: ExecStats,
}

/// Execute `tree` over `db` with per-node `candidates`, returning rows and
/// execution counters: semi-join reduction, then columnar batched hash joins
/// in the order [`plan_join_order`] picks. Binding batches live in the
/// caller-held [`BatchArena`]: repeat executors hold one across executions,
/// one-shot callers pass `&mut BatchArena::new()`.
pub fn execute_join_tree_with_stats_in(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
    opts: ExecOptions,
    arena: &mut BatchArena,
) -> RelResult<ExecOutcome> {
    let reduced = reduce_join_tree(db, tree, candidates)?;
    let mut stats = reduced.stats;
    if reduced.sets.iter().any(Vec::is_empty) {
        return Ok(ExecOutcome {
            rows: Vec::new(),
            stats,
        });
    }
    let sizes: Vec<usize> = reduced.sets.iter().map(Vec::len).collect();
    let plan = plan_join_order(tree, &reduced.given, &sizes);
    let out = execute_reduced_in(db, tree, reduced.sets, &plan, opts, arena)?;
    stats.absorb(&out.stats);
    Ok(ExecOutcome {
        rows: out.rows,
        stats,
    })
}

/// The shape checks every execution starts with: a valid tree and one
/// candidate slot per node.
fn check_shape(db: &Database, tree: &JoinTree, candidates: &Candidates) -> RelResult<()> {
    tree.validate(db)?;
    if candidates.per_node.len() != tree.nodes.len() {
        return Err(RelError::MalformedJoinTree(
            "candidate arity mismatch".into(),
        ));
    }
    Ok(())
}

/// Whether endpoint `a` of `edge` is the foreign-key (referencing) side.
/// For self-referencing foreign keys both orientations type-check; the `a`
/// side wins deterministically.
fn a_is_fk_side(db: &Database, tree: &JoinTree, edge: &JoinTreeEdge) -> bool {
    let fk = db.schema().fk(edge.fk);
    fk.from.table == tree.nodes[edge.a] && fk.to.table == tree.nodes[edge.b]
}

/// A bitmap over the rows of one table: the row-id-space form of "the join
/// keys one side of an edge offers". One is reused by every step of a
/// reduction.
#[derive(Default)]
struct RowBits {
    words: Vec<u64>,
}

impl RowBits {
    /// Clear, and size for a table of `rows` rows.
    fn reset(&mut self, rows: usize) {
        self.words.clear();
        self.words.resize(rows.div_ceil(64), 0);
    }

    #[inline]
    fn set(&mut self, row: u32) {
        self.words[(row >> 6) as usize] |= 1 << (row & 63);
    }

    #[inline]
    fn get(&self, row: u32) -> bool {
        self.words[(row >> 6) as usize] >> (row & 63) & 1 != 0
    }

    /// The set rows, ascending.
    fn ones(&self) -> impl Iterator<Item = RowId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| RowId((wi as u32) << 6 | w.trailing_zeros()))
        })
    }
}

/// What gathering one parent's children costs (a row read for its key, a hash
/// probe of the fk index, a second heap hop to the list, the sort of what
/// comes out) in entries of a sequential parent-column scan. A free fk-side
/// node is materialized by the scan once its source holds more than one
/// pk-side row in this many: the source then names about that share of the
/// child table, so the two costs meet. When the constant was chosen it was
/// measured on the x10 IMDB fixture over the 1,264 executions the answers
/// pipeline performs for 256 log queries, reducer time as the median of five
/// runs: 7.7 ms at 8 and at 16, 8.9 at 32, 8.7 at 64, 13.0 at 128, 28.0 when
/// every such node is scanned (rows touched per execution 1,447 / 1,526 /
/// 2,095 / 2,269 / 2,915 / 17,708). Under sources several times larger (a
/// reducer rooted at its smallest node) the same measurement was flat from 16
/// to 64 and 20% slower at 8, so 16 sits in the flat stretch whichever way
/// source sizes move. To re-measure it: kbench's `relstore.exec.reduce_ms` on
/// the `scale_search` workload for the time, and `smoke`'s strict
/// `semijoin_rows_touched` counter for the rows touched.
const SCAN_PER_GATHER: usize = 16;

/// Keep the rows of one node that satisfy `joins`, in their order, and return
/// how many were tested. The node's working set is filtered in place; a node
/// that still reads its given candidates gets its working set from them, so
/// the given list is walked once and never copied whole. `None` = the node is
/// free and has no rows yet: nothing to filter.
fn retain_rows(
    work: &mut Option<Vec<RowId>>,
    given: &Option<Vec<RowId>>,
    joins: impl Fn(RowId) -> bool,
) -> Option<usize> {
    match (work.as_mut(), given) {
        (Some(rows), _) => {
            let tested = rows.len();
            rows.retain(|&r| joins(r));
            Some(tested)
        }
        (None, Some(rows)) => {
            *work = Some(rows.iter().copied().filter(|&r| joins(r)).collect());
            Some(rows.len())
        }
        (None, None) => None,
    }
}

/// The semi-join reduction pre-pass of the executor, exposed on
/// its own so sharded executions can reduce locally, exchange only the
/// resulting cardinalities, and then run [`execute_reduced_in`] under a plan
/// forced by a coordinator.
///
/// Yannakakis' full reducer — root the tree, filter each parent by each child
/// bottom-up, then each child by its parent top-down — with every step done
/// in row-id space. An edge joins a referencing (fk-side) node to a
/// referenced (pk-side) node, and [`Database::fk_parent_row`] already holds
/// the row each fk cell resolves to, so filtering never reads a row, extracts
/// a key or hashes one:
///
/// * the source's rows become a bitmap over the **pk-side table**: an
///   fk-side source marks its rows' parents, a pk-side source marks its own
///   rows;
/// * a target that has rows keeps those whose bit (pk side) or whose
///   parent's bit (fk side) is set, in their order;
/// * a free target that has none yet is *materialized from the bitmap*: on
///   the pk side it is the set bits, ascending; on the fk side it is the
///   children of the set bits, either gathered from the fk index and sorted
///   or picked by one sequential scan of the parent column. Both give the
///   same sorted, distinct rows; `SCAN_PER_GATHER` and the two lengths
///   decide which is cheaper.
///
/// So a free table's rows are never read, and its parent column is walked
/// only when the source already covers a fair share of it; key space is
/// entered in two places only — the gather (one key read and one fk-index
/// probe per marked parent) and a free fk-side *source*, where a pk-side
/// row survives if the fk index lists any child for it. The output is fixed
/// by the semantics alone: a restricted node ends as its given list, order
/// and duplicates kept, minus the rows in no complete JTT; a free node as
/// the ascending distinct rows in some JTT.
///
/// Since no root changes the output, the program is ordered by what it
/// costs — the rows its steps touch ([`ExecStats::semijoin_rows_touched`]):
///
/// * **The root is the restricted node with the most given rows** (ties: the
///   lowest node index; when every node is free, the largest table). A free
///   node is materialized by the first neighbor that reaches it, and the
///   bottom-up sweep reaches it from below — so with the largest list on
///   top, a free node between a small list and a large one is built from
///   the small side, a few rows gathered, and the large list is only
///   bit-tested, once, against what came up. Rooted at the small end, the
///   same node would be built from the large list first — a scan of its
///   whole parent column, or a gather of most of it — only for the
///   top-down sweep to cut it back to the same few rows.
/// * **Siblings go smallest given first** in the bottom-up sweep (a free
///   sibling counts its whole table, so it goes last): a free parent is
///   built from its smallest child and merely filtered by the others.
///
/// This is not the join's order. [`plan_join_order`] seeds at the node with
/// the *fewest* given rows, and its choice, unlike this one, shows in the
/// reply.
pub fn reduce_join_tree(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
) -> RelResult<ReducedTree> {
    check_shape(db, tree, candidates)?;
    let n = tree.nodes.len();
    let given: Vec<usize> = (0..n)
        .map(|i| match &candidates.per_node[i] {
            Some(rows) => rows.len(),
            None => db.table(tree.nodes[i]).len(),
        })
        .collect();
    let mut stats = ExecStats {
        semijoin_rows_in: given.iter().sum(),
        ..Default::default()
    };

    // Working sets, written on a node's first filter or materialization.
    // Until then a restricted node reads its given candidates and a free
    // node has no rows at all — it is materialized from a neighbor's bitmap
    // the first time a node with rows touches it. When every node is free
    // there is nothing to propagate from, so all nodes start as their whole
    // table and the sweeps reduce them directly.
    let mut sets: Vec<Option<Vec<RowId>>> = vec![None; n];
    if candidates.per_node.iter().all(Option::is_none) {
        for (set, &rows) in sets.iter_mut().zip(&given) {
            *set = Some((0..rows as u32).map(RowId).collect());
        }
    }

    // Root the tree at the restricted node with the most given rows (ties:
    // the lowest index; a tree with none: its largest table) and compute a
    // BFS order with parent pointers (edge index per non-root node). Each
    // adjacency list goes larger neighbor first: the bottom-up sweep walks
    // the order backwards, so it visits siblings smallest first.
    let root = (0..n)
        .max_by_key(|&i| (candidates.per_node[i].is_some(), given[i], Reverse(i)))
        .expect("non-empty");
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (edge idx, neighbor)
    for (ei, e) in tree.edges.iter().enumerate() {
        adj[e.a].push((ei, e.b));
        adj[e.b].push((ei, e.a));
    }
    for neighbors in &mut adj {
        neighbors.sort_by_key(|&(_, v)| Reverse(given[v]));
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut parent_edge: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    order.push(root);
    seen[root] = true;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &(ei, v) in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                parent_edge[v] = Some(ei);
                order.push(v);
            }
        }
    }
    if order.len() != n {
        return Err(RelError::MalformedJoinTree("disconnected tree".into()));
    }

    // One step: reduce `target` by `source` along edge `ei`.
    //
    // A source that is free and has no rows yet makes the step approximate:
    // the target keeps the rows with any partner at all in the source's
    // whole table. Returns whether that happened; any such step may leave
    // dead rows, in which case a second, now-exact sweep over the (small)
    // materialized sets finishes the reduction.
    let mut bits = RowBits::default();
    let mut touched = 0usize;
    let mut step = |sets: &mut [Option<Vec<RowId>>], target: usize, source: usize, ei: usize| {
        let edge = &tree.edges[ei];
        let s_fk = (edge.a == source) == a_is_fk_side(db, tree, edge);
        let parent_of = db.fk_parent_col(edge.fk);
        let pk_table = db.schema().fk(edge.fk).to.table;
        let pk_rows = db.table(pk_table).len();
        // The two nodes' working sets, disjointly borrowed.
        let (work, source_work) = if target < source {
            let (lo, hi) = sets.split_at_mut(source);
            (&mut lo[target], &hi[0])
        } else {
            let (lo, hi) = sets.split_at_mut(target);
            (&mut hi[0], &lo[source])
        };
        let given = &candidates.per_node[target];
        let source_rows = source_work
            .as_deref()
            .or(candidates.per_node[source].as_deref());
        let Some(source_rows) = source_rows else {
            let tested = if s_fk {
                retain_rows(work, given, |r| {
                    !db.fk_referrers(edge.fk, db.pk_value(pk_table, r))
                        .is_empty()
                })
            } else {
                retain_rows(work, given, |r| parent_of[r.index()] != NO_PARENT)
            };
            touched += tested.unwrap_or(0);
            return true;
        };
        bits.reset(pk_rows);
        touched += source_rows.len();
        if s_fk {
            for &r in source_rows {
                let parent = parent_of[r.index()];
                if parent != NO_PARENT {
                    bits.set(parent);
                }
            }
            touched += match retain_rows(work, given, |r| bits.get(r.0)) {
                Some(tested) => tested,
                None => work.insert(bits.ones().collect()).len(),
            };
        } else {
            for &r in source_rows {
                bits.set(r.0);
            }
            let joins = |r: RowId| {
                let parent = parent_of[r.index()];
                parent != NO_PARENT && bits.get(parent)
            };
            touched += match retain_rows(work, given, joins) {
                Some(tested) => tested,
                None if source_rows.len() * SCAN_PER_GATHER >= pk_rows => {
                    let rows = (0..parent_of.len() as u32).map(RowId);
                    parent_of.len() + work.insert(rows.filter(|&r| joins(r)).collect()).len()
                }
                None => {
                    // Each child has one parent, so the gathered lists are
                    // disjoint: sorting alone makes them the distinct set.
                    let mut rows: Vec<RowId> = bits
                        .ones()
                        .flat_map(|p| db.fk_referrers(edge.fk, db.pk_value(pk_table, p)))
                        .copied()
                        .collect();
                    rows.sort_unstable();
                    work.insert(rows).len()
                }
            };
        }
        false
    };
    let mut sweep = |sets: &mut [Option<Vec<RowId>>]| -> bool {
        let mut approx = false;
        for &v in order.iter().skip(1).rev() {
            let ei = parent_edge[v].expect("non-root");
            let e = &tree.edges[ei];
            let parent = if e.a == v { e.b } else { e.a };
            approx |= step(sets, parent, v, ei);
        }
        for &v in order.iter().skip(1) {
            let ei = parent_edge[v].expect("non-root");
            let e = &tree.edges[ei];
            let parent = if e.a == v { e.b } else { e.a };
            approx |= step(sets, v, parent, ei);
        }
        approx
    };
    if sweep(&mut sets) {
        // Some step consulted a free table; every set is materialized now
        // (the tree is connected and at least one node was restricted), so
        // the second sweep is exact and completes the full reduction.
        sweep(&mut sets);
    }
    // Only a single-node tree gets here with a node no step has written.
    let sets: Vec<Vec<RowId>> = sets
        .into_iter()
        .zip(&candidates.per_node)
        .map(|(work, given)| {
            work.or_else(|| given.clone())
                .expect("reduced sets are materialized")
        })
        .collect();
    stats.semijoin_rows_touched = touched;
    stats.semijoin_rows_out = sets.iter().map(Vec::len).sum();
    Ok(ReducedTree { sets, given, stats })
}

/// Replicate the hash-join executor's order choices from per-node *given*
/// cardinalities (pre-reduction) and reduced set sizes: the seed is the
/// first node with minimal given cardinality, then the edge whose new node
/// has the smallest reduced set is attached, the live edge list evolving by
/// `swap_remove` exactly as in execution — so ties break identically. The
/// seed is the join's own decision: [`reduce_join_tree`] roots its sweeps at
/// the other end of the tree, and nothing here depends on where.
pub fn plan_join_order(tree: &JoinTree, given: &[usize], reduced: &[usize]) -> JoinPlan {
    let n = tree.nodes.len();
    let seed = (0..n).min_by_key(|&i| given[i]).expect("non-empty");
    let mut joined = vec![false; n];
    joined[seed] = true;
    let mut remaining: Vec<usize> = (0..tree.edges.len()).collect();
    let mut attach = Vec::with_capacity(tree.edges.len());
    while !remaining.is_empty() {
        let (pos, &ei) = remaining
            .iter()
            .enumerate()
            .filter(|(_, &ei)| {
                let e = &tree.edges[ei];
                joined[e.a] != joined[e.b]
            })
            .min_by_key(|(_, &ei)| {
                let e = &tree.edges[ei];
                let new = if joined[e.a] { e.b } else { e.a };
                reduced[new]
            })
            .expect("connected tree always has an attachable edge");
        remaining.swap_remove(pos);
        let e = &tree.edges[ei];
        let new = if joined[e.a] { e.b } else { e.a };
        joined[new] = true;
        attach.push(ei);
    }
    JoinPlan { seed, attach }
}

/// Reusable backing store for the executor's columnar binding batches.
///
/// The pre-arena executor allocated one `Vec<RowId>` per joined node per
/// attach step (the regather), plus a selection vector and the new column —
/// O(nodes × batches) heap allocations per query. The arena keeps all
/// columns in one flat `Vec<RowId>` (per-node spans of equal length, in
/// join order) plus a ping-pong buffer for the regather, *reset but never
/// freed* between batches — and, when one arena is threaded through a
/// pipeline via the executor cache, between waves and executions too.
/// [`ExecStats::batch_allocs`] counts the capacity-growth events that
/// remain; [`ExecStats::arena_bytes_peak`] records the high-water mark.
#[derive(Debug, Default)]
pub struct BatchArena {
    /// Current batch: `slot` spans of `batch_len` rows each, join order.
    front: Vec<RowId>,
    /// Regather target, swapped with `front` after each attach step.
    back: Vec<RowId>,
    /// Probe selection indexes into the previous batch.
    sel: Vec<u32>,
    /// The attach step's new column, staged before the regather.
    newcol: Vec<RowId>,
    /// Cumulative capacity-growth events over the arena's lifetime.
    allocs: usize,
}

impl BatchArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of backing capacity currently held.
    fn bytes(&self) -> usize {
        (self.front.capacity() + self.back.capacity() + self.newcol.capacity())
            * std::mem::size_of::<RowId>()
            + self.sel.capacity() * std::mem::size_of::<u32>()
    }
}

/// Floor on any fresh arena reservation: a cold buffer jumps straight to a
/// useful capacity (4 KiB of `RowId`s) instead of logging several growth
/// events while the first small batches warm it.
const ARENA_MIN_RESERVE: usize = 1024;

/// Reserve `additional` headroom in `v`, counting a capacity growth.
fn arena_reserve<T>(v: &mut Vec<T>, additional: usize, allocs: &mut usize) {
    let before = v.capacity();
    if v.len() + additional <= before {
        return;
    }
    v.reserve(additional.max(ARENA_MIN_RESERVE));
    if v.capacity() != before {
        *allocs += 1;
    }
}

/// The join phase of the executor over already-reduced sets, following a
/// [`JoinPlan`] instead of choosing its own order. With the plan produced by
/// [`plan_join_order`] on this store's own cardinalities this is
/// bit-identical to [`execute_join_tree_with_stats_in`]; under a
/// coordinator-forced plan every participating store joins in the same
/// order.
///
/// Columnar binding batches: one column span per joined node, all of equal
/// length, living in the arena. Full reduction guarantees every partial
/// binding extends to at least one distinct result, so each batch can be
/// truncated to `limit`. Row output is byte-identical to the historical
/// per-`Vec` executor — the arena changes where the columns live, never
/// their contents or order.
pub fn execute_reduced_in(
    db: &Database,
    tree: &JoinTree,
    sets: Vec<Vec<RowId>>,
    plan: &JoinPlan,
    opts: ExecOptions,
    arena: &mut BatchArena,
) -> RelResult<ExecOutcome> {
    let n = tree.nodes.len();
    let mut stats = ExecStats::default();
    let allocs_before = arena.allocs;
    if sets.iter().any(Vec::is_empty) {
        return Ok(ExecOutcome {
            rows: Vec::new(),
            stats,
        });
    }
    let cap = opts.limit;
    // Node -> column span index (in join order) inside the arena.
    let mut slot: Vec<Option<usize>> = vec![None; n];
    let seed_set = &sets[plan.seed];
    let mut batch_len = seed_set.len().min(cap);
    arena.front.clear();
    arena_reserve(&mut arena.front, batch_len, &mut arena.allocs);
    arena.front.extend_from_slice(&seed_set[..batch_len]);
    stats.intermediate_bindings += batch_len;
    slot[plan.seed] = Some(0);
    let mut joined = vec![false; n];
    joined[plan.seed] = true;
    let mut joined_cols = 1usize;

    for &ei in &plan.attach {
        let edge = tree.edges[ei];
        debug_assert!(
            joined[edge.a] != joined[edge.b],
            "plan attaches a non-attachable edge"
        );
        let (known, new) = if joined[edge.a] {
            (edge.a, edge.b)
        } else {
            (edge.b, edge.a)
        };
        joined[new] = true;
        let known_fk = (edge.a == known) == a_is_fk_side(db, tree, &edge);
        // The join key of a row, in row-id space: the pk-side row it joins —
        // its resolved parent on the fk side, itself on the pk side.
        // `NO_PARENT` (a null or dangling fk cell) joins nothing.
        let parent_of = db.fk_parent_col(edge.fk);
        let pk_side_row = |row: RowId, fk_side: bool| {
            if fk_side {
                parent_of[row.index()]
            } else {
                row.0
            }
        };

        // Build a hash table over the new node's reduced candidates, keyed
        // by join key. The pk side has unique keys; the fk side may not.
        let new_set = &sets[new];
        let mut build: HashMap<u32, Vec<RowId>> = HashMap::with_capacity(new_set.len());
        for &r in new_set {
            let k = pk_side_row(r, !known_fk);
            if k != NO_PARENT {
                build.entry(k).or_default().push(r);
            }
        }

        // Probe with every current partial binding; `sel` gathers the
        // batch. Disjoint-field borrows: the known column is a span of
        // `front`, the staging buffers are `sel`/`newcol`.
        let BatchArena {
            front,
            back,
            sel,
            newcol,
            allocs,
        } = &mut *arena;
        let ks = slot[known].expect("joined nodes have columns");
        let known_col = &front[ks * batch_len..(ks + 1) * batch_len];
        sel.clear();
        newcol.clear();
        arena_reserve(sel, batch_len, allocs);
        arena_reserve(newcol, batch_len, allocs);
        'probe: for (bi, &krow) in known_col.iter().enumerate() {
            stats.probes += 1;
            let Some(matches) = build.get(&pk_side_row(krow, known_fk)) else {
                continue;
            };
            for &m in matches {
                if newcol.len() >= opts.max_intermediate {
                    return Err(RelError::IntermediateLimitExceeded {
                        limit: opts.max_intermediate,
                    });
                }
                sel.push(bi as u32);
                newcol.push(m);
                if newcol.len() >= cap {
                    break 'probe;
                }
            }
        }
        stats.batches += 1;
        stats.intermediate_bindings += newcol.len();
        // One logical column materialization per regathered span + the new
        // column + the selection vector: exactly the per-step allocation
        // count of the pre-arena executor.
        stats.batch_cols += joined_cols + 2;
        let new_len = newcol.len();

        // Regather every existing column through `sel` into the back
        // buffer, append the new column as the next span, and flip.
        back.clear();
        arena_reserve(back, (joined_cols + 1) * new_len, allocs);
        for c in 0..joined_cols {
            let span = &front[c * batch_len..(c + 1) * batch_len];
            back.extend(sel.iter().map(|&i| span[i as usize]));
        }
        back.extend_from_slice(newcol);
        std::mem::swap(front, back);
        slot[new] = Some(joined_cols);
        joined_cols += 1;
        batch_len = new_len;
        stats.arena_bytes_peak = stats.arena_bytes_peak.max(arena.bytes());
        if batch_len == 0 {
            stats.batch_allocs += arena.allocs - allocs_before;
            return Ok(ExecOutcome {
                rows: Vec::new(),
                stats,
            });
        }
    }

    stats.result_count = batch_len;
    stats.arena_bytes_peak = stats.arena_bytes_peak.max(arena.bytes());
    stats.batch_allocs += arena.allocs - allocs_before;
    let rows = (0..batch_len)
        .map(|i| {
            (0..n)
                .map(|node| {
                    let c = slot[node].expect("all joined");
                    arena.front[c * batch_len + i]
                })
                .collect()
        })
        .collect();
    Ok(ExecOutcome { rows, stats })
}

// ---------------------------------------------------------------------------
// The reference: the original per-binding expansion, kept as the oracle.
// ---------------------------------------------------------------------------

/// Execute `tree` by per-binding nested-loop expansion — the reference
/// implementation [`execute_join_tree_with_stats_in`] is differentially
/// tested against. Same inputs, same result multiset, no reduction pass and
/// no arena.
pub fn execute_join_tree_naive(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
    opts: ExecOptions,
) -> RelResult<ExecOutcome> {
    check_shape(db, tree, candidates)?;
    let n = tree.nodes.len();
    let mut stats = ExecStats::default();
    // Estimated cardinality per node, used to order the join.
    let node_card = |i: usize| -> usize {
        match &candidates.per_node[i] {
            Some(rows) => rows.len(),
            None => db.table(tree.nodes[i]).len(),
        }
    };

    // Seed: the most selective node.
    let seed = (0..n).min_by_key(|&i| node_card(i)).expect("non-empty");

    // Partial bindings: each is a Vec<Option<RowId>> indexed by node.
    let mut bindings: Vec<Vec<Option<RowId>>> = Vec::new();
    let seed_rows: Vec<RowId> = match &candidates.per_node[seed] {
        Some(rows) => rows.clone(),
        None => db.table(tree.nodes[seed]).rows().map(|(r, _)| r).collect(),
    };
    for r in seed_rows {
        let mut b = vec![None; n];
        b[seed] = Some(r);
        bindings.push(b);
    }
    stats.intermediate_bindings += bindings.len();

    let cand_sets: Vec<Option<HashSet<RowId>>> = candidates
        .per_node
        .iter()
        .map(|c| c.as_ref().map(|rows| rows.iter().copied().collect()))
        .collect();

    let mut joined = vec![false; n];
    joined[seed] = true;
    let mut remaining_edges: Vec<JoinTreeEdge> = tree.edges.clone();

    while !remaining_edges.is_empty() {
        // Choose the attachable edge whose new node is cheapest.
        let pos = remaining_edges
            .iter()
            .position(|e| joined[e.a] != joined[e.b])
            .ok_or_else(|| RelError::MalformedJoinTree("disconnected tree".into()))?;
        let best = remaining_edges
            .iter()
            .enumerate()
            .filter(|(_, e)| joined[e.a] != joined[e.b])
            .min_by_key(|(_, e)| {
                let new = if joined[e.a] { e.b } else { e.a };
                node_card(new)
            })
            .map(|(i, _)| i)
            .unwrap_or(pos);
        let edge = remaining_edges.swap_remove(best);
        let (known, new) = if joined[edge.a] {
            (edge.a, edge.b)
        } else {
            (edge.b, edge.a)
        };
        joined[new] = true;

        let fk = *db.schema().fk(edge.fk);
        let known_table = tree.nodes[known];
        let new_table = tree.nodes[new];
        // Forward: known node holds the fk column, probe parent's pk index.
        // Orientation comes from the shared per-edge helper so both
        // executors agree even on self-referencing foreign keys.
        let forward = (edge.a == known) == a_is_fk_side(db, tree, &edge);

        let mut next: Vec<Vec<Option<RowId>>> = Vec::with_capacity(bindings.len());
        for b in &bindings {
            let known_row = b[known].expect("joined nodes are bound");
            stats.probes += 1;
            if forward {
                let key = db.cell(known_table, known_row, fk.from);
                let Some(key) = key.as_int() else { continue };
                let Some(parent) = db.table(new_table).by_pk(key) else {
                    continue;
                };
                if let Some(set) = &cand_sets[new] {
                    if !set.contains(&parent) {
                        continue;
                    }
                }
                let mut nb = b.clone();
                nb[new] = Some(parent);
                next.push(nb);
            } else {
                // Backward: new node holds the fk column referencing known's pk.
                let key = db.pk_value(known_table, known_row);
                for &child in db.fk_referrers(edge.fk, key) {
                    if let Some(set) = &cand_sets[new] {
                        if !set.contains(&child) {
                            continue;
                        }
                    }
                    let mut nb = b.clone();
                    nb[new] = Some(child);
                    next.push(nb);
                }
            }
            if next.len() > opts.max_intermediate {
                return Err(RelError::IntermediateLimitExceeded {
                    limit: opts.max_intermediate,
                });
            }
        }
        stats.batches += 1;
        stats.intermediate_bindings += next.len();
        bindings = next;
        if bindings.is_empty() {
            return Ok(ExecOutcome {
                rows: Vec::new(),
                stats,
            });
        }
    }

    stats.result_count = bindings.len().min(opts.limit);
    let rows = bindings
        .into_iter()
        .take(opts.limit)
        .map(|b| b.into_iter().map(|r| r.expect("all nodes bound")).collect())
        .collect();
    Ok(ExecOutcome { rows, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{SchemaBuilder, TableKind};
    use crate::value::Value;

    /// actor(id,name) <- acts(id,actor_id,movie_id) -> movie(id,title,year)
    fn movie_db() -> Database {
        let mut b = SchemaBuilder::new();
        b.table("actor", TableKind::Entity)
            .pk("id")
            .text_attr("name");
        b.table("movie", TableKind::Entity)
            .pk("id")
            .text_attr("title")
            .int_attr("year");
        b.table("acts", TableKind::Relation)
            .pk("id")
            .int_attr("actor_id")
            .int_attr("movie_id");
        b.foreign_key("acts", "actor_id", "actor").unwrap();
        b.foreign_key("acts", "movie_id", "movie").unwrap();
        let mut db = Database::new(b.finish().unwrap());
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let acts = db.schema().table_id("acts").unwrap();
        for (id, name) in [(1, "Tom Hanks"), (2, "Tom Cruise"), (3, "Meg Ryan")] {
            db.insert(actor, vec![Value::Int(id), Value::text(name)])
                .unwrap();
        }
        for (id, title, year) in [
            (10, "The Terminal", 2004),
            (11, "Top Gun", 1986),
            (12, "Joe vs the Volcano", 1990),
        ] {
            db.insert(
                movie,
                vec![Value::Int(id), Value::text(title), Value::Int(year)],
            )
            .unwrap();
        }
        // Hanks in Terminal & Volcano, Cruise in Top Gun, Ryan in Volcano.
        for (id, a, m) in [(100, 1, 10), (101, 2, 11), (102, 1, 12), (103, 3, 12)] {
            db.insert(acts, vec![Value::Int(id), Value::Int(a), Value::Int(m)])
                .unwrap();
        }
        db.validate().unwrap();
        db
    }

    fn actor_acts_movie_tree(db: &Database) -> JoinTree {
        let s = db.schema();
        let actor = s.table_id("actor").unwrap();
        let movie = s.table_id("movie").unwrap();
        let acts = s.table_id("acts").unwrap();
        let fk_actor = s.fks().find(|(_, f)| f.to.table == actor).unwrap().0;
        let fk_movie = s.fks().find(|(_, f)| f.to.table == movie).unwrap().0;
        JoinTree {
            nodes: vec![actor, acts, movie],
            edges: vec![
                JoinTreeEdge {
                    a: 1,
                    b: 0,
                    fk: fk_actor,
                },
                JoinTreeEdge {
                    a: 1,
                    b: 2,
                    fk: fk_movie,
                },
            ],
        }
    }

    /// One-shot execution over a throwaway arena.
    fn run(
        db: &Database,
        tree: &JoinTree,
        candidates: &Candidates,
        opts: ExecOptions,
    ) -> ExecOutcome {
        execute_join_tree_with_stats_in(db, tree, candidates, opts, &mut BatchArena::new()).unwrap()
    }

    /// The same execution on the reference executor.
    fn run_naive(
        db: &Database,
        tree: &JoinTree,
        candidates: &Candidates,
        opts: ExecOptions,
    ) -> ExecOutcome {
        execute_join_tree_naive(db, tree, candidates, opts).unwrap()
    }

    /// Both executors, for tests asserting the same thing of each.
    type Exec = fn(&Database, &JoinTree, &Candidates, ExecOptions) -> ExecOutcome;
    const BOTH: [Exec; 2] = [run, run_naive];

    /// Sorted copies, for multiset comparison between executors.
    fn sorted(mut rows: Vec<JoinedRow>) -> Vec<JoinedRow> {
        rows.sort();
        rows
    }

    #[test]
    fn full_join_unrestricted() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        for exec in BOTH {
            let rows = exec(&db, &tree, &Candidates::free(3), ExecOptions::default()).rows;
            assert_eq!(rows.len(), 4); // one JTT per acts row
        }
    }

    #[test]
    fn restricted_join() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let hanks = db.table(actor).by_pk(1).unwrap();
        let cands = Candidates::free(3).restrict(0, vec![hanks]);
        for exec in BOTH {
            let rows = exec(&db, &tree, &cands, ExecOptions::default()).rows;
            assert_eq!(rows.len(), 2); // Terminal + Volcano
            for r in &rows {
                assert_eq!(r[0], hanks);
            }
        }
    }

    #[test]
    fn doubly_restricted_join() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let hanks = db.table(actor).by_pk(1).unwrap();
        let terminal = db.table(movie).by_pk(10).unwrap();
        let cands = Candidates::free(3)
            .restrict(0, vec![hanks])
            .restrict(2, vec![terminal]);
        for exec in BOTH {
            let rows = exec(&db, &tree, &cands, ExecOptions::default()).rows;
            assert_eq!(rows.len(), 1);
        }
    }

    #[test]
    fn empty_candidates_empty_result() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let cands = Candidates::free(3).restrict(0, vec![]);
        for exec in BOTH {
            let rows = exec(&db, &tree, &cands, ExecOptions::default()).rows;
            assert!(rows.is_empty());
        }
    }

    #[test]
    fn self_join_two_actors() {
        // actor - acts - movie - acts - actor: movies with two named actors.
        let db = movie_db();
        let s = db.schema();
        let actor = s.table_id("actor").unwrap();
        let movie = s.table_id("movie").unwrap();
        let acts = s.table_id("acts").unwrap();
        let fk_actor = s.fks().find(|(_, f)| f.to.table == actor).unwrap().0;
        let fk_movie = s.fks().find(|(_, f)| f.to.table == movie).unwrap().0;
        let tree = JoinTree {
            nodes: vec![actor, acts, movie, acts, actor],
            edges: vec![
                JoinTreeEdge {
                    a: 1,
                    b: 0,
                    fk: fk_actor,
                },
                JoinTreeEdge {
                    a: 1,
                    b: 2,
                    fk: fk_movie,
                },
                JoinTreeEdge {
                    a: 3,
                    b: 2,
                    fk: fk_movie,
                },
                JoinTreeEdge {
                    a: 3,
                    b: 4,
                    fk: fk_actor,
                },
            ],
        };
        let hanks = db.table(actor).by_pk(1).unwrap();
        let ryan = db.table(actor).by_pk(3).unwrap();
        let cands = Candidates::free(5)
            .restrict(0, vec![hanks])
            .restrict(4, vec![ryan]);
        let volcano = db.table(movie).by_pk(12).unwrap();
        for exec in BOTH {
            let rows = exec(&db, &tree, &cands, ExecOptions::default()).rows;
            assert_eq!(rows.len(), 1); // Joe vs the Volcano
            assert_eq!(rows[0][2], volcano);
        }
    }

    #[test]
    fn limit_respected() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        for exec in BOTH {
            let opts = ExecOptions {
                limit: 2,
                ..Default::default()
            };
            let rows = exec(&db, &tree, &Candidates::free(3), opts).rows;
            assert_eq!(rows.len(), 2);
        }
    }

    #[test]
    fn strategies_agree_on_multisets() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let toms: Vec<RowId> = [1, 2]
            .iter()
            .map(|&pk| db.table(actor).by_pk(pk).unwrap())
            .collect();
        let cases = [
            Candidates::free(3),
            Candidates::free(3).restrict(0, toms.clone()),
            Candidates::free(3).restrict(0, toms).restrict(2, vec![]),
        ];
        let big = ExecOptions {
            limit: usize::MAX,
            ..Default::default()
        };
        for cands in &cases {
            let hj = run(&db, &tree, cands, big).rows;
            let nv = run_naive(&db, &tree, cands, big).rows;
            assert_eq!(sorted(hj), sorted(nv));
        }
    }

    #[test]
    fn self_referencing_fk_strategies_agree() {
        // employee.manager_id -> employee: both edge orientations type-check,
        // so the executor must pick one deterministically (node `a` = fk
        // side) and the reference must implement the same choice.
        let mut b = SchemaBuilder::new();
        b.table("employee", TableKind::Entity)
            .pk("id")
            .text_attr("name")
            .int_attr("manager_id");
        b.foreign_key("employee", "manager_id", "employee").unwrap();
        let mut db = Database::new(b.finish().unwrap());
        let emp = db.schema().table_id("employee").unwrap();
        // 2 and 4 report to 1; 3 reports to 2.
        for (id, name, mgr) in [
            (1, "root", Value::Null),
            (2, "a", Value::Int(1)),
            (3, "b", Value::Int(2)),
            (4, "c", Value::Int(1)),
        ] {
            db.insert(emp, vec![Value::Int(id), Value::text(name), mgr])
                .unwrap();
        }
        db.validate().unwrap();
        let fk0 = db.schema().fks().next().unwrap().0;
        let tree = JoinTree {
            nodes: vec![emp, emp],
            edges: vec![JoinTreeEdge {
                a: 0,
                b: 1,
                fk: fk0,
            }],
        };
        let r3 = db.table(emp).by_pk(3).unwrap();
        let r1 = db.table(emp).by_pk(1).unwrap();
        // Vary selectivity so the naive seed lands on either endpoint.
        let cases = [
            Candidates::free(2),
            Candidates::free(2).restrict(0, vec![r3]),
            Candidates::free(2).restrict(1, vec![r1]),
        ];
        let big = ExecOptions {
            limit: usize::MAX,
            ..Default::default()
        };
        for cands in &cases {
            let hj = run(&db, &tree, cands, big).rows;
            let nv = run_naive(&db, &tree, cands, big).rows;
            assert_eq!(sorted(hj.clone()), sorted(nv));
            // Node 0 is the fk (reporting) side: every result pairs an
            // employee with their manager.
            for row in &hj {
                let mgr = db.cell(emp, row[0], db.schema().fk(fk0).from).as_int();
                assert_eq!(mgr, Some(db.pk_value(emp, row[1])));
            }
        }
    }

    #[test]
    fn semijoin_prunes_dead_bindings() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let hanks = db.table(actor).by_pk(1).unwrap();
        let terminal = db.table(movie).by_pk(10).unwrap();
        let cands = Candidates::free(3)
            .restrict(0, vec![hanks])
            .restrict(2, vec![terminal]);
        let hj = run(&db, &tree, &cands, ExecOptions::default());
        let nv = run_naive(&db, &tree, &cands, ExecOptions::default());
        assert_eq!(hj.stats.result_count, nv.stats.result_count);
        // The reducer must strip the acts rows that don't reach Terminal.
        assert!(hj.stats.semijoin_rows_out < hj.stats.semijoin_rows_in);
        assert!(
            hj.stats.intermediate_bindings <= nv.stats.intermediate_bindings,
            "hash join materialized more: {} vs {}",
            hj.stats.intermediate_bindings,
            nv.stats.intermediate_bindings
        );
        assert!((0.0..=1.0).contains(&hj.stats.semijoin_reduction()));
    }

    /// small(id) <- fact(id, small_id, mid_id, big_id) -> mid(id), big(id):
    /// 1,000 rows per entity table, 30 facts per entity row.
    fn star_db() -> Database {
        const ENTITIES: i64 = 1000;
        let mut b = SchemaBuilder::new();
        for name in ["small", "mid", "big"] {
            b.table(name, TableKind::Entity).pk("id");
        }
        b.table("fact", TableKind::Relation)
            .pk("id")
            .int_attr("small_id")
            .int_attr("mid_id")
            .int_attr("big_id");
        for name in ["small", "mid", "big"] {
            b.foreign_key("fact", &format!("{name}_id"), name).unwrap();
        }
        let mut db = Database::new(b.finish().unwrap());
        for name in ["small", "mid", "big"] {
            let table = db.schema().table_id(name).unwrap();
            for id in 0..ENTITIES {
                db.insert(table, vec![Value::Int(id)]).unwrap();
            }
        }
        let fact = db.schema().table_id("fact").unwrap();
        for id in 0..30 * ENTITIES {
            // Three different strides, so a fact's parents are unrelated.
            let (s, m, g) = (id % ENTITIES, id * 7 % ENTITIES, id * 13 % ENTITIES);
            let row = [id, s, m, g].map(Value::Int).to_vec();
            db.insert(fact, row).unwrap();
        }
        db
    }

    #[test]
    fn reducer_walks_from_the_small_side() {
        let db = star_db();
        let s = db.schema();
        let fact = s.table_id("fact").unwrap();
        let n_fact = db.table(fact).len();
        let node = |name: &str| {
            let table = s.table_id(name).unwrap();
            let fk = s.fks().find(|(_, f)| f.to.table == table).unwrap().0;
            (table, fk)
        };
        let (small, fk_small) = node("small");
        let (mid, fk_mid) = node("mid");
        let (big, fk_big) = node("big");
        let first = |n: u32| (0..n).map(RowId).collect::<Vec<_>>();
        let (few, some, most) = (first(2), first(300), first(900));
        // Facts under the small list: what a reduction from the small side
        // materializes and then carries through every later step.
        let children = few.len() * 30;

        // R_big - F - R_small, the big list at either end of the node list.
        for flip in [false, true] {
            let (ends, fks) = if flip {
                ([small, big], [fk_small, fk_big])
            } else {
                ([big, small], [fk_big, fk_small])
            };
            let tree = JoinTree {
                nodes: vec![ends[0], fact, ends[1]],
                edges: vec![
                    JoinTreeEdge {
                        a: 1,
                        b: 0,
                        fk: fks[0],
                    },
                    JoinTreeEdge {
                        a: 1,
                        b: 2,
                        fk: fks[1],
                    },
                ],
            };
            let (at_big, at_small) = if flip { (2, 0) } else { (0, 2) };
            let cands = Candidates::free(3)
                .restrict(at_big, most.clone())
                .restrict(at_small, few.clone());
            let touched = reduce_join_tree(&db, &tree, &cands)
                .unwrap()
                .stats
                .semijoin_rows_touched;
            // The big list is bit-tested once; everything else is the small
            // side's children, a handful of times.
            assert!(
                touched <= most.len() + 8 * (children + few.len()),
                "chain (flip {flip}): touched {touched}"
            );
            assert!(touched * 10 < n_fact, "chain (flip {flip}): {touched}");
        }

        // A free centre with three restricted leaves of distinct sizes: the
        // centre comes from the smallest leaf, the middle leaf is marked
        // once and tested once, the largest is tested once.
        let tree = JoinTree {
            nodes: vec![fact, mid, big, small],
            edges: vec![
                JoinTreeEdge {
                    a: 0,
                    b: 1,
                    fk: fk_mid,
                },
                JoinTreeEdge {
                    a: 0,
                    b: 2,
                    fk: fk_big,
                },
                JoinTreeEdge {
                    a: 0,
                    b: 3,
                    fk: fk_small,
                },
            ],
        };
        let cands = Candidates::free(4)
            .restrict(1, some.clone())
            .restrict(2, most.clone())
            .restrict(3, few.clone());
        let reduced = reduce_join_tree(&db, &tree, &cands).unwrap();
        let touched = reduced.stats.semijoin_rows_touched;
        assert!(
            touched <= most.len() + 2 * some.len() + 12 * (children + few.len()),
            "star: touched {touched}"
        );
        assert!(touched * 10 < n_fact, "star: touched {touched}");
        // Same sets as the reference, whatever the order of the program.
        let jtts = run_naive(
            &db,
            &tree,
            &cands,
            ExecOptions {
                limit: usize::MAX,
                max_intermediate: usize::MAX,
            },
        )
        .rows;
        for (i, set) in reduced.sets.iter().enumerate() {
            let mut want: Vec<RowId> = jtts.iter().map(|jtt| jtt[i]).collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(set, &want, "star: node {i}");
        }
    }

    #[test]
    fn early_termination_caps_every_batch() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let opts = ExecOptions {
            limit: 1,
            ..Default::default()
        };
        let out = run(&db, &tree, &Candidates::free(3), opts);
        assert_eq!(out.rows.len(), 1);
        // With limit 1 no batch ever holds more than one binding:
        // seed + one per attach step.
        assert!(out.stats.intermediate_bindings <= 1 + tree.join_count());
    }

    #[test]
    fn intermediate_limit_is_a_typed_refusal_not_a_malformed_tree() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        tree.validate(&db).unwrap();
        // Four JTTs; no step may hold more than one partial binding.
        let opts = ExecOptions {
            limit: usize::MAX,
            max_intermediate: 1,
        };
        let cands = Candidates::free(3);
        let hj = execute_join_tree_with_stats_in(&db, &tree, &cands, opts, &mut BatchArena::new());
        let nv = execute_join_tree_naive(&db, &tree, &cands, opts);
        for err in [hj.unwrap_err(), nv.unwrap_err()] {
            assert_eq!(err, RelError::IntermediateLimitExceeded { limit: 1 });
            assert!(err.to_string().contains("max_intermediate (1)"));
        }
    }

    #[test]
    fn malformed_trees_rejected() {
        let db = movie_db();
        let s = db.schema();
        let actor = s.table_id("actor").unwrap();
        let fk0 = s.fks().next().unwrap().0;
        // Empty.
        let t = JoinTree {
            nodes: vec![],
            edges: vec![],
        };
        assert!(t.validate(&db).is_err());
        // Edge count mismatch.
        let t = JoinTree {
            nodes: vec![actor, actor],
            edges: vec![],
        };
        assert!(t.validate(&db).is_err());
        // Self edge.
        let t = JoinTree {
            nodes: vec![actor, actor],
            edges: vec![JoinTreeEdge {
                a: 0,
                b: 0,
                fk: fk0,
            }],
        };
        assert!(t.validate(&db).is_err());
        // FK does not join endpoints.
        let t = JoinTree {
            nodes: vec![actor, actor],
            edges: vec![JoinTreeEdge {
                a: 0,
                b: 1,
                fk: fk0,
            }],
        };
        assert!(t.validate(&db).is_err());
    }

    #[test]
    fn candidate_arity_checked() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let err = execute_join_tree_with_stats_in(
            &db,
            &tree,
            &Candidates::free(2),
            ExecOptions::default(),
            &mut BatchArena::new(),
        )
        .unwrap_err();
        assert!(matches!(err, RelError::MalformedJoinTree(_)));
    }

    #[test]
    fn single_node_tree() {
        let db = movie_db();
        let movie = db.schema().table_id("movie").unwrap();
        let tree = JoinTree::single(movie);
        for exec in BOTH {
            let rows = exec(&db, &tree, &Candidates::free(1), ExecOptions::default()).rows;
            assert_eq!(rows.len(), 3);
        }
        assert_eq!(tree.join_count(), 0);
    }
}
