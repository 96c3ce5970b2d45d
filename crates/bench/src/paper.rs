//! The paper's experiments as claims the build checks.
//!
//! [`ENTRIES`] holds one entry per table or figure of the evaluation: an id
//! (`fig4_2`), the paper's finding, a function returning the rows it prints,
//! and its claims — the finding as a directional inequality over those rows,
//! with a stated margin. A finding that does not reproduce gets no claim but
//! one `Divergence:` line in its doc (paper vs observed).
//!
//! `smoke` calls [`run`] on every invocation: it prints every table, writes
//! each machine-independent cell at its printed precision as a key of the
//! snapshot's `paper` section (`fig4_2.imdb.a0_99.k10.div_mc`), and fails
//! naming the entry id and finding of any claim that does not hold. Clocks
//! are printed (` ms`), never written. The quick profile shrinks only
//! chapter 5, to the 1,800-table schema of Table 5.3.

use crate::{ch4_query_set, freebase_fixture, imdb_fixture, lyrics_fixture, mean, print_table};
use crate::{Ch4Data, Fixture, FreebaseFixture};
use keybridge_core::{render_natural, sqak_score, BindingAtom, KeywordQuery};
use keybridge_core::{ProbabilityConfig, ScoredInterpretation, TemplatePrior};
use keybridge_datagen::{CategoryKind, WorkloadQuery, YagoConfig, YagoOntology};
use keybridge_divq::EvalItem;
use keybridge_divq::{alpha_ndcg_w, diversify, jaccard, ws_recall, DivItem, DiversifyConfig};
use keybridge_freeq::{qco, qco_efficiency, FreeQSession, FreeQSessionConfig, LazyExplorer};
use keybridge_freeq::{LazyInterpretation, SchemaOntology, TraversalConfig};
use keybridge_iqp::{brute_force_plan, greedy_plan, median, quartiles, ConstructionSession};
use keybridge_iqp::{PlanProblem, SessionConfig, SimConfig, SimSpace, TimeModel};
use keybridge_relstore::{Database, TableId};
use keybridge_yagof::{category_kind_distribution, combine, evaluate_matching, instance_histogram};
use keybridge_yagof::{match_categories, shared_instance_distribution, MatchConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One printed table: `|`-separated header and rows, the first cell of each
/// row its label. `key` prefixes the keys of its cells under the entry id
/// (`imdb.a0_99`, or `""`); `note` follows the entry's title.
#[derive(Clone, Debug)]
pub struct Table {
    pub key: String,
    pub note: String,
    pub header: String,
    pub rows: Vec<String>,
}

fn table(note: String, key: &str, header: &str, rows: Vec<String>) -> Table {
    let (key, header) = (key.to_owned(), header.to_owned());
    Table {
        key,
        note,
        header,
        rows,
    }
}

/// The number a cell writes: `+1.89%` → `1.89`, `3.4x` → `3.4`. It does
/// not parse for text, nor for a clock (`0.52 ms`).
fn numeric(cell: &str) -> &str {
    cell.trim_start_matches('+').trim_end_matches(['%', 'x'])
}

/// The number a claim reads from a cell, clocks included; NaN for text.
fn value(cell: &str) -> f64 {
    let number = numeric(cell.trim_end_matches(" ms"));
    number.parse().unwrap_or(f64::NAN)
}

/// What an entry returns: its tables, in print order.
#[derive(Clone, Debug, Default)]
pub struct Rows(pub Vec<Table>);

impl Rows {
    /// Column `col` of the table keyed `key`, one value per row (NaN for
    /// text); empty when either is absent.
    pub fn col(&self, key: &str, col: &str) -> Vec<f64> {
        let t = self.0.iter().find(|t| t.key == key);
        let i = t.and_then(|t| t.header.split('|').position(|h| h == col));
        let (Some(t), Some(i)) = (t, i) else {
            return Vec::new();
        };
        let cell = |r: &String| value(r.split('|').nth(i).unwrap_or(""));
        t.rows.iter().map(cell).collect()
    }

    /// The value in column `col` of the row labelled `label`; NaN if absent.
    pub fn at(&self, key: &str, label: &str, col: &str) -> f64 {
        let t = self.0.iter().find(|t| t.key == key);
        let labelled = |r: &String| r.split('|').next() == Some(label);
        let row = t.and_then(|t| t.rows.iter().position(labelled));
        let value = row.and_then(|i| self.col(key, col).get(i).copied());
        value.unwrap_or(f64::NAN)
    }

    fn noted(mut self, note: String) -> Rows {
        self.0.iter_mut().for_each(|t| t.note.clone_from(&note));
        self
    }
}

/// An entry's one table, its cells keyed directly under the entry id.
fn single(header: &str, rows: impl IntoIterator<Item = String>) -> Rows {
    let rows = rows.into_iter().collect();
    Rows(vec![table(String::new(), "", header, rows)])
}

/// One table per dataset, keyed and noted by it.
fn each(fx: &Fixtures, header: &str, rows: impl Fn(&Dataset) -> Vec<String>) -> Rows {
    let table = |d: &Dataset| table(format!("({})", d.fixture.name), d.key, header, rows(d));
    Rows(fx.datasets().iter().map(table).collect())
}

/// True when `values` is non-empty and every value satisfies `pred`, so a
/// missing table or column never passes.
fn every(values: Vec<f64>, pred: impl Fn(f64) -> bool) -> bool {
    !values.is_empty() && values.into_iter().all(pred)
}

/// True when `pred` holds for every pair of consecutive values.
fn pairwise(values: Vec<f64>, pred: impl Fn(f64, f64) -> bool) -> bool {
    values.len() >= 2 && values.windows(2).all(|w| pred(w[0], w[1]))
}

/// `pred(a[i], b[i])` for every row (both columns present and equally long).
fn rowwise(a: Vec<f64>, b: Vec<f64>, pred: impl Fn(f64, f64) -> bool) -> bool {
    !a.is_empty() && a.len() == b.len() && a.into_iter().zip(b).all(|(a, b)| pred(a, b))
}

/// Dataset keys of the chapter 3 and 4 entries.
const DATASETS: [&str; 2] = ["imdb", "lyrics"];

/// A finding as a predicate over an entry's rows.
pub struct Claim {
    pub finding: &'static str,
    pub holds: fn(&Rows) -> bool,
}

/// One table or figure of the paper.
pub struct Entry {
    pub id: &'static str,
    pub title: &'static str,
    /// The paper's finding; one `Divergence:` line where it does not
    /// reproduce.
    pub doc: &'static str,
    pub run: fn(&Fixtures) -> Rows,
    pub claims: &'static [Claim],
}

/// An evaluation dataset and its §4.6.1 query sets: the 25 most ambiguous
/// sc and mc queries under the chapter 4 probabilities (partials visible in
/// the pool, §4.4.2).
pub struct Dataset {
    pub key: &'static str,
    pub fixture: Fixture,
    pub sc: Vec<Ch4Data>,
    pub mc: Vec<Ch4Data>,
}

impl Dataset {
    fn new(key: &'static str, fixture: Fixture) -> Dataset {
        let interp = fixture.interpreter(divq_prob(), TemplatePrior::Uniform);
        let (sc, mc) = ch4_query_set(&fixture, &interp, 25);
        Dataset {
            key,
            fixture,
            sc,
            mc,
        }
    }
}

/// The probabilities of chapter 4.
fn divq_prob() -> ProbabilityConfig {
    ProbabilityConfig {
        unmapped_prob: 1e-4,
        ..Default::default()
    }
}

/// The fixtures the entries share, each built on first use. `quick` picks
/// the chapter 5 shapes, which bound what `smoke` costs on every run.
#[derive(Default)]
pub struct Fixtures {
    pub quick: bool,
    datasets: OnceLock<[Dataset; 2]>,
    fb1800: OnceLock<FreebaseFixture>,
    fb7000: OnceLock<FreebaseFixture>,
    fb61: OnceLock<FreebaseFixture>,
    yago: OnceLock<YagoOntology>,
}

impl Fixtures {
    /// IMDB (seed 21) and Lyrics (seed 22).
    pub fn datasets(&self) -> &[Dataset; 2] {
        let imdb = || Dataset::new("imdb", imdb_fixture(21));
        let lyrics = || Dataset::new("lyrics", lyrics_fixture(22));
        self.datasets.get_or_init(|| [imdb(), lyrics()])
    }

    /// The 1,800-table Freebase schema of Table 5.3.
    pub fn freebase_1800(&self) -> &FreebaseFixture {
        let build = || freebase_fixture(60, 30, 20_000, 43);
        self.fb1800.get_or_init(build)
    }

    /// The schema of Figs. 5.4–5.5 and Table 5.2: 7,000 tables, or the
    /// 1,800-table one on the quick profile.
    pub fn freebase_large(&self) -> &FreebaseFixture {
        let build = || freebase_fixture(100, 70, 60_000, 41);
        match self.quick {
            true => self.freebase_1800(),
            false => self.fb7000.get_or_init(build),
        }
    }

    /// The Freebase side of chapter 6 (seed 61).
    pub fn freebase_61(&self) -> &FreebaseFixture {
        let build = || freebase_fixture(50, 20, 20_000, 61);
        self.fb61.get_or_init(build)
    }

    /// `freebase_61`'s YAGO-like ontology of 3,000 leaf categories with
    /// `coverage` and `noise`.
    fn yago_with(&self, coverage: f64, noise: f64) -> YagoOntology {
        let cfg = YagoConfig {
            leaf_categories: 3000,
            coverage,
            noise,
            ..YagoConfig::default()
        };
        YagoOntology::generate(cfg, &self.freebase_61().fb)
    }

    /// The default YAGO-like ontology of chapter 6.
    pub fn yago(&self) -> &YagoOntology {
        let base = YagoConfig::default();
        self.yago
            .get_or_init(|| self.yago_with(base.coverage, base.noise))
    }

    /// The heap model of every shared fixture's database that was built, as
    /// `fixture.<name>.heap_bytes` cells: pure numbers, so a representation
    /// that blows up on one of these schemas moves a key, not only a clock.
    fn heap_cells(&self) -> Vec<(String, String)> {
        let datasets = self.datasets.get().into_iter().flatten();
        let datasets = datasets.map(|d| (d.key, &d.fixture.db));
        let freebase = [
            ("freebase1800", &self.fb1800),
            ("freebase7000", &self.fb7000),
            ("freebase61", &self.fb61),
        ];
        let freebase = freebase
            .into_iter()
            .filter_map(|(key, fb)| Some((key, &fb.get()?.fb.db)));
        let heap = |(key, db): (&str, &Database)| {
            let bytes = db.approx_heap_bytes();
            (format!("fixture.{key}.heap_bytes"), bytes.to_string())
        };
        datasets.chain(freebase).map(heap).collect()
    }
}

/// Run every entry over shared fixtures, print each table and each claim
/// in entry order, and return the written cells as `(key, value)` pairs —
/// the entries', then each fixture's heap model — and the failures (each
/// names its entry id).
///
/// Two workers run the entries: one chapters 3–4, over the IMDB and Lyrics
/// fixtures, and one chapters 5–6, over the Freebase ones.
pub fn run(quick: bool) -> (Vec<(String, String)>, Vec<String>) {
    let fixtures = Fixtures {
        quick,
        ..Default::default()
    };
    let run = |es: &[Entry]| es.iter().map(|e| (e.run)(&fixtures)).collect::<Vec<_>>();
    let ch5 = ENTRIES.iter().position(|e| &e.id[3..4] == "5");
    let (ch3_4, ch5_6) = ENTRIES.split_at(ch5.unwrap_or(ENTRIES.len()));
    let (mut all, ch5_6) = std::thread::scope(|s| {
        let ch5_6 = s.spawn(|| run(ch5_6));
        (run(ch3_4), ch5_6.join())
    });
    all.extend(ch5_6.expect("the chapter 5-6 worker finishes"));
    let (mut fields, mut failures) = (Vec::new(), Vec::new());
    for (entry, rows) in ENTRIES.iter().zip(all) {
        for t in &rows.0 {
            let title = format!("{} {}", entry.title, t.note);
            let split = |r: &String| r.split('|').map(String::from).collect();
            let cells: Vec<Vec<String>> = t.rows.iter().map(split).collect();
            let header: Vec<&str> = t.header.split('|').collect();
            print_table(title.trim_end(), &header, &cells);
        }
        for claim in entry.claims {
            let verdict = ["FAILS", "holds"][(claim.holds)(&rows) as usize];
            println!("  [{}] {verdict}: {}", entry.id, claim.finding);
        }
        if let Some(line) = entry.doc.lines().find(|l| l.starts_with("Divergence:")) {
            println!("  [{}] {line}", entry.id);
        }
        let (f, e) = verdict(entry, &rows);
        fields.extend(f);
        failures.extend(e);
    }
    fields.extend(fixtures.heap_cells());
    (fields, failures)
}

/// Snapshot key form of a header or label: its ASCII alphanumeric runs,
/// lowercase, joined by `_`.
fn key_of(s: &str) -> String {
    let words = s.split(|c: char| !c.is_ascii_alphanumeric());
    let words: Vec<&str> = words.filter(|w| !w.is_empty()).collect();
    words.join("_").to_ascii_lowercase()
}

/// The cells `entry` writes, and its failures: each claim that does not
/// hold on `rows`, and each written cell that is not a finite number (it
/// would not be valid JSON) or repeats a key. Every number after a row's
/// label is written.
pub fn verdict(entry: &Entry, rows: &Rows) -> (Vec<(String, String)>, Vec<String>) {
    let id = entry.id;
    let failed = entry.claims.iter().filter(|c| !(c.holds)(rows));
    let failed = failed.map(|c| format!("paper {id}: claim failed: {}", c.finding));
    let (mut failures, mut fields): (Vec<_>, Vec<(String, String)>) = (failed.collect(), vec![]);
    for t in &rows.0 {
        let header: Vec<&str> = t.header.split('|').collect();
        for row in &t.rows {
            let cells: Vec<&str> = row.split('|').collect();
            let mut label = key_of(cells[0]);
            if label.starts_with(|c: char| c.is_ascii_digit()) {
                label = key_of(header[0]) + &label;
            }
            for (cell, head) in cells.iter().zip(&header).skip(1) {
                let Ok(value) = numeric(cell).parse::<f64>() else {
                    continue;
                };
                // An empty table key drops out of the dotted key.
                let key = format!("{id}.{}.{label}.{}", t.key, key_of(head)).replace("..", ".");
                if !value.is_finite() {
                    failures.push(format!("paper {id}: non-finite cell {key} = {cell:?}"));
                } else if fields.iter().any(|(k, _)| *k == key) {
                    failures.push(format!("paper {id}: duplicate cell key {key}"));
                } else {
                    fields.push((key, numeric(cell).to_owned()));
                }
            }
        }
    }
    (fields, failures)
}

fn fig3_5(fx: &Fixtures) -> Rows {
    each(fx, "estimate|mean cost|max cost|cost<10", |d| {
        let f = &d.fixture;
        let (atf, uniform) = (ProbabilityConfig::default(), TemplatePrior::Uniform);
        let interps = [
            f.interpreter(ProbabilityConfig::baseline(), uniform.clone()),
            f.interpreter(atf, uniform),
            f.interpreter(atf, f.usage_prior()),
        ];
        let mut costs = [(); 3].map(|_| Vec::new());
        for q in &f.workload.queries {
            let steps = interps.iter().map(|i| Some(f.evaluate(i, q)?.steps as f64));
            if let Some(steps) = steps.collect::<Option<Vec<_>>>() {
                costs.iter_mut().zip(steps).for_each(|(c, s)| c.push(s));
            }
        }
        let names = ["Baseline", "(ATF, Tequal)", "(ATF, TLog)"];
        let summary = names.iter().zip(&costs).map(|(name, c)| {
            let below10 = c.iter().filter(|&&x| x < 10.0).count() as f64 / c.len().max(1) as f64;
            let max = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            format!("{name}|{:.2}|{max:.0}|{:.0}%", mean(c), below10 * 100.0)
        });
        summary.collect()
    })
}

fn fig3_6(fx: &Fixtures) -> Rows {
    each(fx, "interface|n|min|q1|median|q3|max", |d| {
        let f = &d.fixture;
        let interp = f.interpreter(ProbabilityConfig::default(), TemplatePrior::Uniform);
        let [mut sqak, mut iqp, mut cons] = [(); 3].map(|_| Vec::new());
        for q in &f.workload.queries {
            let Some(eval) = f.evaluate(&interp, q) else {
                continue;
            };
            iqp.push(eval.rank as f64);
            cons.push(eval.steps as f64);
            // Re-rank the same interpretation space with the SQAK scorer.
            let (db, index, catalog, intent) = (&f.db, &f.index, &f.catalog, f.intent(q));
            let interps = eval.ranked.iter().map(|s| &s.interpretation);
            let scored = interps.map(|i| (sqak_score(index, catalog, i), i));
            let mut scored: Vec<_> = scored.collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            let hit = scored.iter().position(|s| intent.matches(s.1, db, catalog));
            sqak.extend(hit.map(|pos| (pos + 1) as f64));
        }
        let stat = |(name, mut v): (&str, Vec<f64>)| {
            let (q1, med, q3) = quartiles(&mut v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let n = v.len();
            format!("{name}|{n}|{min:.0}|{q1:.1}|{med:.1}|{q3:.1}|{max:.0}")
        };
        let rows = [("Rank (SQAK)", sqak), ("Rank (IQP)", iqp)].into_iter();
        let rows = rows.chain([("Construction (IQP)", cons)]);
        rows.map(stat).collect()
    })
}

fn query(q: &WorkloadQuery) -> KeywordQuery {
    KeywordQuery::from_terms(q.keywords.clone())
}

fn fig3_7(fx: &Fixtures) -> Rows {
    let f = &fx.datasets()[0].fixture;
    let interp = f.interpreter(ProbabilityConfig::default(), TemplatePrior::Uniform);
    let model = TimeModel::default();
    // Ranked lists of the most ambiguous queries, reused across categories.
    let ranked = |q| interp.ranked_interpretations(&query(q));
    let mut spaces: Vec<_> = f.workload.queries.iter().map(ranked).collect();
    spaces.retain(|r| r.len() >= 40);
    spaces.sort_by_key(|r| std::cmp::Reverse(r.len()));
    let mut rows = Vec::new();
    for cat in [0usize, 1, 2, 3, 4, 6, 11] {
        let target_rank = cat * 20 + 10;
        let (mut rank_times, mut cons_times) = (Vec::new(), Vec::new());
        for ranked in spaces.iter().filter(|r| r.len() > target_rank).take(6) {
            let target = &ranked[target_rank - 1].interpretation;
            let mut session =
                ConstructionSession::new(&f.catalog, ranked, SessionConfig::default());
            while session.remaining().len() > 5 {
                let Some(option) = session.next_option(&f.catalog) else {
                    break;
                };
                let accept = option.subsumed_by(target, &f.catalog);
                session.apply(&f.catalog, option, accept);
            }
            let (steps, left) = (session.steps(), session.remaining());
            let t = model.task(Some(target_rank), steps, left.len());
            rank_times.push(t.ranking_s);
            // A lost target means the user falls back to scanning (timeout).
            let retained = left.iter().any(|(c, _)| c == target);
            cons_times.push(if retained { t.construction_s } else { 600.0 });
        }
        if let n @ 1.. = rank_times.len() {
            let (rm, cm) = (median(&mut rank_times), median(&mut cons_times));
            let winner = if rm <= cm { "ranking" } else { "construction" };
            rows.push(format!("{cat}|{n}|{rm:.0}|{cm:.0}|{winner}"));
        }
    }
    let (base, item, option) = (model.base_s, model.per_rank_item_s, model.per_option_s);
    let note = format!("(base {base:.0}s, {item:.1}s per ranked item, {option:.0}s per option)");
    single("category|tasks|ranking s|construction s|winner", rows).noted(note)
}

/// A §3.8.5 simulation setting: `(x, threshold, seed)` → configuration.
type SimOf = fn(usize, usize, u64) -> SimConfig;

/// The §3.8.5 simulation over `sweep` (20 runs per cell): the
/// interpretation-space size and, per threshold 10/20/30, the mean options
/// evaluated and the time per option (a clock).
fn greedy_sim(label: &str, sweep: [usize; 5], cfg: SimOf, seed: u64) -> Rows {
    let mut rows = Vec::new();
    for x in sweep {
        let mut row = x.to_string();
        for threshold in [10usize, 20, 30] {
            let (mut steps, mut time, mut completed, mut space) = (0, Duration::ZERO, 0, 0);
            for run in 0..20u64 {
                let sim = SimSpace::generate(cfg(x, threshold, run));
                if let Some(report) = sim.run_construction(seed + run) {
                    space = report.space_size;
                    steps += report.steps;
                    time += report.option_time;
                    completed += 1;
                }
            }
            if threshold == 10 {
                row += &format!("|{space}");
            }
            let per_step = time.as_secs_f64() * 1000.0 / steps.max(1) as f64;
            let mean_steps = steps as f64 / completed.max(1) as f64;
            row += &format!("|{mean_steps:.0}|{per_step:.2} ms");
        }
        rows.push(row);
    }
    let t = |t| format!("T={t} steps|T={t} t/step");
    let header = format!("{label}|#queries|{}|{}|{}", t(10), t(20), t(30));
    single(&header, rows)
}

fn tab3_4(_: &Fixtures) -> Rows {
    let mut rows = Vec::new();
    for (m, n) in [(8usize, 4usize), (12, 6), (16, 8), (20, 10), (24, 12)] {
        let (mut bf, mut gr) = (0.0, 0.0);
        for seed in 0..20u64 {
            let problem = PlanProblem::random(m, n, seed * 31 + m as u64);
            bf += brute_force_plan(&problem).1;
            gr += greedy_plan(&problem).1;
        }
        let (bf, gr) = (bf / 20.0, gr / 20.0);
        let gap = (gr / bf - 1.0) * 100.0;
        rows.push(format!("{m}|{n}|{bf:.6}|{gr:.6}|{gap:+.2}%"));
    }
    let header = "#structured queries|#construction options|brute force cost|greedy cost|gap";
    single(header, rows)
}

/// Alg. 4.1 over a pool of relevances and atom sets: the diversified order
/// of its top `k`.
fn diversified(relevance: &[f64], atoms: &[Atoms], lambda: f64, k: usize) -> Vec<usize> {
    let item = |(&relevance, atoms): (&f64, &Atoms)| {
        let atoms = Arc::new(atoms.clone());
        DivItem { relevance, atoms }
    };
    let items: Vec<DivItem> = relevance.iter().zip(atoms).map(item).collect();
    diversify(&items, DiversifyConfig { lambda, k })
}

type Atoms = BTreeSet<BindingAtom>;

/// Cut-off of the ch. 4 quality curves.
const K: usize = 10;

const CURVE_HEADER: &str = "k|Rank sc|Div sc|Rank mc|Div mc";

/// The rows of one ch. 4 quality table: `metric(order, pool)` at
/// k = 1..K for the ranking order and the diversified order (λ = 0.1),
/// averaged over `d`'s sc and mc query sets.
fn curve_rows(d: &Dataset, metric: impl Fn(&[EvalItem], &[EvalItem]) -> Vec<f64>) -> Vec<String> {
    let curves = |queries: &[Ch4Data]| {
        let mut sums = [[0.0; K]; 2];
        for d in queries {
            let pool = d.eval_items();
            let order = diversified(&d.probs, &d.atoms, 0.1, pool.len());
            let div: Vec<_> = order.iter().map(|&i| pool[i].clone()).collect();
            for (sum, order) in sums.iter_mut().zip([&pool, &div]) {
                for (s, v) in sum.iter_mut().zip(metric(order, &pool)) {
                    *s += v;
                }
            }
        }
        sums.map(|s| s.map(|x| x / queries.len().max(1) as f64))
    };
    let ([rs, ds], [rm, dm]) = (curves(&d.sc), curves(&d.mc));
    let row = |i: usize| [rs[i], ds[i], rm[i], dm[i]].map(|v| format!("|{v:.3}"));
    let rows = (0..K).map(|i| format!("{}{}", i + 1, row(i).concat()));
    rows.collect()
}

fn fig4_1(fx: &Fixtures) -> Rows {
    each(fx, "rank|queries|max PR|avg PR", |d| {
        let (sc, mc) = (&d.sc, &d.mc);
        let mut rows = Vec::new();
        for rank in 2..=25usize {
            let ratio = |q: &Ch4Data| {
                let prefix: f64 = q.probs.get(..rank - 1)?.iter().sum();
                (q.probs.len() >= rank && prefix > 0.0).then(|| q.probs[rank - 1] / prefix)
            };
            let ratios: Vec<f64> = sc.iter().chain(mc).filter_map(ratio).collect();
            if let n @ 1.. = ratios.len() {
                let max = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                rows.push(format!("{rank}|{n}|{max:.4}|{:.4}", mean(&ratios)));
            }
        }
        rows
    })
}

fn fig4_2(fx: &Fixtures) -> Rows {
    let mut tables = Vec::new();
    for d in fx.datasets() {
        let (name, sc, mc) = (d.fixture.name, d.sc.len(), d.mc.len());
        for (alpha, key) in [(0.0, "a0"), (0.5, "a0_5"), (0.99, "a0_99")] {
            let rows = curve_rows(d, |o, p| alpha_ndcg_w(o, p, alpha, K));
            let note = format!("({name}, α = {alpha}, {sc} sc, {mc} mc queries)");
            tables.push(table(note, &format!("{}.{key}", d.key), CURVE_HEADER, rows));
        }
    }
    Rows(tables)
}

fn fig4_4(fx: &Fixtures) -> Rows {
    each(fx, "lambda|avg relevance@10|avg novelty@10", |d| {
        let (sc, mc) = (&d.sc, &d.mc);
        let mut rows = Vec::new();
        for step in 0..=10 {
            let lambda = step as f64 / 10.0;
            let (mut rels, mut novelties) = (Vec::new(), Vec::new());
            for q in sc.iter().chain(mc) {
                let order = diversified(&q.probs, &q.atoms, lambda, 10);
                if order.len() < 2 {
                    continue;
                }
                let rel: Vec<f64> = order.iter().map(|&i| q.relevance[i]).collect();
                rels.push(mean(&rel));
                let mut sims = Vec::new();
                for (n, &i) in order.iter().enumerate() {
                    let sim = |&j: &usize| jaccard(&q.atoms[i], &q.atoms[j]);
                    sims.extend(order[n + 1..].iter().map(sim));
                }
                novelties.push(1.0 - mean(&sims));
            }
            let (rel, novelty) = (mean(&rels), mean(&novelties));
            rows.push(format!("{lambda:.1}|{rel:.3}|{novelty:.3}"));
        }
        rows
    })
}

fn tab4_1(fx: &Fixtures) -> Rows {
    let f = &fx.datasets()[0].fixture;
    let interp = f.interpreter(divq_prob(), TemplatePrior::Uniform);
    // The most ambiguous multi-concept query = largest interpretation space
    // (the first of the largest).
    let spaces = f.workload.multi_concept();
    let spaces = spaces.map(|q| (interp.ranked_with_partials(&query(q)), q));
    let largest = spaces.min_by_key(|(ranked, _)| std::cmp::Reverse(ranked.len()));
    let (mut ranked, q) = largest.expect("the workload has multi-concept queries");
    // The paper diversifies the top-25 cut justified by Fig. 4.1.
    let n = ranked.len();
    ranked.truncate(25);
    let atoms = |s: &ScoredInterpretation| Atoms::from_iter(s.interpretation.atoms(&f.catalog));
    let atoms: Vec<Atoms> = ranked.iter().map(atoms).collect();
    let probs: Vec<f64> = ranked.iter().map(|s| s.probability).collect();
    let div = diversified(&probs, &atoms, 0.1, 3);
    let cell = |i: usize| {
        let text = render_natural(&f.db, &f.catalog, &ranked[i].interpretation);
        format!("{:.3}|{text}", ranked[i].probability)
    };
    let rows = div.iter().enumerate().take(3);
    let rows = rows.map(|(i, &d)| format!("{}|{}|{}", i + 1, cell(i), cell(d)));
    let query = q.keywords.join(" ");
    let note = format!("for \"{query}\" ({n} interpretations, top-25 kept)");
    single("rank|rank rel|ranking|div rel|diversification", rows).noted(note)
}

fn explorer(fb: &FreebaseFixture, top_n: usize, per_keyword_candidates: usize) -> LazyExplorer<'_> {
    let cfg = TraversalConfig {
        top_n,
        per_keyword_candidates,
        ..Default::default()
    };
    LazyExplorer::new(&fb.fb.db, &fb.index, cfg)
}

/// A sampled query's lazy traversal (`None` under ten interpretations), and
/// the target a user intends: the type tables of a low-probability one,
/// where ranking fails and construction must help.
type Intended = (Vec<LazyInterpretation>, Vec<TableId>);

fn intended(explorer: &LazyExplorer<'_>, keywords: Vec<String>) -> Option<Intended> {
    let tops = explorer.top_interpretations(&KeywordQuery::from_terms(keywords));
    let target = tops.get(tops.len() * 3 / 4).filter(|_| tops.len() >= 10)?;
    let targets = target.bindings.iter().map(|a| a.table).collect();
    Some((tops, targets))
}

/// Options a full session evaluates before it isolates the target.
fn session_cost(onto: Option<&SchemaOntology>, (tops, targets): &Intended) -> Option<f64> {
    let session = FreeQSession::new(onto, tops.clone(), FreeQSessionConfig::default());
    Some(session.run_with_target(targets)?.steps as f64)
}

fn shape(fb: &FreebaseFixture) -> String {
    let (tables, domains) = (fb.fb.type_table_count(), fb.fb.domains.len());
    let rows = fb.fb.db.total_rows();
    format!("({tables} type tables over {domains} domains, {rows} rows)")
}

fn fig5_2(fx: &Fixtures) -> Rows {
    let shapes = [(10usize, 10usize), (25, 20), (40, 25), (50, 40), (80, 50)];
    let mut rows = Vec::new();
    // The quick profile stops at 500 tables.
    let sweep = &shapes[..if fx.quick { 2 } else { 5 }];
    for (di, &(domains, types)) in sweep.iter().enumerate() {
        let fb = freebase_fixture(domains, types, 3000 + domains * 40, 30 + di as u64);
        let mut rng = StdRng::seed_from_u64(99 + di as u64);
        let [mut eff_plain, mut eff_onto, mut cost_plain, mut cost_onto] = [(); 4].map(|_| vec![]);
        let explorer = explorer(&fb, 400, 64);
        let queries = (0..8).filter_map(|_| fb.sample_query(2, &mut rng));
        for run in queries.filter_map(|(k, _)| intended(&explorer, k)) {
            let tops = &run.0;
            let probs = LazyInterpretation::normalize(tops);
            // Efficiency of the best available option under each regime.
            let best_eff = |onto| {
                let options = qco::derive_options(tops, onto).into_iter();
                let effs = options.map(|o| qco_efficiency(o, tops, &probs, onto));
                effs.fold(0.0f64, f64::max)
            };
            eff_plain.push(best_eff(None));
            eff_onto.push(best_eff(Some(&fb.ontology)));
            cost_plain.extend(session_cost(None, &run));
            cost_onto.extend(session_cost(Some(&fb.ontology), &run));
        }
        let [ep, eo, cp, co] = [eff_plain, eff_onto, cost_plain, cost_onto].map(|v| mean(&v));
        let tables = domains * types;
        rows.push(format!("{tables}|{ep:.2}|{eo:.2}|{cp:.1}|{co:.1}"));
    }
    let header = "#tables|eff plain|eff ontology|cost plain|cost ontology";
    single(header, rows)
}

fn fig5_4(fx: &Fixtures) -> Rows {
    let fb = fx.freebase_large();
    let mut rng = StdRng::seed_from_u64(42);
    let mut rows = Vec::new();
    // Three keywords at top-600 cost more than the rest of chapter 5 on
    // the quick profile: full profile only.
    for kw in 1..=if fx.quick { 2 } else { 3 } {
        let (mut plain, mut onto, mut spaces) = (Vec::new(), Vec::new(), Vec::new());
        let mut attempts = 0;
        while plain.len() < 10 && attempts < 60 {
            attempts += 1;
            let Some((keywords, _)) = fb.sample_query(kw, &mut rng) else {
                break;
            };
            let explorer = explorer(fb, 600, 128);
            let query = KeywordQuery::from_terms(keywords.clone());
            let Some(run) = intended(&explorer, keywords) else {
                continue;
            };
            spaces.push(explorer.space_size(&query) as f64);
            let costs = [None, Some(&fb.ontology)].map(|onto| session_cost(onto, &run));
            if let [Some(p), Some(o)] = costs {
                plain.push(p);
                onto.push(o);
            }
        }
        let (n, space, p, o) = (plain.len(), mean(&spaces), mean(&plain), mean(&onto));
        let speedup = p / o.max(1e-9);
        rows.push(format!("{kw}|{n}|{space:.0}|{p:.1}|{o:.1}|{speedup:.1}x"));
    }
    let header = "#keywords|queries|avg space|plain cost|ontology cost|speedup";
    single(header, rows).noted(shape(fb))
}

fn fig5_5(fx: &Fixtures) -> Rows {
    let fb = fx.freebase_large();
    let mut rng = StdRng::seed_from_u64(17);
    let mut rows = Vec::new();
    for top_n in [100usize, 200, 400, 800] {
        let [mut traversal_ms, mut option_ms, mut produced] = [(); 3].map(|_| Vec::new());
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1000.0;
        let explorer = explorer(fb, top_n, 128);
        for (keywords, _) in (0..6).filter_map(|_| fb.sample_query(2, &mut rng)) {
            let (t0, query) = (Instant::now(), KeywordQuery::from_terms(keywords));
            let tops = explorer.top_interpretations(&query);
            traversal_ms.push(ms(t0));
            produced.push(tops.len() as f64);
            if tops.len() < 5 {
                continue;
            }
            // Time the first five option generations of a session, each
            // rejected to keep the session moving.
            let config = FreeQSessionConfig::default();
            let mut session = FreeQSession::new(Some(&fb.ontology), tops, config);
            for _ in 0..5 {
                let t1 = Instant::now();
                let Some(option) = session.next_option() else {
                    break;
                };
                option_ms.push(ms(t1));
                session.apply(option, false);
                if session.remaining().len() <= 1 {
                    break;
                }
            }
        }
        let (p, t, o) = (mean(&produced), mean(&traversal_ms), mean(&option_ms));
        rows.push(format!("{top_n}|{p:.0}|{t:.2} ms|{o:.2} ms"));
    }
    single("top-N|materialized|traversal|option-gen", rows).noted(shape(fb))
}

fn tab5_2(fx: &Fixtures) -> Rows {
    let fb = fx.freebase_large();
    let mut rng = StdRng::seed_from_u64(5);
    let explorer = explorer(fb, 300, 128);
    let mut rows = Vec::new();
    // Four keywords alone take ~11 s at 7,000 tables: full profile only.
    for kw in 1..=if fx.quick { 3 } else { 4 } {
        let (mut spaces, mut materialized) = (Vec::new(), Vec::new());
        for (keywords, _) in (0..10).filter_map(|_| fb.sample_query(kw, &mut rng)) {
            let query = KeywordQuery::from_terms(keywords);
            spaces.push(explorer.space_size(&query) as f64);
            materialized.push(explorer.top_interpretations(&query).len() as f64);
        }
        let (n, space, m) = (spaces.len(), mean(&spaces), mean(&materialized));
        rows.push(format!("{kw}|{n}|{space:.2e}|{m:.0}"));
    }
    single("#keywords|queries|avg space size|materialized", rows).noted(shape(fb))
}

fn tab5_3(fx: &Fixtures) -> Rows {
    let fb = fx.freebase_1800();
    let mut domains = Vec::new();
    for d in &fb.fb.domains {
        domains.push((d.name.clone(), d.tables.clone()));
    }
    let variants = [
        ("flat (domains)", SchemaOntology::from_domains(&domains)),
        ("grouped x3", SchemaOntology::with_groups(&domains, 3)),
        ("grouped x10", SchemaOntology::with_groups(&domains, 10)),
        ("grouped x20", SchemaOntology::with_groups(&domains, 20)),
    ];
    // A fixed query set reused across variants.
    let mut rng = StdRng::seed_from_u64(44);
    let explorer = explorer(fb, 400, 64);
    let queries = (0..8).filter_map(|_| fb.sample_query(2, &mut rng));
    let runs = queries.filter_map(|(k, _)| intended(&explorer, k));
    let runs: Vec<_> = runs.collect();
    let rows = variants.iter().map(|(name, o)| {
        let costs = runs.iter().filter_map(|r| session_cost(Some(o), r));
        let costs: Vec<f64> = costs.collect();
        let (concepts, depth, fanout) = (o.len(), o.max_depth(), o.avg_fanout());
        let (tables, cost) = (o.table_count(), mean(&costs));
        format!("{name}|{concepts}|{depth}|{fanout:.1}|{tables}|{cost:.1}")
    });
    let header = "ontology|concepts|depth|avg fanout|tables|session cost";
    single(header, rows).noted(shape(fb))
}

fn fig6_2(fx: &Fixtures) -> Rows {
    let shared = shared_instance_distribution(fx.yago(), &fx.freebase_61().fb);
    let rows = shared.into_iter().map(|(d, n)| format!("{d}|{n}"));
    single("#domains|#shared instances", rows)
}

fn fig6_4(fx: &Fixtures) -> Rows {
    // Harder than the default generator: categories cover only half of
    // their table and carry 30% noise, so matches are confusable.
    let yago = fx.yago_with(0.5, 0.3);
    // A category's best table does not depend on the threshold, which only
    // drops the matches scoring below it: match once, filter per step.
    let config = MatchConfig {
        threshold: 0.0,
        min_overlap: 3,
    };
    let all = match_categories(&yago, &fx.freebase_61().fb, config);
    let rows = (0..=9).map(|step| {
        let threshold = 0.05 + step as f64 * 0.1;
        let matches = all.iter().filter(|m| m.score >= threshold).cloned();
        let matches: Vec<_> = matches.collect();
        let q = evaluate_matching(&matches, &yago.gold);
        let (n, correct, p, r, f1) = (q.produced, q.correct, q.precision, q.recall, q.f1);
        format!("{threshold:.2}|{n}|{correct}|{p:.3}|{r:.3}|{f1:.3}")
    });
    single("threshold|matches|correct|precision|recall|F1", rows)
}

fn tab6_1(fx: &Fixtures) -> Rows {
    let yago = fx.yago();
    let rows = category_kind_distribution(yago).into_iter().map(|r| {
        let (kind, avg) = (r.kind.label(), r.avg_instances);
        format!("{kind}|{}|{}|{avg:.1}", r.categories, r.instance_links)
    });
    let (categories, instances) = (yago.categories.len(), yago.distinct_instances());
    let note = format!("({categories} categories, {instances} distinct instances)");
    single("kind|categories|instance links|avg instances", rows).noted(note)
}

fn tab6_2(fx: &Fixtures) -> Rows {
    let histogram = instance_histogram(fx.yago());
    let rows = histogram.into_iter().map(|(bound, cats, links)| {
        let size = match bound {
            usize::MAX => "over 1024".to_owned(),
            b => format!("up to {b}"),
        };
        format!("{size}|{cats}|{links}")
    });
    single("category size|categories|instance links", rows)
}

fn tab6_3(fx: &Fixtures) -> Rows {
    use CategoryKind::{Administrative, Conceptual, Relational, Thematic};
    let (yago, fb) = (fx.yago(), &fx.freebase_61().fb);
    let yf = combine(&match_categories(yago, fb, MatchConfig::default()));
    let s = yf.stats(yago, fb);
    let kind = |k| yf.matched_of_kind(yago, k);
    let rows = [
        format!("leaf categories|{}", yago.leaves().count()),
        format!("matched categories|{}", s.matched_categories),
        format!("of kind conceptual|{}", kind(Conceptual)),
        format!("of kind thematic|{}", kind(Thematic)),
        format!("of kind relational|{}", kind(Relational)),
        format!("of kind administrative|{}", kind(Administrative)),
        format!("attached tables|{}", s.attached_tables),
        format!("table coverage|{:.1}%", s.table_coverage * 100.0),
        format!("instances under matched categories|{}", s.covered_instances),
        format!("instances of attached tables|{}", s.covered_table_instances),
    ];
    single("statistic|value", rows)
}

// The table of entries.

/// `Div − Rank` at k = 10 of `class` (`sc`/`mc`) in the Fig. 4.2 table `key`.
fn div_gain(r: &Rows, key: &str, class: &str) -> f64 {
    r.at(key, "10", &format!("Div {class}")) - r.at(key, "10", &format!("Rank {class}"))
}

/// Every table and figure, in the order `smoke` prints them.
#[rustfmt::skip]
pub const ENTRIES: &[Entry] = &[
    Entry { id: "fig3_5", title: "Fig. 3.5 interaction cost per estimate", run: fig3_5,
        doc: "ATF halves the interaction cost of the uniform baseline; the usage prior (TLog) helps most on Lyrics.\n\
              Divergence: ATF cuts the mean cost by 13% on IMDB (2.02 → 1.75) and 7% on Lyrics (1.66 → 1.55), not by \
              half, and TLog helps IMDB (1.75 → 0.96) more than Lyrics (1.55 → 1.37); cause not isolated.",
        claims: &[Claim { finding: "each refinement lowers the mean cost by >= 5%: Baseline > (ATF, Tequal) > (ATF, TLog), both datasets",
            holds: |r| DATASETS.iter().all(|d| {
                let c = ["Baseline", "(ATF, Tequal)", "(ATF, TLog)"].map(|l| r.at(d, l, "mean cost"));
                c[1] <= 0.95 * c[0] && c[2] <= 0.95 * c[1] }) }] },
    Entry { id: "fig3_6", title: "Fig. 3.6 interaction-cost boxplot", run: fig3_6,
        doc: "IQP ranking has a lower median rank than SQAK, and construction a drastically lower spread than either.",
        claims: &[Claim { finding: "construction's maximum cost is at most half of either ranking's maximum, both datasets",
            holds: |r| DATASETS.iter().all(|d| {
                let max = |l| r.at(d, l, "max");
                2.0 * max("Construction (IQP)") <= max("Rank (SQAK)").min(max("Rank (IQP)")) }) },
        Claim { finding: "IQP ranking's median rank is below SQAK's, both datasets",
            holds: |r| DATASETS.iter().all(|d| r.at(d, "Rank (IQP)", "median") < r.at(d, "Rank (SQAK)", "median")) }] },
    Entry { id: "fig3_7", title: "Fig. 3.7 (IMDB) median task time by complexity category k, intent at rank 20k+10", run: fig3_7,
        doc: "Ranking wins categories 0–2, construction wins from ranks ≈ 40–80, and at category 11 ranking takes ≈ 4x longer.\n\
              Divergence: construction already wins category 2 (66 s vs 70 s), and category 11's ratio is 3.6x.",
        claims: &[Claim { finding: "ranking is faster in categories 0 and 1; construction is faster in every category >= 3",
            holds: |r| {
                let (cats, rank, cons) = (r.col("", "category"), r.col("", "ranking s"), r.col("", "construction s"));
                let won = |(&c, (&rs, &cs)): (&f64, (&f64, &f64))| (c >= 2.0 || rs < cs) && (c < 3.0 || cs < rs);
                cats.len() == rank.len() && cats.iter().filter(|&&c| c >= 3.0).count() >= 4 && cats.iter().zip(rank.iter().zip(&cons)).all(won) } },
        Claim { finding: "at category 11 ranking takes >= 3x as long as construction",
            holds: |r| r.at("", "11", "ranking s") >= 3.0 * r.at("", "11", "construction s") }] },
    Entry { id: "tab3_2", title: "Table 3.2 greedy algorithm vs database size (3 keywords, 20 runs/cell)",
        run: |_| greedy_sim("#tables", [5, 10, 20, 40, 80], |n, t, run| SimConfig::paper(n, 3, t, run), 1000),
        doc: "The space grows polynomially with the table count while steps grow only mildly; thresholds past ≈ 20 stop helping.\n\
              Divergence: `#queries` (the last run's space) is not monotone, 133 at 5 tables and 40 at 10: one sampled schema per cell.",
        claims: &[Claim { finding: "at 80 tables a user evaluates under 2% of the interpretation space, every threshold",
            holds: |r| ["T=10 steps", "T=20 steps", "T=30 steps"].iter().all(|c| r.at("", "80", c) < 0.02 * r.at("", "80", "#queries")) },
        Claim { finding: "past T = 20 the threshold stops helping: T=30 steps are within 2 of T=20 steps on every row",
            holds: |r| rowwise(r.col("", "T=20 steps"), r.col("", "T=30 steps"), |a, b| (a - b).abs() <= 2.0) }] },
    Entry { id: "tab3_3", title: "Table 3.3 greedy algorithm vs number of keywords (10 tables, 20 runs/cell)",
        run: |_| greedy_sim("#keywords", [2, 4, 6, 8, 10], |n, t, run| SimConfig::paper(10, n, t, run), 2000),
        doc: "The interpretation space grows exponentially with the keywords while the options a user evaluates grow only linearly.",
        claims: &[Claim { finding: "per two more keywords the space grows >= 4x while steps grow by <= 4, every threshold",
            holds: |r| pairwise(r.col("", "#queries"), |a, b| b >= 4.0 * a)
                && ["T=10 steps", "T=20 steps", "T=30 steps"].iter().all(|c| pairwise(r.col("", c), |a, b| b >= a && b - a <= 4.0)) }] },
    Entry { id: "tab3_4", title: "Table 3.4 plan cost: brute force vs greedy (20 runs/row)", run: tab3_4,
        doc: "Greedy information-gain plans cost only slightly more than brute-force optimal ones.",
        claims: &[Claim { finding: "greedy plan cost is 0–3% above the brute-force optimum on every row",
            holds: |r| every(r.col("", "gap"), |g| (0.0..=3.0).contains(&g)) }] },
    Entry { id: "fig4_1", title: "Fig. 4.1 probability ratio PR_i = P(Q_i|K) / Σ_{j<i} P(Q_j|K) by rank", run: fig4_1,
        doc: "The ratio collapses quickly (≈ 0.01 by rank 10), justifying the top-25 cut.\n\
              Divergence: the average ratio at rank 10 is 0.054 on IMDB and 0.034 on Lyrics, not ≈ 0.01.",
        claims: &[Claim { finding: "the average ratio at rank 10 is under a tenth of rank 2's, both datasets",
            holds: |r| DATASETS.iter().all(|d| r.at(d, "10", "avg PR") < 0.1 * r.at(d, "2", "avg PR")) }] },
    Entry { id: "fig4_2", title: "Fig. 4.2 α-nDCG-W, ranking vs diversification (λ = 0.1)", run: fig4_2,
        doc: "With α = 0 ranking dominates; diversification's advantage appears and grows as α → 1.",
        claims: &[Claim { finding: "at α = 0 ranking scores >= diversification at k = 10, sc and mc, both datasets",
            holds: |r| DATASETS.iter().all(|d| ["sc", "mc"].iter().all(|c| div_gain(r, &format!("{d}.a0"), c) <= 0.0)) },
        Claim { finding: "Div − Rank at k = 10 is >= 0.05 larger at α = 0.99 than at α = 0, sc and mc, both datasets",
            holds: |r| DATASETS.iter().all(|d| ["sc", "mc"].iter().all(|c| {
                div_gain(r, &format!("{d}.a0_99"), c) >= div_gain(r, &format!("{d}.a0"), c) + 0.05 })) }] },
    Entry { id: "fig4_3", title: "Fig. 4.3 WS-recall at k", claims: &[],
        run: |fx| each(fx, CURVE_HEADER, |d| curve_rows(d, |o, p| ws_recall(o, p, K))),
        doc: "Diversification accumulates relevant subtopics (WS-recall, Eq. 4.7) faster than relevance ranking.\n\
              Divergence: at k = 10 ranking has the higher WS-recall on IMDB (sc 0.810 vs 0.745, mc 0.617 vs 0.523) \
              and Lyrics sc (0.969 vs 0.909); only Lyrics mc agrees (0.726 vs 0.588); cause not isolated." },
    Entry { id: "fig4_4", title: "Fig. 4.4 relevance vs novelty of the diversified top-10 across λ", run: fig4_4,
        doc: "λ (Eq. 4.4) trades relevance for novelty smoothly.\n\
              Divergence: Lyrics relevance is not monotone in λ (0.308 at λ 0.2, 0.307 at λ 0.3).",
        claims: &[Claim { finding: "novelty never rises with λ, both datasets",
            holds: |r| DATASETS.iter().all(|d| pairwise(r.col(d, "avg novelty@10"), |a, b| b <= a)) },
        Claim { finding: "relevance at λ = 1 exceeds relevance at λ = 0 by >= 0.02, both datasets",
            holds: |r| DATASETS.iter().all(|d| r.at(d, "1.0", "avg relevance@10") >= r.at(d, "0.0", "avg relevance@10") + 0.02) }] },
    Entry { id: "tab4_1", title: "Table 4.1 top-3 ranking vs top-3 diversification", run: tab4_1,
        doc: "On the most ambiguous multi-concept query, DivQ keeps the best interpretation and trades relevance for novelty.",
        claims: &[Claim { finding: "both lists start with the same relevance, and the diversified top-3 has the lower relevance sum",
            holds: |r| {
                let (rank, div) = (r.col("", "rank rel"), r.col("", "div rel"));
                rank.len() == 3 && rank[0] == div[0] && div.iter().sum::<f64>() < rank.iter().sum::<f64>() } }] },
    Entry { id: "fig5_2", title: "Fig. 5.2 QCO efficiency (bits) and interaction cost vs schema size", run: fig5_2,
        doc: "Plain options lose efficiency as the schema grows (100–4,000 type tables; 100–500 on the quick profile), \
              while ontology options keep it roughly constant.\n\
              Divergence: plain efficiency does not fall with size (0.64, 0.73, 0.66, 0.63, 0.67 bits on the full \
              profile), and the ontology cost climbs too (7.4 → 19.8).",
        claims: &[Claim { finding: "ontology options cost fewer steps than plain ones on every row",
            holds: |r| rowwise(r.col("", "cost ontology"), r.col("", "cost plain"), |o, p| o < p) },
        Claim { finding: "the best ontology option is more efficient than the best plain one on every row",
            holds: |r| rowwise(r.col("", "eff ontology"), r.col("", "eff plain"), |o, p| o > p) }] },
    Entry { id: "fig5_4", title: "Fig. 5.4 interaction cost over Freebase-scale data", run: fig5_4,
        doc: "Over the 7,000-table schema (1–3 keywords; 1,800 tables and 1–2 keywords on the quick profile), ontology \
              QCOs cut the construction cost by a large factor.",
        claims: &[Claim { finding: "ontology options cost fewer steps than plain ones on every row",
            holds: |r| rowwise(r.col("", "ontology cost"), r.col("", "plain cost"), |o, p| o < p) }] },
    Entry { id: "fig5_5", title: "Fig. 5.5 response time over Freebase-scale data", run: fig5_5,
        doc: "Response time per step stays interactive, well under a second, as the materialized top-N grows.",
        claims: &[Claim { finding: "mean traversal and option-generation times stay under 1,000 ms on every row (clocks)",
            holds: |r| every(r.col("", "traversal"), |t| t < 1000.0) && every(r.col("", "option-gen"), |t| t < 1000.0) }] },
    Entry { id: "tab5_2", title: "Table 5.2 complexity of keyword queries", run: tab5_2,
        doc: "The space of 1–4 keyword queries (1–3 on the quick profile) explodes with length while the explored slice stays bounded.",
        claims: &[Claim { finding: "the space grows >= 10x per keyword while the traversal materializes <= its top-N of 300",
            holds: |r| pairwise(r.col("", "avg space size"), |a, b| b >= 10.0 * a) && every(r.col("", "materialized"), |m| m <= 300.0) }] },
    Entry { id: "tab5_3", title: "Table 5.3 ontologies of different size", run: tab5_3,
        doc: "Grouping the ontology trades granularity for efficiency in 2-keyword sessions over 1,800 tables.",
        claims: &[Claim { finding: "every grouped ontology costs >= 25% fewer steps than the flat domain ontology",
            holds: |r| ["grouped x3", "grouped x10", "grouped x20"].iter()
                .all(|g| r.at("", g, "session cost") <= 0.75 * r.at("", "flat (domains)", "session cost")) }] },
    Entry { id: "fig6_2", title: "Fig. 6.2 shared instances by number of Freebase domains", run: fig6_2,
        doc: "Most shared instances live in few Freebase domains; a popular minority spans many.",
        claims: &[Claim { finding: "over 3/4 of shared instances occur in <= 3 domains, the 1-domain bucket is the largest, \
                                    and some span >= 10 domains",
            holds: |r| {
                let (domains, counts) = (r.col("", "#domains"), r.col("", "#shared instances"));
                let few: f64 = domains.iter().zip(&counts).filter(|(d, _)| **d <= 3.0).map(|(_, c)| c).sum();
                few > 0.75 * counts.iter().sum::<f64>() && domains.iter().any(|&d| d >= 10.0)
                    && counts.first().is_some_and(|first| counts.iter().all(|c| c <= first)) } }] },
    Entry { id: "fig6_4", title: "Fig. 6.4 matching quality vs acceptance threshold", run: fig6_4,
        doc: "As the acceptance threshold of instance-overlap matching sweeps, precision rises, recall falls, and F1 peaks between.",
        claims: &[Claim { finding: "F1 peaks strictly inside the threshold sweep",
            holds: |r| {
                let f1 = r.col("", "F1");
                let peak = f1.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                f1.len() >= 3 && f1[0] < peak && f1[f1.len() - 1] < peak } },
        Claim { finding: "recall never rises with the threshold", holds: |r| pairwise(r.col("", "recall"), |a, b| b <= a) }] },
    Entry { id: "tab6_1", title: "Table 6.1 distribution of categories in YAGO-like ontology", run: tab6_1,
        doc: "Only conceptual categories describe entity classes and are candidates for matching tables.",
        claims: &[Claim { finding: "conceptual is the most numerous kind, and WordNet categories link no instances",
            holds: |r| every(r.col("", "categories"), |c| c <= r.at("", "conceptual", "categories"))
                && r.at("", "wordnet", "instance links") == 0.0 }] },
    Entry { id: "tab6_2", title: "Table 6.2 distribution of instances over YAGO-like categories", run: tab6_2,
        doc: "Most leaf categories are small, and a heavy tail holds most of the instance mass.\n\
              Divergence: categories above 32 instances hold 28% of the links (17,085 of 61,719), not most: the \
              generator's category sizes cluster at 16–32.",
        claims: &[Claim { finding: "categories of at most 32 instances outnumber larger ones over 5 to 1",
            holds: |r| {
                let small: f64 = [1, 2, 4, 8, 16, 32].iter().map(|b| r.at("", &format!("up to {b}"), "categories")).sum();
                small > 5.0 * (r.col("", "categories").iter().sum::<f64>() - small) } }] },
    Entry { id: "tab6_3", title: "Table 6.3 the combined YAGO+F structure", run: tab6_3,
        doc: "After instance-overlap matching the conceptual categories receive the tables, and most of the database attaches.",
        claims: &[Claim { finding: "every matched category is conceptual, and >= 50% of the tables attach",
            holds: |r| {
                let v = |l| r.at("", l, "value");
                v("matched categories") > 0.0 && v("of kind conceptual") == v("matched categories") && v("table coverage") >= 50.0 } }] },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str) -> &'static Entry {
        ENTRIES.iter().find(|e| e.id == id).expect("entry exists")
    }

    /// `good` passes every claim of `id`, `doctored` fails at least one, and
    /// each failure names the entry id and that claim's finding.
    fn bites(id: &str, good: Rows, doctored: Rows) {
        let e = entry(id);
        assert_eq!(verdict(e, &good).1, Vec::<String>::new());
        let (_, failures) = verdict(e, &doctored);
        let named = |f: &String| f.contains(id) && e.claims.iter().any(|c| f.contains(c.finding));
        assert!(failures.iter().all(named), "{failures:?}");
        assert!(!failures.is_empty(), "{id}: a doctored table passed");
    }

    #[test]
    fn ids_are_unique_and_every_entry_claims_or_diverges() {
        for (i, e) in ENTRIES.iter().enumerate() {
            assert!(ENTRIES[..i].iter().all(|o| o.id != e.id), "{}", e.id);
            let divergence = |l: &&str| l.starts_with("Divergence:");
            let divergences = e.doc.lines().filter(divergence).count();
            let ok = divergences == 1 || divergences == 0 && !e.claims.is_empty();
            assert!(ok, "{}: no claim and no Divergence, or two", e.id);
        }
    }

    #[test]
    fn doctored_ch3_ch5_and_ch6_rows_break_their_claims() {
        #[rustfmt::skip]
        let cases: [(&str, &str, [&str; 3], [&str; 3]); 3] = [
            ("tab3_4", "m|n|gap", ["8|4|+1.89%", "12|6|+2.15%", "16|8|0"], ["8|4|+1.89%", "12|6|+3.15%", "16|8|0"]),
            ("fig5_4", "n|plain cost|ontology cost", ["1|95.5|28.3", "2|47.4|35.4", "3|9|8"], ["1|95.5|28.3", "2|35.4|47.4", "3|9|8"]),
            ("fig6_4", "threshold|recall|F1", ["0.05|1|0.99", "0.15|1|1", "0.25|0.9|0.95"], ["0.05|1|1", "0.15|1|0.99", "0.25|0.9|0.95"]),
        ];
        for (id, header, good, bad) in cases {
            let [good, bad] = [good, bad].map(|rows| single(header, rows.map(String::from)));
            bites(id, good, bad);
        }
    }

    #[test]
    fn swapping_rank_and_div_breaks_fig4_2() {
        // Div − Rank at k = 10: negative at α = 0, positive at α = 0.99.
        let figure = |a0: &str, a0_99: &str| {
            let keys = ["imdb.a0", "imdb.a0_99", "lyrics.a0", "lyrics.a0_99"];
            let row = |k: &str| format!("10|{0}|{0}", if k.ends_with("a0") { a0 } else { a0_99 });
            let keyed = |k: &str| table(String::new(), k, CURVE_HEADER, vec![row(k)]);
            Rows(keys.map(keyed).to_vec())
        };
        let good = figure("0.887|0.837", "0.865|0.895");
        bites("fig4_2", good, figure("0.837|0.887", "0.895|0.865"));
    }

    #[test]
    fn missing_columns_never_pass_a_claim() {
        for e in ENTRIES {
            for c in e.claims {
                assert!(!(c.holds)(&Rows::default()), "{}: {}", e.id, c.finding);
            }
        }
    }

    #[test]
    fn numbers_are_written_as_printed_and_a_non_finite_one_is_refused() {
        let nan = format!("nan|{:.4}|1", mean(&[]));
        let rows = ["2|+1.89%|0.52 ms", "10|3.4x|text", "x|73.1%|2e11", &nan];
        let rows = single("r|p|t", rows.map(String::from));
        let (fields, failures) = verdict(entry("fig4_1"), &rows);
        let written = ["r2.p 1.89", "r10.p 3.4", "x.p 73.1", "x.t 2e11"];
        let written = written.map(|w| w.split_once(' ').unwrap());
        let written = written.map(|(k, v)| (format!("fig4_1.{k}"), v.to_owned()));
        assert_eq!(fields[..4], written);
        let refused = "paper fig4_1: non-finite cell fig4_1.nan.p = \"NaN\"";
        assert!(failures.iter().any(|f| f == refused), "{failures:?}");
        assert_eq!(rows.col("", "t")[0], 0.52);
    }
}
