//! The probabilistic query interpretation model (§3.6, Eqs. 3.5–3.8) with the
//! DivQ refinements (§4.4.2, Eq. 4.2).
//!
//! `P(Q|K) ∝ P(T) · Π_i P(A_i : k_i | T ∩ A_i)` where
//!
//! * `P(T)` is the template prior — uniform without a query log, maximum
//!   likelihood with additive smoothing over log usage otherwise (Eq. 3.7);
//! * value bindings are scored by attribute term frequency (Eq. 3.8), or by
//!   *joint* ATF over the keyword bag when the DivQ co-occurrence refinement
//!   is enabled (Eq. 4.2);
//! * schema-name bindings get an empirical constant (§3.6.2: "our system can
//!   use some empirical values set by domain experts");
//! * keywords left unmapped by a partial interpretation are charged the
//!   smoothing constant `P_u` (§4.4.2).
//!
//! Scores are computed in log space; the public API normalizes within a
//! candidate set, which is sound because `P(K)` is constant per query.

use crate::interp::{BindingTarget, QueryInterpretation};
use crate::template::TemplateCatalog;
use keybridge_index::InvertedIndex;
use keybridge_relstore::{AttrRef, Database};
use std::collections::HashMap;

/// Floor for probabilities entering `ln` so scores stay finite.
const MIN_PROB: f64 = 1e-300;

/// Prior over query templates.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplatePrior {
    /// All templates equally likely (no query log; the `Tequal` runs).
    Uniform,
    /// Maximum-likelihood frequencies from a query log, keyed by template
    /// signature (sorted table-name multiset), additively smoothed (Eq. 3.7;
    /// the `TLog` runs).
    Usage {
        counts: HashMap<Vec<String>, f64>,
        total: f64,
    },
}

impl TemplatePrior {
    /// Build a usage prior from `(signature, count)` records.
    pub fn from_usage(records: impl IntoIterator<Item = (Vec<String>, usize)>) -> Self {
        let mut counts = HashMap::new();
        let mut total = 0.0;
        for (sig, c) in records {
            *counts.entry(sig).or_insert(0.0) += c as f64;
            total += c as f64;
        }
        TemplatePrior::Usage { counts, total }
    }

    /// `P(T)` for a template with `signature`, among `n_templates` templates.
    pub fn prob(&self, signature: &[String], n_templates: usize) -> f64 {
        let n = n_templates.max(1) as f64;
        match self {
            TemplatePrior::Uniform => 1.0 / n,
            TemplatePrior::Usage { counts, total } => {
                // Eq. 3.7 with α = 1.
                let c = counts.get(signature).copied().unwrap_or(0.0);
                (c + 1.0) / (total + n)
            }
        }
    }

    /// `ln P(T)`, floored so it stays finite: the prior term of
    /// [`ProbabilityModel::log_score`].
    pub fn ln_prob(&self, signature: &[String], n_templates: usize) -> f64 {
        self.prob(signature, n_templates).max(MIN_PROB).ln()
    }
}

/// Knobs of the probability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityConfig {
    /// Additive smoothing for ATF (Eq. 3.8's α).
    pub alpha: f64,
    /// Use joint (co-occurrence) ATF for multi-keyword value bags (Eq. 4.2)
    /// instead of the independence product of Eq. 3.5.
    pub use_joint_atf: bool,
    /// `P_u`: probability charged per unmapped keyword in a partial
    /// interpretation; must undercut every real keyword interpretation so
    /// complete interpretations outrank partial ones (§4.4.2).
    pub unmapped_prob: f64,
    /// Probability of a keyword naming a schema element it matches.
    pub name_match_prob: f64,
    /// When `true`, all value bindings are scored 1.0 — the "base line"
    /// of §3.8.2 that assumes all interpretations equally likely.
    pub uniform_keywords: bool,
}

impl Default for ProbabilityConfig {
    fn default() -> Self {
        ProbabilityConfig {
            alpha: 1.0,
            use_joint_atf: true,
            unmapped_prob: 1e-8,
            name_match_prob: 0.5,
            uniform_keywords: false,
        }
    }
}

impl ProbabilityConfig {
    /// The §3.8.2 baseline: every interpretation equally likely.
    pub fn baseline() -> Self {
        ProbabilityConfig {
            uniform_keywords: true,
            ..Self::default()
        }
    }

    /// ATF scoring with independence (the TKDE model, Eq. 3.5).
    pub fn atf_independent() -> Self {
        ProbabilityConfig {
            use_joint_atf: false,
            ..Self::default()
        }
    }
}

/// The assembled model. Borrows the index and catalog; owns its prior.
#[derive(Debug, Clone)]
pub struct ProbabilityModel<'a> {
    db: &'a Database,
    index: &'a InvertedIndex,
    catalog: &'a TemplateCatalog,
    prior: TemplatePrior,
    config: ProbabilityConfig,
}

impl<'a> ProbabilityModel<'a> {
    pub fn new(
        db: &'a Database,
        index: &'a InvertedIndex,
        catalog: &'a TemplateCatalog,
        prior: TemplatePrior,
        config: ProbabilityConfig,
    ) -> Self {
        ProbabilityModel {
            db,
            index,
            catalog,
            prior,
            config,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ProbabilityConfig {
        &self.config
    }

    /// `ln P(Q|K)` up to the per-query constant `-ln P(K)`. `query_len` is
    /// the keyword count of the full query so partial interpretations get
    /// charged `P_u` per unmapped keyword (Eq. 3.6 / §4.4.2).
    pub fn log_score(&self, interp: &QueryInterpretation, query_len: usize) -> f64 {
        let tpl = self.catalog.get(interp.template);
        let mut lp = self
            .prior
            .ln_prob(tpl.signature_names(self.db), self.catalog.len());
        for b in &interp.bindings {
            let p = match b.target {
                BindingTarget::Value { node, attr } => {
                    if self.config.uniform_keywords {
                        1.0
                    } else {
                        let aref = AttrRef {
                            table: tpl.tree.nodes[node],
                            attr,
                        };
                        if self.config.use_joint_atf {
                            self.index.joint_atf(&b.keywords, aref, self.config.alpha)
                        } else {
                            b.keywords
                                .iter()
                                .map(|k| self.index.atf(k, aref, self.config.alpha))
                                .product()
                        }
                    }
                }
                BindingTarget::TableName { .. } | BindingTarget::AttrName { .. } => {
                    if self.config.uniform_keywords {
                        1.0
                    } else {
                        self.config.name_match_prob.powi(b.keywords.len() as i32)
                    }
                }
            };
            lp += p.max(MIN_PROB).ln();
        }
        let unmapped = query_len.saturating_sub(interp.keyword_count());
        if unmapped > 0 {
            lp += unmapped as f64 * self.config.unmapped_prob.max(MIN_PROB).ln();
        }
        lp
    }

    /// Normalize a slice of log scores into linear probabilities summing
    /// to 1 (softmax with max-shift for stability). Empty input yields an
    /// empty vector.
    pub fn normalize(log_scores: &[f64]) -> Vec<f64> {
        if log_scores.is_empty() {
            return Vec::new();
        }
        let m = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = log_scores.iter().map(|&l| (l - m).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }
}

// ---------------------------------------------------------------------------
// Incremental scoring (best-first top-k generation).
// ---------------------------------------------------------------------------

use crate::template::QueryTemplate;
use keybridge_relstore::TableId;

/// Incremental evaluation of the probability model over *partial keyword
/// assignments*, for the best-first top-k generator. One scorer serves one
/// query for as long as its generation session lives; everything it derives
/// from the index is derived once.
///
/// The search assigns keyword occurrences left to right; a search state's
/// score splits into
///
/// * a **prefix log-score** — `ln P(T)` plus the contribution of every
///   binding formed so far, maintained incrementally: when occurrence `i`
///   joins an existing value group `g` on attribute `A`, the prefix changes
///   by `ln P(A : g ∪ {kᵢ}) − ln P(A : g)`; and
/// * an admissible **remaining-term bound** — for each unassigned
///   occurrence, the best contribution it could still make:
///
///   | route | bound | why admissible |
///   |---|---|---|
///   | unmapped | `ln P_u` | exact |
///   | schema name | `ln P_name` | exact per keyword |
///   | value, new group | `max_A ln ATF(k, A)` over `A` in the template | exact best case |
///   | value, join group | `0` | joint ATF is non-increasing in the bag, so the join delta is `≤ 0` |
///
/// Prefix + bound never underestimates the score of any completion (up to
/// float association error, which the search absorbs with an ε margin), so
/// popping states best-first and cutting when the bound drops below the
/// k-th best emitted score yields the exact top k.
///
/// The scorer is also the session's one memo of value groups: every
/// `(occurrence set, attribute)` the search meets is recorded once, by
/// [`Self::form_group`], as its `ln P(A : bag)` — or as empty, when no row
/// holds the whole bag. The entry is shared across all templates, since
/// the score of a value bag depends only on the underlying attribute, not
/// on which template node carries it; it is scored from the joint
/// occurrence count the search fetched for it (through
/// [`crate::NonemptyCache`]) and is the term [`ProbabilityModel::log_score`]
/// adds for that binding, bit for bit, which is what lets
/// [`Self::binding_ln`] assemble an emitted interpretation's exact score
/// without walking postings at all. Occurrence masks are positions in this
/// query, so the memo lives and dies with the session.
pub(crate) struct IncrementalScorer<'q> {
    index: &'q InvertedIndex,
    config: ProbabilityConfig,
    terms: &'q [String],
    /// Occurrence indexes ordered by term: the keyword order of a canonical
    /// [`crate::KeywordBinding`].
    by_term: Vec<usize>,
    /// Candidate value attrs with their floored `ln ATF`, flat: occurrence
    /// `i`'s are `value_ln[value_at[i]..value_at[i + 1]]`, sorted by attr.
    value_ln: Vec<(AttrRef, f64)>,
    value_at: Vec<usize>,
    /// Per (occurrence, table), row-major: the best contribution the
    /// occurrence can make on that table over the value, join and name
    /// routes; `NEG_INFINITY` when it has no target there.
    table_bound: Vec<f64>,
    n_tables: usize,
    /// Every value group met so far, keyed by (occurrence bitmask, attr):
    /// its `ln P(A : bag)`, `None` when the group matches no row.
    groups: HashMap<(u64, AttrRef), Option<f64>>,
    ln_pu: f64,
    ln_name: f64,
    allow_unmapped: bool,
}

impl<'q> IncrementalScorer<'q> {
    /// `terms` are the query's keyword occurrences in order;
    /// `value_attrs(i)` are the attributes where occurrence `i` matches as a
    /// value; `name_tables(i)` the tables on which it matches a schema name
    /// (table or attribute); `n_tables` the schema's table count;
    /// `allow_unmapped` enables the partial-interpretation branch charged
    /// `P_u`.
    pub fn new<V, N>(
        index: &'q InvertedIndex,
        config: ProbabilityConfig,
        n_tables: usize,
        terms: &'q [String],
        value_attrs: impl Fn(usize) -> V,
        name_tables: impl Fn(usize) -> N,
        allow_unmapped: bool,
    ) -> Self
    where
        V: Iterator<Item = AttrRef>,
        N: Iterator<Item = TableId>,
    {
        let n = terms.len();
        let uniform = config.uniform_keywords;
        let ln_name = if uniform {
            0.0
        } else {
            config.name_match_prob.max(MIN_PROB).ln()
        };
        let mut value_ln: Vec<(AttrRef, f64)> = Vec::new();
        let mut value_at = Vec::with_capacity(n + 1);
        value_at.push(0);
        for (i, term) in terms.iter().enumerate() {
            let start = value_ln.len();
            value_ln.extend(value_attrs(i).map(|a| {
                let ln = if uniform {
                    0.0
                } else {
                    index.atf(term, a, config.alpha).max(MIN_PROB).ln()
                };
                (a, ln)
            }));
            value_ln[start..].sort_by_key(|&(a, _)| a);
            value_at.push(value_ln.len());
        }
        let of = |i: usize| &value_ln[value_at[i]..value_at[i + 1]];
        let mut table_bound = vec![f64::NEG_INFINITY; n * n_tables];
        let mut raise = |i: usize, table: TableId, v: f64| {
            let slot = &mut table_bound[i * n_tables + table.0 as usize];
            if v > *slot {
                *slot = v;
            }
        };
        for i in 0..n {
            for &(a, ln) in of(i) {
                raise(i, a.table, ln);
            }
            for table in name_tables(i) {
                raise(i, table, ln_name);
            }
            // A value join with another occurrence is possible wherever the
            // two share a candidate attribute; its delta is bounded by 0.
            for j in (i + 1)..n {
                for &(a, _) in of(i) {
                    if of(j).binary_search_by_key(&a, |&(x, _)| x).is_ok() {
                        raise(i, a.table, 0.0);
                        raise(j, a.table, 0.0);
                    }
                }
            }
        }
        let mut by_term: Vec<usize> = (0..n).collect();
        by_term.sort_by(|&a, &b| terms[a].cmp(&terms[b]));
        IncrementalScorer {
            index,
            config,
            terms,
            by_term,
            value_ln,
            value_at,
            table_bound,
            n_tables,
            groups: HashMap::new(),
            ln_pu: config.unmapped_prob.max(MIN_PROB).ln(),
            ln_name,
            allow_unmapped,
        }
    }

    /// `ln P_u`, the charge per unmapped keyword.
    pub fn unmapped_ln(&self) -> f64 {
        self.ln_pu
    }

    /// `ln P_name`, the charge per keyword bound to a schema name.
    pub fn name_ln(&self) -> f64 {
        self.ln_name
    }

    /// Whether the unmapped branch is enabled.
    pub fn allows_unmapped(&self) -> bool {
        self.allow_unmapped
    }

    /// The keywords of the occurrences in `mask`, in canonical (sorted)
    /// binding order, borrowed from the query.
    pub fn bag(&self, mask: u64) -> impl Iterator<Item = &'q str> + '_ {
        let terms = self.terms;
        self.by_term
            .iter()
            .filter(move |&&i| mask & (1 << i) != 0)
            .map(move |&i| terms[i].as_str())
    }

    /// The memo entry of a value group the session has met: `Some(None)`
    /// when it matches no row, `None` when it has not been met yet.
    pub fn memo(&self, mask: u64, attr: AttrRef) -> Option<Option<f64>> {
        self.groups.get(&(mask, attr)).copied()
    }

    /// Record a value group the search has just met — the occurrences in
    /// `mask` (bit `i` = occurrence `i`), bound to `attr` — and return its
    /// `ln P(A : bag)`, or `None` when `count`, the group's joint
    /// occurrence count in `attr`, is 0. Under joint ATF the score is
    /// `(count + α) / denom`, the arithmetic of
    /// [`InvertedIndex::joint_atf`], so scoring walks no postings; a
    /// single-occurrence group is read from the precomputed candidate
    /// table instead.
    pub fn form_group(&mut self, mask: u64, attr: AttrRef, count: u64) -> Option<f64> {
        let ln = (count > 0).then(|| self.group_ln(mask, attr, count));
        self.groups.insert((mask, attr), ln);
        ln
    }

    fn group_ln(&self, mask: u64, attr: AttrRef, count: u64) -> f64 {
        if self.config.uniform_keywords {
            return 0.0;
        }
        if mask.count_ones() == 1 {
            let i = mask.trailing_zeros() as usize;
            let lns = &self.value_ln[self.value_at[i]..self.value_at[i + 1]];
            return lns
                .binary_search_by_key(&attr, |&(a, _)| a)
                .map(|p| lns[p].1)
                .unwrap_or_else(|_| {
                    // Off-candidate attr (term absent): smoothed floor.
                    self.index
                        .atf(&self.terms[i], attr, self.config.alpha)
                        .max(MIN_PROB)
                        .ln()
                });
        }
        let p = if self.config.use_joint_atf {
            let denom = self.index.atf_denominator(attr, self.config.alpha);
            if denom <= 0.0 {
                0.0
            } else {
                (count as f64 + self.config.alpha) / denom
            }
        } else {
            self.bag(mask)
                .map(|k| self.index.atf(k, attr, self.config.alpha))
                .product()
        };
        p.max(MIN_PROB).ln()
    }

    /// `ln P(A : bag)` of a value group a search state holds: every such
    /// group was met, non-empty, when its last occurrence was assigned.
    pub fn value_group_ln(&self, mask: u64, attr: AttrRef) -> f64 {
        self.memo(mask, attr)
            .flatten()
            .expect("a state's value groups were formed non-empty")
    }

    /// The term [`ProbabilityModel::log_score`] adds for one binding of an
    /// emitted interpretation — the occurrences in `mask` bound to `target`
    /// on a node of `table` — from the memo instead of the postings.
    pub fn binding_ln(&self, target: BindingTarget, mask: u64, table: TableId) -> f64 {
        match target {
            BindingTarget::Value { attr, .. } => self.value_group_ln(mask, AttrRef { table, attr }),
            BindingTarget::TableName { .. } | BindingTarget::AttrName { .. } => {
                if self.config.uniform_keywords {
                    0.0
                } else {
                    self.config
                        .name_match_prob
                        .powi(mask.count_ones() as i32)
                        .max(MIN_PROB)
                        .ln()
                }
            }
        }
    }

    /// Admissible upper bound on the contribution of occurrence `i` within
    /// template `tpl`, over every route still open to it (see the table in
    /// the type docs). `NEG_INFINITY` when the occurrence has no route —
    /// the template cannot interpret it and partials are off.
    pub fn term_bound(&self, tpl: &QueryTemplate, i: usize) -> f64 {
        let unmapped = if self.allow_unmapped {
            self.ln_pu
        } else {
            f64::NEG_INFINITY
        };
        tpl.distinct_tables()
            .map(|t| self.table_bound[i * self.n_tables + t.0 as usize])
            .fold(unmapped, f64::max)
    }

    /// Bit per occurrence with a binding target on `table` (a value or a
    /// schema-name route): the occurrences that can bind a node of it.
    pub fn reach(&self, table: TableId) -> u64 {
        (0..self.terms.len())
            .filter(|&i| self.table_bound[i * self.n_tables + table.0 as usize] > f64::NEG_INFINITY)
            .fold(0, |m, i| m | 1 << i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::KeywordBinding;
    use keybridge_relstore::{SchemaBuilder, TableKind, Value};

    fn setup() -> (Database, TemplateCatalog) {
        let mut b = SchemaBuilder::new();
        b.table("actor", TableKind::Entity)
            .pk("id")
            .text_attr("name");
        b.table("movie", TableKind::Entity)
            .pk("id")
            .text_attr("title");
        b.table("acts", TableKind::Relation)
            .pk("id")
            .int_attr("actor_id")
            .int_attr("movie_id");
        b.foreign_key("acts", "actor_id", "actor").unwrap();
        b.foreign_key("acts", "movie_id", "movie").unwrap();
        let mut db = Database::new(b.finish().unwrap());
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        for (i, n) in ["tom hanks", "tom cruise", "meg ryan", "tom berenger"]
            .iter()
            .enumerate()
        {
            db.insert(actor, vec![Value::Int(i as i64), Value::text(*n)])
                .unwrap();
        }
        for (i, t) in [
            "the terminal",
            "tom and huck",
            "top gun",
            "joe versus the volcano",
            "sleepless in seattle",
            "catch me if you can",
        ]
        .iter()
        .enumerate()
        {
            db.insert(movie, vec![Value::Int(i as i64), Value::text(*t)])
                .unwrap();
        }
        let catalog = TemplateCatalog::enumerate(&db, 2, 100).unwrap();
        (db, catalog)
    }

    fn value_interp(
        db: &Database,
        catalog: &TemplateCatalog,
        table: &str,
        attr: &str,
        keywords: &[&str],
    ) -> QueryInterpretation {
        let tid = db.schema().table_id(table).unwrap();
        let tpl = catalog
            .iter()
            .find(|t| t.tree.nodes == vec![tid])
            .unwrap()
            .id;
        let aref = db.schema().resolve(table, attr).unwrap();
        QueryInterpretation::new(
            tpl,
            vec![KeywordBinding {
                keywords: keywords.iter().map(|s| s.to_string()).collect(),
                target: BindingTarget::Value {
                    node: 0,
                    attr: aref.attr,
                },
            }],
        )
    }

    #[test]
    fn frequent_attribute_wins() {
        let (db, catalog) = setup();
        let idx = InvertedIndex::build(&db);
        let m = ProbabilityModel::new(
            &db,
            &idx,
            &catalog,
            TemplatePrior::Uniform,
            ProbabilityConfig::default(),
        );
        // "tom" as an actor name (3 of 4 rows) vs as a movie title word (1 of 2).
        let a = value_interp(&db, &catalog, "actor", "name", &["tom"]);
        let t = value_interp(&db, &catalog, "movie", "title", &["tom"]);
        assert!(m.log_score(&a, 1) > m.log_score(&t, 1));
    }

    #[test]
    fn joint_atf_beats_split_bindings() {
        let (db, catalog) = setup();
        let idx = InvertedIndex::build(&db);
        let m = ProbabilityModel::new(
            &db,
            &idx,
            &catalog,
            TemplatePrior::Uniform,
            ProbabilityConfig::default(),
        );
        // "tom hanks" co-occurring in one name should outscore "tom" in a
        // title and "hanks" in a name under the joint model.
        let together = value_interp(&db, &catalog, "actor", "name", &["tom", "hanks"]);
        let q = 2;
        let split_partial = value_interp(&db, &catalog, "actor", "name", &["hanks"]);
        assert!(m.log_score(&together, q) > m.log_score(&split_partial, q));
    }

    #[test]
    fn partial_charged_unmapped_penalty() {
        let (db, catalog) = setup();
        let idx = InvertedIndex::build(&db);
        let m = ProbabilityModel::new(
            &db,
            &idx,
            &catalog,
            TemplatePrior::Uniform,
            ProbabilityConfig::default(),
        );
        let i = value_interp(&db, &catalog, "actor", "name", &["tom"]);
        let complete = m.log_score(&i, 1);
        let partial = m.log_score(&i, 3); // two keywords unmapped
        assert!(complete > partial);
        let expected = 2.0 * (1e-8f64).ln();
        assert!((partial - complete - expected).abs() < 1e-9);
    }

    #[test]
    fn usage_prior_prefers_frequent_templates() {
        let (db, catalog) = setup();
        let idx = InvertedIndex::build(&db);
        let sig_actor = vec!["actor".to_owned()];
        let prior = TemplatePrior::from_usage(vec![(sig_actor, 80)]);
        let m = ProbabilityModel::new(&db, &idx, &catalog, prior, ProbabilityConfig::baseline());
        let a = value_interp(&db, &catalog, "actor", "name", &["tom"]);
        let t = value_interp(&db, &catalog, "movie", "title", &["tom"]);
        // With uniform keyword scores, only the prior differs.
        assert!(m.log_score(&a, 1) > m.log_score(&t, 1));
    }

    #[test]
    fn baseline_is_indifferent() {
        let (db, catalog) = setup();
        let idx = InvertedIndex::build(&db);
        let m = ProbabilityModel::new(
            &db,
            &idx,
            &catalog,
            TemplatePrior::Uniform,
            ProbabilityConfig::baseline(),
        );
        let a = value_interp(&db, &catalog, "actor", "name", &["tom"]);
        let t = value_interp(&db, &catalog, "movie", "title", &["tom"]);
        assert!((m.log_score(&a, 1) - m.log_score(&t, 1)).abs() < 1e-12);
    }

    #[test]
    fn normalize_sums_to_one() {
        let probs = ProbabilityModel::normalize(&[-700.0, -701.0, -705.0]);
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(probs[0] > probs[1] && probs[1] > probs[2]);
        assert!(ProbabilityModel::normalize(&[]).is_empty());
    }

    #[test]
    fn uniform_prior_value() {
        let p = TemplatePrior::Uniform;
        assert!((p.prob(&[], 4) - 0.25).abs() < 1e-12);
        let u = TemplatePrior::from_usage(vec![(vec!["a".to_owned()], 9)]);
        // (9+1)/(9+2) for the seen signature, 1/(9+2) for unseen.
        assert!((u.prob(&["a".to_owned()], 2) - 10.0 / 11.0).abs() < 1e-12);
        assert!((u.prob(&["b".to_owned()], 2) - 1.0 / 11.0).abs() < 1e-12);
    }
}
