//! YAGO-like ontology generator.
//!
//! Mirrors the structure Chapter 6 analyzes: an upper taxonomy of WordNet-like
//! concepts and a broad fringe of Wikipedia-like leaf categories carrying
//! instances. Leaf categories are classified into the four standard kinds the
//! thesis's analysis distinguishes (conceptual / administrative / relational /
//! thematic); only *conceptual* categories describe entity classes and are
//! therefore matchable against database tables.
//!
//! Instances come from the shared topic universe of a
//! [`crate::FreebaseDataset`], and every conceptual category is generated
//! *from* one Freebase table (with configurable coverage and noise). That
//! hidden assignment is kept as the **gold mapping**, which the YAGO+F
//! matching quality experiment (Fig. 6.4) scores against.

use crate::freebase::FreebaseDataset;
use crate::names::NamePool;
use keybridge_relstore::TableId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four kinds of Wikipedia-style categories distinguished in Chapter 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CategoryKind {
    /// WordNet-like internal taxonomy node ("entity", "artifact"…).
    WordNet,
    /// Describes a class of entities ("American actors") — matchable.
    Conceptual,
    /// Wiki bookkeeping ("Articles needing cleanup") — never matchable.
    Administrative,
    /// Relates entities to a value ("1994 births") — not a class.
    Relational,
    /// Groups a topic area ("Jazz") — heterogeneous membership.
    Thematic,
}

impl CategoryKind {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            CategoryKind::WordNet => "wordnet",
            CategoryKind::Conceptual => "conceptual",
            CategoryKind::Administrative => "administrative",
            CategoryKind::Relational => "relational",
            CategoryKind::Thematic => "thematic",
        }
    }
}

/// One category of the ontology.
#[derive(Debug, Clone)]
pub struct YagoCategory {
    pub name: String,
    pub kind: CategoryKind,
    /// Parent category index; `None` only for the root.
    pub parent: Option<usize>,
    /// Depth below the root (root = 0).
    pub depth: u32,
    /// Topic ids (shared with the Freebase-like dataset).
    pub instances: Vec<i64>,
}

/// Sizing knobs for the ontology generator.
///
/// `scale` multiplies the leaf-category count via [`crate::scale_rows`] —
/// instance populations ride on the paired [`FreebaseDataset`]'s own scale,
/// since categories draw from its topic universe. `scale: 1.0` reproduces
/// the historical fixture bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct YagoConfig {
    pub seed: u64,
    /// Depth of the WordNet-like upper taxonomy.
    pub wordnet_depth: u32,
    /// Branching factor of the upper taxonomy.
    pub branching: usize,
    /// Number of leaf (Wikipedia-like) categories.
    pub leaf_categories: usize,
    /// Fraction of leaf categories that are conceptual.
    pub conceptual_fraction: f64,
    /// Fraction of a gold table's instances a conceptual category covers.
    pub coverage: f64,
    /// Fraction of a conceptual category's instances that are noise
    /// (drawn from other tables).
    pub noise: f64,
    pub scale: f64,
}

impl Default for YagoConfig {
    fn default() -> Self {
        YagoConfig {
            seed: 4,
            wordnet_depth: 4,
            branching: 4,
            leaf_categories: 800,
            conceptual_fraction: 0.45,
            coverage: 0.65,
            noise: 0.08,
            scale: 1.0,
        }
    }
}

impl YagoConfig {
    /// A small instance for unit tests.
    pub fn tiny(seed: u64) -> Self {
        YagoConfig {
            seed,
            wordnet_depth: 3,
            branching: 3,
            leaf_categories: 40,
            ..Self::default()
        }
    }
}

/// The generated ontology plus the hidden gold mapping.
#[derive(Debug, Clone)]
pub struct YagoOntology {
    pub categories: Vec<YagoCategory>,
    pub root: usize,
    /// Generator ground truth: conceptual category index → the table whose
    /// instances seeded it. Used only to *score* matching, never to match.
    pub gold: Vec<(usize, TableId)>,
}

impl YagoOntology {
    /// Generate an ontology whose instances live in `fb`'s topic universe.
    pub fn generate(cfg: YagoConfig, fb: &FreebaseDataset) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let pool = NamePool::new();
        let n_leaves = crate::scale_rows(cfg.leaf_categories, cfg.scale);

        let mut categories = vec![YagoCategory {
            name: "entity".to_owned(),
            kind: CategoryKind::WordNet,
            parent: None,
            depth: 0,
            instances: Vec::new(),
        }];
        let root = 0;

        // Upper taxonomy: a balanced-ish tree of WordNet nodes.
        let mut frontier = vec![root];
        for depth in 1..=cfg.wordnet_depth {
            let mut next = Vec::new();
            for &p in &frontier {
                for _ in 0..cfg.branching {
                    let idx = categories.len();
                    categories.push(YagoCategory {
                        name: format!("wordnet_{}", pool.word(&mut rng)),
                        kind: CategoryKind::WordNet,
                        parent: Some(p),
                        depth,
                        instances: Vec::new(),
                    });
                    next.push(idx);
                }
            }
            frontier = next;
        }
        let wordnet_leaves = frontier;

        // All type tables of the database, as gold candidates.
        let tables: Vec<TableId> = fb
            .domains
            .iter()
            .flat_map(|d| d.tables.iter().copied())
            .collect();
        let all_topics = fb.db.table(fb.topic).len() as i64;

        let mut gold = Vec::new();
        for li in 0..n_leaves {
            let parent = wordnet_leaves[rng.gen_range(0..wordnet_leaves.len())];
            let depth = cfg.wordnet_depth + 1;
            let idx = categories.len();
            let roll: f64 = rng.gen();
            let (kind, name, instances) = if roll < cfg.conceptual_fraction && !tables.is_empty() {
                // Conceptual: seeded from one table's instance set. The
                // table becomes this category's gold mapping.
                let table = tables[rng.gen_range(0..tables.len())];
                gold.push((idx, table));
                let base = fb.topic_ids_of(table);
                let mut inst: Vec<i64> = base
                    .into_iter()
                    .filter(|_| rng.gen_bool(cfg.coverage))
                    .collect();
                let n_noise = ((inst.len() as f64) * cfg.noise).ceil() as usize;
                for _ in 0..n_noise {
                    inst.push(rng.gen_range(1..=all_topics.max(1)));
                }
                let table_name = &fb.db.schema().table(table).name;
                (
                    CategoryKind::Conceptual,
                    format!("wikicategory_{}_{}", pool.word(&mut rng), table_name),
                    inst,
                )
            } else if roll < cfg.conceptual_fraction + 0.20 {
                // Administrative: random junk membership.
                let n = rng.gen_range(0..25);
                let inst = (0..n)
                    .map(|_| rng.gen_range(1..=all_topics.max(1)))
                    .collect();
                (
                    CategoryKind::Administrative,
                    format!("wikicategory_articles_{}_{li}", pool.word(&mut rng)),
                    inst,
                )
            } else if roll < cfg.conceptual_fraction + 0.45 {
                // Relational: year-style grouping over random topics.
                let year = rng.gen_range(1900..=2012);
                let n = rng.gen_range(5..40);
                let inst = (0..n)
                    .map(|_| rng.gen_range(1..=all_topics.max(1)))
                    .collect();
                (
                    CategoryKind::Relational,
                    format!("wikicategory_{year}_{}", pool.word(&mut rng)),
                    inst,
                )
            } else {
                // Thematic: a broad mixed bag.
                let n = rng.gen_range(10..80);
                let inst = (0..n)
                    .map(|_| rng.gen_range(1..=all_topics.max(1)))
                    .collect();
                (
                    CategoryKind::Thematic,
                    format!("wikicategory_{}", pool.word(&mut rng)),
                    inst,
                )
            };
            let mut inst = instances;
            inst.sort_unstable();
            inst.dedup();
            categories.push(YagoCategory {
                name,
                kind,
                parent: Some(parent),
                depth,
                instances: inst,
            });
        }

        YagoOntology {
            categories,
            root,
            gold,
        }
    }

    /// Total number of distinct instances across all categories.
    pub fn distinct_instances(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for c in &self.categories {
            set.extend(c.instances.iter().copied());
        }
        set.len()
    }

    /// Iterate over leaf (non-WordNet) categories with their indexes.
    pub fn leaves(&self) -> impl Iterator<Item = (usize, &YagoCategory)> {
        self.categories
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind != CategoryKind::WordNet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freebase::FreebaseConfig;

    fn setup() -> (FreebaseDataset, YagoOntology) {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(1)).unwrap();
        let y = YagoOntology::generate(YagoConfig::tiny(2), &fb);
        (fb, y)
    }

    #[test]
    fn tree_structure_valid() {
        let (_, y) = setup();
        assert!(y.categories[y.root].parent.is_none());
        for (i, c) in y.categories.iter().enumerate() {
            if i != y.root {
                let p = c.parent.expect("non-root has parent");
                assert!(p < i, "parents precede children");
                assert_eq!(y.categories[p].depth + 1, c.depth);
            }
        }
    }

    fn count_kind(y: &YagoOntology, kind: CategoryKind) -> usize {
        y.categories.iter().filter(|c| c.kind == kind).count()
    }

    #[test]
    fn kinds_distributed() {
        let (_, y) = setup();
        assert!(count_kind(&y, CategoryKind::WordNet) > 0);
        assert!(count_kind(&y, CategoryKind::Conceptual) > 0);
        let leaves = y.leaves().count();
        assert_eq!(leaves, 40);
    }

    #[test]
    fn gold_mapping_only_conceptual() {
        let (_, y) = setup();
        for &(idx, _) in &y.gold {
            assert_eq!(y.categories[idx].kind, CategoryKind::Conceptual);
        }
        assert_eq!(y.gold.len(), count_kind(&y, CategoryKind::Conceptual));
    }

    #[test]
    fn conceptual_categories_overlap_their_gold_table() {
        let (fb, y) = setup();
        for &(idx, table) in &y.gold {
            let cat: std::collections::HashSet<i64> =
                y.categories[idx].instances.iter().copied().collect();
            let tab = fb.topic_ids_of(table);
            if tab.is_empty() {
                continue;
            }
            let overlap = tab.iter().filter(|t| cat.contains(t)).count();
            // Coverage 0.65 in expectation; demand at least some overlap.
            assert!(
                overlap * 3 >= tab.len(),
                "category {idx} barely overlaps its gold table"
            );
        }
    }

    #[test]
    fn instances_sorted_dedup() {
        let (_, y) = setup();
        for c in &y.categories {
            let mut sorted = c.instances.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, c.instances);
        }
    }

    #[test]
    fn deterministic() {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(1)).unwrap();
        let a = YagoOntology::generate(YagoConfig::tiny(7), &fb);
        let b = YagoOntology::generate(YagoConfig::tiny(7), &fb);
        assert_eq!(a.categories.len(), b.categories.len());
        assert_eq!(a.gold.len(), b.gold.len());
        assert_eq!(
            a.categories.last().unwrap().instances,
            b.categories.last().unwrap().instances
        );
    }
}
