//! The abstract ontology layer over a database schema (§5.5.1).
//!
//! A [`SchemaOntology`] is a rooted tree of concepts whose leaves own tables.
//! For the Freebase-like datasets the natural first layer is the domain
//! (every type table belongs to exactly one domain); coarser layers can be
//! added by grouping domains, which is how the "ontologies of different
//! size" of Table 5.3 are produced.

use keybridge_relstore::TableId;
use std::collections::HashMap;

/// One concept of the ontology.
#[derive(Debug, Clone)]
pub struct Concept {
    pub name: String,
    /// Parent concept index; `None` for the root.
    pub parent: Option<usize>,
    /// Depth below the root.
    pub depth: u32,
}

/// A rooted concept tree with a table→leaf-concept assignment.
#[derive(Debug, Clone)]
pub struct SchemaOntology {
    concepts: Vec<Concept>,
    table_concept: HashMap<TableId, usize>,
}

impl SchemaOntology {
    /// Build a two-level ontology: root → one concept per domain, each
    /// owning that domain's tables.
    pub fn from_domains(domains: &[(String, Vec<TableId>)]) -> Self {
        let mut concepts = vec![Concept {
            name: "root".to_owned(),
            parent: None,
            depth: 0,
        }];
        let mut table_concept = HashMap::new();
        for (name, tables) in domains {
            let idx = concepts.len();
            concepts.push(Concept {
                name: name.clone(),
                parent: Some(0),
                depth: 1,
            });
            for t in tables {
                table_concept.insert(*t, idx);
            }
        }
        SchemaOntology {
            concepts,
            table_concept,
        }
    }

    /// Build a three-level ontology: root → super-concepts grouping
    /// `group_size` domains each → domain concepts → tables. Larger
    /// `group_size` yields a smaller, coarser ontology (Table 5.3's knob).
    pub fn with_groups(domains: &[(String, Vec<TableId>)], group_size: usize) -> Self {
        let group_size = group_size.max(1);
        let mut concepts = vec![Concept {
            name: "root".to_owned(),
            parent: None,
            depth: 0,
        }];
        let mut table_concept = HashMap::new();
        for (gi, chunk) in domains.chunks(group_size).enumerate() {
            let group_idx = concepts.len();
            concepts.push(Concept {
                name: format!("group_{gi}"),
                parent: Some(0),
                depth: 1,
            });
            for (name, tables) in chunk {
                let idx = concepts.len();
                concepts.push(Concept {
                    name: name.clone(),
                    parent: Some(group_idx),
                    depth: 2,
                });
                for t in tables {
                    table_concept.insert(*t, idx);
                }
            }
        }
        SchemaOntology {
            concepts,
            table_concept,
        }
    }

    /// Number of concepts (including the root).
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the ontology holds only the root.
    pub fn is_empty(&self) -> bool {
        self.concepts.len() <= 1
    }

    /// The concept at `idx`.
    pub fn concept(&self, idx: usize) -> &Concept {
        &self.concepts[idx]
    }

    /// Iterate `(index, &Concept)`.
    pub fn concepts(&self) -> impl Iterator<Item = (usize, &Concept)> {
        self.concepts.iter().enumerate()
    }

    /// The leaf concept owning table `t`, if assigned.
    pub fn concept_of(&self, t: TableId) -> Option<usize> {
        self.table_concept.get(&t).copied()
    }

    /// The ancestor chain of a concept, from itself up to the root.
    pub fn ancestors(&self, mut c: usize) -> Vec<usize> {
        let mut out = vec![c];
        while let Some(p) = self.concepts[c].parent {
            out.push(p);
            c = p;
        }
        out
    }

    /// Whether table `t` belongs to the subtree rooted at `concept`.
    pub fn contains(&self, concept: usize, t: TableId) -> bool {
        let mut at = self.concept_of(t);
        while let Some(c) = at {
            if c == concept {
                return true;
            }
            at = self.concepts[c].parent;
        }
        false
    }

    /// Maximum concept depth.
    pub fn max_depth(&self) -> u32 {
        self.concepts.iter().map(|c| c.depth).max().unwrap_or(0)
    }

    /// Average number of children per internal concept.
    pub fn avg_fanout(&self) -> f64 {
        let mut children: HashMap<usize, usize> = HashMap::new();
        for c in &self.concepts {
            if let Some(p) = c.parent {
                *children.entry(p).or_default() += 1;
            }
        }
        if children.is_empty() {
            0.0
        } else {
            children.values().sum::<usize>() as f64 / children.len() as f64
        }
    }

    /// Number of tables assigned to concepts.
    pub fn table_count(&self) -> usize {
        self.table_concept.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_datagen::{FreebaseConfig, FreebaseDataset};

    fn domains(fb: &FreebaseDataset) -> Vec<(String, Vec<TableId>)> {
        fb.domains
            .iter()
            .map(|d| (d.name.clone(), d.tables.clone()))
            .collect()
    }

    #[test]
    fn two_level_structure() {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(1)).unwrap();
        let o = SchemaOntology::from_domains(&domains(&fb));
        assert_eq!(o.len(), 1 + fb.domains.len());
        assert_eq!(o.max_depth(), 1);
        assert_eq!(o.table_count(), fb.type_table_count());
        assert!(!o.is_empty());
    }

    #[test]
    fn containment_follows_domains() {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(2)).unwrap();
        let o = SchemaOntology::from_domains(&domains(&fb));
        for (di, d) in fb.domains.iter().enumerate() {
            let concept = 1 + di; // insertion order
            for &t in &d.tables {
                assert!(o.contains(concept, t));
                assert!(o.contains(0, t), "root contains everything");
            }
            // A table of another domain is not contained.
            let other = &fb.domains[(di + 1) % fb.domains.len()];
            assert!(!o.contains(concept, other.tables[0]));
        }
    }

    #[test]
    fn grouped_ontology_deeper_and_smaller_fanout_at_root() {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(3)).unwrap();
        let d = domains(&fb);
        let flat = SchemaOntology::from_domains(&d);
        let grouped = SchemaOntology::with_groups(&d, 2);
        assert_eq!(grouped.max_depth(), 2);
        assert!(grouped.len() > flat.len());
        assert_eq!(grouped.table_count(), flat.table_count());
        // Containment at the group level covers both member domains.
        for &t in &fb.domains[0].tables {
            assert!(grouped.contains(1, t)); // group_0 is concept 1
        }
    }

    #[test]
    fn ancestors_chain_to_root() {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(4)).unwrap();
        let o = SchemaOntology::with_groups(&domains(&fb), 2);
        let t = fb.domains[3].tables[0];
        let leaf = o.concept_of(t).unwrap();
        let anc = o.ancestors(leaf);
        assert_eq!(*anc.last().unwrap(), 0);
        assert_eq!(anc[0], leaf);
        assert!(anc.len() == 3); // leaf -> group -> root
    }

    #[test]
    fn unassigned_table_not_contained() {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(5)).unwrap();
        let o = SchemaOntology::from_domains(&domains(&fb));
        // `topic` is not assigned to any domain.
        assert!(o.concept_of(fb.topic).is_none());
        assert!(!o.contains(0, fb.topic));
    }

    #[test]
    fn fanout_statistics() {
        let fb = FreebaseDataset::generate(FreebaseConfig::tiny(6)).unwrap();
        let o = SchemaOntology::from_domains(&domains(&fb));
        assert!(o.avg_fanout() > 0.0);
    }
}
