//! Query templates (Def. 3.5.6): structured-query skeletons whose predicates
//! hold variables instead of keywords. A template is a connected join tree
//! over the schema graph; the catalog enumerates all shapes up to a join
//! bound, breadth-first, the way DISCOVER enumerates candidate networks
//! (§2.2.3, §3.5.2).

use keybridge_relstore::{
    Database, JoinTree, JoinTreeEdge, RelError, RelResult, SchemaGraph, TableId,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::OnceLock;

/// Identifier of a template within one [`TemplateCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// A query template: a join tree whose nodes are table *occurrences*.
///
/// Carries a precomputed table → node-occurrence index so the generator's
/// inner loop (localizing term candidates to template nodes) is a binary
/// search over a flat vector instead of a scan of `tree.nodes` per lookup.
#[derive(Debug, Clone)]
pub struct QueryTemplate {
    pub id: TemplateId,
    pub tree: JoinTree,
    /// Distinct tables of the tree, sorted, paired with the (ascending)
    /// node indexes occupied by each.
    table_index: Vec<(TableId, Vec<usize>)>,
    /// Node indexes that are leaves of the tree, ascending. Minimality
    /// (Def. 3.5.4(2)) requires every one of them to carry a binding.
    leaf_nodes: Vec<usize>,
    /// The signature, filled by the first [`Self::signature_names`] call.
    names: OnceLock<Vec<String>>,
}

impl QueryTemplate {
    /// Wrap a join tree, building the table → nodes and leaf indexes.
    pub fn new(id: TemplateId, tree: JoinTree) -> Self {
        let mut table_index: Vec<(TableId, Vec<usize>)> = Vec::new();
        for (i, &t) in tree.nodes.iter().enumerate() {
            match table_index.binary_search_by_key(&t, |(k, _)| *k) {
                Ok(pos) => table_index[pos].1.push(i),
                Err(pos) => table_index.insert(pos, (t, vec![i])),
            }
        }
        let mut degree = vec![0usize; tree.nodes.len()];
        for e in &tree.edges {
            degree[e.a] += 1;
            degree[e.b] += 1;
        }
        let leaf_nodes = (0..tree.nodes.len()).filter(|&i| degree[i] <= 1).collect();
        QueryTemplate {
            id,
            tree,
            table_index,
            leaf_nodes,
            names: OnceLock::new(),
        }
    }

    /// The leaf node indexes of the tree, ascending (precomputed).
    pub fn leaves(&self) -> &[usize] {
        &self.leaf_nodes
    }

    /// Number of joins.
    pub fn join_count(&self) -> usize {
        self.tree.join_count()
    }

    /// Sorted multiset of table names — the schema-level signature used to
    /// match templates against query-log usage records.
    pub fn signature(&self, db: &Database) -> Vec<String> {
        self.signature_names(db).to_vec()
    }

    /// [`Self::signature`] without the copy: the names are resolved against
    /// `db`'s schema on the first call and kept with the template (a
    /// template's table ids mean something under one schema only, so every
    /// later caller passes the same one).
    pub fn signature_names(&self, db: &Database) -> &[String] {
        self.names.get_or_init(|| {
            let mut names: Vec<String> = self
                .tree
                .nodes
                .iter()
                .map(|t| db.schema().table(*t).name.clone())
                .collect();
            names.sort();
            names
        })
    }

    /// Node indexes whose table is `t`, ascending (precomputed).
    pub fn nodes_of_table(&self, t: TableId) -> &[usize] {
        self.table_index
            .binary_search_by_key(&t, |(k, _)| *k)
            .map(|pos| self.table_index[pos].1.as_slice())
            .unwrap_or(&[])
    }

    /// The distinct tables of the template, sorted ascending.
    pub fn distinct_tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.table_index.iter().map(|(t, _)| *t)
    }

    /// Whether node `i` is a leaf of the tree (or the only node).
    pub fn is_leaf(&self, i: usize) -> bool {
        let deg = self
            .tree
            .edges
            .iter()
            .filter(|e| e.a == i || e.b == i)
            .count();
        deg <= 1
    }
}

/// Internal: a foreign key together with its referencing table, used by the
/// duplicate-fk pruning in enumeration.
#[derive(Debug, Clone, Copy)]
struct FkRef {
    id: keybridge_relstore::FkId,
    from_table: TableId,
}

/// Canonical encoding of an unordered, unrooted labeled tree (AHU-style):
/// root at every node, take the lexicographically smallest encoding. Trees
/// here are tiny (≤ ~6 nodes), so the O(n²) rooting is irrelevant.
fn canonical_code(tree: &JoinTree) -> String {
    fn encode(
        tree: &JoinTree,
        adj: &[Vec<(usize, u32)>],
        node: usize,
        parent: Option<usize>,
    ) -> String {
        let mut children: Vec<String> = adj[node]
            .iter()
            .filter(|(n, _)| Some(*n) != parent)
            .map(|(n, fk)| format!("{}:{}", fk, encode(tree, adj, *n, Some(node))))
            .collect();
        children.sort();
        format!("({}{})", tree.nodes[node].0, children.concat())
    }
    let n = tree.nodes.len();
    let mut adj = vec![Vec::new(); n];
    for e in &tree.edges {
        adj[e.a].push((e.b, e.fk.0));
        adj[e.b].push((e.a, e.fk.0));
    }
    (0..n)
        .map(|r| encode(tree, &adj, r, None))
        .min()
        .unwrap_or_default()
}

/// The enumerated template catalog of a database.
#[derive(Debug, Clone)]
pub struct TemplateCatalog {
    templates: Vec<QueryTemplate>,
    /// table -> templates containing at least one occurrence of it.
    by_table: HashMap<TableId, Vec<TemplateId>>,
}

impl TemplateCatalog {
    /// Enumerate all templates with at most `max_joins` joins, stopping with
    /// an error if more than `cap` distinct templates exist (guards against
    /// running the eager enumerator on a Freebase-scale schema — use the
    /// FreeQ lazy traversal there instead).
    pub fn enumerate(db: &Database, max_joins: usize, cap: usize) -> RelResult<Self> {
        let graph = SchemaGraph::new(db.schema());
        let mut seen: HashSet<String> = HashSet::new();
        let mut out: Vec<JoinTree> = Vec::new();
        let mut queue: VecDeque<JoinTree> = VecDeque::new();

        for (tid, _) in db.schema().tables() {
            let t = JoinTree::single(tid);
            if seen.insert(canonical_code(&t)) {
                out.push(t.clone());
                queue.push_back(t);
            }
        }

        // A foreign-key *column* of one table occurrence can participate in
        // only one join: attaching the same fk twice to the occurrence that
        // holds the column would force the two parent occurrences to be the
        // same row (the degenerate R←S→R shape DISCOVER prunes). The pk
        // side may fan out freely (two `acts` rows of one `movie`).
        let from_side_used = |tree: &JoinTree, node_idx: usize, fk: FkRef| {
            tree.edges.iter().any(|e| {
                if e.fk != fk.id || (e.a != node_idx && e.b != node_idx) {
                    return false;
                }
                let (this, other) = if e.a == node_idx {
                    (e.a, e.b)
                } else {
                    (e.b, e.a)
                };
                let this_is_from = tree.nodes[this] == fk.from_table;
                let other_is_from = tree.nodes[other] == fk.from_table;
                // Ambiguous self-fk: be conservative and treat as used.
                this_is_from || (this_is_from == other_is_from)
            })
        };

        while let Some(tree) = queue.pop_front() {
            if tree.join_count() >= max_joins {
                continue;
            }
            for (node_idx, &table) in tree.nodes.iter().enumerate() {
                for edge in graph.neighbors(table) {
                    let other = edge.other(table);
                    let fk_def = db.schema().fk(edge.fk);
                    let fkref = FkRef {
                        id: edge.fk,
                        from_table: fk_def.from.table,
                    };
                    // Skip if the existing occurrence would use its fk
                    // column a second time.
                    if fk_def.from.table == table && from_side_used(&tree, node_idx, fkref) {
                        continue;
                    }
                    let mut next = tree.clone();
                    next.nodes.push(other);
                    next.edges.push(JoinTreeEdge {
                        a: node_idx,
                        b: next.nodes.len() - 1,
                        fk: edge.fk,
                    });
                    let code = canonical_code(&next);
                    if seen.insert(code) {
                        if out.len() >= cap {
                            return Err(RelError::MalformedJoinTree(format!(
                                "template enumeration exceeded cap of {cap}"
                            )));
                        }
                        out.push(next.clone());
                        queue.push_back(next);
                    }
                }
            }
        }

        Ok(Self::from_trees(out))
    }

    /// Build a catalog from an explicit template list, ids in list order.
    fn from_trees(trees: Vec<JoinTree>) -> Self {
        let templates: Vec<QueryTemplate> = trees
            .into_iter()
            .enumerate()
            .map(|(i, tree)| QueryTemplate::new(TemplateId(i as u32), tree))
            .collect();
        let mut by_table: HashMap<TableId, Vec<TemplateId>> = HashMap::new();
        for t in &templates {
            for table in t.distinct_tables() {
                by_table.entry(table).or_default().push(t.id);
            }
        }
        TemplateCatalog {
            templates,
            by_table,
        }
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The template with id `id`.
    pub fn get(&self, id: TemplateId) -> &QueryTemplate {
        &self.templates[id.0 as usize]
    }

    /// Iterate over all templates.
    pub fn iter(&self) -> impl Iterator<Item = &QueryTemplate> {
        self.templates.iter()
    }

    /// Templates containing table `t`.
    pub fn containing(&self, t: TableId) -> &[TemplateId] {
        self.by_table.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_relstore::{SchemaBuilder, TableKind};

    fn movie_db() -> Database {
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
        Database::new(b.finish().unwrap())
    }

    #[test]
    fn zero_joins_yields_singletons() {
        let db = movie_db();
        let c = TemplateCatalog::enumerate(&db, 0, 100).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|t| t.join_count() == 0));
    }

    #[test]
    fn enumeration_counts_small_schema() {
        let db = movie_db();
        // 1 join: actor-acts, acts-movie => 3 + 2 = 5.
        let c1 = TemplateCatalog::enumerate(&db, 1, 100).unwrap();
        assert_eq!(c1.len(), 5);
        // 2 joins adds actor-acts-movie and actor-acts x2? No: distinct
        // shapes with 2 edges: actor-acts-movie, movie-acts (already), plus
        // acts-actor-..? actor has degree 1, so only the path through acts.
        let c2 = TemplateCatalog::enumerate(&db, 2, 100).unwrap();
        assert!(c2.len() > c1.len());
        let sigs: Vec<Vec<String>> = c2.iter().map(|t| t.signature(&db)).collect();
        assert!(sigs.contains(&vec![
            "actor".to_owned(),
            "acts".to_owned(),
            "movie".to_owned()
        ]));
    }

    #[test]
    fn self_join_shapes_enumerated() {
        let db = movie_db();
        let c4 = TemplateCatalog::enumerate(&db, 4, 1000).unwrap();
        // actor-acts-movie-acts-actor (a movie with two actors).
        let sig = vec![
            "actor".to_owned(),
            "actor".to_owned(),
            "acts".to_owned(),
            "acts".to_owned(),
            "movie".to_owned(),
        ];
        assert!(c4.iter().any(|t| t.signature(&db) == sig));
        // All trees validate against the db.
        for t in c4.iter() {
            t.tree.validate(&db).unwrap();
        }
    }

    #[test]
    fn dedup_no_isomorphic_duplicates() {
        let db = movie_db();
        let c = TemplateCatalog::enumerate(&db, 3, 1000).unwrap();
        let codes: HashSet<String> = c.iter().map(|t| canonical_code(&t.tree)).collect();
        assert_eq!(codes.len(), c.len());
    }

    #[test]
    fn cap_enforced() {
        let db = movie_db();
        let err = TemplateCatalog::enumerate(&db, 4, 3).unwrap_err();
        assert!(matches!(err, RelError::MalformedJoinTree(_)));
    }

    #[test]
    fn by_table_index() {
        let db = movie_db();
        let c = TemplateCatalog::enumerate(&db, 2, 100).unwrap();
        let actor = db.schema().table_id("actor").unwrap();
        for id in c.containing(actor) {
            assert!(c.get(*id).tree.nodes.contains(&actor));
        }
        assert!(!c.containing(actor).is_empty());
    }

    #[test]
    fn nodes_of_table_and_leaves() {
        let db = movie_db();
        let c = TemplateCatalog::enumerate(&db, 4, 1000).unwrap();
        let actor = db.schema().table_id("actor").unwrap();
        let two_actor = c
            .iter()
            .find(|t| t.nodes_of_table(actor).len() == 2)
            .expect("self-join template exists");
        let nodes = two_actor.nodes_of_table(actor);
        for n in nodes {
            assert!(two_actor.is_leaf(*n), "actor occurrences are leaves");
        }
    }

    #[test]
    fn from_trees_roundtrip() {
        let db = movie_db();
        let actor = db.schema().table_id("actor").unwrap();
        let c = TemplateCatalog::from_trees(vec![JoinTree::single(actor)]);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert_eq!(c.get(TemplateId(0)).tree.nodes, vec![actor]);
    }
}
