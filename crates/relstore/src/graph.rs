//! The undirected schema graph (Fig. 2.2 of the paper): nodes are tables,
//! edges are foreign keys. Query templates are connected subtrees of this
//! graph; candidate-network enumeration walks it breadth-first.

use crate::schema::{FkId, Schema, TableId};

/// One undirected edge of the schema graph, remembering which foreign key
/// induced it and its orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// The foreign key behind this edge.
    pub fk: FkId,
    /// The table on the referencing (`from`) side of the foreign key.
    pub from_table: TableId,
    /// The table on the referenced (`to`) side of the foreign key.
    pub to_table: TableId,
}

impl GraphEdge {
    /// Given one endpoint, return the other.
    pub fn other(&self, t: TableId) -> TableId {
        if t == self.from_table {
            self.to_table
        } else {
            self.from_table
        }
    }

    /// Whether `t` is an endpoint of this edge.
    pub fn touches(&self, t: TableId) -> bool {
        t == self.from_table || t == self.to_table
    }
}

/// Adjacency view over the foreign keys of a [`Schema`].
#[derive(Debug, Clone)]
pub struct SchemaGraph {
    adj: Vec<Vec<GraphEdge>>,
}

impl SchemaGraph {
    /// Build the graph from a schema.
    pub fn new(schema: &Schema) -> Self {
        let mut adj = vec![Vec::new(); schema.table_count()];
        for (fk_id, fk) in schema.fks() {
            let e = GraphEdge {
                fk: fk_id,
                from_table: fk.from.table,
                to_table: fk.to.table,
            };
            adj[fk.from.table.0 as usize].push(e);
            if fk.to.table != fk.from.table {
                adj[fk.to.table.0 as usize].push(e);
            }
        }
        SchemaGraph { adj }
    }

    /// Number of nodes (tables).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// All edges incident to `t`.
    pub fn neighbors(&self, t: TableId) -> &[GraphEdge] {
        &self.adj[t.0 as usize]
    }

    /// Degree of `t`.
    pub fn degree(&self, t: TableId) -> usize {
        self.adj[t.0 as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{SchemaBuilder, TableKind};

    fn chain_schema(n: usize) -> Schema {
        // t0 <- t1 <- t2 ... a chain of FKs.
        let mut b = SchemaBuilder::new();
        for i in 0..n {
            let name = format!("t{i}");
            let tb = b.table(&name, TableKind::Entity).pk("id");
            if i > 0 {
                tb.int_attr("parent_id");
            }
        }
        for i in 1..n {
            b.foreign_key(&format!("t{i}"), "parent_id", &format!("t{}", i - 1))
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_adjacency() {
        let s = chain_schema(4);
        let g = SchemaGraph::new(&s);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.degree(TableId(0)), 1);
        assert_eq!(g.degree(TableId(1)), 2);
        assert_eq!(g.degree(TableId(3)), 1);
    }

    #[test]
    fn edge_other_endpoint() {
        let s = chain_schema(2);
        let g = SchemaGraph::new(&s);
        let e = g.neighbors(TableId(0))[0];
        assert_eq!(e.other(TableId(0)), TableId(1));
        assert_eq!(e.other(TableId(1)), TableId(0));
        assert!(e.touches(TableId(0)) && e.touches(TableId(1)));
    }

    #[test]
    fn self_referencing_fk_single_adjacency() {
        let mut b = SchemaBuilder::new();
        b.table("emp", TableKind::Entity)
            .pk("id")
            .int_attr("boss_id");
        b.foreign_key("emp", "boss_id", "emp").unwrap();
        let s = b.finish().unwrap();
        let g = SchemaGraph::new(&s);
        // A self-loop appears once, not twice.
        assert_eq!(g.degree(TableId(0)), 1);
    }
}
