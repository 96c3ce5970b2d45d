//! The baseline ranker.
//!
//! * [`sqak_score`] — the SQAK-style ranking of §3.8.3: a query
//!   interpretation is a graph whose keyword nodes are scored by Lucene-style
//!   TF-IDF and whose keyword-free nodes and edges carry unit scores, with a
//!   Steiner-tree-minimization preference for small trees. Following the
//!   paper's description we aggregate `Σ node scores` and normalize by tree
//!   size, so shorter join sequences win ties — exactly the behaviour that
//!   hurts SQAK on the Lyrics chain queries.

use crate::interp::{BindingTarget, QueryInterpretation};
use crate::template::TemplateCatalog;
use keybridge_index::InvertedIndex;
use keybridge_relstore::{AttrRef, Database};

/// Lucene-classic-style score of a keyword bag in one attribute:
/// `Σ_k sqrt(tf̄(k)) · idf(k)²` where `tf̄` is the average per-row term
/// frequency among matching rows. Nodes whose bag never co-occurs score on
/// marginal statistics only, mirroring the Boolean-AND scoring the paper
/// plugs in for multi-keyword nodes.
fn lucene_bag_score(index: &InvertedIndex, keywords: &[String], attr: AttrRef) -> f64 {
    let mut s = 0.0;
    for k in keywords {
        let df = index.df(k, attr);
        if df == 0 {
            continue;
        }
        let occurrences = index
            .postings(k, attr)
            .map(|e| e.occurrences as f64)
            .unwrap_or(0.0);
        let avg_tf = occurrences / df as f64;
        let idf = index.idf(k, attr);
        s += avg_tf.sqrt() * idf * idf;
    }
    s
}

/// SQAK-style score: TF-IDF node scores plus unit scores for keyword-free
/// elements, normalized by tree size (Steiner minimization).
pub fn sqak_score(
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
) -> f64 {
    let tpl = catalog.get(interp.template);
    let n_nodes = tpl.tree.nodes.len();
    let n_edges = tpl.tree.edges.len();

    let mut keyword_score = 0.0;
    let mut keyword_nodes = vec![false; n_nodes];
    for b in &interp.bindings {
        keyword_nodes[b.target.node()] = true;
        match b.target {
            BindingTarget::Value { node, attr } => {
                let aref = AttrRef {
                    table: tpl.tree.nodes[node],
                    attr,
                };
                keyword_score += lucene_bag_score(index, &b.keywords, aref);
            }
            // Metadata matches get a flat schema-term bonus (schema terms
            // carry maximal DF in SQAK's scheme; a constant preserves that
            // ordering without a second index).
            BindingTarget::TableName { .. } | BindingTarget::AttrName { .. } => {
                keyword_score += 1.0;
            }
        }
    }
    let free_nodes = keyword_nodes.iter().filter(|k| !**k).count();
    let unit = (free_nodes + n_edges) as f64;
    let _ = db; // schema currently unused; kept for signature stability
    (keyword_score + unit) / (n_nodes + n_edges) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::KeywordBinding;
    use keybridge_relstore::{SchemaBuilder, TableKind, Value};

    fn setup() -> (Database, InvertedIndex, TemplateCatalog) {
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
        // "garcia" frequent in names, rare in titles -> TF-IDF prefers title.
        for (i, n) in ["andy garcia", "eva garcia", "leo garcia"]
            .iter()
            .enumerate()
        {
            db.insert(actor, vec![Value::Int(i as i64), Value::text(*n)])
                .unwrap();
        }
        for (i, t) in ["garcia", "the terminal", "top gun"].iter().enumerate() {
            db.insert(movie, vec![Value::Int(i as i64), Value::text(*t)])
                .unwrap();
        }
        let idx = InvertedIndex::build(&db);
        let catalog = TemplateCatalog::enumerate(&db, 2, 100).unwrap();
        (db, idx, catalog)
    }

    fn single_table_interp(
        db: &Database,
        catalog: &TemplateCatalog,
        table: &str,
        attr: &str,
        kw: &str,
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
                keywords: vec![kw.to_owned()],
                target: BindingTarget::Value {
                    node: 0,
                    attr: aref.attr,
                },
            }],
        )
    }

    #[test]
    fn tfidf_prefers_distinctive_match() {
        // §3.8.3: "By using TF-IDF, [garcia] will be interpreted as movie
        // title, as it occurs less frequently in the movie title than in the
        // actor name."
        let (db, idx, catalog) = setup();
        let name = single_table_interp(&db, &catalog, "actor", "name", "garcia");
        let title = single_table_interp(&db, &catalog, "movie", "title", "garcia");
        assert!(sqak_score(&db, &idx, &catalog, &title) > sqak_score(&db, &idx, &catalog, &name));
    }

    #[test]
    fn unseen_keyword_contributes_nothing() {
        let (db, idx, catalog) = setup();
        let hit = single_table_interp(&db, &catalog, "actor", "name", "garcia");
        let miss = single_table_interp(&db, &catalog, "actor", "name", "zzz");
        assert!(sqak_score(&db, &idx, &catalog, &hit) > sqak_score(&db, &idx, &catalog, &miss));
    }

    #[test]
    fn metadata_binding_scores_flat_bonus() {
        let (db, idx, catalog) = setup();
        let actor_tid = db.schema().table_id("actor").unwrap();
        let tpl = catalog
            .iter()
            .find(|t| t.tree.nodes == vec![actor_tid])
            .unwrap()
            .id;
        let meta = QueryInterpretation::new(
            tpl,
            vec![KeywordBinding {
                keywords: vec!["actor".to_owned()],
                target: BindingTarget::TableName { node: 0 },
            }],
        );
        assert!(sqak_score(&db, &idx, &catalog, &meta) > 0.0);
    }
}
