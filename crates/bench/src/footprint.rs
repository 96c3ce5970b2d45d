//! Size models of the representations the store and index used *before*
//! interning, dictionary snapshots and packed postings: what identical
//! content would cost without them. `smoke --scale` records them next to the
//! real sizes (the informational `_naive` baseline keys); nothing serves
//! from them, which is why they live here and not in the crates they model.

use keybridge_index::InvertedIndex;
use keybridge_relstore::{Database, Value};
use std::collections::BTreeSet;

/// Section framing of the snapshot formats: tag + `u64` length + CRC-32.
const FRAME: u64 = 13;
/// Magic + version header.
const HEADER: u64 = 12;

/// Size of the version-1 store snapshot of `db`'s content: fixed 8-byte
/// integers and every text cell carrying its own length-prefixed string
/// copy, no dictionary.
pub fn naive_store_snapshot_bytes(db: &Database) -> u64 {
    let schema = db.schema();
    let mut sec = 4u64; // table count
    for (_, t) in schema.tables() {
        sec += 4 + t.name.len() as u64 + 1 + 4 + 4;
        for a in &t.attrs {
            sec += 4 + a.name.len() as u64 + 1;
        }
    }
    sec += 4 + schema.fk_count() as u64 * 12;
    let mut total = HEADER + FRAME + sec;
    for (tid, _) in schema.tables() {
        let mut sec = 4u64; // row count
        for (_, row) in db.table(tid).rows() {
            for v in row {
                sec += match v {
                    Value::Null => 1,
                    Value::Int(_) => 9,
                    Value::Text(s) => 5 + s.len() as u64,
                };
            }
        }
        total += FRAME + sec;
    }
    total
}

/// What [`Database::approx_heap_bytes`] would report for the pre-interning
/// representation, where every text cell owned its own `String` copy —
/// identical content, identical struct-size constants, no arena.
pub fn naive_heap_bytes(db: &Database) -> u64 {
    const ROW_VEC: u64 = 24;
    const CELL: u64 = 24;
    const PK_ENTRY: u64 = 16;
    const FK_ENTRY: u64 = 12;
    let mut bytes = 0u64;
    for (tid, _) in db.schema().tables() {
        for (_, row) in db.table(tid).rows() {
            bytes += ROW_VEC + PK_ENTRY + row.len() as u64 * CELL;
            bytes += row
                .iter()
                .filter_map(Value::as_text)
                .map(|s| s.len() as u64)
                .sum::<u64>();
        }
    }
    // One fk-index posting per row holding a non-null foreign key.
    for (_, fk) in db.schema().fks() {
        let col = fk.from.attr.0 as usize;
        let postings = db
            .table(fk.from.table)
            .rows()
            .filter(|(_, row)| row[col].as_int().is_some())
            .count();
        bytes += postings as u64 * FK_ENTRY;
    }
    bytes
}

/// Size of the version-1 index snapshot of `index` (built over `db`):
/// fixed-width `(row, tf)` `u32` pairs per posting, no packing.
pub fn naive_index_snapshot_bytes(db: &Database, index: &InvertedIndex) -> u64 {
    let tokenizer = index.tokenizer();
    let mut sec = 4u64;
    for w in tokenizer.stopwords() {
        sec += 4 + w.len() as u64;
    }
    let mut total = HEADER + FRAME + sec;
    total += FRAME + 4 + index.indexed_attrs().count() as u64 * 24;
    let mut sec = 4u64;
    for term in index.terms() {
        sec += 4 + term.len() as u64 + 4;
    }
    for (_, _, postings) in index.term_attr_postings() {
        sec += 8 + 8 + 4 + postings.df() as u64 * 8;
    }
    total += FRAME + sec;
    // Schema terms: the tokens of every table and attribute name.
    let mut schema_terms: BTreeSet<String> = BTreeSet::new();
    for (_, t) in db.schema().tables() {
        schema_terms.extend(tokenizer.tokenize(&t.name));
        for a in &t.attrs {
            schema_terms.extend(tokenizer.tokenize(&a.name));
        }
    }
    let mut sec = 4u64;
    for term in &schema_terms {
        sec += 4 + term.len() as u64 + 4 + index.schema_matches(term).len() as u64 * 9;
    }
    total + FRAME + sec
}
