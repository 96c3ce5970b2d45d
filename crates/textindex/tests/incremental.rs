//! Property test: incremental posting/statistic maintenance
//! (`InvertedIndex::index_row`) is *exactly* equivalent to a full
//! `InvertedIndex::build` rebuild — same postings in the same (row-sorted)
//! order, same sorted `attrs_containing` slices, same integer statistics,
//! and therefore bit-identical ATF / IDF / joint-ATF values — over
//! randomized insert sequences on a randomized schema, and over the same
//! rows spliced in shuffled order.
//!
//! This is the correctness spine under the live-ingestion path: the serving
//! layer swaps in incrementally maintained indexes, and the end-to-end
//! ingest-sweep histories (`differential_*_three_schedules` in
//! `tests/serving` at the workspace root) only hold if the index layer is
//! exact.

use keybridge_index::InvertedIndex;
use keybridge_relstore::{AttrRef, Database, SchemaBuilder, TableKind, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small overlapping vocabulary so terms collide across rows, attributes,
/// and tables (the interesting splice cases).
const VOCAB: &[&str] = &[
    "tom", "hanks", "terminal", "cruise", "meg", "ryan", "top", "gun", "drama", "velocity",
];

fn random_text(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.08) {
        return Value::Null; // null text values must stay a no-op
    }
    let n = rng.gen_range(1..=4);
    let words: Vec<&str> = (0..n)
        .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())])
        .collect();
    Value::text(words.join(" "))
}

/// A 3-table schema with one single-text, one double-text, and one
/// text-free table, so every maintenance shape is exercised.
fn schema() -> Database {
    let mut b = SchemaBuilder::new();
    b.table("person", TableKind::Entity)
        .pk("id")
        .text_attr("name");
    b.table("work", TableKind::Entity)
        .pk("id")
        .text_attr("title")
        .text_attr("summary")
        .int_attr("year");
    b.table("link", TableKind::Relation)
        .pk("id")
        .int_attr("a")
        .int_attr("b");
    Database::new(b.finish().unwrap())
}

/// Assert full structural + statistical equality of two indexes.
fn assert_equivalent(live: &InvertedIndex, rebuilt: &InvertedIndex, ctx: &str) {
    let mut live_terms: Vec<&str> = live.terms().collect();
    let mut rebuilt_terms: Vec<&str> = rebuilt.terms().collect();
    live_terms.sort_unstable();
    rebuilt_terms.sort_unstable();
    assert_eq!(live_terms, rebuilt_terms, "{ctx}: dictionaries differ");

    let attrs: Vec<AttrRef> = {
        let mut v: Vec<AttrRef> = rebuilt.indexed_attrs().collect();
        v.sort();
        v
    };
    for &attr in &attrs {
        assert_eq!(
            live.attr_stats(attr),
            rebuilt.attr_stats(attr),
            "{ctx}: attr_stats({attr:?}) diverged"
        );
        // Bit-exact derived statistics (f64 equality is intentional).
        assert_eq!(
            live.atf_denominator(attr, 1.0).to_bits(),
            rebuilt.atf_denominator(attr, 1.0).to_bits(),
            "{ctx}: atf_denominator({attr:?})"
        );
    }

    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for term in &live_terms {
        assert_eq!(
            live.attrs_containing(term),
            rebuilt.attrs_containing(term),
            "{ctx}: attrs_containing({term}) diverged"
        );
        for &attr in rebuilt.attrs_containing(term) {
            let a = live.postings(term, attr).expect("live has term/attr");
            let b = rebuilt.postings(term, attr).expect("rebuilt has term/attr");
            assert_eq!(
                a.rows().collect::<Vec<_>>(),
                b.rows().collect::<Vec<_>>(),
                "{ctx}: postings({term}, {attr:?})"
            );
            assert_eq!(
                a.occurrences, b.occurrences,
                "{ctx}: occurrences({term}, {attr:?})"
            );
            assert_eq!(
                live.idf(term, attr).to_bits(),
                rebuilt.idf(term, attr).to_bits(),
                "{ctx}: idf({term}, {attr:?})"
            );
            assert_eq!(
                live.atf(term, attr, 1.0).to_bits(),
                rebuilt.atf(term, attr, 1.0).to_bits(),
                "{ctx}: atf({term}, {attr:?})"
            );
        }
        // Joint statistics over random keyword bags (incl. absent pairs).
        let other = VOCAB[rng.gen_range(0..VOCAB.len())];
        let bag = vec![(*term).to_owned(), other.to_owned()];
        for &attr in &attrs {
            assert_eq!(
                live.joint_atf(&bag, attr, 1.0).to_bits(),
                rebuilt.joint_atf(&bag, attr, 1.0).to_bits(),
                "{ctx}: joint_atf({bag:?}, {attr:?})"
            );
            assert_eq!(
                live.rows_with_all(&bag, attr),
                rebuilt.rows_with_all(&bag, attr),
                "{ctx}: rows_with_all({bag:?}, {attr:?})"
            );
        }
    }
}

/// One randomized run: preload a prefix, build the live index, then insert
/// the remaining rows one at a time in random table order, comparing against
/// a from-scratch rebuild at every checkpoint.
fn run_sequence(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = schema();
    let person = db.schema().table_id("person").unwrap();
    let work = db.schema().table_id("work").unwrap();
    let link = db.schema().table_id("link").unwrap();

    let preload = rng.gen_range(0..8);
    let mut next_pk = [1i64; 3];
    let mut make_row = |table_idx: usize, rng: &mut StdRng| -> (usize, Vec<Value>) {
        let pk = next_pk[table_idx];
        next_pk[table_idx] += 1;
        let row = match table_idx {
            0 => vec![Value::Int(pk), random_text(rng)],
            1 => vec![
                Value::Int(pk),
                random_text(rng),
                random_text(rng),
                Value::Int(1990 + pk),
            ],
            _ => vec![Value::Int(pk), Value::Int(pk), Value::Int(pk)],
        };
        (table_idx, row)
    };
    let tables = [person, work, link];
    for _ in 0..preload {
        let (t, row) = make_row(rng.gen_range(0..3), &mut rng);
        db.insert(tables[t], row).unwrap();
    }

    let mut live = InvertedIndex::build(&db);
    let inserts = rng.gen_range(8..28);
    for step in 0..inserts {
        let (t, row) = make_row(rng.gen_range(0..3), &mut rng);
        let rid = db.insert(tables[t], row).unwrap();
        live.index_row(&db, tables[t], rid);
        // Checkpoint roughly every third insert plus always at the end.
        if step % 3 == 0 || step + 1 == inserts {
            let rebuilt = InvertedIndex::build(&db);
            assert_equivalent(&live, &rebuilt, &format!("seed {seed} step {step}"));
        }
    }

    // Out-of-order splices, which a build never takes: every stored row,
    // shuffled, into an index built over the empty schema.
    let mut rows: Vec<_> = tables
        .iter()
        .flat_map(|&t| db.table(t).rows().map(move |(r, _)| (t, r)))
        .collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    let mut shuffled = InvertedIndex::build(&schema());
    shuffled.index_batch(&db, &rows);
    let rebuilt = InvertedIndex::build(&db);
    assert_equivalent(&shuffled, &rebuilt, &format!("seed {seed} shuffled"));
    assert_eq!(
        shuffled.snapshot_bytes().unwrap(),
        rebuilt.snapshot_bytes().unwrap(),
        "seed {seed}: shuffled splices must encode canonically"
    );
}

#[test]
fn incremental_equals_rebuild_randomized() {
    for seed in [11, 22, 33, 44, 55] {
        run_sequence(seed);
    }
}

#[test]
fn index_batch_equals_rebuild() {
    let mut db = schema();
    let person = db.schema().table_id("person").unwrap();
    let work = db.schema().table_id("work").unwrap();
    db.insert(person, vec![Value::Int(1), Value::text("tom hanks")])
        .unwrap();
    let mut live = InvertedIndex::build(&db);
    let mut fresh = Vec::new();
    for (pk, name) in [(2, "meg ryan"), (3, "tom cruise")] {
        let rid = db
            .insert(person, vec![Value::Int(pk), Value::text(name)])
            .unwrap();
        fresh.push((person, rid));
    }
    let rid = db
        .insert(
            work,
            vec![
                Value::Int(1),
                Value::text("top gun"),
                Value::text("tom cruise drama"),
                Value::Int(1986),
            ],
        )
        .unwrap();
    fresh.push((work, rid));
    live.index_batch(&db, &fresh);
    let rebuilt = InvertedIndex::build(&db);
    assert_equivalent(&live, &rebuilt, "batch");
}
