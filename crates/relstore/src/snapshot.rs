//! Versioned binary snapshots of a [`Database`], plus the framing
//! primitives the rest of the workspace's durability layer builds on
//! (the inverted-index snapshot in `keybridge-index` and the write-ahead
//! log in `keybridge-core` reuse the same cursor/section/CRC toolkit).
//!
//! Layout principles (the EMBANKS "disk-resident state is first-class"
//! direction):
//!
//! * **length-prefixed, checksummed sections** — every section carries its
//!   byte length and a CRC-32 of its payload, so a reader can skip or
//!   validate a section without decoding it, and corruption is detected
//!   *before* any row is materialized;
//! * **deterministic bytes** — tables are written in `TableId` order and
//!   rows in `RowId` order (and the index snapshot sorts its terms), so the
//!   same database always serializes to the same bytes. The recovery suite
//!   leans on this: "no partial apply" is asserted as byte equality of
//!   whole snapshots;
//! * **row ids are preserved** — rows are re-inserted in stored order on
//!   load, so a recovered database assigns exactly the original `RowId`s
//!   and every downstream answer (which renders row ids and keys) is
//!   byte-identical to the pre-crash service's.

use crate::database::{Database, RowBatch};
use crate::error::RelError;
use crate::schema::{SchemaBuilder, TableKind};
use crate::value::{Value, ValueType};
use std::fmt;

/// Errors raised while encoding or decoding snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The leading magic bytes are not a snapshot of the expected kind.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The byte stream ended inside a value or section.
    Truncated,
    /// A section's payload does not match its stored CRC-32.
    BadChecksum { section: u8 },
    /// Structurally invalid content (bad tags, inconsistent counts, …).
    Corrupt(String),
    /// A length does not fit its fixed-width `u32` prefix. Surfaced at
    /// *encode* time — the alternative, a silent `as u32` truncation, would
    /// produce a "valid-looking" snapshot whose reader materializes garbage.
    TooLarge { what: &'static str, len: usize },
    /// Decoded rows were rejected by the relational engine.
    Rel(RelError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("snapshot magic bytes do not match"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated => f.write_str("snapshot bytes truncated"),
            SnapshotError::BadChecksum { section } => {
                write!(f, "checksum mismatch in snapshot section {section}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::TooLarge { what, len } => {
                write!(f, "{what} of {len} bytes exceeds the u32 length prefix")
            }
            SnapshotError::Rel(e) => write!(f, "snapshot rows rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<RelError> for SnapshotError {
    fn from(e: RelError) -> Self {
        SnapshotError::Rel(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial), table-driven, computed at compile time.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 of `data` (IEEE polynomial, as used by zip/png/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Little-endian write helpers over a growable buffer.
// ---------------------------------------------------------------------------

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Checked conversion of a length/count to its fixed-width `u32` encoding.
/// Every `put_u32(.., n as u32)` in the codecs goes through this, so an
/// oversized payload surfaces as [`SnapshotError::TooLarge`] instead of a
/// silently truncated prefix.
pub fn len_u32(what: &'static str, len: usize) -> Result<u32, SnapshotError> {
    u32::try_from(len).map_err(|_| SnapshotError::TooLarge { what, len })
}

/// Length-prefixed UTF-8 string. Fails with [`SnapshotError::TooLarge`] if
/// the string cannot carry a `u32` length prefix.
pub fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), SnapshotError> {
    put_u32(out, len_u32("string", s.len())?);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// LEB128 varints. Counts, dictionary ids, and integer cells use these in the
// dictionary-encoded snapshot format: small values (the overwhelmingly common
// case) cost one byte instead of four or eight, and a length can never
// outgrow its prefix.
// ---------------------------------------------------------------------------

/// Unsigned LEB128.
pub fn put_varu64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Unsigned LEB128, `u32` domain.
pub fn put_varu32(out: &mut Vec<u8>, v: u32) {
    put_varu64(out, v as u64);
}

/// Zigzag-mapped signed LEB128 (small magnitudes of either sign stay short).
pub fn put_vari64(out: &mut Vec<u8>, v: i64) {
    put_varu64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append one framed section: tag, payload length, payload CRC-32, payload.
pub fn put_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    put_u8(out, tag);
    put_u64(out, payload.len() as u64);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

// ---------------------------------------------------------------------------
// Bounds-checked little-endian reader.
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over snapshot bytes. Every read returns
/// [`SnapshotError::Truncated`] instead of panicking when the stream ends
/// early — torn files must fail soft.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    /// Unsigned LEB128, up to 10 bytes.
    pub fn varu64(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                if shift == 63 && (b & 0x7E) != 0 {
                    return Err(SnapshotError::Corrupt("varint overflows u64".into()));
                }
                return Ok(v);
            }
        }
        Err(SnapshotError::Corrupt("varint longer than 10 bytes".into()))
    }

    /// Unsigned LEB128 constrained to the `u32` domain.
    pub fn varu32(&mut self) -> Result<u32, SnapshotError> {
        let v = self.varu64()?;
        u32::try_from(v).map_err(|_| SnapshotError::Corrupt("varint overflows u32".into()))
    }

    /// Zigzag-mapped signed LEB128.
    pub fn vari64(&mut self) -> Result<i64, SnapshotError> {
        let u = self.varu64()?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    /// Read one framed section, verifying its tag and CRC. Returns the
    /// payload slice.
    pub fn section(&mut self, expected_tag: u8) -> Result<&'a [u8], SnapshotError> {
        let tag = self.u8()?;
        if tag != expected_tag {
            return Err(SnapshotError::Corrupt(format!(
                "expected section {expected_tag}, found {tag}"
            )));
        }
        let len = self.u64()? as usize;
        let stored_crc = self.u32()?;
        let payload = self.take(len)?;
        if crc32(payload) != stored_crc {
            return Err(SnapshotError::BadChecksum { section: tag });
        }
        Ok(payload)
    }
}

// ---------------------------------------------------------------------------
// Value and row-batch codecs (shared with the WAL in keybridge-core).
// ---------------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_TEXT: u8 = 2;

pub fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<(), SnapshotError> {
    match v {
        Value::Null => put_u8(out, VAL_NULL),
        Value::Int(i) => {
            put_u8(out, VAL_INT);
            put_i64(out, *i);
        }
        Value::Text(s) => {
            put_u8(out, VAL_TEXT);
            put_str(out, s)?;
        }
    }
    Ok(())
}

pub fn read_value(c: &mut Cursor<'_>) -> Result<Value, SnapshotError> {
    match c.u8()? {
        VAL_NULL => Ok(Value::Null),
        VAL_INT => Ok(Value::Int(c.i64()?)),
        VAL_TEXT => Ok(Value::text(c.str()?)),
        tag => Err(SnapshotError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

/// Encode one [`RowBatch`] — the WAL record payload. Self-describing (each
/// row carries its table id and arity), so a decoder needs no schema.
pub fn encode_batch(batch: &RowBatch) -> Result<Vec<u8>, SnapshotError> {
    let mut out = Vec::new();
    put_u32(&mut out, len_u32("batch row count", batch.len())?);
    for (table, row) in batch {
        put_u32(&mut out, table.0);
        put_u32(&mut out, len_u32("batch row arity", row.len())?);
        for v in row {
            put_value(&mut out, v)?;
        }
    }
    Ok(out)
}

/// Decode a [`RowBatch`] encoded by [`encode_batch`].
pub fn decode_batch(bytes: &[u8]) -> Result<RowBatch, SnapshotError> {
    let mut c = Cursor::new(bytes);
    let n = c.u32()? as usize;
    let mut batch = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let table = crate::schema::TableId(c.u32()?);
        let arity = c.u32()? as usize;
        let mut row = Vec::with_capacity(arity.min(1 << 16));
        for _ in 0..arity {
            row.push(read_value(&mut c)?);
        }
        batch.push((table, row));
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt("trailing bytes after batch".into()));
    }
    Ok(batch)
}

// ---------------------------------------------------------------------------
// Database snapshot.
// ---------------------------------------------------------------------------

const DB_MAGIC: &[u8; 8] = b"KBRELDB1";
/// Version 2: dictionary-encoded text cells + varint integers. Each distinct
/// string is stored once in a dictionary section; cells reference it by a
/// varint symbol id, and integer cells/row counts are varints — the on-disk
/// analog of the in-memory string arena.
const DB_VERSION: u32 = 2;
const SEC_SCHEMA: u8 = 1;
const SEC_ROWS: u8 = 2;
const SEC_DICT: u8 = 3;

const KIND_ENTITY: u8 = 0;
const KIND_RELATION: u8 = 1;
const TY_INT: u8 = 0;
const TY_TEXT: u8 = 1;

impl Database {
    /// Serialize the whole database — schema, string dictionary, and rows —
    /// into the compact, versioned snapshot format. Deterministic: the same
    /// *logical content* always yields the same bytes. In particular the
    /// dictionary is ordered by first occurrence in the table-major, RowId-
    /// ordered row walk — not by arena insertion order, which depends on the
    /// interleaving of live inserts across tables and would differ between
    /// an ingesting database and its decoded twin.
    ///
    /// Fails only with [`SnapshotError::TooLarge`], when some component
    /// cannot carry its fixed-width length prefix.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::new();
        out.extend_from_slice(DB_MAGIC);
        put_u32(&mut out, DB_VERSION);

        // Schema section: tables (name, kind, pk, attrs) then foreign keys.
        let schema = self.schema();
        let mut sec = Vec::new();
        put_u32(&mut sec, len_u32("table count", schema.table_count())?);
        for (_, t) in schema.tables() {
            put_str(&mut sec, &t.name)?;
            put_u8(
                &mut sec,
                match t.kind {
                    TableKind::Entity => KIND_ENTITY,
                    TableKind::Relation => KIND_RELATION,
                },
            );
            put_u32(&mut sec, t.pk.0);
            put_u32(&mut sec, len_u32("attribute count", t.attrs.len())?);
            for a in &t.attrs {
                put_str(&mut sec, &a.name)?;
                put_u8(
                    &mut sec,
                    match a.ty {
                        ValueType::Int => TY_INT,
                        ValueType::Text => TY_TEXT,
                    },
                );
            }
        }
        put_u32(&mut sec, len_u32("foreign key count", schema.fk_count())?);
        for (_, fk) in schema.fks() {
            put_u32(&mut sec, fk.from.table.0);
            put_u32(&mut sec, fk.from.attr.0);
            put_u32(&mut sec, fk.to.table.0);
        }
        put_section(&mut out, SEC_SCHEMA, &sec);

        // Dictionary section: every distinct text-cell string once, in
        // canonical first-occurrence order of the row walk below.
        let mut ids: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut dict: Vec<&str> = Vec::new();
        for (tid, _) in schema.tables() {
            for (_, row) in self.table(tid).rows() {
                for v in row {
                    if let Some(s) = v.as_text() {
                        if !ids.contains_key(s) {
                            ids.insert(s, len_u32("dictionary symbol count", dict.len())?);
                            dict.push(s);
                        }
                    }
                }
            }
        }
        let mut sec = Vec::new();
        put_varu32(&mut sec, len_u32("dictionary symbol count", dict.len())?);
        for s in &dict {
            put_varu64(&mut sec, s.len() as u64);
            sec.extend_from_slice(s.as_bytes());
        }
        put_section(&mut out, SEC_DICT, &sec);

        // One rows section per table, rows in RowId order — the order they
        // are re-inserted in on load, preserving every RowId. Per-table
        // sections keep the door open for a lazy per-table (mmap) reader.
        // Cells are one tag byte plus a varint payload: zigzag integers,
        // dictionary symbol ids for text.
        for (tid, _) in schema.tables() {
            let mut sec = Vec::new();
            let store = self.table(tid);
            put_varu64(&mut sec, store.len() as u64);
            for (_, row) in store.rows() {
                for v in row {
                    match v {
                        Value::Null => put_u8(&mut sec, VAL_NULL),
                        Value::Int(i) => {
                            put_u8(&mut sec, VAL_INT);
                            put_vari64(&mut sec, *i);
                        }
                        Value::Text(s) => {
                            put_u8(&mut sec, VAL_TEXT);
                            let id = ids.get(&**s).copied().expect("dictionary built above");
                            put_varu32(&mut sec, id);
                        }
                    }
                }
            }
            put_section(&mut out, SEC_ROWS, &sec);
        }
        Ok(out)
    }

    /// Decode a snapshot produced by [`Self::snapshot_bytes`]. The schema is
    /// rebuilt through [`SchemaBuilder`] and every row re-inserted in stored
    /// order, so table ids, attribute ids, foreign-key ids, and row ids all
    /// match the original database exactly.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Database, SnapshotError> {
        let mut c = Cursor::new(bytes);
        if c.take(8)? != DB_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = c.u32()?;
        if version != DB_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }

        // Schema section → an intermediate description, then the builder.
        struct TableDesc {
            name: String,
            kind: TableKind,
            pk: u32,
            attrs: Vec<(String, ValueType)>,
        }
        let schema_bytes = c.section(SEC_SCHEMA)?;
        let mut sc = Cursor::new(schema_bytes);
        let n_tables = sc.u32()? as usize;
        // Counts come from the input: every entry takes at least one byte,
        // so the bytes left cap what a crafted count can preallocate.
        let mut tables = Vec::with_capacity(n_tables.min(sc.remaining()));
        for _ in 0..n_tables {
            let name = sc.str()?;
            let kind = match sc.u8()? {
                KIND_ENTITY => TableKind::Entity,
                KIND_RELATION => TableKind::Relation,
                k => return Err(SnapshotError::Corrupt(format!("unknown table kind {k}"))),
            };
            let pk = sc.u32()?;
            let n_attrs = sc.u32()? as usize;
            let mut attrs = Vec::with_capacity(n_attrs.min(sc.remaining()));
            for _ in 0..n_attrs {
                let aname = sc.str()?;
                let ty = match sc.u8()? {
                    TY_INT => ValueType::Int,
                    TY_TEXT => ValueType::Text,
                    t => return Err(SnapshotError::Corrupt(format!("unknown value type {t}"))),
                };
                attrs.push((aname, ty));
            }
            if pk as usize >= attrs.len() || attrs[pk as usize].1 != ValueType::Int {
                return Err(SnapshotError::Corrupt(format!(
                    "table `{name}` has an invalid primary key"
                )));
            }
            tables.push(TableDesc {
                name,
                kind,
                pk,
                attrs,
            });
        }
        let n_fks = sc.u32()? as usize;
        let mut fks = Vec::with_capacity(n_fks.min(sc.remaining()));
        for _ in 0..n_fks {
            let from_table = sc.u32()? as usize;
            let from_attr = sc.u32()? as usize;
            let to_table = sc.u32()? as usize;
            if from_table >= tables.len() || to_table >= tables.len() {
                return Err(SnapshotError::Corrupt("foreign key out of range".into()));
            }
            if from_attr >= tables[from_table].attrs.len() {
                return Err(SnapshotError::Corrupt(
                    "foreign key attr out of range".into(),
                ));
            }
            fks.push((from_table, from_attr, to_table));
        }

        let mut b = SchemaBuilder::new();
        for t in &tables {
            let mut tb = b.table(&t.name, t.kind);
            for (i, (aname, ty)) in t.attrs.iter().enumerate() {
                tb = if i == t.pk as usize {
                    tb.pk(aname)
                } else {
                    match ty {
                        ValueType::Int => tb.int_attr(aname),
                        ValueType::Text => tb.text_attr(aname),
                    }
                };
            }
        }
        for &(ft, fa, tt) in &fks {
            let attr = tables[ft].attrs[fa].0.clone();
            b.foreign_key(&tables[ft].name, &attr, &tables[tt].name)?;
        }
        let schema = b.finish()?;
        let mut db = Database::new(schema);

        // Dictionary section: the shared string table the text cells below
        // reference. Each entry becomes one `Arc<str>`, cloned per cell.
        let dict_bytes = c.section(SEC_DICT)?;
        let mut dc = Cursor::new(dict_bytes);
        let n_syms = dc.varu32()? as usize;
        let mut dict: Vec<std::sync::Arc<str>> = Vec::with_capacity(n_syms.min(1 << 20));
        for _ in 0..n_syms {
            let len = dc.varu64()? as usize;
            let bytes = dc.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| SnapshotError::Corrupt("non-UTF-8 dictionary entry".into()))?;
            dict.push(std::sync::Arc::from(s));
        }
        if dc.remaining() != 0 {
            return Err(SnapshotError::Corrupt(
                "trailing bytes in dictionary section".into(),
            ));
        }

        // Rows sections, one per table, insertion order = RowId order. Bulk
        // `insert` is the right primitive: FK validation already happened
        // before the snapshot was written, and parents may follow children
        // across table sections.
        for ti in 0..n_tables {
            let rows_bytes = c.section(SEC_ROWS)?;
            let mut rc = Cursor::new(rows_bytes);
            let tid = crate::schema::TableId(ti as u32);
            let arity = db.schema().table(tid).attrs.len();
            let n_rows = rc.varu64()? as usize;
            for _ in 0..n_rows {
                let mut row = Vec::with_capacity(arity);
                for _ in 0..arity {
                    row.push(match rc.u8()? {
                        VAL_NULL => Value::Null,
                        VAL_INT => Value::Int(rc.vari64()?),
                        VAL_TEXT => {
                            let id = rc.varu32()? as usize;
                            let s = dict.get(id).ok_or_else(|| {
                                SnapshotError::Corrupt(format!("dictionary id {id} out of range"))
                            })?;
                            Value::Text(s.clone())
                        }
                        tag => {
                            return Err(SnapshotError::Corrupt(format!("unknown value tag {tag}")))
                        }
                    });
                }
                db.insert(tid, row)?;
            }
            if rc.remaining() != 0 {
                return Err(SnapshotError::Corrupt(format!(
                    "trailing bytes in rows section of table {ti}"
                )));
            }
        }
        if c.remaining() != 0 {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after snapshot".into(),
            ));
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;

    fn sample_db() -> Database {
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
            .int_attr("movie_id")
            .text_attr("role");
        b.foreign_key("acts", "actor_id", "actor").unwrap();
        b.foreign_key("acts", "movie_id", "movie").unwrap();
        let mut db = Database::new(b.finish().unwrap());
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let acts = db.schema().table_id("acts").unwrap();
        db.insert(actor, vec![Value::Int(1), Value::text("Tom Hanks")])
            .unwrap();
        db.insert(actor, vec![Value::Int(2), Value::Null]).unwrap();
        db.insert(
            movie,
            vec![
                Value::Int(10),
                Value::text("The Terminal"),
                Value::Int(2004),
            ],
        )
        .unwrap();
        db.insert(
            acts,
            vec![
                Value::Int(100),
                Value::Int(1),
                Value::Int(10),
                Value::text("Viktor Navorski"),
            ],
        )
        .unwrap();
        db.insert(
            acts,
            vec![Value::Int(101), Value::Null, Value::Null, Value::Null],
        )
        .unwrap();
        db
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample_db();
        let bytes = db.snapshot_bytes().unwrap();
        let back = Database::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.schema().table_count(), db.schema().table_count());
        assert_eq!(back.schema().fk_count(), db.schema().fk_count());
        assert_eq!(back.total_rows(), db.total_rows());
        // Row ids, pk index, and child lists all reconstructed exactly.
        let actor = db.schema().table_id("actor").unwrap();
        assert_eq!(back.schema().table_id("actor"), Some(actor));
        assert_eq!(back.table(actor).by_pk(1), db.table(actor).by_pk(1));
        for (fk, _) in db.schema().fks() {
            assert_eq!(back.fk_referrers(fk, 1), db.fk_referrers(fk, 1));
        }
        back.validate().unwrap();
        // Determinism: re-encoding the decoded database is byte-identical.
        assert_eq!(back.snapshot_bytes().unwrap(), bytes);
    }

    #[test]
    fn empty_database_roundtrips() {
        let mut b = SchemaBuilder::new();
        b.table("t", TableKind::Entity).pk("id").text_attr("x");
        let db = Database::new(b.finish().unwrap());
        let back = Database::from_snapshot_bytes(&db.snapshot_bytes().unwrap()).unwrap();
        assert_eq!(back.total_rows(), 0);
        assert_eq!(back.snapshot_bytes().unwrap(), db.snapshot_bytes().unwrap());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let db = sample_db();
        let mut bytes = db.snapshot_bytes().unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(
            Database::from_snapshot_bytes(&wrong).unwrap_err(),
            SnapshotError::BadMagic
        );
        bytes[8] = 99; // version field
        assert!(matches!(
            Database::from_snapshot_bytes(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let db = sample_db();
        let mut bytes = db.snapshot_bytes().unwrap();
        // Flip a byte well inside the schema section payload.
        let i = 40;
        bytes[i] ^= 0xFF;
        let err = Database::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::BadChecksum { .. } | SnapshotError::Corrupt(_)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn every_truncation_fails_soft() {
        let db = sample_db();
        let bytes = db.snapshot_bytes().unwrap();
        for cut in 0..bytes.len() {
            let err = Database::from_snapshot_bytes(&bytes[..cut]).unwrap_err();
            // Never a panic, never a partially loaded Ok.
            let _ = err.to_string();
        }
        // A CRC is not a MAC: a well-framed schema section may claim
        // u32::MAX tables, attributes or foreign keys. Each claim must end
        // as a truncation, never as an allocation sized by the claim.
        let crafted = |tables: u32, attrs: u32, fks: u32| {
            let mut schema = Vec::new();
            put_u32(&mut schema, tables);
            put_str(&mut schema, "t").unwrap();
            put_u8(&mut schema, KIND_ENTITY);
            put_u32(&mut schema, 0); // pk
            put_u32(&mut schema, attrs);
            put_str(&mut schema, "id").unwrap();
            put_u8(&mut schema, TY_INT);
            put_u32(&mut schema, fks);
            let mut out = DB_MAGIC.to_vec();
            put_u32(&mut out, DB_VERSION);
            put_section(&mut out, SEC_SCHEMA, &schema);
            put_section(&mut out, SEC_DICT, &[0]);
            put_section(&mut out, SEC_ROWS, &[0]);
            out
        };
        let honest = Database::from_snapshot_bytes(&crafted(1, 1, 0)).unwrap();
        assert_eq!(honest.total_rows(), 0);
        for (tables, attrs, fks) in [(u32::MAX, 1, 0), (1, u32::MAX, 0), (1, 1, u32::MAX)] {
            assert_eq!(
                Database::from_snapshot_bytes(&crafted(tables, attrs, fks)).unwrap_err(),
                SnapshotError::Truncated,
                "counts {tables}/{attrs}/{fks}"
            );
        }
    }

    #[test]
    fn batch_codec_roundtrips() {
        let batch: RowBatch = vec![
            (TableId(0), vec![Value::Int(7), Value::text("Tom Hanks")]),
            (
                TableId(2),
                vec![Value::Int(8), Value::Null, Value::Int(-3), Value::text("")],
            ),
        ];
        let bytes = encode_batch(&batch).unwrap();
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
        for cut in 0..bytes.len() {
            assert!(decode_batch(&bytes[..cut]).is_err());
        }
        let empty: RowBatch = vec![];
        assert_eq!(decode_batch(&encode_batch(&empty).unwrap()).unwrap(), empty);
    }

    #[test]
    fn varints_roundtrip() {
        let u64s = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &u64s {
            put_varu64(&mut buf, v);
        }
        let i64s = [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN];
        for &v in &i64s {
            put_vari64(&mut buf, v);
        }
        put_varu32(&mut buf, u32::MAX);
        let mut c = Cursor::new(&buf);
        for &v in &u64s {
            assert_eq!(c.varu64().unwrap(), v);
        }
        for &v in &i64s {
            assert_eq!(c.vari64().unwrap(), v);
        }
        assert_eq!(c.varu32().unwrap(), u32::MAX);
        assert_eq!(c.remaining(), 0);
        // A u64-range varint read through the u32 reader is rejected.
        let mut big = Vec::new();
        put_varu64(&mut big, u32::MAX as u64 + 1);
        assert!(matches!(
            Cursor::new(&big).varu32().unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Truncated varint fails soft.
        let mut cont = Vec::new();
        put_varu64(&mut cont, u64::MAX);
        assert_eq!(
            Cursor::new(&cont[..5]).varu64().unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn len_u32_rejects_oversized() {
        // The 4 GiB boundary itself, without allocating 4 GiB.
        assert_eq!(len_u32("string", u32::MAX as usize).unwrap(), u32::MAX);
        assert_eq!(
            len_u32("string", u32::MAX as usize + 1).unwrap_err(),
            SnapshotError::TooLarge {
                what: "string",
                len: u32::MAX as usize + 1,
            }
        );
        let err = len_u32("batch row count", usize::MAX).unwrap_err();
        assert!(err.to_string().contains("batch row count"), "{err}");
    }

    #[test]
    fn dictionary_order_is_canonical_not_insert_order() {
        // Two databases with identical content built through different
        // insert interleavings (live ingest vs. table-major reload) must
        // produce byte-identical snapshots: the dictionary is derived from
        // the row walk, not from arena insertion order.
        let build = |interleaved: bool| {
            let mut b = SchemaBuilder::new();
            b.table("a", TableKind::Entity).pk("id").text_attr("x");
            b.table("m", TableKind::Entity).pk("id").text_attr("y");
            let mut db = Database::new(b.finish().unwrap());
            let a = db.schema().table_id("a").unwrap();
            let m = db.schema().table_id("m").unwrap();
            if interleaved {
                // "zulu" enters the arena first, via table m.
                db.insert(m, vec![Value::Int(1), Value::text("zulu")])
                    .unwrap();
                db.insert(a, vec![Value::Int(1), Value::text("alpha")])
                    .unwrap();
                db.insert(m, vec![Value::Int(2), Value::text("alpha")])
                    .unwrap();
            } else {
                db.insert(a, vec![Value::Int(1), Value::text("alpha")])
                    .unwrap();
                db.insert(m, vec![Value::Int(1), Value::text("zulu")])
                    .unwrap();
                db.insert(m, vec![Value::Int(2), Value::text("alpha")])
                    .unwrap();
            }
            db
        };
        assert_eq!(
            build(true).snapshot_bytes().unwrap(),
            build(false).snapshot_bytes().unwrap()
        );
    }

    #[test]
    fn dictionary_encoding_beats_naive_on_repeated_strings() {
        let mut b = SchemaBuilder::new();
        b.table("t", TableKind::Entity).pk("id").text_attr("x");
        let mut db = Database::new(b.finish().unwrap());
        let t = db.schema().table_id("t").unwrap();
        for i in 0..200 {
            let s = if i % 2 == 0 {
                "tom hanks"
            } else {
                "the terminal"
            };
            db.insert(t, vec![Value::Int(i), Value::text(s)]).unwrap();
        }
        // 100 copies each of a 9- and a 12-byte string: the whole snapshot —
        // schema, dictionary and 200 rows — is smaller than the text payload
        // alone would be with one copy per cell.
        let real = db.snapshot_bytes().unwrap().len();
        let text_payload = 100 * "tom hanks".len() + 100 * "the terminal".len();
        assert!(
            real * 4 < text_payload * 3,
            "dictionary snapshot ({real} B) should be at least 25% smaller \
             than its undeduplicated text ({text_payload} B)"
        );
        // And the compact form still roundtrips exactly.
        let back = Database::from_snapshot_bytes(&db.snapshot_bytes().unwrap()).unwrap();
        assert_eq!(back.snapshot_bytes().unwrap(), db.snapshot_bytes().unwrap());
    }
}
