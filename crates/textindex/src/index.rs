//! The inverted index and its attribute statistics.
//!
//! Storage layout: one [`TermEntry`] per dictionary term holding *parallel,
//! attribute-sorted* vectors of attributes and postings. The layout serves
//! the interpretation generator's hot paths directly:
//!
//! * [`InvertedIndex::attrs_containing`] returns a borrowed slice — no
//!   allocation, deterministic order — because candidate harvesting runs
//!   once per distinct query term per query;
//! * [`InvertedIndex::postings`] is a binary search in a short vector
//!   (terms rarely occur in more than a handful of attributes);
//! * [`InvertedIndex::rows_with_all`] and [`InvertedIndex::joint_atf`]
//!   intersect postings in place over the packed lists
//!   ([`for_each_joint_row`]: a word-AND of all-bitmap inputs, otherwise
//!   the smallest-df list probing the others), never building per-call
//!   hash sets;
//!   [`InvertedIndex::has_row_with_all`] is the early-exit variant backing
//!   the generator's non-emptiness cache.
//!
//! Postings are packed per an adaptive, canonical [`PostingsRepr`]: sparse
//! lists as delta-encoded varints, dense lists as fixed-width bitmap blocks
//! ([`TermAttrEntry`]), decoded on read. The repr choice is a pure function
//! of the posting set, so incremental maintenance, rebuilds, and snapshots
//! all agree byte-for-byte; the on-disk snapshot stores the packed bytes
//! verbatim behind a per-entry repr tag.

use crate::token::Tokenizer;
use keybridge_relstore::snapshot::{
    len_u32, put_section, put_str, put_u32, put_u64, put_u8, put_varu32, put_varu64, Cursor,
    SnapshotError,
};
use keybridge_relstore::{AttrId, AttrRef, Database, RowId, TableId};
use std::collections::HashMap;

/// Physical layout of one [`TermAttrEntry`]'s packed buffer.
///
/// The repr is a *canonical* function of the logical posting set: sparse
/// lists delta-encode row gaps, dense lists — at least `BITMAP_MIN_DF` (16)
/// postings covering at least 1/`BITMAP_DENSITY` (1/32) of their row span —
/// switch to a fixed-width bitmap block. Because the choice depends only on
/// the final set, never on mutation order, splice-equals-rebuild and
/// snapshot canonicality survive the adaptive layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PostingsRepr {
    /// Delta-encoded LEB128 `(row gap, tf)` pairs.
    #[default]
    Gaps,
    /// `varu32 base, varu32 nwords`, then `nwords` little-endian `u64`
    /// words of row-presence bits (bit `i` set = row `base + i` present),
    /// then `df` LEB128 term frequencies in ascending row order.
    Bitmap,
}

/// The bitmap repr needs at least this many postings...
const BITMAP_MIN_DF: u32 = 16;
/// ...covering at least `1 / BITMAP_DENSITY` of their row span
/// (`df * BITMAP_DENSITY >= span`). At the threshold a bitmap costs ~4
/// bytes of words per posting, comfortably under a fixed-width 8-byte
/// `(row, tf)` pair.
const BITMAP_DENSITY: u64 = 32;

/// Postings of one term within one attribute: row-sorted `(row, tf)` pairs,
/// packed per [`PostingsRepr`] and decoded on read.
///
/// The packed layout is a *canonical* function of the logical postings —
/// both the repr choice and the bytes within each repr are determined by
/// the final set alone. Appends in row order extend the buffer in place
/// (re-encoding only when the append flips the canonical repr);
/// out-of-order splices decode, merge, and re-encode, so an incrementally
/// maintained entry is byte-identical to one rebuilt from scratch, and the
/// snapshot inherits that guarantee by storing the packed bytes verbatim.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermAttrEntry {
    /// Packed postings, laid out per `repr`.
    packed: Vec<u8>,
    /// Physical layout of `packed` — always canonical for the stored set.
    repr: PostingsRepr,
    /// Number of rows containing the term (document frequency).
    df: u32,
    /// Row id of the final posting — the append fast-path base; 0 when empty.
    last: u32,
    /// Total occurrences of the term across all rows of this attribute.
    pub occurrences: u64,
}

/// Decoding iterator over a packed postings buffer: yields `(row, tf)` in
/// ascending row order, whatever the entry's repr.
#[derive(Debug, Clone)]
pub struct Postings<'a> {
    cur: Cur<'a>,
}

#[derive(Debug, Clone)]
enum Cur<'a> {
    Gaps {
        bytes: &'a [u8],
        pos: usize,
        prev: u32,
        started: bool,
    },
    Bitmap {
        base: u32,
        words: &'a [u8],
        tfs: &'a [u8],
        tf_pos: usize,
        /// Next bit index to examine.
        bit: usize,
    },
}

impl Iterator for Postings<'_> {
    type Item = (RowId, u32);

    fn next(&mut self) -> Option<(RowId, u32)> {
        match &mut self.cur {
            Cur::Gaps {
                bytes,
                pos,
                prev,
                started,
            } => {
                if *pos >= bytes.len() {
                    return None;
                }
                let delta = read_varu32(bytes, pos);
                let row = if *started { *prev + delta } else { delta };
                *started = true;
                *prev = row;
                let tf = read_varu32(bytes, pos);
                Some((RowId(row), tf))
            }
            Cur::Bitmap {
                base,
                words,
                tfs,
                tf_pos,
                bit,
            } => {
                let nbits = words.len() * 8;
                while *bit < nbits {
                    let byte = *bit / 8;
                    let masked = words[byte] & (0xFFu8 << (*bit % 8));
                    if masked != 0 {
                        let b = byte * 8 + masked.trailing_zeros() as usize;
                        *bit = b + 1;
                        let tf = read_varu32(tfs, tf_pos);
                        return Some((RowId(*base + b as u32), tf));
                    }
                    *bit = (byte + 1) * 8;
                }
                None
            }
        }
    }
}

/// Word `i` of a bitmap block: 64 presence bits, little-endian.
#[inline]
fn word_at(words: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(words[i * 8..i * 8 + 8].try_into().expect("8-byte word"))
}

/// Set bits of the bitmap block `words` in bit range `[from, to)`, counted a
/// `u64` word at a time.
fn count_set_bits(words: &[u8], from: usize, to: usize) -> usize {
    if from >= to {
        return 0;
    }
    let (first, last) = (from / 64, (to - 1) / 64);
    let mut n = 0;
    for i in first..=last {
        let mut word = word_at(words, i);
        if i == first {
            word &= !0 << (from % 64);
        }
        if i == last && !to.is_multiple_of(64) {
            word &= (1 << (to % 64)) - 1;
        }
        n += word.count_ones() as usize;
    }
    n
}

/// Advance `pos` past `n` LEB128 varints without decoding their values.
fn skip_varints(bytes: &[u8], pos: &mut usize, n: usize) {
    for _ in 0..n {
        while bytes[*pos] & 0x80 != 0 {
            *pos += 1;
        }
        *pos += 1;
    }
}

/// Encoded length of `v` as a LEB128 varint.
fn varu32_len(v: u32) -> usize {
    let mut n = 1;
    let mut v = v >> 7;
    while v != 0 {
        n += 1;
        v >>= 7;
    }
    n
}

/// Overwrite the varint at `pos` with `v` — caller guarantees the encoded
/// lengths match (the in-place bitmap append checks before patching).
fn write_varu32_at(buf: &mut [u8], pos: usize, v: u32) {
    let mut tmp = Vec::with_capacity(5);
    put_varu32(&mut tmp, v);
    buf[pos..pos + tmp.len()].copy_from_slice(&tmp);
}

/// Decode one LEB128 `u32` from a trusted in-memory postings buffer.
#[inline]
fn read_varu32(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Bounds- and canonicality-checked LEB128 `u32` decode for *untrusted*
/// snapshot bytes.
fn checked_varu32(bytes: &[u8], pos: &mut usize) -> Result<u32, SnapshotError> {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| SnapshotError::Corrupt("truncated packed postings".into()))?;
        *pos += 1;
        if shift == 28 && (b & 0xF0) != 0 {
            return Err(SnapshotError::Corrupt(
                "packed postings varint exceeds u32".into(),
            ));
        }
        v |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl TermAttrEntry {
    /// Number of rows containing the term (document frequency).
    pub fn df(&self) -> usize {
        self.df as usize
    }

    /// Physical layout of the packed buffer.
    pub fn repr(&self) -> PostingsRepr {
        self.repr
    }

    /// The canonical repr of a set with `df` postings spanning rows
    /// `first..=last` — a pure function of the final set, so incremental
    /// maintenance and from-scratch rebuilds always agree on the layout.
    fn repr_for(df: u32, first: u32, last: u32) -> PostingsRepr {
        let span = (last - first) as u64 + 1;
        if df >= BITMAP_MIN_DF && df as u64 * BITMAP_DENSITY >= span {
            PostingsRepr::Bitmap
        } else {
            PostingsRepr::Gaps
        }
    }

    /// Row id of the first posting. Both reprs lead with it: the gaps
    /// layout stores it verbatim as the first delta, the bitmap layout as
    /// its base.
    fn first_row(&self) -> u32 {
        debug_assert!(self.df > 0);
        let mut pos = 0;
        read_varu32(&self.packed, &mut pos)
    }

    /// Whether `repr` is the canonical layout for the stored set.
    fn is_canonical(&self) -> bool {
        self.df == 0 || Self::repr_for(self.df, self.first_row(), self.last) == self.repr
    }

    /// `(base, words, tfs)` of a bitmap-repr entry, `None` for gaps.
    fn bitmap_parts(&self) -> Option<(u32, &[u8], &[u8])> {
        if self.repr != PostingsRepr::Bitmap {
            return None;
        }
        let mut pos = 0;
        let base = read_varu32(&self.packed, &mut pos);
        let nwords = read_varu32(&self.packed, &mut pos) as usize;
        let words_end = pos + nwords * 8;
        Some((
            base,
            &self.packed[pos..words_end],
            &self.packed[words_end..],
        ))
    }

    /// Build the canonical entry holding exactly `pairs` (strictly
    /// row-sorted): picks the repr once from the final set and encodes it
    /// in one pass. This is the one re-encode routine every splice and
    /// repr conversion funnels through.
    pub fn from_pairs(pairs: &[(RowId, u32)]) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "pairs must be strictly row-sorted"
        );
        let mut e = TermAttrEntry::default();
        if pairs.is_empty() {
            return e;
        }
        let first = pairs[0].0 .0;
        let last = pairs[pairs.len() - 1].0 .0;
        e.df = pairs.len() as u32;
        e.last = last;
        e.occurrences = pairs.iter().map(|&(_, tf)| tf as u64).sum();
        e.repr = Self::repr_for(e.df, first, last);
        match e.repr {
            PostingsRepr::Gaps => {
                let mut prev = 0;
                for (i, &(r, tf)) in pairs.iter().enumerate() {
                    put_varu32(&mut e.packed, if i == 0 { r.0 } else { r.0 - prev });
                    put_varu32(&mut e.packed, tf);
                    prev = r.0;
                }
            }
            PostingsRepr::Bitmap => {
                put_varu32(&mut e.packed, first);
                let nwords = (last - first) as usize / 64 + 1;
                put_varu32(&mut e.packed, nwords as u32);
                let words_start = e.packed.len();
                e.packed.resize(words_start + nwords * 8, 0);
                for &(r, _) in pairs {
                    let bit = (r.0 - first) as usize;
                    e.packed[words_start + bit / 8] |= 1 << (bit % 8);
                }
                for &(_, tf) in pairs {
                    put_varu32(&mut e.packed, tf);
                }
            }
        }
        e
    }

    /// Decode and rebuild through [`Self::from_pairs`] — the repr
    /// conversion path.
    fn reencode(&mut self) {
        let pairs: Vec<(RowId, u32)> = self.rows().collect();
        *self = Self::from_pairs(&pairs);
    }

    /// Iterate the `(row, tf)` postings in ascending row order, decoding the
    /// packed buffer on the fly.
    pub fn rows(&self) -> Postings<'_> {
        match self.bitmap_parts() {
            Some((base, words, tfs)) => Postings {
                cur: Cur::Bitmap {
                    base,
                    words,
                    tfs,
                    tf_pos: 0,
                    bit: 0,
                },
            },
            None => Postings {
                cur: Cur::Gaps {
                    bytes: &self.packed,
                    pos: 0,
                    prev: 0,
                    started: false,
                },
            },
        }
    }

    /// Append the entry's rows, ascending, to `out` — [`Self::rows`] without
    /// the term frequencies, for a predicate that is one list. The bitmap
    /// repr walks its set bits a `u64` word at a time and never touches the
    /// tf stream; the gaps repr adds deltas and steps over each tf varint.
    fn rows_into(&self, out: &mut Vec<RowId>) {
        out.reserve(self.df());
        match self.bitmap_parts() {
            Some((base, words, _)) => {
                for (wi, word) in words.chunks_exact(8).enumerate() {
                    let mut word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                    let first = base + wi as u32 * 64;
                    while word != 0 {
                        out.push(RowId(first + word.trailing_zeros()));
                        word &= word - 1;
                    }
                }
            }
            None => {
                // The first delta is the first row verbatim.
                let (mut pos, mut row) = (0, 0);
                while pos < self.packed.len() {
                    row += read_varu32(&self.packed, &mut pos);
                    skip_varints(&self.packed, &mut pos, 1);
                    out.push(RowId(row));
                }
            }
        }
    }

    /// Term frequency in `row`. Bitmap entries answer with one bit test
    /// plus a rank into the tf stream; gap entries decode-scan and exit at
    /// the first row past the probe.
    pub fn tf(&self, row: RowId) -> Option<u32> {
        if let Some((base, words, tfs)) = self.bitmap_parts() {
            if row.0 < base || row.0 > self.last {
                return None;
            }
            let bit = (row.0 - base) as usize;
            if words[bit / 8] & (1 << (bit % 8)) == 0 {
                return None;
            }
            let mut pos = 0;
            skip_varints(tfs, &mut pos, count_set_bits(words, 0, bit));
            return Some(read_varu32(tfs, &mut pos));
        }
        for (r, tf) in self.rows() {
            if r == row {
                return Some(tf);
            }
            if r > row {
                return None;
            }
        }
        None
    }

    /// Append a posting known to follow every stored row — the fresh-insert
    /// fast path, since new rows carry the largest id of their table. The
    /// entry stays canonical: an append that flips the repr (density
    /// crossing the bitmap threshold in either direction) re-encodes.
    fn push(&mut self, row: RowId, tf: u32) {
        debug_assert!(self.df == 0 || row.0 > self.last, "push must stay sorted");
        match self.repr {
            PostingsRepr::Gaps => {
                let delta = if self.df == 0 {
                    row.0
                } else {
                    row.0 - self.last
                };
                put_varu32(&mut self.packed, delta);
                put_varu32(&mut self.packed, tf);
                self.last = row.0;
                self.df += 1;
                self.occurrences += tf as u64;
                if !self.is_canonical() {
                    self.reencode();
                }
            }
            PostingsRepr::Bitmap => self.push_bitmap(row, tf),
        }
    }

    /// Append onto a bitmap entry: patch the word block and tf stream in
    /// place when the repr survives the append, otherwise fall back to a
    /// full canonical re-encode.
    fn push_bitmap(&mut self, row: RowId, tf: u32) {
        let mut pos = 0;
        let base = read_varu32(&self.packed, &mut pos);
        let nwords_pos = pos;
        let nwords = read_varu32(&self.packed, &mut pos) as usize;
        let words_start = pos;
        let new_bit = (row.0 - base) as usize;
        let new_nwords = (new_bit / 64 + 1).max(nwords);
        // Three things can force a re-encode: the append flips the
        // canonical repr back to gaps (a far-away row craters density), the
        // `nwords` varint itself grows, or nothing — only the last stays an
        // in-place patch.
        if Self::repr_for(self.df + 1, base, row.0) != PostingsRepr::Bitmap
            || varu32_len(new_nwords as u32) != varu32_len(nwords as u32)
        {
            let mut pairs: Vec<(RowId, u32)> = self.rows().collect();
            pairs.push((row, tf));
            *self = Self::from_pairs(&pairs);
            return;
        }
        write_varu32_at(&mut self.packed, nwords_pos, new_nwords as u32);
        if new_nwords > nwords {
            let tf_start = words_start + nwords * 8;
            let extra = (new_nwords - nwords) * 8;
            self.packed
                .splice(tf_start..tf_start, std::iter::repeat_n(0u8, extra));
        }
        self.packed[words_start + new_bit / 8] |= 1 << (new_bit % 8);
        put_varu32(&mut self.packed, tf);
        self.df += 1;
        self.last = row.0;
        self.occurrences += tf as u64;
    }

    /// Add `tf` occurrences of the term in `row`, wherever the row sorts:
    /// appends in place when the row is new and largest, otherwise decodes,
    /// splices, and re-encodes so the packed bytes stay canonical.
    fn upsert(&mut self, row: RowId, tf: u32) {
        if self.df == 0 || row.0 > self.last {
            self.push(row, tf);
            return;
        }
        let mut rows: Vec<(RowId, u32)> = self.rows().collect();
        match rows.binary_search_by_key(&row, |&(r, _)| r) {
            Ok(i) => rows[i].1 += tf, // defensive: re-indexed row
            Err(i) => rows.insert(i, (row, tf)),
        }
        *self = Self::from_pairs(&rows);
    }

    /// Reconstruct an entry from snapshot parts, validating that `packed`
    /// is a structurally exact encoding of `df` strictly increasing
    /// postings under `repr` whose term frequencies sum to `occurrences`.
    /// Canonicality of the repr *choice* is the caller's concern (the
    /// snapshot loader rejects a non-canonical tag).
    fn from_packed(
        repr: PostingsRepr,
        packed: Vec<u8>,
        df: u32,
        occurrences: u64,
    ) -> Result<Self, SnapshotError> {
        match repr {
            PostingsRepr::Gaps => {
                let mut pos = 0usize;
                let mut last = 0u32;
                let mut total = 0u64;
                for i in 0..df {
                    let delta = checked_varu32(&packed, &mut pos)?;
                    let row = if i == 0 {
                        delta
                    } else {
                        if delta == 0 {
                            return Err(SnapshotError::Corrupt(
                                "packed postings not strictly increasing".into(),
                            ));
                        }
                        last.checked_add(delta).ok_or_else(|| {
                            SnapshotError::Corrupt("packed postings row id exceeds u32".into())
                        })?
                    };
                    let tf = checked_varu32(&packed, &mut pos)?;
                    total += tf as u64;
                    last = row;
                }
                if pos != packed.len() {
                    return Err(SnapshotError::Corrupt(
                        "trailing bytes after packed postings".into(),
                    ));
                }
                if total != occurrences {
                    return Err(SnapshotError::Corrupt(
                        "packed postings occurrence total mismatch".into(),
                    ));
                }
                Ok(TermAttrEntry {
                    packed,
                    repr,
                    df,
                    last,
                    occurrences,
                })
            }
            PostingsRepr::Bitmap => {
                if df == 0 {
                    return Err(SnapshotError::Corrupt("empty bitmap postings".into()));
                }
                let mut pos = 0usize;
                let base = checked_varu32(&packed, &mut pos)?;
                let nwords = checked_varu32(&packed, &mut pos)? as usize;
                let words_len = nwords
                    .checked_mul(8)
                    .ok_or_else(|| SnapshotError::Corrupt("bitmap word count overflow".into()))?;
                let words_end = pos
                    .checked_add(words_len)
                    .ok_or_else(|| SnapshotError::Corrupt("bitmap word count overflow".into()))?;
                let words = packed
                    .get(pos..words_end)
                    .ok_or_else(|| SnapshotError::Corrupt("truncated bitmap words".into()))?;
                if nwords == 0 || words[0] & 1 == 0 {
                    return Err(SnapshotError::Corrupt(
                        "bitmap base bit unset (base must be the first row)".into(),
                    ));
                }
                if words[words_len - 8..].iter().all(|&b| b == 0) {
                    return Err(SnapshotError::Corrupt(
                        "bitmap trailing empty word (nwords not minimal)".into(),
                    ));
                }
                if count_set_bits(words, 0, words_len * 8) != df as usize {
                    return Err(SnapshotError::Corrupt("bitmap popcount != df".into()));
                }
                let last_byte = words.iter().rposition(|&b| b != 0).expect("nonzero word");
                let last_bit = last_byte * 8 + 7 - words[last_byte].leading_zeros() as usize;
                let last = u32::try_from(last_bit)
                    .ok()
                    .and_then(|b| base.checked_add(b))
                    .ok_or_else(|| SnapshotError::Corrupt("bitmap row id exceeds u32".into()))?;
                pos += words_len;
                let mut total = 0u64;
                for _ in 0..df {
                    total += checked_varu32(&packed, &mut pos)? as u64;
                }
                if pos != packed.len() {
                    return Err(SnapshotError::Corrupt(
                        "trailing bytes after packed postings".into(),
                    ));
                }
                if total != occurrences {
                    return Err(SnapshotError::Corrupt(
                        "packed postings occurrence total mismatch".into(),
                    ));
                }
                Ok(TermAttrEntry {
                    packed,
                    repr,
                    df,
                    last,
                    occurrences,
                })
            }
        }
    }
}

/// Walk the intersection of several row-sorted postings lists, calling
/// `visit(row, min_tf)` for every row present in *all* lists, ascending.
/// `visit` returns `false` to stop early.
///
/// All-bitmap intersections take a word-at-a-time AND fast path. Every other
/// input walks the list with the smallest df (the lead) and probes the
/// others at each of its rows: a bitmap answers with one bit test, a gaps list
/// advances its decoder, and the first list with no row left ends the walk.
/// Both paths emit the identical ascending `(row, min_tf)` sequence.
pub fn for_each_joint_row(lists: &[&TermAttrEntry], mut visit: impl FnMut(RowId, u32) -> bool) {
    if lists.is_empty() || lists.iter().any(|e| e.df == 0) {
        return;
    }
    if lists.len() >= 2 && lists.iter().all(|e| e.repr() == PostingsRepr::Bitmap) {
        return joint_bitmap_and(lists, visit);
    }
    let lead = (0..lists.len())
        .min_by_key(|&i| lists[i].df)
        .expect("lists nonempty");
    let mut probes: Vec<Probe<'_>> = (0..lists.len())
        .filter(|&i| i != lead)
        .map(|i| Probe::new(lists[i]))
        .collect();
    'rows: for (row, tf) in lists[lead].rows() {
        let mut min_tf = tf;
        for probe in &mut probes {
            match probe.at(row.0) {
                Hit::Tf(tf) => min_tf = min_tf.min(tf),
                Hit::Miss => continue 'rows,
                Hit::Done => return,
            }
        }
        if !visit(row, min_tf) {
            return;
        }
    }
}

/// What a [`Probe`] says about one row.
enum Hit {
    /// The row is in the list, with this term frequency.
    Tf(u32),
    /// The row is not in the list.
    Miss,
    /// The list holds no row at or past the probed one.
    Done,
}

/// Membership and term frequency of one postings list at *ascending* rows:
/// the probe side of [`for_each_joint_row`].
enum Probe<'a> {
    /// A gaps list: its own decoder (not a [`Postings`], which branches on
    /// the repr and on the first posting at every step), standing on the
    /// first posting not yet passed (`None` once the list is spent).
    Gaps {
        bytes: &'a [u8],
        pos: usize,
        head: Option<(u32, u32)>,
    },
    Bitmap(BitmapTfs<'a>),
}

impl<'a> Probe<'a> {
    fn new(entry: &'a TermAttrEntry) -> Self {
        match BitmapTfs::new(entry) {
            Some(bitmap) => Probe::Bitmap(bitmap),
            None => {
                let mut pos = 0;
                // The first delta is the first row verbatim.
                let head = next_gap(&entry.packed, &mut pos, 0);
                Probe::Gaps {
                    bytes: &entry.packed,
                    pos,
                    head,
                }
            }
        }
    }

    /// Whether `row` is in the list, and its tf. `row` must not be below any
    /// row probed before.
    #[inline]
    fn at(&mut self, row: u32) -> Hit {
        match self {
            Probe::Gaps { bytes, pos, head } => loop {
                let Some((r, tf)) = *head else {
                    return Hit::Done;
                };
                if r >= row {
                    return if r == row { Hit::Tf(tf) } else { Hit::Miss };
                }
                *head = next_gap(bytes, pos, r);
            },
            Probe::Bitmap(bitmap) => {
                if row > bitmap.last {
                    Hit::Done
                } else if bitmap.contains(row) {
                    Hit::Tf(bitmap.tf(row))
                } else {
                    Hit::Miss
                }
            }
        }
    }
}

/// Decode the `(row, tf)` posting at `pos` of a gaps buffer whose previous
/// row is `prev` (0 before the first, whose delta is its row), or `None`
/// at the end of the buffer.
#[inline]
fn next_gap(bytes: &[u8], pos: &mut usize, prev: u32) -> Option<(u32, u32)> {
    (*pos < bytes.len()).then(|| {
        let row = prev + read_varu32(bytes, pos);
        (row, read_varu32(bytes, pos))
    })
}

/// A bitmap entry's presence bits plus a monotone rank cursor into its tf
/// stream.
struct BitmapTfs<'a> {
    base: u32,
    last: u32,
    words: &'a [u8],
    tfs: &'a [u8],
    /// Postings below this bit have their tf varints before `tf_pos`.
    bit: usize,
    tf_pos: usize,
    /// `occurrences == df`: every tf is 1, so no rank is ever taken.
    unit_tf: bool,
}

impl<'a> BitmapTfs<'a> {
    /// `None` for a gaps entry.
    fn new(entry: &'a TermAttrEntry) -> Option<Self> {
        let (base, words, tfs) = entry.bitmap_parts()?;
        Some(BitmapTfs {
            base,
            last: entry.last,
            words,
            tfs,
            bit: 0,
            tf_pos: 0,
            unit_tf: entry.occurrences == entry.df as u64,
        })
    }

    /// Whether `row` is in the list: one bit test.
    #[inline]
    fn contains(&self, row: u32) -> bool {
        row >= self.base && row <= self.last && {
            let bit = (row - self.base) as usize;
            self.words[bit / 8] >> (bit % 8) & 1 != 0
        }
    }

    /// The tf of `row`, which is in the list and not below any row asked
    /// before: the set bits since the last answer are counted a word at a
    /// time and their tf varints skipped undecoded.
    #[inline]
    fn tf(&mut self, row: u32) -> u32 {
        if self.unit_tf {
            return 1;
        }
        let bit = (row - self.base) as usize;
        let passed = count_set_bits(self.words, self.bit, bit);
        skip_varints(self.tfs, &mut self.tf_pos, passed);
        self.bit = bit + 1;
        read_varu32(self.tfs, &mut self.tf_pos)
    }
}

/// 64 presence bits of `words` starting at relative bit `r0` (which may be
/// negative or run past the end — out-of-range bits read as zero): bit `j`
/// of the result = bit `r0 + j` of the bitmap.
fn bits_at(words: &[u8], r0: i64) -> u64 {
    let byte0 = r0.div_euclid(8);
    let sh = r0.rem_euclid(8) as u32;
    let mut buf = [0u8; 8];
    for (j, b) in buf.iter_mut().enumerate() {
        let k = byte0 + j as i64;
        if k >= 0 && (k as usize) < words.len() {
            *b = words[k as usize];
        }
    }
    let lo = u64::from_le_bytes(buf);
    if sh == 0 {
        lo
    } else {
        let k = byte0 + 8;
        let hi = if k >= 0 && (k as usize) < words.len() {
            words[k as usize] as u64
        } else {
            0
        };
        (lo >> sh) | (hi << (64 - sh))
    }
}

/// The all-bitmap fast path of [`for_each_joint_row`]: AND the (mutually
/// unaligned) word blocks 64 rows at a time over the lists' overlapping
/// span, then rank each surviving row into every list's tf stream through
/// its monotone [`BitmapTfs`] cursor. Total work is one word-AND sweep of
/// the span plus one sequential tf-stream pass per list.
fn joint_bitmap_and(lists: &[&TermAttrEntry], mut visit: impl FnMut(RowId, u32) -> bool) {
    let mut bitmaps: Vec<BitmapTfs<'_>> = lists
        .iter()
        .map(|e| BitmapTfs::new(e).expect("all lists bitmap"))
        .collect();
    let lo = bitmaps
        .iter()
        .map(|b| b.base)
        .max()
        .expect("lists nonempty");
    let hi = bitmaps
        .iter()
        .map(|b| b.last)
        .min()
        .expect("lists nonempty");
    if hi < lo {
        return;
    }
    let mut a = lo as u64;
    while a <= hi as u64 {
        let mut word = !0u64;
        for b in &bitmaps {
            word &= bits_at(b.words, a as i64 - b.base as i64);
            if word == 0 {
                break;
            }
        }
        while word != 0 {
            let row = a as u32 + word.trailing_zeros();
            word &= word - 1;
            let min_tf = bitmaps.iter_mut().map(|b| b.tf(row)).min();
            if !visit(RowId(row), min_tf.expect("lists nonempty")) {
                return;
            }
        }
        a += 64;
    }
}

/// All postings of one term, over every attribute it occurs in.
/// `attrs` is sorted; `postings[i]` belongs to `attrs[i]`.
#[derive(Debug, Clone, Default, PartialEq)]
struct TermEntry {
    attrs: Vec<AttrRef>,
    postings: Vec<TermAttrEntry>,
}

impl TermEntry {
    fn get(&self, attr: AttrRef) -> Option<&TermAttrEntry> {
        self.attrs
            .binary_search(&attr)
            .ok()
            .map(|i| &self.postings[i])
    }
}

/// Aggregate statistics of one indexed attribute.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AttrStats {
    /// Number of rows in the attribute's table.
    pub row_count: u32,
    /// Total token count over all values of this attribute.
    pub total_tokens: u64,
    /// Number of distinct terms occurring in this attribute.
    pub vocabulary: u32,
}

/// A schema element whose *name* matches a keyword (metadata interpretation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaTarget {
    /// The keyword matches a table name token.
    Table(TableId),
    /// The keyword matches an attribute name token.
    Attribute(AttrRef),
}

/// Inverted index over every text attribute of a database. Equality is
/// structural: two indexes are equal when every term's packed postings, every
/// attribute's statistics, the schema-name terms and the stopwords agree —
/// everything the index's snapshot codec writes.
#[derive(Debug, Clone, PartialEq)]
pub struct InvertedIndex {
    /// term -> attribute-sorted postings.
    dict: HashMap<String, TermEntry>,
    /// Statistics per indexed attribute.
    attr_stats: HashMap<AttrRef, AttrStats>,
    /// term -> schema elements whose name contains the term.
    schema_terms: HashMap<String, Vec<SchemaTarget>>,
    tokenizer: Tokenizer,
}

impl InvertedIndex {
    /// Index all text attributes of `db` with the default tokenizer: seed
    /// the schema-name terms and a zeroed [`AttrStats`] per text attribute
    /// (a table with no rows still lists its attributes), then
    /// [`Self::index_row`] every stored row in id order. Splice == rebuild
    /// thus holds by construction for appends; `tests/incremental.rs` still
    /// covers out-of-order splices, a path a build never takes.
    pub fn build(db: &Database) -> Self {
        let mut index = InvertedIndex {
            dict: HashMap::new(),
            attr_stats: HashMap::new(),
            schema_terms: HashMap::new(),
            tokenizer: Tokenizer::new(),
        };
        for (table, tdef) in db.schema().tables() {
            let table_name = std::iter::once((SchemaTarget::Table(table), &tdef.name));
            let attr_names = tdef
                .attrs_with_ids()
                .map(|(attr, a)| (SchemaTarget::Attribute(AttrRef { table, attr }), &a.name));
            for (target, name) in table_name.chain(attr_names) {
                for tok in index.tokenizer.tokenize(name) {
                    index.schema_terms.entry(tok).or_default().push(target);
                }
            }
            for (attr, _) in tdef.text_attrs() {
                let aref = AttrRef { table, attr };
                index.attr_stats.insert(aref, AttrStats::default());
            }
            for (row, _) in db.table(table).rows() {
                index.index_row(db, table, row);
            }
        }
        index
    }

    /// Index one row of `table` that already landed in `db`, splicing its
    /// postings and updating attribute statistics online. [`Self::build`]
    /// is this call over every stored row, so after a fresh insert (the row
    /// carries the largest id of its table) the result is *exactly* what a
    /// rebuild over the grown database produces — same postings, same
    /// sorted [`Self::attrs_containing`] slices, same integer statistics and
    /// hence bit-identical ATF/IDF/joint-ATF values. A row spliced out of id
    /// order takes the decode-splice-reencode path and stays canonical.
    ///
    /// Rows of tables without text attributes are a no-op. Schema-name
    /// terms need no maintenance: the schema is immutable.
    pub fn index_row(&mut self, db: &Database, table: TableId, row: RowId) {
        self.index_row_values(db.schema(), table, row, db.table(table).row(row));
    }

    /// [`Self::index_row`] for a row that is *not* stored in a local
    /// [`Database`]: the caller supplies the schema and the row's values
    /// directly. The sharded coordinator uses this to keep its global index
    /// current — routed rows land in per-shard stores under shard-local ids,
    /// so the coordinator indexes the batch's values under the row's global
    /// id instead of re-reading a store. Bit-identical in effect to
    /// [`Self::index_row`] over a database holding `values` at `row`.
    pub fn index_row_values(
        &mut self,
        schema: &keybridge_relstore::Schema,
        table: TableId,
        row: RowId,
        values: &[keybridge_relstore::Value],
    ) {
        let tdef = schema.table(table);
        for (aid, _) in tdef.text_attrs() {
            let aref = AttrRef { table, attr: aid };
            let stats = self.attr_stats.entry(aref).or_default();
            stats.row_count += 1;
            let Some(text) = values[aid.0 as usize].as_text() else {
                continue;
            };
            let tokens = self.tokenizer.tokenize(text);
            stats.total_tokens += tokens.len() as u64;
            let mut counts: HashMap<&str, u32> = HashMap::new();
            for t in &tokens {
                *counts.entry(t.as_str()).or_default() += 1;
            }
            for (term, tf) in counts {
                let entry = self.dict.entry(term.to_owned()).or_default();
                let slot = match entry.attrs.binary_search(&aref) {
                    Ok(i) => i,
                    Err(i) => {
                        // First occurrence of the term in this attribute:
                        // splice the parallel vectors at the sorted position
                        // and grow the attribute's vocabulary.
                        entry.attrs.insert(i, aref);
                        entry.postings.insert(i, TermAttrEntry::default());
                        if let Some(s) = self.attr_stats.get_mut(&aref) {
                            s.vocabulary += 1;
                        }
                        i
                    }
                };
                // Postings stay row-sorted. Fresh rows carry the largest id
                // of their table, so the common case is a packed append; the
                // upsert's decode-splice-reencode path keeps re-indexing or
                // out-of-order maintenance canonical too.
                entry.postings[slot].upsert(row, tf);
            }
        }
    }

    /// [`Self::index_row`] over a batch of freshly inserted rows (e.g. the
    /// ids returned by `Database::insert_batch`, zipped with their tables).
    pub fn index_batch(&mut self, db: &Database, rows: &[(TableId, RowId)]) {
        for &(table, row) in rows {
            self.index_row(db, table, row);
        }
    }

    /// All dictionary terms, in no particular order (diagnostics and the
    /// incremental-equivalence tests).
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.dict.keys().map(String::as_str)
    }

    /// The tokenizer the index was built with.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Number of distinct terms in the dictionary.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Statistics of one attribute (zeroed if the attribute is not indexed).
    pub fn attr_stats(&self, attr: AttrRef) -> AttrStats {
        self.attr_stats.get(&attr).copied().unwrap_or_default()
    }

    /// All indexed attributes.
    pub fn indexed_attrs(&self) -> impl Iterator<Item = AttrRef> + '_ {
        self.attr_stats.keys().copied()
    }

    /// Postings of `term` in `attr`, if any.
    pub fn postings(&self, term: &str, attr: AttrRef) -> Option<&TermAttrEntry> {
        self.dict.get(term)?.get(attr)
    }

    /// The attributes in which `term` occurs, sorted — a borrowed slice, so
    /// the per-query candidate harvest allocates nothing.
    pub fn attrs_containing(&self, term: &str) -> &[AttrRef] {
        self.dict
            .get(term)
            .map(|e| e.attrs.as_slice())
            .unwrap_or(&[])
    }

    /// Schema elements whose name contains `term`.
    pub fn schema_matches(&self, term: &str) -> &[SchemaTarget] {
        self.schema_terms
            .get(term)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The postings lists of all `terms` in `attr`, sorted smallest-first.
    /// `None` when any term is absent from the attribute (the intersection
    /// is empty a priori).
    fn term_lists<'a>(
        &'a self,
        terms: &[String],
        attr: AttrRef,
        lists: &mut Vec<&'a TermAttrEntry>,
    ) -> bool {
        lists.clear();
        for t in terms {
            match self.postings(t, attr) {
                Some(e) => lists.push(e),
                None => return false,
            }
        }
        lists.sort_by_key(|e| e.df());
        true
    }

    /// Rows of `attr`'s table whose value contains *all* of `terms`
    /// (the `k1..km ⊂ A` containment predicate of Def. 3.5.2), sorted.
    pub fn rows_with_all(&self, terms: &[String], attr: AttrRef) -> Vec<RowId> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.rows_with_all_into(terms, attr, &mut out, &mut scratch);
        out
    }

    /// Allocation-free variant of [`Self::rows_with_all`]: the intersection
    /// lands in `out`; `scratch` is a reusable work buffer kept for API
    /// stability ([`for_each_joint_row`] intersects in one pass without
    /// it). Both
    /// are cleared first, so callers can reuse them across calls. A
    /// single-term predicate is its postings list: the rows are decoded
    /// straight into `out`, no merge and no term frequencies.
    pub fn rows_with_all_into(
        &self,
        terms: &[String],
        attr: AttrRef,
        out: &mut Vec<RowId>,
        scratch: &mut Vec<RowId>,
    ) {
        out.clear();
        scratch.clear();
        if let [term] = terms {
            if let Some(entry) = self.postings(term, attr) {
                entry.rows_into(out);
            }
            return;
        }
        if terms.is_empty() {
            return;
        }
        let mut lists: Vec<&TermAttrEntry> = Vec::with_capacity(terms.len());
        if !self.term_lists(terms, attr, &mut lists) {
            return;
        }
        for_each_joint_row(&lists, |row, _| {
            out.push(row);
            true
        });
    }

    /// Whether at least one row of `attr` contains *all* of `terms` — the
    /// non-emptiness probe of the DivQ necessary condition (§4.4.1). The
    /// walk of [`for_each_joint_row`] exits on the first surviving row, so
    /// the common case (a frequent co-occurrence) decodes only a prefix of
    /// the lists instead of running a full intersection.
    pub fn has_row_with_all(&self, terms: &[String], attr: AttrRef) -> bool {
        if terms.is_empty() {
            return false;
        }
        let mut lists: Vec<&TermAttrEntry> = Vec::with_capacity(terms.len());
        if !self.term_lists(terms, attr, &mut lists) {
            return false;
        }
        let mut found = false;
        for_each_joint_row(&lists, |_, _| {
            found = true;
            false
        });
        found
    }

    /// Document frequency of `term` in `attr`: number of rows containing it.
    pub fn df(&self, term: &str, attr: AttrRef) -> usize {
        self.postings(term, attr).map_or(0, TermAttrEntry::df)
    }

    /// Lucene-style inverse document frequency of `term` within `attr`:
    /// `1 + ln((N + 1) / (df + 1))`.
    pub fn idf(&self, term: &str, attr: AttrRef) -> f64 {
        let n = self.attr_stats(attr).row_count as f64;
        let df = self.df(term, attr) as f64;
        1.0 + ((n + 1.0) / (df + 1.0)).ln()
    }

    /// The ATF normalizer of `attr` under smoothing `alpha` (the denominator
    /// of Eq. 3.8). Zero when the attribute holds no tokens and `alpha` is
    /// zero. Exposed so incremental scorers can cache it per attribute.
    pub fn atf_denominator(&self, attr: AttrRef, alpha: f64) -> f64 {
        let stats = self.attr_stats(attr);
        stats.total_tokens as f64 + alpha * (stats.vocabulary as f64 + 1.0)
    }

    /// Attribute term frequency with additive smoothing (Eq. 3.8):
    /// the probability that a random token drawn from `attr` is `term`,
    /// Laplace-smoothed with parameter `alpha` so unseen terms keep a small
    /// non-zero mass. The paper writes `ATF = TF + α` up to normalization;
    /// we implement the normalized form directly.
    pub fn atf(&self, term: &str, attr: AttrRef, alpha: f64) -> f64 {
        let occ = self.postings(term, attr).map_or(0, |e| e.occurrences) as f64;
        let denom = self.atf_denominator(attr, alpha);
        if denom <= 0.0 {
            return 0.0;
        }
        (occ + alpha) / denom
    }

    /// Joint attribute term frequency of a keyword *bag* (DivQ, Eq. 4.2):
    /// how often the combination `terms` co-occurs inside single values of
    /// `attr`. A row contributes `min_i tf(term_i)` combination occurrences.
    /// When the terms genuinely co-occur (first + last name in a `name`
    /// attribute) this exceeds the product of marginal ATFs, which is what
    /// pushes phrase-consistent interpretations up the ranking.
    ///
    /// Joint occurrences are counted by [`for_each_joint_row`] over the
    /// packed postings lists — no per-call hash maps.
    pub fn joint_atf(&self, terms: &[String], attr: AttrRef, alpha: f64) -> f64 {
        if terms.is_empty() {
            return 0.0;
        }
        if terms.len() == 1 {
            return self.atf(&terms[0], attr, alpha);
        }
        let denom = self.atf_denominator(attr, alpha);
        if denom <= 0.0 {
            return 0.0;
        }
        let mut lists: Vec<&TermAttrEntry> = Vec::with_capacity(terms.len());
        if !self.term_lists(terms, attr, &mut lists) {
            return alpha / denom;
        }
        let joint = self
            .joint_occurrences(terms, attr)
            .expect("term_lists succeeded");
        (joint as f64 + alpha) / denom
    }

    /// Total combination occurrences of `terms` within single values of
    /// `attr` (the numerator of [`Self::joint_atf`] before smoothing): each
    /// row contributes `min_i tf(term_i)`. `None` when some term has no
    /// postings in `attr` at all — callers merging several indexes need to
    /// distinguish "absent here" (skip) from "present with zero joint
    /// occurrences" (count).
    pub fn joint_occurrences(&self, terms: &[String], attr: AttrRef) -> Option<u64> {
        if terms.is_empty() {
            return None;
        }
        let mut lists: Vec<&TermAttrEntry> = Vec::with_capacity(terms.len());
        if !self.term_lists(terms, attr, &mut lists) {
            return None;
        }
        let mut joint: u64 = 0;
        for_each_joint_row(&lists, |_, min_tf| {
            joint += min_tf as u64;
            true
        });
        Some(joint)
    }

    /// Flat iteration over every `(term, attribute, postings)` triple, for
    /// building merged views over several indexes. Order is unspecified
    /// (hash-map iteration); merging callers must sort.
    pub fn term_attr_postings(&self) -> impl Iterator<Item = (&str, AttrRef, &TermAttrEntry)> {
        self.dict.iter().flat_map(|(term, entry)| {
            entry
                .attrs
                .iter()
                .zip(&entry.postings)
                .map(move |(&attr, p)| (term.as_str(), attr, p))
        })
    }
}

// ---------------------------------------------------------------------------
// On-disk snapshot (same framing as the relstore database snapshot:
// length-prefixed, CRC-checksummed sections behind a versioned magic header).
// ---------------------------------------------------------------------------

const IDX_MAGIC: &[u8; 8] = b"KBTIDX01";
/// Version 3: adds a one-byte [`PostingsRepr`] tag per dictionary entry so
/// dense lists snapshot their bitmap blocks verbatim. Older versions are
/// rejected (rebuild from the store instead — the WAL/snapshot recovery path
/// always can).
const IDX_VERSION: u32 = 3;
/// [`PostingsRepr`] tags of the v3 dictionary section.
const REPR_GAPS: u8 = 0;
const REPR_BITMAP: u8 = 1;
const SEC_TOKENIZER: u8 = 1;
const SEC_ATTR_STATS: u8 = 2;
const SEC_DICT: u8 = 3;
const SEC_SCHEMA_TERMS: u8 = 4;

const TARGET_TABLE: u8 = 0;
const TARGET_ATTR: u8 = 1;

fn put_attr_ref(out: &mut Vec<u8>, a: AttrRef) {
    put_u32(out, a.table.0);
    put_u32(out, a.attr.0);
}

fn read_attr_ref(c: &mut Cursor<'_>) -> Result<AttrRef, SnapshotError> {
    Ok(AttrRef {
        table: TableId(c.u32()?),
        attr: AttrId(c.u32()?),
    })
}

impl InvertedIndex {
    /// Serialize the index — tokenizer configuration, attribute statistics,
    /// the full dictionary, and the schema-term index. Deterministic: terms,
    /// attributes, and targets are written sorted (postings are row-sorted
    /// already), so the same index always yields the same bytes, and a
    /// future mmap-style reader can binary-search the dictionary in place.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::new();
        out.extend_from_slice(IDX_MAGIC);
        put_u32(&mut out, IDX_VERSION);

        let mut sec = Vec::new();
        let stopwords = self.tokenizer.stopwords();
        put_u32(&mut sec, len_u32("stopword count", stopwords.len())?);
        for w in stopwords {
            put_str(&mut sec, w)?;
        }
        put_section(&mut out, SEC_TOKENIZER, &sec);

        let mut sec = Vec::new();
        let mut stats: Vec<(AttrRef, AttrStats)> =
            self.attr_stats.iter().map(|(a, s)| (*a, *s)).collect();
        stats.sort_by_key(|(a, _)| *a);
        put_u32(&mut sec, len_u32("attribute stats count", stats.len())?);
        for (aref, s) in stats {
            put_attr_ref(&mut sec, aref);
            put_u32(&mut sec, s.row_count);
            put_u64(&mut sec, s.total_tokens);
            put_u32(&mut sec, s.vocabulary);
        }
        put_section(&mut out, SEC_ATTR_STATS, &sec);

        let mut sec = Vec::new();
        let mut terms: Vec<&String> = self.dict.keys().collect();
        terms.sort_unstable();
        put_varu32(&mut sec, len_u32("dictionary term count", terms.len())?);
        for term in terms {
            let entry = &self.dict[term];
            put_str(&mut sec, term)?;
            put_varu32(
                &mut sec,
                len_u32("term attribute count", entry.attrs.len())?,
            );
            for (aref, posting) in entry.attrs.iter().zip(&entry.postings) {
                put_attr_ref(&mut sec, *aref);
                put_varu64(&mut sec, posting.occurrences);
                put_varu32(&mut sec, posting.df);
                put_u8(
                    &mut sec,
                    match posting.repr {
                        PostingsRepr::Gaps => REPR_GAPS,
                        PostingsRepr::Bitmap => REPR_BITMAP,
                    },
                );
                // The packed buffer (repr choice included) is canonical, so
                // writing it verbatim keeps snapshots bit-identical to a
                // from-scratch rebuild.
                put_varu32(&mut sec, len_u32("packed postings", posting.packed.len())?);
                sec.extend_from_slice(&posting.packed);
            }
        }
        put_section(&mut out, SEC_DICT, &sec);

        let mut sec = Vec::new();
        let mut schema_terms: Vec<(&String, &Vec<SchemaTarget>)> =
            self.schema_terms.iter().collect();
        schema_terms.sort_by_key(|(t, _)| *t);
        put_u32(&mut sec, len_u32("schema term count", schema_terms.len())?);
        for (term, targets) in schema_terms {
            put_str(&mut sec, term)?;
            put_u32(&mut sec, len_u32("schema target count", targets.len())?);
            for t in targets {
                match t {
                    SchemaTarget::Table(tid) => {
                        put_u8(&mut sec, TARGET_TABLE);
                        put_u32(&mut sec, tid.0);
                        put_u32(&mut sec, 0);
                    }
                    SchemaTarget::Attribute(aref) => {
                        put_u8(&mut sec, TARGET_ATTR);
                        put_attr_ref(&mut sec, *aref);
                    }
                }
            }
        }
        put_section(&mut out, SEC_SCHEMA_TERMS, &sec);
        Ok(out)
    }

    /// Total packed postings bytes across the dictionary (diagnostics for
    /// the footprint benchmark).
    pub fn postings_bytes(&self) -> u64 {
        self.dict
            .values()
            .flat_map(|e| &e.postings)
            .map(|p| p.packed.len() as u64)
            .sum()
    }

    /// Decode a snapshot produced by [`Self::snapshot_bytes`]. The result is
    /// observationally identical to the original index: same postings, same
    /// statistics, same schema matches, same tokenizer behavior.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<InvertedIndex, SnapshotError> {
        let mut c = Cursor::new(bytes);
        if c.take(8)? != IDX_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = c.u32()?;
        if version != IDX_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }

        let mut tc = Cursor::new(c.section(SEC_TOKENIZER)?);
        let n = tc.u32()? as usize;
        let mut stopwords = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            stopwords.push(tc.str()?);
        }
        let tokenizer = Tokenizer::with_stopwords(stopwords);

        let mut sc = Cursor::new(c.section(SEC_ATTR_STATS)?);
        let n = sc.u32()? as usize;
        // Counts come from the input: every entry takes at least one byte,
        // so the bytes left cap what a crafted count can preallocate.
        let mut attr_stats = HashMap::with_capacity(n.min(sc.remaining()));
        for _ in 0..n {
            let aref = read_attr_ref(&mut sc)?;
            attr_stats.insert(
                aref,
                AttrStats {
                    row_count: sc.u32()?,
                    total_tokens: sc.u64()?,
                    vocabulary: sc.u32()?,
                },
            );
        }

        let mut dc = Cursor::new(c.section(SEC_DICT)?);
        let n_terms = dc.varu32()? as usize;
        let mut dict = HashMap::with_capacity(n_terms.min(1 << 20));
        for _ in 0..n_terms {
            let term = dc.str()?;
            let n_attrs = dc.varu32()? as usize;
            let mut entry = TermEntry {
                attrs: Vec::with_capacity(n_attrs.min(1 << 16)),
                postings: Vec::with_capacity(n_attrs.min(1 << 16)),
            };
            for _ in 0..n_attrs {
                let aref = read_attr_ref(&mut dc)?;
                let occurrences = dc.varu64()?;
                let df = dc.varu32()?;
                let repr = match dc.u8()? {
                    REPR_GAPS => PostingsRepr::Gaps,
                    REPR_BITMAP => PostingsRepr::Bitmap,
                    k => {
                        return Err(SnapshotError::Corrupt(format!(
                            "unknown postings repr tag {k}"
                        )))
                    }
                };
                let packed_len = dc.varu32()? as usize;
                let packed = dc.take(packed_len)?.to_vec();
                let posting = TermAttrEntry::from_packed(repr, packed, df, occurrences)?;
                // The encoder stores the canonical repr; a mismatched tag
                // means the snapshot was not produced by it.
                if !posting.is_canonical() {
                    return Err(SnapshotError::Corrupt("non-canonical postings repr".into()));
                }
                entry.attrs.push(aref);
                entry.postings.push(posting);
            }
            dict.insert(term, entry);
        }

        let mut xc = Cursor::new(c.section(SEC_SCHEMA_TERMS)?);
        let n = xc.u32()? as usize;
        let mut schema_terms = HashMap::with_capacity(n.min(xc.remaining()));
        for _ in 0..n {
            let term = xc.str()?;
            let n_targets = xc.u32()? as usize;
            let mut targets = Vec::with_capacity(n_targets.min(1 << 16));
            for _ in 0..n_targets {
                let kind = xc.u8()?;
                let table = TableId(xc.u32()?);
                let attr = AttrId(xc.u32()?);
                targets.push(match kind {
                    TARGET_TABLE => SchemaTarget::Table(table),
                    TARGET_ATTR => SchemaTarget::Attribute(AttrRef { table, attr }),
                    k => {
                        return Err(SnapshotError::Corrupt(format!(
                            "unknown schema target kind {k}"
                        )))
                    }
                });
            }
            schema_terms.insert(term, targets);
        }
        if c.remaining() != 0 {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after index snapshot".into(),
            ));
        }
        Ok(InvertedIndex {
            dict,
            attr_stats,
            schema_terms,
            tokenizer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_relstore::{Database, SchemaBuilder, TableKind, Value};

    fn db() -> Database {
        let mut b = SchemaBuilder::new();
        b.table("actor", TableKind::Entity)
            .pk("id")
            .text_attr("name");
        b.table("movie", TableKind::Entity)
            .pk("id")
            .text_attr("title")
            .int_attr("year");
        let mut db = Database::new(b.finish().unwrap());
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        for (id, n) in [
            (1, "Tom Hanks"),
            (2, "Tom Cruise"),
            (3, "Colin Hanks"),
            (4, "Meg Ryan"),
        ] {
            db.insert(actor, vec![Value::Int(id), Value::text(n)])
                .unwrap();
        }
        for (id, t, y) in [
            (10, "The Terminal", 2004),
            (11, "Tom and Huck", 1995),
            (12, "Terminal Velocity", 1994),
        ] {
            db.insert(movie, vec![Value::Int(id), Value::text(t), Value::Int(y)])
                .unwrap();
        }
        db
    }

    fn aref(db: &Database, table: &str, attr: &str) -> AttrRef {
        db.schema().resolve(table, attr).unwrap()
    }

    #[test]
    fn postings_and_df() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let name = aref(&db, "actor", "name");
        let title = aref(&db, "movie", "title");
        assert_eq!(idx.df("tom", name), 2);
        assert_eq!(idx.df("hanks", name), 2);
        assert_eq!(idx.df("tom", title), 1);
        assert_eq!(idx.df("terminal", title), 2);
        assert_eq!(idx.df("nope", title), 0);
        assert!(idx.term_count() > 0);
    }

    #[test]
    fn attrs_containing_term() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let attrs = idx.attrs_containing("tom");
        assert_eq!(attrs.len(), 2); // actor.name and movie.title
                                    // Returned sorted, so candidate harvesting needs no re-sort.
        assert!(attrs.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.attrs_containing("zzz").is_empty());
    }

    #[test]
    fn rows_with_all_intersects() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let name = aref(&db, "actor", "name");
        let tom_hanks = idx.rows_with_all(&["tom".to_owned(), "hanks".to_owned()], name);
        assert_eq!(tom_hanks.len(), 1);
        let toms = idx.rows_with_all(&["tom".to_owned()], name);
        assert_eq!(toms.len(), 2);
        assert!(idx
            .rows_with_all(&["tom".to_owned(), "ryan".to_owned()], name)
            .is_empty());
        assert!(idx.rows_with_all(&[], name).is_empty());
    }

    #[test]
    fn rows_with_all_into_reuses_buffers() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let name = aref(&db, "actor", "name");
        let mut out = vec![RowId(99)]; // stale content must be cleared
        let mut scratch = vec![RowId(98)];
        idx.rows_with_all_into(
            &["tom".to_owned(), "hanks".to_owned()],
            name,
            &mut out,
            &mut scratch,
        );
        assert_eq!(out.len(), 1);
        idx.rows_with_all_into(&["tom".to_owned()], name, &mut out, &mut scratch);
        assert_eq!(out.len(), 2);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted output");
    }

    #[test]
    fn has_row_with_all_matches_full_intersection() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let name = aref(&db, "actor", "name");
        let title = aref(&db, "movie", "title");
        for (terms, attr) in [
            (vec!["tom".to_owned(), "hanks".to_owned()], name),
            (vec!["tom".to_owned(), "ryan".to_owned()], name),
            (vec!["terminal".to_owned()], title),
            (vec!["tom".to_owned(), "huck".to_owned()], title),
            (vec![], name),
        ] {
            assert_eq!(
                idx.has_row_with_all(&terms, attr),
                !idx.rows_with_all(&terms, attr).is_empty(),
                "{terms:?}"
            );
        }
    }

    #[test]
    fn atf_prefers_frequent_terms() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let name = aref(&db, "actor", "name");
        // "tom" occurs twice in actor.name, "meg" once.
        assert!(idx.atf("tom", name, 1.0) > idx.atf("meg", name, 1.0));
        // Unseen terms get non-zero smoothed mass, below seen terms.
        let unseen = idx.atf("zzz", name, 1.0);
        assert!(unseen > 0.0);
        assert!(unseen < idx.atf("meg", name, 1.0));
    }

    #[test]
    fn atf_sums_to_one_over_vocab() {
        // Σ_term atf(term) + atf(one unseen) ≈ 1 by construction.
        let db = db();
        let idx = InvertedIndex::build(&db);
        let name = aref(&db, "actor", "name");
        let stats = idx.attr_stats(name);
        let terms = ["tom", "hanks", "cruise", "colin", "meg", "ryan"];
        assert_eq!(stats.vocabulary as usize, terms.len());
        let sum: f64 = terms.iter().map(|t| idx.atf(t, name, 1.0)).sum();
        let with_unseen = sum + idx.atf("unseen", name, 1.0);
        assert!((with_unseen - 1.0).abs() < 1e-9, "sum = {with_unseen}");
    }

    #[test]
    fn joint_atf_rewards_cooccurrence() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let name = aref(&db, "actor", "name");
        let title = aref(&db, "movie", "title");
        let pair = vec!["tom".to_owned(), "hanks".to_owned()];
        let joint_name = idx.joint_atf(&pair, name, 1.0);
        let product = idx.atf("tom", name, 1.0) * idx.atf("hanks", name, 1.0);
        assert!(joint_name > product, "{joint_name} vs {product}");
        // "tom hanks" never co-occurs in a title.
        let joint_title = idx.joint_atf(&pair, title, 1.0);
        assert!(joint_name > joint_title);
        // Single-term joint degrades to plain ATF.
        assert_eq!(
            idx.joint_atf(&["tom".to_owned()], name, 1.0),
            idx.atf("tom", name, 1.0)
        );
        assert_eq!(idx.joint_atf(&[], name, 1.0), 0.0);
    }

    #[test]
    fn idf_prefers_selective_terms() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let title = aref(&db, "movie", "title");
        // "velocity" (df=1) is more selective than "terminal" (df=2).
        assert!(idx.idf("velocity", title) > idx.idf("terminal", title));
        // Unseen terms have maximal idf.
        assert!(idx.idf("zzz", title) >= idx.idf("velocity", title));
    }

    #[test]
    fn schema_matches_tables_and_attrs() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let actor = db.schema().table_id("actor").unwrap();
        assert_eq!(idx.schema_matches("actor"), &[SchemaTarget::Table(actor)]);
        let title_matches = idx.schema_matches("title");
        assert_eq!(title_matches.len(), 1);
        assert!(matches!(title_matches[0], SchemaTarget::Attribute(_)));
        assert!(idx.schema_matches("zzz").is_empty());
    }

    #[test]
    fn stats_counts() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let name = aref(&db, "actor", "name");
        let s = idx.attr_stats(name);
        assert_eq!(s.row_count, 4);
        assert_eq!(s.total_tokens, 8);
        assert_eq!(s.vocabulary, 6);
        // Unindexed (int) attribute reports zeros.
        let year = aref(&db, "movie", "year");
        assert_eq!(idx.attr_stats(year), AttrStats::default());
        // Denominator matches the ATF normalization.
        assert_eq!(idx.atf_denominator(name, 1.0), 8.0 + 7.0);
        // A text table with no rows still lists its attribute, zero rows.
        let mut b = SchemaBuilder::new();
        b.table("note", TableKind::Entity)
            .pk("id")
            .text_attr("body");
        let empty = Database::new(b.finish().unwrap());
        let body = aref(&empty, "note", "body");
        let idx = InvertedIndex::build(&empty);
        assert_eq!(idx.indexed_attrs().collect::<Vec<_>>(), [body]);
        assert_eq!(idx.attr_stats(body).row_count, 0);
    }

    #[test]
    fn stopwords_not_indexed() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let title = aref(&db, "movie", "title");
        assert_eq!(idx.df("the", title), 0); // "The Terminal"
        assert_eq!(idx.df("and", title), 0); // "Tom and Huck"
    }

    #[test]
    fn snapshot_roundtrip_is_observationally_identical() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let bytes = idx.snapshot_bytes().unwrap();
        let back = InvertedIndex::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.term_count(), idx.term_count());
        let name = aref(&db, "actor", "name");
        let title = aref(&db, "movie", "title");
        for attr in [name, title] {
            assert_eq!(back.attr_stats(attr), idx.attr_stats(attr));
            for term in ["tom", "hanks", "terminal", "huck", "zzz"] {
                assert_eq!(back.df(term, attr), idx.df(term, attr), "{term}");
                assert_eq!(
                    back.atf(term, attr, 1.0).to_bits(),
                    idx.atf(term, attr, 1.0).to_bits(),
                    "bit-exact ATF for {term}"
                );
                assert_eq!(back.attrs_containing(term), idx.attrs_containing(term));
            }
        }
        for term in ["actor", "title", "movie", "year"] {
            assert_eq!(back.schema_matches(term), idx.schema_matches(term));
        }
        assert_eq!(back.tokenizer().stopwords(), idx.tokenizer().stopwords());
        // Deterministic bytes: re-encoding the decoded index is identical.
        assert_eq!(back.snapshot_bytes().unwrap(), bytes);
    }

    #[test]
    fn snapshot_after_incremental_updates_matches_rebuild() {
        let mut db = db();
        let mut idx = InvertedIndex::build(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let r = db
            .insert(actor, vec![Value::Int(5), Value::text("Tom Stoppard")])
            .unwrap();
        idx.index_row(&db, actor, r);
        // The incrementally spliced index serializes byte-identically to a
        // from-scratch rebuild — the snapshot inherits the splice-equals-
        // rebuild guarantee.
        assert_eq!(
            idx.snapshot_bytes().unwrap(),
            InvertedIndex::build(&db).snapshot_bytes().unwrap()
        );
    }

    #[test]
    fn snapshot_rejects_corruption_and_truncation() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let bytes = idx.snapshot_bytes().unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            InvertedIndex::from_snapshot_bytes(&wrong).unwrap_err(),
            keybridge_relstore::SnapshotError::BadMagic
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(InvertedIndex::from_snapshot_bytes(&flipped).is_err());
        for cut in (0..bytes.len()).step_by(7) {
            assert!(InvertedIndex::from_snapshot_bytes(&bytes[..cut]).is_err());
        }
        // A CRC is not a MAC: a well-framed section may claim u32::MAX
        // attribute stats or schema terms. Each claim must end as a
        // truncation, never as an allocation sized by the claim.
        let crafted = |stats: u32, schema_terms: u32| {
            let mut out = IDX_MAGIC.to_vec();
            put_u32(&mut out, IDX_VERSION);
            put_section(&mut out, SEC_TOKENIZER, &0u32.to_le_bytes());
            put_section(&mut out, SEC_ATTR_STATS, &stats.to_le_bytes());
            put_section(&mut out, SEC_DICT, &[0]);
            put_section(&mut out, SEC_SCHEMA_TERMS, &schema_terms.to_le_bytes());
            out
        };
        let honest = InvertedIndex::from_snapshot_bytes(&crafted(0, 0)).unwrap();
        assert_eq!(honest.term_count(), 0);
        for (stats, schema_terms) in [(u32::MAX, 0), (0, u32::MAX)] {
            assert_eq!(
                InvertedIndex::from_snapshot_bytes(&crafted(stats, schema_terms)).unwrap_err(),
                keybridge_relstore::SnapshotError::Truncated,
                "counts {stats}/{schema_terms}"
            );
        }
    }

    /// Deterministic xorshift PRNG so the property tests need no external
    /// crates and replay identically.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn packed_postings_match_vec_model() {
        // Property: a TermAttrEntry maintained through random in- and
        // out-of-order upserts agrees with a plain Vec<(RowId, u32)> model
        // on every observable — df, occurrences, decoded rows, tf probes —
        // and its packed bytes are canonical: re-encoding the model from
        // scratch in sorted order yields the identical buffer.
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        for _case in 0..200 {
            let mut entry = TermAttrEntry::default();
            let mut model: Vec<(RowId, u32)> = Vec::new();
            let n = rng.below(40) as usize;
            for _ in 0..n {
                let row = RowId(rng.below(1 << 20) as u32);
                let tf = rng.below(5) as u32 + 1;
                entry.upsert(row, tf);
                match model.binary_search_by_key(&row, |&(r, _)| r) {
                    Ok(i) => model[i].1 += tf,
                    Err(i) => model.insert(i, (row, tf)),
                }
            }
            assert_eq!(entry.df(), model.len());
            assert_eq!(
                entry.occurrences,
                model.iter().map(|&(_, tf)| tf as u64).sum::<u64>()
            );
            assert_eq!(entry.rows().collect::<Vec<_>>(), model);
            for &(r, tf) in &model {
                assert_eq!(entry.tf(r), Some(tf));
            }
            assert_eq!(entry.tf(RowId(u32::MAX)), None);
            // Canonical bytes: sorted-order pushes produce the same buffer.
            let mut rebuilt = TermAttrEntry::default();
            for &(r, tf) in &model {
                rebuilt.push(r, tf);
            }
            assert_eq!(entry, rebuilt, "splice must equal rebuild");
        }
    }

    #[test]
    fn packed_postings_snapshot_roundtrip_property() {
        // Property: random entries survive the snapshot codec exactly —
        // from_packed accepts what push/upsert produced and reconstructs
        // the same entry, including the append fast-path base.
        let mut rng = XorShift(0x2545F4914F6CDD1D);
        for _case in 0..200 {
            let mut entry = TermAttrEntry::default();
            let n = rng.below(30) as usize;
            for _ in 0..n {
                entry.upsert(RowId(rng.below(1 << 16) as u32), rng.below(7) as u32 + 1);
            }
            let back = TermAttrEntry::from_packed(
                entry.repr,
                entry.packed.clone(),
                entry.df,
                entry.occurrences,
            )
            .unwrap();
            assert_eq!(back, entry);
        }
    }

    #[test]
    fn from_packed_rejects_malformed_buffers() {
        use PostingsRepr::Gaps;
        let mut entry = TermAttrEntry::default();
        entry.push(RowId(3), 2);
        entry.push(RowId(9), 1);
        // Wrong df: trailing bytes after the declared postings.
        assert!(TermAttrEntry::from_packed(Gaps, entry.packed.clone(), 1, 3).is_err());
        // Wrong occurrence total.
        assert!(TermAttrEntry::from_packed(Gaps, entry.packed.clone(), 2, 4).is_err());
        // Truncated buffer.
        let cut = entry.packed[..entry.packed.len() - 1].to_vec();
        assert!(TermAttrEntry::from_packed(Gaps, cut, 2, 3).is_err());
        // Zero delta = non-increasing rows.
        let mut bad = Vec::new();
        put_varu32(&mut bad, 5);
        put_varu32(&mut bad, 1);
        put_varu32(&mut bad, 0);
        put_varu32(&mut bad, 1);
        assert!(TermAttrEntry::from_packed(Gaps, bad, 2, 2).is_err());
        // Varint overflowing u32.
        let over = vec![0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(TermAttrEntry::from_packed(Gaps, over, 1, 1).is_err());
    }

    /// A dense entry for the bitmap-repr tests: `df` consecutive-ish rows
    /// starting at `base` with tf = (row % 5) + 1.
    fn dense_entry(base: u32, df: u32) -> TermAttrEntry {
        let pairs: Vec<(RowId, u32)> = (0..df)
            .map(|i| (RowId(base + i * 2), (base + i * 2) % 5 + 1))
            .collect();
        TermAttrEntry::from_pairs(&pairs)
    }

    #[test]
    fn bitmap_repr_kicks_in_exactly_at_the_density_threshold() {
        // df = 16 rows over span 512 sits exactly on df*32 >= span.
        let spread = |df: u32, span: u32| -> TermAttrEntry {
            let mut pairs: Vec<(RowId, u32)> = (0..df - 1).map(|i| (RowId(i), 1)).collect();
            pairs.push((RowId(span - 1), 1)); // span = last - first + 1
            TermAttrEntry::from_pairs(&pairs)
        };
        assert_eq!(spread(16, 512).repr(), PostingsRepr::Bitmap);
        assert_eq!(spread(16, 513).repr(), PostingsRepr::Gaps);
        assert_eq!(spread(17, 513).repr(), PostingsRepr::Bitmap);
        // df below the floor stays gaps however dense.
        let tiny: Vec<(RowId, u32)> = (0..15).map(|i| (RowId(i), 1)).collect();
        assert_eq!(TermAttrEntry::from_pairs(&tiny).repr(), PostingsRepr::Gaps);
        // ...and one more row over the same span flips it.
        let full: Vec<(RowId, u32)> = (0..16).map(|i| (RowId(i), 1)).collect();
        assert_eq!(
            TermAttrEntry::from_pairs(&full).repr(),
            PostingsRepr::Bitmap
        );
    }

    #[test]
    fn bitmap_postings_match_vec_model() {
        // Property: entries maintained through random upserts over a dense
        // universe (rows below 600, up to 300 of them) agree with the Vec
        // model on every observable, land on the canonical repr of their
        // final set, and are byte-identical to a from-scratch rebuild —
        // whether that rebuild arrives by incremental pushes or one
        // from_pairs encode.
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        let mut saw_bitmap = false;
        for _case in 0..200 {
            let mut entry = TermAttrEntry::default();
            let mut model: Vec<(RowId, u32)> = Vec::new();
            let n = rng.below(300) as usize;
            for _ in 0..n {
                let row = RowId(rng.below(600) as u32);
                let tf = rng.below(5) as u32 + 1;
                entry.upsert(row, tf);
                match model.binary_search_by_key(&row, |&(r, _)| r) {
                    Ok(i) => model[i].1 += tf,
                    Err(i) => model.insert(i, (row, tf)),
                }
            }
            saw_bitmap |= entry.repr() == PostingsRepr::Bitmap;
            assert_eq!(entry.df(), model.len());
            assert_eq!(
                entry.occurrences,
                model.iter().map(|&(_, tf)| tf as u64).sum::<u64>()
            );
            assert_eq!(entry.rows().collect::<Vec<_>>(), model);
            for &(r, tf) in &model {
                assert_eq!(entry.tf(r), Some(tf));
            }
            assert_eq!(entry.tf(RowId(u32::MAX)), None);
            assert!(entry.is_canonical(), "repr must match the final set");
            let mut pushed = TermAttrEntry::default();
            for &(r, tf) in &model {
                pushed.push(r, tf);
            }
            assert_eq!(entry, pushed, "splice must equal push-rebuild");
            assert_eq!(
                entry,
                TermAttrEntry::from_pairs(&model),
                "splice must equal one-shot encode"
            );
            // Snapshot codec round-trip, canonicality check included.
            let back = TermAttrEntry::from_packed(
                entry.repr,
                entry.packed.clone(),
                entry.df,
                entry.occurrences,
            )
            .unwrap();
            assert_eq!(back, entry);
            assert!(back.is_canonical());
        }
        assert!(saw_bitmap, "dense universe must exercise the bitmap repr");
    }

    #[test]
    fn joint_rows_agree_across_repr_mixes() {
        // Property: for_each_joint_row (the word-AND path for all-bitmap
        // inputs, the shortest-list probe for every other) matches a
        // brute-force model intersection for every repr mix, stops where
        // `visit` says, and the index methods built on it agree with the
        // model too. Each kernel shape is seen with non-empty intersections.
        let schema = db().schema().clone();
        let name = schema.resolve("actor", "name").unwrap();
        let words = ["alpha", "bravo", "charlie", "delta"].map(String::from);
        let mut rng = XorShift(0x2545F4914F6CDD1D);
        // all-bitmap, all-gaps, gaps lead x unit-tf bitmap probe, gaps
        // lead x bitmap probe with some tf > 1, bitmap lead x gaps
        // probe, three or more lists of mixed reprs, early stop on a mixed
        // walk with more than one joint row.
        let mut seen = [0usize; 7];
        for case in 0..2000 {
            let k = 2 + rng.below(3) as usize;
            let mut entries = Vec::new();
            let mut models: Vec<Vec<(RowId, u32)>> = Vec::new();
            for _ in 0..k {
                // Dense (a bitmap from df 16), sparse scatter, sparse on a
                // stride-41 lattice, or a dense cluster with one far row
                // (a gaps list as long as a bitmap, over the same rows).
                let (universe, stride, most, far) = match rng.below(4) {
                    0 => (400, 1, 200, false),
                    1 => (1 << 14, 1, 40, false),
                    2 => (400, 41, 40, false),
                    _ => (400, 1, 200, true),
                };
                let unit_tf = rng.below(3) == 0;
                let mut rows: Vec<u32> = (0..rng.below(most))
                    .map(|_| (rng.below(universe) * stride) as u32)
                    .collect();
                if far {
                    rows.push((1 << 14) + rng.below(1 << 10) as u32);
                }
                let mut model: Vec<(RowId, u32)> = Vec::new();
                for row in rows {
                    let tf = if unit_tf { 1 } else { rng.below(6) as u32 + 1 };
                    match model.binary_search_by_key(&RowId(row), |&(r, _)| r) {
                        Ok(i) if !unit_tf => model[i].1 += tf,
                        Ok(_) => {}
                        Err(i) => model.insert(i, (RowId(row), tf)),
                    }
                }
                entries.push(TermAttrEntry::from_pairs(&model));
                models.push(model);
            }
            let lists: Vec<&TermAttrEntry> = entries.iter().collect();
            let mut got = Vec::new();
            for_each_joint_row(&lists, |row, min_tf| {
                got.push((row, min_tf));
                true
            });
            let mut want = Vec::new();
            for &(row, tf0) in &models[0] {
                let mut min_tf = tf0;
                let mut everywhere = true;
                for m in &models[1..] {
                    match m.binary_search_by_key(&row, |&(r, _)| r) {
                        Ok(i) => min_tf = min_tf.min(m[i].1),
                        Err(_) => {
                            everywhere = false;
                            break;
                        }
                    }
                }
                if everywhere {
                    want.push((row, min_tf));
                }
            }
            assert_eq!(got, want, "case {case}");
            // Early stop: the walk ends at the first joint row.
            let mut visited = Vec::new();
            for_each_joint_row(&lists, |row, min_tf| {
                visited.push((row, min_tf));
                false
            });
            assert_eq!(visited, want[..want.len().min(1)], "case {case} early stop");

            // The index methods over the same postings, which hand the
            // kernel its lists smallest-df first.
            let mut index = InvertedIndex::build(&Database::new(schema.clone()));
            for (word, entry) in words.iter().zip(&entries) {
                let term = TermEntry {
                    attrs: vec![name],
                    postings: vec![entry.clone()],
                };
                index.dict.insert(word.clone(), term);
            }
            let terms = &words[..k];
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            index.rows_with_all_into(terms, name, &mut out, &mut scratch);
            let want_rows: Vec<RowId> = want.iter().map(|&(r, _)| r).collect();
            assert_eq!(out, want_rows, "case {case} rows_with_all_into");
            assert_eq!(index.has_row_with_all(terms, name), !want.is_empty());
            let joint: u64 = want.iter().map(|&(_, tf)| tf as u64).sum();
            assert_eq!(index.joint_occurrences(terms, name), Some(joint));

            if want.is_empty() {
                continue;
            }
            let bitmap = |e: &TermAttrEntry| e.repr() == PostingsRepr::Bitmap;
            let bitmaps = lists.iter().filter(|e| bitmap(e)).count();
            if bitmaps == k {
                seen[0] += 1;
                continue;
            }
            if bitmaps == 0 {
                seen[1] += 1;
                continue;
            }
            let lead = (0..k).min_by_key(|&i| lists[i].df()).unwrap();
            let probes = || (0..k).filter(move |&i| i != lead).map(|i| lists[i]);
            if bitmap(lists[lead]) {
                seen[4] += 1;
            } else {
                let unit = |e: &TermAttrEntry| e.occurrences == e.df() as u64;
                seen[2] += usize::from(probes().any(|e| bitmap(e) && unit(e)));
                seen[3] += usize::from(probes().any(|e| bitmap(e) && !unit(e)));
            }
            seen[5] += usize::from(k >= 3);
            seen[6] += usize::from(want.len() >= 2);
        }
        assert!(
            seen.iter().all(|&n| n >= 20),
            "non-empty intersections per kernel shape: {seen:?}"
        );
    }

    #[test]
    fn one_list_rows_match_the_postings_iterator() {
        // Property: a single-term rows_with_all_into (the row-only decode
        // that never reads a tf) returns exactly the rows of the entry's
        // Postings iterator, checked after every one of a run of
        // out-of-order index_row splices — so at df == 1, on bitmaps whose
        // base is not row 0 and whose last word is partial, on gaps lists
        // holding multi-byte tf varints, and on both sides of every splice
        // that flips the repr.
        let schema = db().schema().clone();
        let actor = schema.table_id("actor").unwrap();
        let name = schema.resolve("actor", "name").unwrap();
        let term = ["zed".to_owned()];
        let mut rng = XorShift(0xD1B54A32D192ED03);
        let (mut offset_bitmaps, mut wide_tf_gaps, mut flips) = (0usize, 0usize, 0usize);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for case in 0..200 {
            // Dense cluster off row 0, sparse scatter, or a cluster plus a
            // few far rows whose arrival drops the density back under 1/32.
            let cluster_base = 1 + rng.below(5000) as u32;
            let (near, span, far) = match case % 3 {
                0 => (1 + rng.below(300), 600, 0),
                1 => (0, 0, 1 + rng.below(40)),
                _ => (20 + rng.below(80), 200, 1 + rng.below(3)),
            };
            let mut rows: Vec<u32> = Vec::new();
            for _ in 0..near {
                rows.push(cluster_base + rng.below(span) as u32);
            }
            for _ in 0..far {
                rows.push((1 << 19) + rng.below(1 << 19) as u32);
            }
            rows.sort_unstable();
            rows.dedup();
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut index = InvertedIndex::build(&Database::new(schema.clone()));
            let mut model: Vec<RowId> = Vec::new();
            let mut repr = PostingsRepr::Gaps;
            for &row in &rows {
                // One row in eight repeats the term past a one-byte varint.
                let tf = if rng.below(8) == 0 {
                    128 + rng.below(300)
                } else {
                    1 + rng.below(5)
                };
                let text = Value::text("zed ".repeat(tf as usize));
                index.index_row_values(&schema, actor, RowId(row), &[Value::Int(0), text]);
                let at = model.binary_search(&RowId(row)).unwrap_err();
                model.insert(at, RowId(row));

                let entry = index.postings("zed", name).unwrap();
                let want: Vec<RowId> = entry.rows().map(|(r, _)| r).collect();
                assert_eq!(want, model, "case {case}: iterator vs model");
                index.rows_with_all_into(&term, name, &mut out, &mut scratch);
                assert_eq!(out, want, "case {case}: one-list path at df {}", want.len());

                let span = want[want.len() - 1].0 - want[0].0 + 1;
                match entry.repr() {
                    PostingsRepr::Bitmap => {
                        offset_bitmaps += usize::from(want[0].0 > 0 && !span.is_multiple_of(64))
                    }
                    PostingsRepr::Gaps => {
                        wide_tf_gaps += usize::from(entry.rows().any(|(_, tf)| tf >= 128))
                    }
                }
                flips += usize::from(entry.repr() != repr);
                repr = entry.repr();
            }
        }
        assert!(offset_bitmaps >= 1000, "offset bitmaps: {offset_bitmaps}");
        assert!(wide_tf_gaps >= 1000, "wide-tf gaps lists: {wide_tf_gaps}");
        assert!(flips >= 100, "repr flips: {flips}");
    }

    #[test]
    fn from_packed_rejects_malformed_bitmap_buffers() {
        use PostingsRepr::Bitmap;
        let entry = dense_entry(100, 32);
        assert_eq!(entry.repr(), Bitmap);
        let (packed, df, occ) = (entry.packed.clone(), entry.df, entry.occurrences);
        // The well-formed buffer round-trips.
        assert!(TermAttrEntry::from_packed(Bitmap, packed.clone(), df, occ).is_ok());
        // Popcount must equal df.
        assert!(TermAttrEntry::from_packed(Bitmap, packed.clone(), df - 1, occ).is_err());
        // Occurrence total mismatch.
        assert!(TermAttrEntry::from_packed(Bitmap, packed.clone(), df, occ + 1).is_err());
        // Truncated tf stream.
        let cut = packed[..packed.len() - 1].to_vec();
        assert!(TermAttrEntry::from_packed(Bitmap, cut, df, occ).is_err());
        // Trailing garbage.
        let mut long = packed.clone();
        long.push(0);
        assert!(TermAttrEntry::from_packed(Bitmap, long, df, occ).is_err());
        // Base bit unset: the first word's bit 0 must be set.
        let mut unset = packed.clone();
        let mut pos = 0;
        read_varu32(&unset, &mut pos); // base
        read_varu32(&unset, &mut pos); // nwords
        assert_eq!(unset[pos] & 1, 1);
        unset[pos] &= !1;
        assert!(TermAttrEntry::from_packed(Bitmap, unset, df, occ).is_err());
        // Empty bitmap is never canonical.
        assert!(TermAttrEntry::from_packed(Bitmap, Vec::new(), 0, 0).is_err());
        // A trailing all-zero word (nwords not minimal) is rejected. Build
        // one by hand: base 0, 2 words, 16 rows all in word 0.
        let mut padded = Vec::new();
        put_varu32(&mut padded, 0);
        put_varu32(&mut padded, 2);
        padded.extend_from_slice(&0xFFFFu64.to_le_bytes());
        padded.extend_from_slice(&0u64.to_le_bytes());
        for _ in 0..16 {
            put_varu32(&mut padded, 1);
        }
        assert!(TermAttrEntry::from_packed(Bitmap, padded, 16, 16).is_err());
    }

    #[test]
    fn v2_snapshots_are_rejected() {
        // Version 2 (gap-encoded entries, no repr tag) was never deployed
        // with a store: the loader refuses it by version word alone.
        let mut bytes = InvertedIndex::build(&db()).snapshot_bytes().unwrap();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            InvertedIndex::from_snapshot_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn v3_snapshot_rejects_non_canonical_repr_tag() {
        // Flip one dense entry of a real snapshot back to gap encoding
        // (keeping its v3 tag byte consistent with the bytes) — the loader
        // must reject the non-canonical repr choice.
        let entry = dense_entry(0, 32);
        assert_eq!(entry.repr(), PostingsRepr::Bitmap);
        let pairs: Vec<(RowId, u32)> = entry.rows().collect();
        let mut gaps = Vec::new();
        let mut prev = 0;
        for (i, &(r, tf)) in pairs.iter().enumerate() {
            put_varu32(&mut gaps, if i == 0 { r.0 } else { r.0 - prev });
            put_varu32(&mut gaps, tf);
            prev = r.0;
        }
        let decoded =
            TermAttrEntry::from_packed(PostingsRepr::Gaps, gaps, entry.df, entry.occurrences)
                .unwrap();
        assert!(
            !decoded.is_canonical(),
            "a dense gaps entry is structurally valid but non-canonical"
        );
    }
}
