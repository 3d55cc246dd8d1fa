//! A plain suffix-array index — the fast, `O(n log σ)`-bit-text static
//! index plugged into the transformations for the paper's Table 3 regime
//! (a substitution: it stands in for Grossi–Vitter \[22\]).
//!
//! Trade-off profile (vs the FM-index):
//! * `locate` is **O(1)** (`SA[i]` is stored) instead of O(s) LF steps —
//!   this is the headline advantage Table 3 demonstrates;
//! * `extract` reads the packed text directly, O(ℓ);
//! * `tSA` is O(1) (`ISA` stored);
//! * range-finding is binary search: O(|P| log n);
//! * space is `n·⌈log σ⌉` bits for the text plus `2n·⌈log n⌉` bits for
//!   SA/ISA (GV compress these to O(n log σ); we keep them plain and
//!   let the `table3_fast` binary report the measured difference).

use crate::collection::{ConcatText, Occurrence, SIGMA, SYM_OFFSET};
use crate::sais::suffix_array;
use dyndex_succinct::{bits::bits_for, EliasFano, IntVec, SpaceUsage};

/// A classical suffix-array full-text index over a document collection.
#[derive(Clone, Debug)]
pub struct SaIndex {
    /// Packed encoded text (9 bits/symbol).
    text: IntVec,
    /// Suffix array.
    sa: IntVec,
    /// Inverse suffix array.
    isa: IntVec,
    n: usize,
    doc_ids: Vec<u64>,
    doc_starts: EliasFano,
}

impl SaIndex {
    /// Builds the index over `docs`.
    pub fn build(docs: &[(u64, &[u8])]) -> Self {
        let concat = ConcatText::new(docs);
        Self::from_concat(&concat)
    }

    /// Builds from an already-encoded concatenation.
    pub fn from_concat(concat: &ConcatText) -> Self {
        let raw = concat.text();
        let n = raw.len();
        let sa_raw = suffix_array(raw, SIGMA);
        let width = bits_for(n.saturating_sub(1) as u64) as usize;
        let sym_width = bits_for(SIGMA as u64 - 1) as usize;
        let mut text = IntVec::with_capacity(sym_width, n);
        for &s in raw {
            text.push(s as u64);
        }
        let mut sa = IntVec::with_capacity(width, n);
        let mut isa_raw = vec![0u64; n];
        for (row, &p) in sa_raw.iter().enumerate() {
            sa.push(p as u64);
            isa_raw[p as usize] = row as u64;
        }
        let mut isa = IntVec::with_capacity(width, n);
        for &r in &isa_raw {
            isa.push(r);
        }
        let starts: Vec<u64> = (0..concat.num_docs())
            .map(|s| concat.doc_start(s) as u64)
            .collect();
        SaIndex {
            text,
            sa,
            isa,
            n,
            doc_ids: concat.doc_ids().to_vec(),
            doc_starts: EliasFano::new(&starts, n as u64 + 1),
        }
    }

    /// Total encoded text length.
    #[inline]
    pub fn text_len(&self) -> usize {
        self.n
    }

    /// Total document bytes.
    #[inline]
    pub fn symbol_count(&self) -> usize {
        self.n - self.num_docs() - 1
    }

    /// Number of documents.
    #[inline]
    pub fn num_docs(&self) -> usize {
        self.doc_ids.len()
    }

    /// Caller-assigned document ids in concatenation order.
    #[inline]
    pub fn doc_ids(&self) -> &[u64] {
        &self.doc_ids
    }

    /// Compares `pattern` against the suffix starting at `pos`.
    fn cmp_suffix(&self, pattern: &[u32], pos: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        for (k, &pc) in pattern.iter().enumerate() {
            let tp = pos + k;
            if tp >= self.n {
                return Ordering::Less; // suffix exhausted => suffix < pattern
            }
            let tc = self.text.get(tp) as u32;
            match tc.cmp(&pc) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal // pattern is a prefix of the suffix
    }

    /// Range-finding by binary search: the SA interval `[l, r)` of suffixes
    /// starting with `pattern`. O(|P| log n).
    pub fn find_range(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        let encoded = crate::collection::encode_pattern(pattern);
        if encoded.is_empty() {
            return Some((0, self.n));
        }
        // Lower bound: first suffix >= pattern.
        let mut lo = 0usize;
        let mut hi = self.n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cmp_suffix(&encoded, self.sa.get(mid) as usize) == std::cmp::Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let start = lo;
        // Upper bound: first suffix whose prefix > pattern.
        let mut hi = self.n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cmp_suffix(&encoded, self.sa.get(mid) as usize) == std::cmp::Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if start < lo {
            Some((start, lo))
        } else {
            None
        }
    }

    /// Number of occurrences of `pattern`.
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.find_range(pattern).map_or(0, |(l, r)| r - l)
    }

    /// Text position of SA row `row` — O(1).
    #[inline]
    pub fn locate_row(&self, row: usize) -> usize {
        self.sa.get(row) as usize
    }

    /// SA row of text position `pos` (tSA) — O(1).
    #[inline]
    pub fn suffix_rank(&self, pos: usize) -> usize {
        self.isa.get(pos) as usize
    }

    /// Resolves a flat text position to `(slot, Occurrence)`.
    pub fn resolve(&self, pos: usize) -> (usize, Occurrence) {
        let (slot, start) = self
            .doc_starts
            .predecessor(pos as u64)
            .expect("position before first document");
        (
            slot,
            Occurrence {
                doc: self.doc_ids[slot],
                offset: pos - start as usize,
            },
        )
    }

    /// All occurrences of `pattern` (unordered).
    pub fn locate(&self, pattern: &[u8]) -> Vec<Occurrence> {
        match self.find_range(pattern) {
            None => Vec::new(),
            Some((l, r)) => (l..r)
                .map(|row| self.resolve(self.locate_row(row)).1)
                .collect(),
        }
    }

    /// Byte length of document `slot`.
    pub fn doc_len(&self, slot: usize) -> usize {
        let start = self.doc_starts.get(slot) as usize;
        let end = if slot + 1 < self.num_docs() {
            self.doc_starts.get(slot + 1) as usize
        } else {
            self.n - 1
        };
        end - start - 1
    }

    /// Start position of document `slot`.
    pub fn doc_start(&self, slot: usize) -> usize {
        self.doc_starts.get(slot) as usize
    }

    /// Extracts `len` bytes of document `slot` from `offset` — O(ℓ).
    pub fn extract(&self, slot: usize, offset: usize, len: usize) -> Vec<u8> {
        let start = self.doc_start(slot);
        let dlen = self.doc_len(slot);
        let a = start + offset.min(dlen);
        let b = start + (offset + len).min(dlen);
        (a..b)
            .map(|p| (self.text.get(p) as u32 - SYM_OFFSET) as u8)
            .collect()
    }

    /// SA rows of all suffixes starting inside document `slot` — O(|doc|).
    pub fn doc_suffix_rows(&self, slot: usize) -> Vec<usize> {
        let start = self.doc_start(slot);
        (start..start + self.doc_len(slot))
            .map(|p| self.suffix_rank(p))
            .collect()
    }

    /// Reconstructs all documents.
    pub fn extract_all_docs(&self) -> Vec<(u64, Vec<u8>)> {
        (0..self.num_docs())
            .map(|slot| {
                (
                    self.doc_ids[slot],
                    self.extract(slot, 0, self.doc_len(slot)),
                )
            })
            .collect()
    }
}

impl SpaceUsage for SaIndex {
    fn heap_bytes(&self) -> usize {
        self.text.heap_bytes()
            + self.sa.heap_bytes()
            + self.isa.heap_bytes()
            + self.doc_ids.heap_bytes()
            + self.doc_starts.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCS: &[(u64, &[u8])] = &[
        (1, b"the quick brown fox jumps over the lazy dog"),
        (2, b"pack my box with five dozen liquor jugs"),
        (3, b"aa"),
        (4, b""),
    ];

    fn naive(docs: &[(u64, &[u8])], pattern: &[u8]) -> Vec<Occurrence> {
        let mut out = Vec::new();
        for (id, d) in docs {
            if pattern.is_empty() || pattern.len() > d.len() {
                continue;
            }
            for off in 0..=(d.len() - pattern.len()) {
                if &d[off..off + pattern.len()] == pattern {
                    out.push(Occurrence {
                        doc: *id,
                        offset: off,
                    });
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn matches_naive() {
        let idx = SaIndex::build(DOCS);
        for p in [b"the".as_slice(), b"a", b"qu", b"ox", b"zzz", b" "] {
            let want = naive(DOCS, p);
            assert_eq!(idx.count(p), want.len(), "count {p:?}");
            let mut got = idx.locate(p);
            got.sort();
            assert_eq!(got, want, "locate {p:?}");
        }
    }

    #[test]
    fn extraction_and_inverse() {
        let idx = SaIndex::build(DOCS);
        for (slot, (_, d)) in DOCS.iter().enumerate() {
            assert_eq!(idx.doc_len(slot), d.len());
            assert_eq!(&idx.extract(slot, 0, d.len()), d);
        }
        for pos in 0..idx.text_len() {
            assert_eq!(idx.locate_row(idx.suffix_rank(pos)), pos);
        }
        let all = idx.extract_all_docs();
        assert_eq!(all.len(), DOCS.len());
        for ((id, bytes), (wid, wb)) in all.iter().zip(DOCS) {
            assert_eq!((id, bytes.as_slice()), (wid, *wb));
        }
    }

    #[test]
    fn doc_suffix_rows_roundtrip() {
        let idx = SaIndex::build(DOCS);
        for slot in 0..idx.num_docs() {
            let rows = idx.doc_suffix_rows(slot);
            assert_eq!(rows.len(), idx.doc_len(slot));
            for (i, &row) in rows.iter().enumerate() {
                assert_eq!(idx.locate_row(row), idx.doc_start(slot) + i);
            }
        }
    }
}
