//! The static FM-index: the paper's `(u(n), w(n))`-constructible compressed
//! index `Is`.
//!
//! Answers queries with the two-step method the paper's framework assumes
//! (§1–2): **range-finding** (backward search narrows the suffix-array
//! interval of suffixes starting with `P`) and **locating** (LF-walk to the
//! nearest sampled suffix, cost O(s) per occurrence, where `s` is the
//! sample rate — the paper's space/time trade-off parameter). It also
//! supports **extract** (any text substring in O(s + ℓ) rank operations)
//! and **tSA** (the rank of any suffix, used by deletions).
//!
//! The index is generic over the BWT sequence representation:
//! [`dyndex_succinct::HuffmanWavelet`] gives the `nHk + o(n log σ)` regime
//! of Tables 1–2; [`dyndex_succinct::WaveletMatrix`] the `O(n log σ)`
//! regime. A substitution: it stands in for Belazzougui–Navarro \[7\] /
//! Barbay et al. \[3\].

use crate::bwt::{bwt_from_sa, c_array};
use crate::collection::{ConcatText, Occurrence, SEPARATOR, SIGMA, SYM_OFFSET};
use crate::sais::suffix_array;
use dyndex_succinct::{
    bits::bits_for, BitVec, EliasFano, HuffmanWavelet, IntVec, RankSelect, Sequence, SpaceUsage,
    WaveletMatrix,
};

/// The compressed-space FM-index (Huffman-shaped wavelet over the BWT).
pub type FmIndexCompressed = FmIndex<HuffmanWavelet>;
/// The plain-space FM-index (balanced wavelet matrix over the BWT).
pub type FmIndexPlain = FmIndex<WaveletMatrix>;

/// Borrowed decomposition of an [`FmIndex`] for the persistence layer's
/// encode path (field meanings match the struct's).
#[doc(hidden)]
pub struct FmIndexView<'a, S: Sequence> {
    pub bwt: &'a S,
    pub c: &'a [usize],
    pub marked: &'a RankSelect,
    pub sa_samples: &'a IntVec,
    pub inv_samples: &'a IntVec,
    pub sample_rate: usize,
    pub n: usize,
    pub doc_ids: &'a [u64],
    pub doc_starts: &'a EliasFano,
}

/// Owned parts reassembling an [`FmIndex`] (persistence decode path).
#[doc(hidden)]
pub struct FmIndexParts<S: Sequence> {
    pub bwt: S,
    pub c: Vec<usize>,
    pub marked: RankSelect,
    pub sa_samples: IntVec,
    pub inv_samples: IntVec,
    pub sample_rate: usize,
    pub n: usize,
    pub doc_ids: Vec<u64>,
    pub doc_starts: EliasFano,
}

/// A static full-text index over a document collection.
#[derive(Clone, Debug)]
pub struct FmIndex<S: Sequence> {
    bwt: S,
    /// `c[sym]` = number of text symbols < `sym`.
    c: Vec<usize>,
    /// Marks suffix-array rows whose text position is ≡ 0 (mod s).
    marked: RankSelect,
    /// SA values at marked rows, in row order.
    sa_samples: IntVec,
    /// `inv_samples[j]` = ISA[j·s] (suffix-array row of text position j·s).
    inv_samples: IntVec,
    sample_rate: usize,
    n: usize,
    doc_ids: Vec<u64>,
    doc_starts: EliasFano,
}

impl<S: Sequence> FmIndex<S> {
    /// Builds the index over `docs` with locate-sample rate `s ≥ 1`.
    ///
    /// Construction runs in O(n) (SA-IS) plus O(n log σ) sequence building —
    /// the `u(n)` of the paper's transformations.
    pub fn build(docs: &[(u64, &[u8])], sample_rate: usize) -> Self {
        assert!(sample_rate >= 1, "sample rate must be positive");
        let concat = ConcatText::new(docs);
        Self::from_concat(&concat, sample_rate)
    }

    /// Builds from an already-encoded concatenation.
    pub fn from_concat(concat: &ConcatText, sample_rate: usize) -> Self {
        let text = concat.text();
        let n = text.len();
        let sa = suffix_array(text, SIGMA);
        let bwt_syms = bwt_from_sa(text, &sa);
        let c = c_array(text, SIGMA);
        let bwt = S::build(&bwt_syms, SIGMA);

        let width = bits_for(n.saturating_sub(1) as u64) as usize;
        let mut marked_bits = BitVec::from_elem(n, false);
        let n_inv = n.div_ceil(sample_rate);
        let mut inv_samples = IntVec::with_capacity(width, n_inv);
        // First pass: collect which rows are marked and fill ISA samples.
        let mut inv_tmp = vec![0u64; n_inv];
        for (row, &p) in sa.iter().enumerate() {
            if (p as usize).is_multiple_of(sample_rate) {
                marked_bits.set(row, true);
                inv_tmp[p as usize / sample_rate] = row as u64;
            }
        }
        for &row in &inv_tmp {
            inv_samples.push(row);
        }
        let mut sa_samples = IntVec::with_capacity(width, n / sample_rate + 1);
        for (row, &p) in sa.iter().enumerate() {
            if (p as usize).is_multiple_of(sample_rate) {
                debug_assert!(marked_bits.get(row));
                sa_samples.push(p as u64);
            }
        }
        let marked = RankSelect::new(marked_bits);

        // Re-derive the document directory (cheap, O(ρ)).
        let doc_ids = concat.doc_ids().to_vec();
        let starts: Vec<u64> = (0..concat.num_docs())
            .map(|s| concat.doc_start(s) as u64)
            .collect();
        let doc_starts = EliasFano::new(&starts, n as u64 + 1);

        FmIndex {
            bwt,
            c,
            marked,
            sa_samples,
            inv_samples,
            sample_rate,
            n,
            doc_ids,
            doc_starts,
        }
    }

    /// Borrowed decomposition for the persistence encode path.
    #[doc(hidden)]
    pub fn persist_view(&self) -> FmIndexView<'_, S> {
        FmIndexView {
            bwt: &self.bwt,
            c: &self.c,
            marked: &self.marked,
            sa_samples: &self.sa_samples,
            inv_samples: &self.inv_samples,
            sample_rate: self.sample_rate,
            n: self.n,
            doc_ids: &self.doc_ids,
            doc_starts: &self.doc_starts,
        }
    }

    /// Reassembles from parts (persistence decode path). Returns `Err`
    /// (never panics) on structurally inconsistent input.
    #[doc(hidden)]
    pub fn from_persist_parts(parts: FmIndexParts<S>) -> Result<Self, String> {
        if parts.sample_rate == 0 {
            return Err("fm-index sample rate must be positive".into());
        }
        if parts.bwt.len() != parts.n || parts.marked.len() != parts.n {
            return Err("fm-index bwt/marked length mismatch".into());
        }
        if parts.c.len() != SIGMA as usize + 1 {
            return Err("fm-index C array length mismatch".into());
        }
        if parts.sa_samples.len() != parts.marked.count_ones() {
            return Err("fm-index SA sample count mismatch".into());
        }
        if parts.inv_samples.len() != parts.n.div_ceil(parts.sample_rate) {
            return Err("fm-index ISA sample count mismatch".into());
        }
        if parts.doc_starts.len() != parts.doc_ids.len() {
            return Err("fm-index document directory length mismatch".into());
        }
        Ok(FmIndex {
            bwt: parts.bwt,
            c: parts.c,
            marked: parts.marked,
            sa_samples: parts.sa_samples,
            inv_samples: parts.inv_samples,
            sample_rate: parts.sample_rate,
            n: parts.n,
            doc_ids: parts.doc_ids,
            doc_starts: parts.doc_starts,
        })
    }

    /// Total encoded text length (including separators and terminator).
    #[inline]
    pub fn text_len(&self) -> usize {
        self.n
    }

    /// Total document bytes (excluding separators/terminator).
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

    /// The locate sample rate `s`.
    #[inline]
    pub fn sample_rate(&self) -> usize {
        self.sample_rate
    }

    /// One LF step: maps the SA row of suffix `T[p..]` to the row of
    /// `T[p-1..]`.
    #[inline]
    pub fn lf(&self, row: usize) -> usize {
        self.lf_symbol(row).1
    }

    /// [`FmIndex::lf`] together with the symbol it stepped over
    /// (`T[p-1]`), from one descent of the BWT sequence.
    #[inline]
    fn lf_symbol(&self, row: usize) -> (u32, usize) {
        let (sym, rank) = self.bwt.access_rank(row);
        (sym, self.c[sym as usize] + rank)
    }

    /// Backward search: the suffix-array interval `[l, r)` of suffixes
    /// starting with `pattern` (encoded symbols). O(|P|) rank pairs.
    pub fn backward_search(&self, pattern: &[u32]) -> Option<(usize, usize)> {
        let mut l = 0usize;
        let mut r = self.n;
        for &sym in pattern.iter().rev() {
            if sym >= SIGMA {
                return None;
            }
            let base = self.c[sym as usize];
            l = base + self.bwt.rank(sym, l);
            r = base + self.bwt.rank(sym, r);
            if l >= r {
                return None;
            }
        }
        Some((l, r))
    }

    /// Range-finding on a byte pattern.
    pub fn find_range(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        self.backward_search(&crate::collection::encode_pattern(pattern))
    }

    /// Number of occurrences of `pattern` across all documents.
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.find_range(pattern).map_or(0, |(l, r)| r - l)
    }

    /// Text position of suffix-array row `row` (the paper's *locate*,
    /// O(s) LF steps).
    pub fn locate_row(&self, row: usize) -> usize {
        let mut row = row;
        let mut steps = 0usize;
        while !self.marked.get(row) {
            row = self.lf(row);
            steps += 1;
        }
        let base = self.sa_samples.get(self.marked.rank1(row)) as usize;
        base + steps
    }

    /// Resolves a text position into `(slot, Occurrence)`.
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

    /// ISA: the suffix-array row of text position `pos` (the paper's
    /// `tSA`, O(s) LF steps).
    pub fn suffix_rank(&self, pos: usize) -> usize {
        assert!(pos < self.n, "position {pos} out of range {}", self.n);
        // Find the nearest sampled text position ≥ pos, then LF-walk back.
        let j = pos.div_ceil(self.sample_rate);
        let (mut p, mut row) = if j < self.inv_samples.len() {
            (j * self.sample_rate, self.inv_samples.get(j) as usize)
        } else {
            // Beyond the last sample: the terminator suffix T[n-1..] is the
            // smallest suffix, so its row is 0.
            (self.n - 1, 0usize)
        };
        while p > pos {
            row = self.lf(row);
            p -= 1;
        }
        row
    }

    /// Extracts encoded symbols `text[a..b)` in O(s + (b−a)) LF steps.
    pub fn extract_symbols(&self, a: usize, b: usize) -> Vec<u32> {
        assert!(a <= b && b <= self.n, "bad extract range {a}..{b}");
        if a == b {
            return Vec::new();
        }
        // Start from a known row at position p ≥ b − 1 and walk left.
        // suffix_rank(b-1) gives ISA[b-1]; BWT[ISA[p]] = T[p-1], so to read
        // T[b-1] we need ISA[b]. Handle b == n via the terminator (T[n-1]=0).
        let mut out = vec![0u32; b - a];
        let mut k = b;
        let mut row = if b == self.n {
            out[b - a - 1] = crate::collection::TERMINATOR;
            k = b - 1;
            0 // ISA[n-1]
        } else {
            self.suffix_rank(b)
        };
        while k > a {
            let (sym, next) = self.lf_symbol(row);
            out[k - 1 - a] = sym;
            row = next;
            k -= 1;
        }
        out
    }

    /// Extracts `len` bytes of document `slot` starting at byte `offset`
    /// (clamped to the document length).
    pub fn extract(&self, slot: usize, offset: usize, len: usize) -> Vec<u8> {
        let start = self.doc_starts.get(slot) as usize;
        let dlen = self.doc_len(slot);
        let a = start + offset.min(dlen);
        let b = start + (offset + len).min(dlen);
        self.extract_symbols(a, b)
            .into_iter()
            .map(|s| (s - SYM_OFFSET) as u8)
            .collect()
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

    /// Start position of document `slot` in the flat text.
    pub fn doc_start(&self, slot: usize) -> usize {
        self.doc_starts.get(slot) as usize
    }

    /// Suffix-array rows of every suffix starting inside document `slot`
    /// (at byte positions), i.e. the rows a deletion must mark dead.
    ///
    /// One `suffix_rank` plus O(doc length) LF steps — O(1) amortized per
    /// symbol, matching the paper's deletion budget.
    pub fn doc_suffix_rows(&self, slot: usize) -> Vec<usize> {
        let start = self.doc_start(slot);
        let dlen = self.doc_len(slot);
        let mut rows = Vec::with_capacity(dlen);
        // Row of the separator suffix, then LF-walk to cover the doc.
        let mut row = self.suffix_rank(start + dlen);
        debug_assert_eq!(self.bwt_symbol_at_pos(start + dlen), SEPARATOR);
        for _ in 0..dlen {
            row = self.lf(row);
            rows.push(row);
        }
        rows.reverse();
        rows
    }

    #[cfg(debug_assertions)]
    fn bwt_symbol_at_pos(&self, pos: usize) -> u32 {
        self.extract_symbols(pos, pos + 1)[0]
    }
    #[cfg(not(debug_assertions))]
    fn bwt_symbol_at_pos(&self, _pos: usize) -> u32 {
        SEPARATOR
    }

    /// Reconstructs every document (id, bytes) — used when an index is
    /// purged/merged and its survivors move to a new index. O(n) LF steps.
    pub fn extract_all_docs(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = self
            .doc_ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| (id, Vec::with_capacity(self.doc_len(slot))))
            .collect();
        if self.n <= 1 {
            return out;
        }
        // Walk the whole text right-to-left from the terminator row.
        let mut row = 0usize; // ISA[n-1]: terminator suffix is smallest
        let mut pos = self.n - 1;
        let mut bytes_rev: Vec<u32> = Vec::with_capacity(self.n - 1);
        while pos > 0 {
            let (sym, next) = self.lf_symbol(row);
            bytes_rev.push(sym);
            row = next;
            pos -= 1;
        }
        bytes_rev.reverse();
        // bytes_rev = text[0..n-1]; split on separators.
        let mut slot = 0usize;
        for &sym in &bytes_rev {
            if sym == SEPARATOR {
                slot += 1;
            } else {
                out[slot].1.push((sym - SYM_OFFSET) as u8);
            }
        }
        debug_assert_eq!(slot, self.doc_ids.len());
        out
    }
}

impl<S: Sequence> SpaceUsage for FmIndex<S> {
    fn heap_bytes(&self) -> usize {
        self.bwt.heap_bytes()
            + self.c.heap_bytes()
            + self.marked.heap_bytes()
            + self.sa_samples.heap_bytes()
            + self.inv_samples.heap_bytes()
            + self.doc_ids.heap_bytes()
            + self.doc_starts.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_occurrences(docs: &[(u64, &[u8])], pattern: &[u8]) -> Vec<Occurrence> {
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

    fn check_index<S: Sequence>(docs: &[(u64, &[u8])], patterns: &[&[u8]], s: usize) {
        let fm = FmIndex::<S>::build(docs, s);
        for &p in patterns {
            let want = naive_occurrences(docs, p);
            assert_eq!(
                fm.count(p),
                want.len(),
                "count({:?})",
                String::from_utf8_lossy(p)
            );
            let mut got = fm.locate(p);
            got.sort();
            assert_eq!(got, want, "locate({:?})", String::from_utf8_lossy(p));
        }
        // extraction round-trips
        for (slot, (_, d)) in docs.iter().enumerate() {
            assert_eq!(fm.doc_len(slot), d.len());
            assert_eq!(&fm.extract(slot, 0, d.len()), d, "extract full doc {slot}");
            if d.len() >= 3 {
                assert_eq!(&fm.extract(slot, 1, d.len() - 2), &d[1..d.len() - 1]);
            }
            // clamped over-reads
            assert_eq!(fm.extract(slot, d.len(), 10), Vec::<u8>::new());
        }
        // full reconstruction
        let rebuilt = fm.extract_all_docs();
        assert_eq!(rebuilt.len(), docs.len());
        for ((id, bytes), (wid, wbytes)) in rebuilt.iter().zip(docs.iter()) {
            assert_eq!(id, wid);
            assert_eq!(bytes.as_slice(), *wbytes);
        }
    }

    const DOCS: &[(u64, &[u8])] = &[
        (1, b"the quick brown fox jumps over the lazy dog"),
        (2, b"pack my box with five dozen liquor jugs"),
        (3, b"the five boxing wizards jump quickly"),
        (4, b""),
        (5, b"aaaaa"),
    ];

    const PATTERNS: &[&[u8]] = &[
        b"the", b"qu", b"five", b"aa", b"a", b"zzz", b"jump", b"box", b" ",
    ];

    #[test]
    fn compressed_index_matches_naive() {
        check_index::<HuffmanWavelet>(DOCS, PATTERNS, 4);
    }

    #[test]
    fn plain_index_matches_naive() {
        check_index::<WaveletMatrix>(DOCS, PATTERNS, 4);
    }

    #[test]
    fn sample_rates() {
        for s in [1, 2, 7, 16, 64] {
            check_index::<HuffmanWavelet>(DOCS, &[b"the", b"a"], s);
        }
    }

    #[test]
    fn suffix_rank_is_inverse_of_locate() {
        let fm = FmIndexCompressed::build(DOCS, 4);
        for pos in (0..fm.text_len() - 1).step_by(5) {
            let row = fm.suffix_rank(pos);
            assert_eq!(fm.locate_row(row), pos, "ISA/SA mismatch at {pos}");
        }
    }

    #[test]
    fn doc_suffix_rows_cover_doc() {
        let fm = FmIndexCompressed::build(DOCS, 4);
        for slot in 0..fm.num_docs() {
            let rows = fm.doc_suffix_rows(slot);
            assert_eq!(rows.len(), fm.doc_len(slot));
            let start = fm.doc_start(slot);
            for (i, &row) in rows.iter().enumerate() {
                assert_eq!(fm.locate_row(row), start + i, "slot {slot} offset {i}");
            }
        }
    }

    #[test]
    fn single_doc_single_byte() {
        let docs: &[(u64, &[u8])] = &[(42, b"x")];
        let fm = FmIndexCompressed::build(docs, 2);
        assert_eq!(fm.count(b"x"), 1);
        assert_eq!(fm.count(b"y"), 0);
        assert_eq!(fm.locate(b"x"), vec![Occurrence { doc: 42, offset: 0 }]);
    }

    #[test]
    fn repetitive_cross_doc_counts() {
        let docs: &[(u64, &[u8])] = &[(1, b"abab"), (2, b"ababab"), (3, b"b")];
        let fm = FmIndexCompressed::build(docs, 3);
        assert_eq!(fm.count(b"ab"), 2 + 3);
        assert_eq!(fm.count(b"ba"), 1 + 2);
        assert_eq!(fm.count(b"b"), 2 + 3 + 1);
        // no cross-document phantom matches
        assert_eq!(fm.count(b"abb"), 0);
        assert_eq!(fm.count(b"bab"), 1 + 2);
    }
}
