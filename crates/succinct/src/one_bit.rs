//! The Lemma 2/3 structure: a bit vector supporting `zero(i)` and
//! `report(s, e)` (enumerate 1-bits in a range) in O(1) per reported bit.
//!
//! This is the structure `V` from Appendix A.1 of the paper. It is what lets
//! a *deletion-only* index skip over deleted suffixes in a suffix-array range
//! without paying dynamic-rank time per survivor (§2, "Supporting Document
//! Deletions").
//!
//! Implementation: the vector is split into 64-bit words; a hierarchical
//! bitmap directory marks which words are non-empty (and, recursively, which
//! directory words are non-empty), so the *next* 1-bit after any position is
//! found in O(levels) = O(log n / log w) word probes — effectively constant.
//! This replaces the Mortensen–Pagh–Pătraşcu range-reporting structure \[33\]
//! used by Lemma 2 — a substitution: same role, laptop-scale constant
//! factors.

use crate::bits::{low_mask, WORD_BITS};
use crate::bitvec::BitVec;
use crate::space::SpaceUsage;

/// A bit vector with fast 1-bit range reporting under one-way updates
/// (bits may be cleared, and — for generality — re-set).
#[derive(Clone, Debug)]
pub struct OneBitReporter {
    words: Vec<u64>,
    /// `levels[l]` is a bitmap with one bit per word of the level below
    /// (level `-1` = `words`): bit `j` set iff that word is non-zero.
    levels: Vec<Vec<u64>>,
    len: usize,
    ones: usize,
}

impl OneBitReporter {
    /// Creates a reporter of `len` bits, all set to one.
    ///
    /// This is the §2 use-case: every suffix starts undeleted.
    pub fn new_all_ones(len: usize) -> Self {
        let bv = BitVec::from_elem(len, true);
        Self::from_bitvec(&bv)
    }

    /// Builds from an existing bit vector.
    pub fn from_bitvec(bv: &BitVec) -> Self {
        let words: Vec<u64> = bv.words().to_vec();
        let ones = bv.count_ones();
        let mut levels: Vec<Vec<u64>> = Vec::new();
        let mut below: &[u64] = &words;
        while below.len() > 1 {
            let mut level = vec![0u64; below.len().div_ceil(WORD_BITS)];
            for (j, &w) in below.iter().enumerate() {
                if w != 0 {
                    level[j / WORD_BITS] |= 1u64 << (j % WORD_BITS);
                }
            }
            levels.push(level);
            below = levels.last().expect("just pushed");
            // Safety valve: the loop divides by 64 every time.
            if levels.len() > 12 {
                break;
            }
        }
        OneBitReporter {
            words,
            levels,
            len: bv.len(),
            ones,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Copies the current bits into a plain [`BitVec`] (round-trips with
    /// [`OneBitReporter::from_bitvec`]; used by the persistence layer,
    /// which re-derives the directory on load).
    pub fn to_bitvec(&self) -> BitVec {
        BitVec::from_raw_parts(self.words.clone(), self.len)
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Number of cleared bits.
    #[inline]
    pub fn count_zeros(&self) -> usize {
        self.len - self.ones
    }

    /// Bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// The paper's `zero(i)`: clears bit `i`. O(log n / log w) worst case,
    /// O(1) unless directory words empty out.
    pub fn zero(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let w = i / WORD_BITS;
        let mask = 1u64 << (i % WORD_BITS);
        if self.words[w] & mask == 0 {
            return; // already zero
        }
        self.words[w] &= !mask;
        self.ones -= 1;
        if self.words[w] == 0 {
            let mut j = w;
            for level in &mut self.levels {
                let lw = j / WORD_BITS;
                level[lw] &= !(1u64 << (j % WORD_BITS));
                if level[lw] != 0 {
                    break;
                }
                j = lw;
            }
        }
    }

    /// Re-sets bit `i` (not needed by the paper's deletions, provided for
    /// generality and testing).
    pub fn set_one(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let w = i / WORD_BITS;
        let mask = 1u64 << (i % WORD_BITS);
        if self.words[w] & mask != 0 {
            return;
        }
        let was_empty = self.words[w] == 0;
        self.words[w] |= mask;
        self.ones += 1;
        if was_empty {
            let mut j = w;
            for level in &mut self.levels {
                let lw = j / WORD_BITS;
                let lmask = 1u64 << (j % WORD_BITS);
                if level[lw] & lmask != 0 {
                    break;
                }
                let level_word_was_empty = level[lw] == 0;
                level[lw] |= lmask;
                if !level_word_was_empty {
                    break;
                }
                j = lw;
            }
        }
    }

    /// Smallest position `>= from` holding a 1-bit, or `None`.
    pub fn next_one(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let w = from / WORD_BITS;
        let m = self.words[w] & !low_mask(from % WORD_BITS);
        if m != 0 {
            return Some(w * WORD_BITS + m.trailing_zeros() as usize);
        }
        // Climb the directory looking for the next non-empty word after `w`.
        let mut pos = w; // bit position at the current level's bitmap
        for (l, level) in self.levels.iter().enumerate() {
            let word = pos / WORD_BITS;
            let off = pos % WORD_BITS;
            let m = if off + 1 >= WORD_BITS {
                0
            } else {
                level.get(word).copied().unwrap_or(0) & !low_mask(off + 1)
            };
            if m != 0 {
                // Found: descend picking the first set bit at each level.
                let mut j = word * WORD_BITS + m.trailing_zeros() as usize;
                for ll in (0..l).rev() {
                    j = j * WORD_BITS + self.levels[ll][j].trailing_zeros() as usize;
                }
                let bit = self.words[j].trailing_zeros() as usize;
                let res = j * WORD_BITS + bit;
                return if res < self.len { Some(res) } else { None };
            }
            pos = word;
        }
        None
    }

    /// The paper's `report(s, e)`: iterates over all 1-bit positions in
    /// `[s, e]` (inclusive, matching the paper's statement) in increasing
    /// order, O(1)-ish per reported position.
    pub fn report(&self, s: usize, e: usize) -> Report<'_> {
        Report {
            v: self,
            next: s,
            end: e.min(self.len.saturating_sub(1)),
            done: self.len == 0 || s > e,
        }
    }

    /// Convenience: collects `report(s, e)` into a vector.
    pub fn report_vec(&self, s: usize, e: usize) -> Vec<usize> {
        self.report(s, e).collect()
    }

    /// True iff `[s, e]` contains no 1-bit.
    pub fn range_is_empty(&self, s: usize, e: usize) -> bool {
        match self.next_one(s) {
            Some(p) => p > e,
            None => true,
        }
    }
}

/// Iterator over reported 1-bits. See [`OneBitReporter::report`].
pub struct Report<'a> {
    v: &'a OneBitReporter,
    next: usize,
    end: usize,
    done: bool,
}

impl Iterator for Report<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        match self.v.next_one(self.next) {
            Some(p) if p <= self.end => {
                if p == self.end {
                    self.done = true;
                } else {
                    self.next = p + 1;
                }
                Some(p)
            }
            _ => {
                self.done = true;
                None
            }
        }
    }
}

impl SpaceUsage for OneBitReporter {
    fn heap_bytes(&self) -> usize {
        self.words.heap_bytes() + self.levels.iter().map(|l| l.heap_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ones_report() {
        let v = OneBitReporter::new_all_ones(200);
        assert_eq!(v.count_ones(), 200);
        assert_eq!(v.report_vec(10, 14), vec![10, 11, 12, 13, 14]);
        assert_eq!(v.report_vec(0, 0), vec![0]);
        assert_eq!(v.report_vec(199, 199), vec![199]);
    }

    #[test]
    fn zero_then_report() {
        let mut v = OneBitReporter::new_all_ones(1000);
        for i in (0..1000).step_by(3) {
            v.zero(i);
        }
        let got = v.report_vec(0, 999);
        let want: Vec<usize> = (0..1000).filter(|i| i % 3 != 0).collect();
        assert_eq!(got, want);
        assert_eq!(v.count_ones(), want.len());
    }

    #[test]
    fn sparse_survivors_skip_fast() {
        // Clear everything except a few positions; report must skip runs of
        // empty words via the directory.
        let mut v = OneBitReporter::new_all_ones(100_000);
        let survivors = [5usize, 40_000, 40_001, 99_999];
        for i in 0..100_000 {
            if !survivors.contains(&i) {
                v.zero(i);
            }
        }
        assert_eq!(v.report_vec(0, 99_999), survivors.to_vec());
        assert_eq!(v.report_vec(6, 39_999), Vec::<usize>::new());
        assert!(v.range_is_empty(6, 39_999));
        assert!(!v.range_is_empty(6, 40_000));
        assert_eq!(v.next_one(40_002), Some(99_999));
    }

    #[test]
    fn zero_idempotent_and_set_one() {
        let mut v = OneBitReporter::new_all_ones(128);
        v.zero(64);
        v.zero(64);
        assert_eq!(v.count_ones(), 127);
        v.set_one(64);
        assert_eq!(v.count_ones(), 128);
        v.set_one(64);
        assert_eq!(v.count_ones(), 128);
        assert!(v.get(64));
    }

    #[test]
    fn clear_entire_vector() {
        let mut v = OneBitReporter::new_all_ones(4096);
        for i in 0..4096 {
            v.zero(i);
        }
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.next_one(0), None);
        assert!(v.report_vec(0, 4095).is_empty());
        // Re-set one bit in the middle; the directory must recover.
        v.set_one(2000);
        assert_eq!(v.next_one(0), Some(2000));
        assert_eq!(v.report_vec(0, 4095), vec![2000]);
    }

    #[test]
    fn from_bitvec_matches() {
        let bv = BitVec::from_bits((0..777).map(|i| i % 11 == 4));
        let v = OneBitReporter::from_bitvec(&bv);
        let want: Vec<usize> = (0..777).filter(|i| i % 11 == 4).collect();
        assert_eq!(v.report_vec(0, 776), want);
    }

    #[test]
    fn empty_vector() {
        let v = OneBitReporter::new_all_ones(0);
        assert!(v.is_empty());
        assert_eq!(v.next_one(0), None);
        assert!(v.report_vec(0, 0).is_empty());
    }
}
