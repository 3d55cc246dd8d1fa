//! A common interface for static symbol sequences with rank/select/access.
//!
//! The FM-index (and the binary-relation string `S` of §5) is generic over
//! this trait so the same code runs on a plain [`crate::WaveletMatrix`]
//! (`n log σ` bits, Table 3 regime) or a [`crate::HuffmanWavelet`]
//! (`n(H0+1)` bits, Tables 1–2 regime).

use crate::huffman::HuffmanWavelet;
use crate::space::SpaceUsage;
use crate::wavelet::WaveletMatrix;

/// A static sequence of `u32` symbols supporting access/rank/select.
pub trait Sequence: SpaceUsage + Clone {
    /// Builds from a slice with symbols `< sigma`.
    fn build(seq: &[u32], sigma: u32) -> Self;

    /// Sequence length.
    fn len(&self) -> usize;

    /// Whether empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Symbol at position `i`.
    fn access(&self, i: usize) -> u32;

    /// Occurrences of `sym` in `[0, i)`.
    fn rank(&self, sym: u32, i: usize) -> usize;

    /// `(access(i), rank(access(i), i))` — one FM-index LF step; in one
    /// descent where the `access` walk already counts that rank.
    fn access_rank(&self, i: usize) -> (u32, usize) {
        let sym = self.access(i);
        (sym, self.rank(sym, i))
    }

    /// Position of the `k`-th occurrence of `sym`.
    fn select(&self, sym: u32, k: usize) -> Option<usize>;
}

impl Sequence for WaveletMatrix {
    fn build(seq: &[u32], sigma: u32) -> Self {
        WaveletMatrix::new(seq, sigma)
    }
    fn len(&self) -> usize {
        WaveletMatrix::len(self)
    }
    fn access(&self, i: usize) -> u32 {
        WaveletMatrix::access(self, i)
    }
    fn rank(&self, sym: u32, i: usize) -> usize {
        WaveletMatrix::rank(self, sym, i)
    }
    fn select(&self, sym: u32, k: usize) -> Option<usize> {
        WaveletMatrix::select(self, sym, k)
    }
}

impl Sequence for HuffmanWavelet {
    fn build(seq: &[u32], sigma: u32) -> Self {
        HuffmanWavelet::new(seq, sigma)
    }
    fn len(&self) -> usize {
        HuffmanWavelet::len(self)
    }
    fn access(&self, i: usize) -> u32 {
        HuffmanWavelet::access(self, i)
    }
    fn rank(&self, sym: u32, i: usize) -> usize {
        HuffmanWavelet::rank(self, sym, i)
    }
    fn access_rank(&self, i: usize) -> (u32, usize) {
        HuffmanWavelet::access_rank(self, i)
    }
    fn select(&self, sym: u32, k: usize) -> Option<usize> {
        HuffmanWavelet::select(self, sym, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: Sequence>() {
        let seq: Vec<u32> = (0..400).map(|i| (i * 13 % 7) as u32).collect();
        let s = S::build(&seq, 7);
        assert_eq!(Sequence::len(&s), 400);
        assert_eq!(s.access(13), seq[13]);
        assert_eq!(s.rank(3, 400), seq.iter().filter(|&&x| x == 3).count());
        let first3 = (0..400).find(|&i| seq[i] == 3);
        assert_eq!(s.select(3, 0), first3);
    }

    #[test]
    fn both_impls_agree() {
        exercise::<WaveletMatrix>();
        exercise::<HuffmanWavelet>();
    }
}
