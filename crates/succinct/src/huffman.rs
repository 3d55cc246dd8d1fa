//! Huffman coding and the Huffman-shaped wavelet tree.
//!
//! A wavelet tree whose shape follows the Huffman tree of the symbol
//! distribution stores a sequence in `n(H0 + 1) + o(·)` bits and answers
//! access/rank/select in O(code length) — the practical stand-in for the
//! `nHk + o(n log σ)` compressed-sequence machinery the paper's static
//! indexes (\[3\], \[7\], \[14\]) rely on.

use crate::bitvec::BitVec;
use crate::rank_select::RankSelect;
use crate::space::SpaceUsage;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A binary prefix-code tree node (internal or leaf).
#[derive(Clone, Debug)]
enum ShapeNode {
    Leaf { sym: u32 },
    Internal { left: usize, right: usize },
}

/// The code assigned to one symbol: `len` bits of `bits`, MSB-first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Code {
    /// Code bits, left-aligned at bit `len - 1` (i.e. read from the top).
    pub bits: u64,
    /// Code length in bits (0 for symbols absent from the input).
    pub len: u32,
}

/// Builds Huffman code lengths/bits for the given symbol frequencies.
///
/// Returns `(codes, shape)` where `shape` is the tree as an arena whose root
/// is the last element. Symbols with zero frequency get `Code::default()`.
fn build_tree(freqs: &[u64]) -> (Vec<Code>, Vec<ShapeNode>, usize) {
    let mut arena: Vec<ShapeNode> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            arena.push(ShapeNode::Leaf { sym: sym as u32 });
            heap.push(Reverse((f, arena.len() - 1)));
        }
    }
    assert!(
        !heap.is_empty(),
        "cannot build a Huffman tree with no symbols"
    );
    if heap.len() == 1 {
        // Single-symbol alphabet: degenerate one-leaf tree, code length 0.
        let Reverse((_, root)) = heap.pop().expect("nonempty");
        let mut codes = vec![Code::default(); freqs.len()];
        if let ShapeNode::Leaf { sym } = arena[root] {
            codes[sym as usize] = Code { bits: 0, len: 0 };
        }
        return (codes, arena, root);
    }
    while heap.len() > 1 {
        let Reverse((fa, a)) = heap.pop().expect("len > 1");
        let Reverse((fb, b)) = heap.pop().expect("len > 1");
        arena.push(ShapeNode::Internal { left: a, right: b });
        heap.push(Reverse((fa + fb, arena.len() - 1)));
    }
    let Reverse((_, root)) = heap.pop().expect("exactly one");
    // Assign codes by DFS.
    let mut codes = vec![Code::default(); freqs.len()];
    let mut stack = vec![(root, 0u64, 0u32)];
    while let Some((node, bits, len)) = stack.pop() {
        match arena[node] {
            ShapeNode::Leaf { sym } => {
                assert!(len <= 64, "Huffman code longer than 64 bits");
                codes[sym as usize] = Code { bits, len };
            }
            ShapeNode::Internal { left, right } => {
                stack.push((left, bits << 1, len + 1));
                stack.push((right, (bits << 1) | 1, len + 1));
            }
        }
    }
    (codes, arena, root)
}

/// One node of the built wavelet tree.
#[derive(Clone, Debug)]
struct WtNode {
    bits: RankSelect,
    /// Child arena indices (`usize::MAX` = leaf side ends here).
    left: usize,
    right: usize,
    /// The symbol a leaf side (0 = left, 1 = right) stands for; unused
    /// where that side has a child.
    leaf: [u32; 2],
}

const NO_CHILD: usize = usize::MAX;

/// Writes each coded symbol onto the leaf side its code ends at. `Err`
/// when a code's path leaves the tree or ends at a child — codes and
/// tree do not belong together.
fn label_leaves(codes: &[Code], nodes: &mut [WtNode], root: usize) -> Result<(), String> {
    for (sym, code) in codes.iter().enumerate().filter(|(_, c)| c.len > 0) {
        let mut node = root;
        for d in (0..code.len).rev() {
            let n = nodes.get_mut(node).ok_or("huffman code leaves the tree")?;
            let bit = (code.bits >> d) & 1 == 1;
            node = if bit { n.right } else { n.left };
            if d == 0 {
                if node != NO_CHILD {
                    return Err("huffman code ends at an internal node".into());
                }
                n.leaf[bit as usize] = sym as u32;
            }
        }
    }
    Ok(())
}

/// A Huffman-shaped wavelet tree over `u32` symbols.
///
/// Space is `n(H0 + 1)` bits plus rank/select overhead; `access`, `rank`,
/// and `select` cost O(code length of the symbol) — O(1 + H0) on average.
#[derive(Clone, Debug)]
pub struct HuffmanWavelet {
    codes: Vec<Code>,
    nodes: Vec<WtNode>,
    root: usize,
    len: usize,
    /// For the degenerate single-symbol case.
    single: Option<u32>,
}

impl HuffmanWavelet {
    /// Builds over `seq` with symbols `< sigma`.
    pub fn new(seq: &[u32], sigma: u32) -> Self {
        assert!(sigma >= 1);
        let mut freqs = vec![0u64; sigma as usize];
        for &s in seq {
            freqs[s as usize] += 1;
        }
        if seq.is_empty() {
            return HuffmanWavelet {
                codes: vec![Code::default(); sigma as usize],
                nodes: Vec::new(),
                root: NO_CHILD,
                len: 0,
                single: None,
            };
        }
        let (codes, shape, shape_root) = build_tree(&freqs);
        if let ShapeNode::Leaf { sym } = shape[shape_root] {
            return HuffmanWavelet {
                codes,
                nodes: Vec::new(),
                root: NO_CHILD,
                len: seq.len(),
                single: Some(sym),
            };
        }
        // Build node bitvectors by recursive stable partition, iteratively
        // with an explicit work list to avoid recursion depth limits.
        let mut nodes: Vec<WtNode> = Vec::new();
        // map from shape index -> built node index
        let mut built = vec![NO_CHILD; shape.len()];
        // Work items: (shape node, symbols routed to it, depth). The depth
        // tells which code bit routes a symbol at this node.
        let mut work: Vec<(usize, Vec<u32>, u32)> = vec![(shape_root, seq.to_vec(), 0)];
        // We must construct parents before wiring children; do two passes:
        // first create all nodes top-down, then fix child links.
        while let Some((snode, symbols, depth)) = work.pop() {
            let (l, r) = match shape[snode] {
                ShapeNode::Internal { left, right } => (left, right),
                ShapeNode::Leaf { .. } => continue,
            };
            let mut bv = BitVec::with_capacity(symbols.len());
            let mut to_left: Vec<u32> = Vec::new();
            let mut to_right: Vec<u32> = Vec::new();
            for &s in &symbols {
                let code = codes[s as usize];
                let bit = (code.bits >> (code.len - 1 - depth)) & 1 == 1;
                bv.push(bit);
                if bit {
                    to_right.push(s);
                } else {
                    to_left.push(s);
                }
            }
            let idx = nodes.len();
            nodes.push(WtNode {
                bits: RankSelect::new(bv),
                left: NO_CHILD,
                right: NO_CHILD,
                leaf: [0; 2],
            });
            built[snode] = idx;
            if matches!(shape[l], ShapeNode::Internal { .. }) {
                work.push((l, to_left, depth + 1));
            }
            if matches!(shape[r], ShapeNode::Internal { .. }) {
                work.push((r, to_right, depth + 1));
            }
        }
        // Wire children.
        for (snode, &bidx) in built.iter().enumerate() {
            if bidx == NO_CHILD {
                continue;
            }
            if let ShapeNode::Internal { left, right } = shape[snode] {
                nodes[bidx].left = built[left];
                nodes[bidx].right = built[right];
            }
        }
        let root = built[shape_root];
        label_leaves(&codes, &mut nodes, root).expect("the codes were read off this tree");
        HuffmanWavelet {
            codes,
            nodes,
            root,
            len: seq.len(),
            single: None,
        }
    }

    /// Sequence length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The code table (exposed for space accounting / diagnostics).
    pub fn code(&self, sym: u32) -> Option<Code> {
        let c = *self.codes.get(sym as usize)?;
        if c.len == 0 && self.single != Some(sym) {
            None
        } else {
            Some(c)
        }
    }

    /// Symbol at position `i`.
    pub fn access(&self, i: usize) -> u32 {
        self.access_rank(i).0
    }

    /// `(access(i), rank(access(i), i))` in one descent: the walk that
    /// finds the symbol's leaf has already counted its rank.
    pub fn access_rank(&self, i: usize) -> (u32, usize) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        if let Some(s) = self.single {
            return (s, i);
        }
        let mut node = self.root;
        let mut i = i;
        loop {
            let n = &self.nodes[node];
            let bit = n.bits.get(i);
            let (child, ni) = if bit {
                (n.right, n.bits.rank1(i))
            } else {
                (n.left, n.bits.rank0(i))
            };
            if child == NO_CHILD {
                return (n.leaf[bit as usize], ni);
            }
            node = child;
            i = ni;
        }
    }

    /// Number of occurrences of `sym` in `[0, i)`.
    pub fn rank(&self, sym: u32, i: usize) -> usize {
        assert!(i <= self.len);
        if sym as usize >= self.codes.len() {
            return 0;
        }
        if let Some(s) = self.single {
            return if s == sym { i } else { 0 };
        }
        let code = self.codes[sym as usize];
        if code.len == 0 {
            return 0; // symbol absent from the sequence
        }
        let mut node = self.root;
        let mut i = i;
        for d in 0..code.len {
            let n = &self.nodes[node];
            let bit = (code.bits >> (code.len - 1 - d)) & 1 == 1;
            let (child, ni) = if bit {
                (n.right, n.bits.rank1(i))
            } else {
                (n.left, n.bits.rank0(i))
            };
            i = ni;
            if child == NO_CHILD {
                debug_assert_eq!(d + 1, code.len);
                return i;
            }
            node = child;
        }
        i
    }

    /// Borrowed decomposition for the persistence encode path: the code
    /// table, per-node `(bits, left, right)` triples (`usize::MAX` = no
    /// child), the root index (`usize::MAX` when the tree is degenerate),
    /// and the single-symbol marker.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn persist_parts(
        &self,
    ) -> (
        &[Code],
        Vec<(&RankSelect, usize, usize)>,
        usize,
        Option<u32>,
    ) {
        let nodes = self
            .nodes
            .iter()
            .map(|n| (&n.bits, n.left, n.right))
            .collect();
        (&self.codes, nodes, self.root, self.single)
    }

    /// Reassembles from parts (persistence decode path); the leaf
    /// symbols are re-derived from the code table rather than stored.
    ///
    /// Returns `Err` (never panics) on structurally inconsistent input —
    /// the persistence layer surfaces this as a typed corruption error.
    #[doc(hidden)]
    pub fn from_persist_parts(
        codes: Vec<Code>,
        nodes: Vec<(RankSelect, usize, usize)>,
        root: usize,
        len: usize,
        single: Option<u32>,
    ) -> Result<Self, String> {
        let valid_child = |c: usize| c == NO_CHILD || c < nodes.len();
        if !nodes
            .iter()
            .all(|&(_, l, r)| valid_child(l) && valid_child(r))
        {
            return Err("huffman node child index out of range".into());
        }
        if root != NO_CHILD && root >= nodes.len() {
            return Err("huffman root index out of range".into());
        }
        if root == NO_CHILD && !nodes.is_empty() {
            return Err("huffman nodes present without a root".into());
        }
        if let Some(sym) = single {
            if sym as usize >= codes.len() {
                return Err("huffman single symbol out of range".into());
            }
            if root != NO_CHILD || !nodes.is_empty() {
                return Err("huffman single-symbol tree must have no nodes".into());
            }
        }
        // The sequence length must agree with the tree: every symbol of a
        // non-degenerate sequence passes through the root's bit vector.
        // An unchecked mismatch would panic on the first query instead of
        // failing decode.
        if root != NO_CHILD {
            if nodes[root].0.len() != len {
                return Err("huffman root bit vector length mismatch".into());
            }
        } else if single.is_none() && len != 0 {
            return Err("huffman non-empty sequence without a tree".into());
        }
        let mut nodes: Vec<WtNode> = nodes
            .into_iter()
            .map(|(bits, left, right)| WtNode {
                bits,
                left,
                right,
                leaf: [0; 2],
            })
            .collect();
        label_leaves(&codes, &mut nodes, root)?;
        Ok(HuffmanWavelet {
            codes,
            nodes,
            root,
            len,
            single,
        })
    }

    /// Position of the `k`-th occurrence of `sym`, or `None`.
    pub fn select(&self, sym: u32, k: usize) -> Option<usize> {
        if sym as usize >= self.codes.len() {
            return None;
        }
        if let Some(s) = self.single {
            return if s == sym && k < self.len {
                Some(k)
            } else {
                None
            };
        }
        let code = self.codes[sym as usize];
        if code.len == 0 || self.rank(sym, self.len) <= k {
            return None;
        }
        // Collect the root-to-leaf node path, then walk back up.
        let mut path = Vec::with_capacity(code.len as usize);
        let mut node = self.root;
        for d in 0..code.len {
            let bit = (code.bits >> (code.len - 1 - d)) & 1 == 1;
            path.push((node, bit));
            node = if bit {
                self.nodes[node].right
            } else {
                self.nodes[node].left
            };
            if node == NO_CHILD {
                break;
            }
        }
        let mut pos = k;
        for &(node, bit) in path.iter().rev() {
            let n = &self.nodes[node];
            pos = if bit {
                n.bits.select1(pos)?
            } else {
                n.bits.select0(pos)?
            };
        }
        Some(pos)
    }
}

impl SpaceUsage for HuffmanWavelet {
    fn heap_bytes(&self) -> usize {
        self.codes.heap_bytes()
            + self
                .nodes
                .iter()
                .map(|n| n.bits.heap_bytes())
                .sum::<usize>()
            + self.nodes.capacity() * std::mem::size_of::<WtNode>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(seq: &[u32], sigma: u32) {
        let hw = HuffmanWavelet::new(seq, sigma);
        assert_eq!(hw.len(), seq.len());
        for (i, &s) in seq.iter().enumerate() {
            assert_eq!(hw.access(i), s, "access({i})");
        }
        for sym in 0..sigma {
            let mut cnt = 0usize;
            for i in 0..=seq.len() {
                assert_eq!(hw.rank(sym, i), cnt, "rank({sym},{i})");
                if i < seq.len() && seq[i] == sym {
                    cnt += 1;
                }
            }
            let positions: Vec<usize> = (0..seq.len()).filter(|&i| seq[i] == sym).collect();
            for (kk, &p) in positions.iter().enumerate() {
                assert_eq!(hw.select(sym, kk), Some(p), "select({sym},{kk})");
            }
            assert_eq!(hw.select(sym, positions.len()), None);
        }
    }

    #[test]
    fn empty_and_single() {
        check(&[], 4);
        check(&[2, 2, 2, 2], 4);
        check(&[0], 1);
    }

    #[test]
    fn two_symbols() {
        let seq: Vec<u32> = (0..200).map(|i| (i % 2) as u32).collect();
        check(&seq, 2);
    }

    #[test]
    fn skewed() {
        // Highly skewed: symbol 0 dominates; its code should be short.
        let mut seq = vec![0u32; 1000];
        for i in 0..10 {
            seq[i * 100] = 1 + (i % 3) as u32;
        }
        check(&seq, 4);
        let hw = HuffmanWavelet::new(&seq, 4);
        let c0 = hw.code(0).expect("present");
        let c1 = hw.code(1).expect("present");
        assert!(c0.len < c1.len, "frequent symbol must get shorter code");
    }

    #[test]
    fn pseudorandom_alphabet_17() {
        let seq: Vec<u32> = (0..1500u64)
            .map(|i| ((i.wrapping_mul(0x2545F4914F6CDD1D) >> 35) % 17) as u32)
            .collect();
        check(&seq, 17);
    }

    #[test]
    fn absent_symbols() {
        let seq = vec![5u32, 9, 5, 9, 5];
        let hw = HuffmanWavelet::new(&seq, 16);
        assert_eq!(hw.rank(0, 5), 0);
        assert_eq!(hw.select(0, 0), None);
        assert_eq!(hw.rank(5, 5), 3);
        assert_eq!(hw.code(0), None);
    }
}
