//! Generalized suffix tree with document insertion **and deletion** —
//! the paper's uncompressed fully-dynamic structure `D0` for the small
//! sub-collection `C0` (Appendix A.2).
//!
//! * Insertion runs Ukkonen's online algorithm per document (amortized
//!   O(|T|)); each document ends with a unique sentinel symbol so every
//!   suffix owns a leaf.
//! * Edge labels are *witness-based*: a node stores `(witness doc, witness
//!   offset, depth)` such that `path(node) = text[woff .. woff+depth]`.
//!   This makes deletion safe: labels never dangle, because a deleted
//!   document's text is retained (ref-counted) until no node witnesses it —
//!   exactly the "O((n/τ) log σ) bits for deleted symbols" the paper
//!   budgets in §2/A.5. (`C0` is purged wholesale into `C1` long before
//!   retained text accumulates.)
//! * Deletion removes the document's leaves one by one, merging unary
//!   internal nodes. Suffix links of surviving branching nodes always point
//!   at surviving branching nodes (if `aX` is branching in the surviving
//!   collection, so is `X`), so links never dangle either.
//! * Queries: `find` descends by pattern symbols and reports each leaf in
//!   the locus subtree in O(1) per occurrence — `O(|P| + occ)` total.

use crate::collection::{Occurrence, SYM_OFFSET};
use dyndex_succinct::space::SpaceUsage;
use std::collections::HashMap;

const NIL: u32 = u32::MAX;
/// Leaf depths are set to `OPEN` while their document is being inserted.
const OPEN: u32 = u32::MAX;
/// Sentinel symbols live above the byte range (bytes map to 2..=257).
const SENTINEL_BASE: u32 = 1 << 20;

#[derive(Clone, Debug)]
struct Node {
    parent: u32,
    /// Children sorted by first edge symbol.
    children: Vec<(u32, u32)>,
    /// `path(node) = docs[witness_doc].text[witness_off .. witness_off + depth]`.
    witness_doc: u32,
    witness_off: u32,
    /// Path length in symbols; `OPEN` while a leaf's doc is being inserted.
    depth: u32,
    /// Suffix link (internal nodes; defaults to the root).
    slink: u32,
    /// Whether this node is a leaf (a document suffix).
    is_leaf: bool,
}

#[derive(Clone, Debug, Default)]
struct DocSlot {
    /// Caller-assigned id.
    id: u64,
    /// Encoded text: bytes + 2, followed by a unique sentinel.
    text: Vec<u32>,
    /// Leaves of this document (one per suffix), set after insertion.
    leaves: Vec<u32>,
    /// Number of tree nodes whose witness references this slot.
    witness_refs: usize,
    /// False once the document is deleted (text may outlive deletion while
    /// witnessed).
    alive: bool,
}

/// A dynamic generalized suffix tree over byte documents.
#[derive(Clone, Debug)]
pub struct SuffixTree {
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    docs: Vec<DocSlot>,
    free_docs: Vec<u32>,
    /// Caller id → doc slot.
    by_id: HashMap<u64, u32>,
    /// Monotone counter making sentinels unique for the tree's lifetime.
    next_sentinel: u32,
    /// Total bytes across alive documents.
    alive_symbols: usize,
    /// Total bytes across retained-but-deleted documents.
    dead_symbols: usize,
}

impl Default for SuffixTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SuffixTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        let root = Node {
            parent: NIL,
            children: Vec::new(),
            witness_doc: NIL,
            witness_off: 0,
            depth: 0,
            slink: 0,
            is_leaf: false,
        };
        SuffixTree {
            nodes: vec![root],
            free_nodes: Vec::new(),
            docs: Vec::new(),
            free_docs: Vec::new(),
            by_id: HashMap::new(),
            next_sentinel: 0,
            alive_symbols: 0,
            dead_symbols: 0,
        }
    }

    /// Number of alive documents.
    pub fn num_docs(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no documents are alive.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Total bytes across alive documents.
    pub fn symbol_count(&self) -> usize {
        self.alive_symbols
    }

    /// Bytes retained on behalf of deleted documents (freed on purge or
    /// when the last witness disappears).
    pub fn retained_dead_symbols(&self) -> usize {
        self.dead_symbols
    }

    /// Ids of alive documents (arbitrary order).
    pub fn doc_ids(&self) -> Vec<u64> {
        self.by_id.keys().copied().collect()
    }

    /// Whether `doc_id` is present.
    pub fn contains_doc(&self, doc_id: u64) -> bool {
        self.by_id.contains_key(&doc_id)
    }

    /// The bytes of an alive document.
    pub fn doc_bytes(&self, doc_id: u64) -> Option<Vec<u8>> {
        let &slot = self.by_id.get(&doc_id)?;
        let d = &self.docs[slot as usize];
        Some(
            d.text[..d.text.len() - 1]
                .iter()
                .map(|&s| (s - SYM_OFFSET) as u8)
                .collect(),
        )
    }

    // ----- arena helpers ---------------------------------------------------

    fn alloc_node(&mut self, node: Node) -> u32 {
        self.docs[node.witness_doc as usize].witness_refs += 1;
        if let Some(idx) = self.free_nodes.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn free_node(&mut self, idx: u32) {
        let wdoc = self.nodes[idx as usize].witness_doc;
        self.release_witness(wdoc);
        self.nodes[idx as usize].parent = NIL;
        self.nodes[idx as usize].children.clear();
        self.free_nodes.push(idx);
    }

    fn release_witness(&mut self, wdoc: u32) {
        let d = &mut self.docs[wdoc as usize];
        d.witness_refs -= 1;
        if d.witness_refs == 0 && !d.alive && d.leaves.is_empty() {
            self.dead_symbols -= d.text.len().saturating_sub(1);
            self.free_doc_slot(wdoc);
        }
    }

    fn free_doc_slot(&mut self, slot: u32) {
        let d = &mut self.docs[slot as usize];
        d.text = Vec::new();
        d.leaves = Vec::new();
        self.free_docs.push(slot);
    }

    #[inline]
    fn text_sym(&self, doc: u32, pos: u32) -> u32 {
        self.docs[doc as usize].text[pos as usize]
    }

    /// First symbol of the edge leading into `v` (whose parent is `u`).
    #[inline]
    fn edge_first_sym(&self, u: u32, v: u32) -> u32 {
        let vn = &self.nodes[v as usize];
        self.text_sym(
            vn.witness_doc,
            vn.witness_off + self.nodes[u as usize].depth,
        )
    }

    fn child(&self, u: u32, sym: u32) -> Option<u32> {
        let ch = &self.nodes[u as usize].children;
        ch.binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|i| ch[i].1)
    }

    fn set_child(&mut self, u: u32, sym: u32, v: u32) {
        let ch = &mut self.nodes[u as usize].children;
        match ch.binary_search_by_key(&sym, |&(s, _)| s) {
            Ok(i) => ch[i].1 = v,
            Err(i) => ch.insert(i, (sym, v)),
        }
        self.nodes[v as usize].parent = u;
    }

    fn remove_child(&mut self, u: u32, sym: u32) {
        let ch = &mut self.nodes[u as usize].children;
        if let Ok(i) = ch.binary_search_by_key(&sym, |&(s, _)| s) {
            ch.remove(i);
        }
    }

    /// Effective depth of a node during insertion of doc `d` at phase end
    /// `cur_end` (open leaves extend to the current frontier).
    #[inline]
    fn eff_depth(&self, v: u32, d: u32, cur_end: u32) -> u32 {
        let vn = &self.nodes[v as usize];
        if vn.depth == OPEN {
            debug_assert_eq!(vn.witness_doc, d);
            cur_end - vn.witness_off
        } else {
            vn.depth
        }
    }

    // ----- insertion (Ukkonen) ---------------------------------------------

    /// Inserts a document. O(|bytes|) amortized.
    ///
    /// # Panics
    /// Panics if `doc_id` is already present.
    pub fn insert(&mut self, doc_id: u64, bytes: &[u8]) {
        assert!(
            !self.by_id.contains_key(&doc_id),
            "document {doc_id} already present"
        );
        let sentinel = SENTINEL_BASE + self.next_sentinel;
        self.next_sentinel += 1;
        let mut text: Vec<u32> = bytes.iter().map(|&b| b as u32 + SYM_OFFSET).collect();
        text.push(sentinel);
        let m = text.len() as u32;

        // Allocate the document slot.
        let slot = if let Some(s) = self.free_docs.pop() {
            self.docs[s as usize] = DocSlot {
                id: doc_id,
                text,
                leaves: Vec::new(),
                witness_refs: 0,
                alive: true,
            };
            s
        } else {
            self.docs.push(DocSlot {
                id: doc_id,
                text,
                leaves: Vec::new(),
                witness_refs: 0,
                alive: true,
            });
            (self.docs.len() - 1) as u32
        };
        self.by_id.insert(doc_id, slot);
        self.alive_symbols += bytes.len();

        // Ukkonen state.
        let mut active_node = 0u32;
        let mut active_edge = 0u32; // index into this doc's text
        let mut active_len = 0u32;
        let mut remaining = 0u32;
        let mut new_leaves: Vec<u32> = Vec::with_capacity(m as usize);

        for i in 0..m {
            let c = self.text_sym(slot, i);
            remaining += 1;
            let mut last_new: u32 = NIL;
            while remaining > 0 {
                if active_len == 0 {
                    active_edge = i;
                }
                let edge_sym = self.text_sym(slot, active_edge);
                match self.child(active_node, edge_sym) {
                    None => {
                        // Rule 2: fresh leaf hanging off active_node.
                        let suffix_start = i + 1 - remaining;
                        let leaf = self.alloc_node(Node {
                            parent: active_node,
                            children: Vec::new(),
                            witness_doc: slot,
                            witness_off: suffix_start,
                            depth: OPEN,
                            slink: 0,
                            is_leaf: true,
                        });
                        self.set_child(active_node, edge_sym, leaf);
                        new_leaves.push(leaf);
                        if last_new != NIL {
                            self.nodes[last_new as usize].slink = active_node;
                            last_new = NIL;
                        }
                    }
                    Some(next) => {
                        // Open leaves implicitly extend through t[i] (rule 1),
                        // so the frontier is i + 1 in exclusive terms.
                        let edge_len = self.eff_depth(next, slot, i + 1)
                            - self.nodes[active_node as usize].depth;
                        if active_len >= edge_len {
                            // Walk down.
                            active_node = next;
                            active_len -= edge_len;
                            active_edge += edge_len;
                            continue;
                        }
                        let nn = &self.nodes[next as usize];
                        let probe = self.text_sym(
                            nn.witness_doc,
                            nn.witness_off + self.nodes[active_node as usize].depth + active_len,
                        );
                        if probe == c {
                            // Rule 3: extension already present; stop phase.
                            if last_new != NIL && active_node != 0 {
                                self.nodes[last_new as usize].slink = active_node;
                            }
                            active_len += 1;
                            break;
                        }
                        // Rule 2 with split.
                        let split_depth = self.nodes[active_node as usize].depth + active_len;
                        let (next_wdoc, next_woff) = {
                            let nn = &self.nodes[next as usize];
                            (nn.witness_doc, nn.witness_off)
                        };
                        let split = self.alloc_node(Node {
                            parent: active_node,
                            children: Vec::new(),
                            witness_doc: next_wdoc,
                            witness_off: next_woff,
                            depth: split_depth,
                            slink: 0,
                            is_leaf: false,
                        });
                        self.set_child(active_node, edge_sym, split);
                        // Re-hang `next` under the split.
                        let next_sym = self.text_sym(next_wdoc, next_woff + split_depth);
                        self.set_child(split, next_sym, next);
                        // New leaf for the current suffix.
                        let suffix_start = i + 1 - remaining;
                        let leaf = self.alloc_node(Node {
                            parent: split,
                            children: Vec::new(),
                            witness_doc: slot,
                            witness_off: suffix_start,
                            depth: OPEN,
                            slink: 0,
                            is_leaf: true,
                        });
                        self.set_child(split, c, leaf);
                        new_leaves.push(leaf);
                        if last_new != NIL {
                            self.nodes[last_new as usize].slink = split;
                        }
                        last_new = split;
                    }
                }
                remaining -= 1;
                if active_node == 0 && active_len > 0 {
                    active_len -= 1;
                    active_edge = i + 1 - remaining;
                } else if active_node != 0 {
                    active_node = self.nodes[active_node as usize].slink;
                }
            }
        }
        debug_assert_eq!(new_leaves.len(), m as usize, "one leaf per suffix");

        // Finalize open leaves and register them with the document.
        for &leaf in &new_leaves {
            let woff = self.nodes[leaf as usize].witness_off;
            self.nodes[leaf as usize].depth = m - woff;
        }
        self.docs[slot as usize].leaves = new_leaves;
    }

    // ----- deletion ---------------------------------------------------------

    /// Deletes a document; returns its bytes, or `None` if absent.
    /// O(|T|) amortized.
    pub fn delete(&mut self, doc_id: u64) -> Option<Vec<u8>> {
        let slot = self.by_id.remove(&doc_id)?;
        let bytes = {
            let d = &self.docs[slot as usize];
            d.text[..d.text.len() - 1]
                .iter()
                .map(|&s| (s - SYM_OFFSET) as u8)
                .collect::<Vec<u8>>()
        };
        self.alive_symbols -= bytes.len();
        // Count the text as retained-dead up front; `release_witness`
        // subtracts it back the moment the last referencing node dies.
        self.dead_symbols += bytes.len();
        let leaves = std::mem::take(&mut self.docs[slot as usize].leaves);
        self.docs[slot as usize].alive = false;

        for leaf in leaves {
            debug_assert!(self.nodes[leaf as usize].is_leaf);
            let parent = self.nodes[leaf as usize].parent;
            let sym = self.edge_first_sym(parent, leaf);
            self.remove_child(parent, sym);
            self.free_node(leaf);
            // Merge a now-unary internal node into its surviving child.
            if parent != 0 && self.nodes[parent as usize].children.len() == 1 {
                let (_, only_child) = self.nodes[parent as usize].children[0];
                let gp = self.nodes[parent as usize].parent;
                let gp_sym = self.edge_first_sym(gp, parent);
                // The child keeps its own witness/depth; only re-parent it.
                self.remove_child(gp, gp_sym);
                let child_sym = self.edge_first_sym(gp, only_child);
                self.set_child(gp, child_sym, only_child);
                self.free_node(parent);
            }
        }

        // If no node witnesses this document any more, its text was already
        // freed inside the loop by `release_witness`; otherwise it stays
        // retained (the paper's "deleted symbols" space term) until the last
        // witnessing node dies or the structure is purged.
        Some(bytes)
    }

    // ----- queries ----------------------------------------------------------

    /// Locus search: the highest node whose path has `pattern` as a prefix,
    /// or `None` if the pattern does not occur. O(|P| log σ).
    fn locus(&self, pattern: &[u32]) -> Option<u32> {
        if pattern.is_empty() {
            return Some(0);
        }
        let mut node = 0u32;
        let mut matched = 0usize;
        loop {
            let next = self.child(node, pattern[matched])?;
            let nn = &self.nodes[next as usize];
            let edge_start = nn.witness_off + self.nodes[node as usize].depth;
            let edge_len = (nn.depth - self.nodes[node as usize].depth) as usize;
            let take = edge_len.min(pattern.len() - matched);
            for k in 0..take {
                if self.text_sym(nn.witness_doc, edge_start + k as u32) != pattern[matched + k] {
                    return None;
                }
            }
            matched += take;
            if matched == pattern.len() {
                return Some(next);
            }
            node = next;
        }
    }

    /// All occurrences of `pattern` across alive documents, `O(|P| + occ)`.
    pub fn find(&self, pattern: &[u8]) -> Vec<Occurrence> {
        let encoded = crate::collection::encode_pattern(pattern);
        let Some(locus) = self.locus(&encoded) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![locus];
        while let Some(v) = stack.pop() {
            let vn = &self.nodes[v as usize];
            if vn.is_leaf {
                out.push(Occurrence {
                    doc: self.docs[vn.witness_doc as usize].id,
                    offset: vn.witness_off as usize,
                });
            } else {
                stack.extend(vn.children.iter().map(|&(_, c)| c));
            }
        }
        out
    }

    /// Number of occurrences of `pattern` (O(|P| + occ) by traversal —
    /// `C0` is tiny, so traversal counting is within budget).
    pub fn count(&self, pattern: &[u8]) -> usize {
        let encoded = crate::collection::encode_pattern(pattern);
        let Some(locus) = self.locus(&encoded) else {
            return 0;
        };
        let mut count = 0usize;
        let mut stack = vec![locus];
        while let Some(v) = stack.pop() {
            let vn = &self.nodes[v as usize];
            if vn.is_leaf {
                count += 1;
            } else {
                stack.extend(vn.children.iter().map(|&(_, c)| c));
            }
        }
        count
    }

    /// All alive documents as `(id, bytes)` pairs (used when `C0` is
    /// flushed into a static sub-collection).
    pub fn export_docs(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = self
            .by_id
            .values()
            .map(|&slot| {
                let d = &self.docs[slot as usize];
                (
                    d.id,
                    d.text[..d.text.len() - 1]
                        .iter()
                        .map(|&s| (s - SYM_OFFSET) as u8)
                        .collect(),
                )
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// All alive documents ordered by insertion age (ascending sentinel
    /// value). Re-inserting them into a fresh tree in this order assigns
    /// sentinels in the same relative order, reproducing this tree's
    /// canonical shape — and therefore its occurrence-enumeration order —
    /// exactly. The persistence layer relies on this for byte-identical
    /// restored query answers.
    #[doc(hidden)]
    pub fn export_docs_by_age(&self) -> Vec<(u64, Vec<u8>)> {
        let mut slots: Vec<u32> = self.by_id.values().copied().collect();
        slots.sort_by_key(|&slot| {
            *self.docs[slot as usize]
                .text
                .last()
                .expect("alive doc has a sentinel")
        });
        slots
            .into_iter()
            .map(|slot| {
                let d = &self.docs[slot as usize];
                (
                    d.id,
                    d.text[..d.text.len() - 1]
                        .iter()
                        .map(|&s| (s - SYM_OFFSET) as u8)
                        .collect(),
                )
            })
            .collect()
    }

    // ----- integrity checking (tests / debug builds) -------------------------

    /// Exhaustively validates structural invariants. O(total text size).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut live = vec![false; self.nodes.len()];
        let mut stack = vec![0u32];
        let mut leaf_count = 0usize;
        while let Some(v) = stack.pop() {
            live[v as usize] = true;
            let vn = &self.nodes[v as usize];
            if v != 0 {
                assert!(
                    vn.depth > self.nodes[vn.parent as usize].depth,
                    "depth must grow along edges"
                );
            }
            if vn.is_leaf {
                leaf_count += 1;
                assert!(vn.children.is_empty(), "leaves have no children");
            } else if v != 0 {
                assert!(vn.children.len() >= 2, "internal nodes are branching");
            }
            let mut prev_sym = None;
            for &(sym, c) in &vn.children {
                assert_eq!(self.nodes[c as usize].parent, v, "parent pointers");
                assert_eq!(self.edge_first_sym(v, c), sym, "child key matches edge");
                if let Some(p) = prev_sym {
                    assert!(sym > p, "children sorted");
                }
                prev_sym = Some(sym);
                stack.push(c);
            }
        }
        let expected_leaves: usize = self
            .by_id
            .values()
            .map(|&s| self.docs[s as usize].text.len())
            .sum();
        assert_eq!(leaf_count, expected_leaves, "one leaf per alive suffix");
        for (i, n) in self.nodes.iter().enumerate() {
            if live[i] && !n.is_leaf {
                assert!(
                    live[n.slink as usize],
                    "suffix link of live node {i} dangles"
                );
            }
        }
    }
}

impl SpaceUsage for SuffixTree {
    fn heap_bytes(&self) -> usize {
        let nodes: usize = self
            .nodes
            .iter()
            .map(|n| n.children.heap_bytes())
            .sum::<usize>()
            + self.nodes.capacity() * std::mem::size_of::<Node>();
        let docs: usize = self
            .docs
            .iter()
            .map(|d| d.text.heap_bytes() + d.leaves.heap_bytes())
            .sum::<usize>()
            + self.docs.capacity() * std::mem::size_of::<DocSlot>();
        nodes
            + docs
            + self.free_nodes.heap_bytes()
            + self.free_docs.heap_bytes()
            + self.by_id.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_find(docs: &[(u64, &[u8])], pattern: &[u8]) -> Vec<Occurrence> {
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

    fn assert_matches(st: &SuffixTree, docs: &[(u64, &[u8])], patterns: &[&[u8]]) {
        for &p in patterns {
            let mut got = st.find(p);
            got.sort();
            let want = naive_find(docs, p);
            assert_eq!(got, want, "pattern {:?}", String::from_utf8_lossy(p));
            assert_eq!(st.count(p), want.len());
        }
    }

    #[test]
    fn single_doc_queries() {
        let mut st = SuffixTree::new();
        st.insert(1, b"mississippi");
        st.check_invariants();
        let docs: &[(u64, &[u8])] = &[(1, b"mississippi")];
        assert_matches(
            &st,
            docs,
            &[b"ssi", b"i", b"mississippi", b"ppi", b"x", b"issi"],
        );
    }

    #[test]
    fn multi_doc_queries() {
        let mut st = SuffixTree::new();
        let docs: Vec<(u64, &[u8])> = vec![
            (10, b"banana".as_slice()),
            (20, b"bandana"),
            (30, b"an"),
            (40, b""),
        ];
        for (id, d) in &docs {
            st.insert(*id, d);
            st.check_invariants();
        }
        assert_matches(&st, &docs, &[b"an", b"ana", b"ban", b"nd", b"a", b"q"]);
        assert_eq!(st.num_docs(), 4);
        assert_eq!(st.symbol_count(), 6 + 7 + 2);
    }

    #[test]
    fn delete_restores_exact_state() {
        let mut st = SuffixTree::new();
        st.insert(1, b"abcabc");
        st.insert(2, b"bcabca");
        st.insert(3, b"cab");
        st.check_invariants();
        let deleted = st.delete(2).expect("present");
        assert_eq!(deleted, b"bcabca");
        st.check_invariants();
        let docs: &[(u64, &[u8])] = &[(1, b"abcabc"), (3, b"cab")];
        assert_matches(&st, docs, &[b"abc", b"bca", b"cab", b"c", b"bc"]);
        assert_eq!(st.delete(2), None);
    }

    #[test]
    fn delete_all_then_reinsert() {
        let mut st = SuffixTree::new();
        for round in 0..3u64 {
            st.insert(round * 10 + 1, b"hello world");
            st.insert(round * 10 + 2, b"world hello");
            st.check_invariants();
            assert_eq!(st.count(b"hello"), 2);
            st.delete(round * 10 + 1);
            st.check_invariants();
            assert_eq!(st.count(b"hello"), 1);
            st.delete(round * 10 + 2);
            st.check_invariants();
            assert!(st.is_empty());
            assert_eq!(st.count(b"hello"), 0);
        }
    }

    #[test]
    fn repetitive_text_stress() {
        let mut st = SuffixTree::new();
        st.insert(1, b"aaaaaaaaaaaaaaaa");
        st.insert(2, b"aaaabaaaabaaaab");
        st.check_invariants();
        let docs: &[(u64, &[u8])] = &[(1, b"aaaaaaaaaaaaaaaa"), (2, b"aaaabaaaabaaaab")];
        assert_matches(&st, docs, &[b"aaaa", b"ab", b"ba", b"aaaab"]);
        st.delete(1);
        st.check_invariants();
        assert_matches(&st, &[(2, b"aaaabaaaabaaaab")], &[b"aaaa", b"ab"]);
    }

    #[test]
    fn witness_retention_after_delete() {
        let mut st = SuffixTree::new();
        st.insert(1, b"shared prefix one");
        st.insert(2, b"shared prefix two");
        st.delete(1);
        st.check_invariants();
        // Internal nodes may still witness doc 1's text.
        assert_matches(
            &st,
            &[(2, b"shared prefix two")],
            &[b"shared", b"prefix", b"two"],
        );
        st.delete(2);
        st.check_invariants();
        assert_eq!(
            st.retained_dead_symbols(),
            0,
            "all text freed when tree empties"
        );
    }

    #[test]
    fn interleaved_random_ops_match_naive() {
        let mut st = SuffixTree::new();
        let mut model: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next_id = 0u64;
        let alphabet = b"abc";
        for step in 0..300 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            if !r.is_multiple_of(3) || model.is_empty() {
                let len = (r % 24) as usize;
                let doc: Vec<u8> = (0..len)
                    .map(|k| alphabet[((state.rotate_left(k as u32 * 7 + 1)) % 3) as usize])
                    .collect();
                next_id += 1;
                st.insert(next_id, &doc);
                model.push((next_id, doc));
            } else {
                let idx = (r as usize / 3) % model.len();
                let (id, bytes) = model.remove(idx);
                assert_eq!(st.delete(id), Some(bytes), "step {step}");
            }
            if step % 37 == 0 {
                st.check_invariants();
                let docs: Vec<(u64, &[u8])> =
                    model.iter().map(|(id, d)| (*id, d.as_slice())).collect();
                assert_matches(&st, &docs, &[b"ab", b"ca", b"aa", b"abc", b"cc"]);
            }
        }
        st.check_invariants();
    }

    #[test]
    fn export_docs_roundtrip() {
        let mut st = SuffixTree::new();
        st.insert(5, b"five");
        st.insert(3, b"three");
        st.insert(4, b"");
        st.delete(3);
        let docs = st.export_docs();
        assert_eq!(docs, vec![(4, b"".to_vec()), (5, b"five".to_vec())]);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_id_rejected() {
        let mut st = SuffixTree::new();
        st.insert(1, b"a");
        st.insert(1, b"b");
    }
}
