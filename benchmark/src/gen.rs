//! Seeded inputs and the brute-force oracle. The benchmark owns these so
//! the repo's other generators and reference indexes can be deleted
//! without editing anything under `benchmark/`.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

pub type Doc = (u64, Vec<u8>);

/// Distinct pattern strings per read type; requests pick among them zipf(≈1).
pub const PATTERNS: usize = 4096;
/// `find` is `find_limit(p, FIND_LIMIT)`.
pub const FIND_LIMIT: usize = 64;

pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Order-2 Markov text over `a..=z`: each two-byte context allows six
/// successors with geometric odds, so H2 is far below log2(26) — the
/// compressible regime the paper's nH_k bounds are about. The successor
/// table is fixed; the seed only drives the sampling.
fn markov_text(rng: &mut ChaCha8Rng, len: usize) -> Vec<u8> {
    let (mut a, mut b) = (b'a', b'a');
    (0..len)
        .map(|_| {
            let j = (rng.random::<u32>() | 1 << 5).trailing_zeros() as u64; // P(j) = 2^-(j+1), j <= 5
            let ctx = (a as u64 * 131 + b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let next = b'a' + ((ctx + j * 7) % 26) as u8;
            (a, b) = (b, next);
            next
        })
        .collect()
}

/// Item `i` of `0..n` with weight ≈ 1/(i+1) (inverse CDF of the harmonic law).
pub fn zipf(rng: &mut ChaCha8Rng, n: usize) -> usize {
    let u: f64 = rng.random::<f64>() * (n as f64).ln();
    ((u.exp() - 1.0) as usize).min(n - 1)
}

fn planted(rng: &mut ChaCha8Rng, docs: &[Doc], lens: std::ops::RangeInclusive<usize>) -> Vec<Vec<u8>> {
    (0..PATTERNS)
        .map(|_| {
            let d = &docs[rng.random_range(0..docs.len())].1;
            let len = rng.random_range(lens.clone()).min(d.len());
            let at = rng.random_range(0..=d.len() - len);
            d[at..at + len].to_vec()
        })
        .collect()
}

/// One run's inputs: `docs[..preload]` is loaded during set-up, the rest
/// feed inserts in order.
pub struct Corpus {
    pub docs: Vec<Doc>,
    pub preload: usize,
    /// Length 8–16: at most a few hits, so framing and fan-out dominate.
    pub count_pats: Vec<Vec<u8>>,
    /// Length 3–5: many hits, so locate (LF walks) and the merge dominate.
    pub find_pats: Vec<Vec<u8>>,
}

impl Corpus {
    pub fn new(seed: u64, preload_bytes: usize, fresh_docs: usize) -> Corpus {
        let mut r = rng(seed, 1);
        let text = markov_text(&mut r, preload_bytes + fresh_docs * 512);
        let (mut docs, mut pos, mut preload) = (Vec::new(), 0, 0);
        while pos < text.len() && (pos < preload_bytes || docs.len() - preload < fresh_docs) {
            let len = r.random_range(128..=512usize).min(text.len() - pos);
            docs.push((docs.len() as u64, text[pos..pos + len].to_vec()));
            pos += len;
            if pos <= preload_bytes {
                preload = docs.len();
            }
        }
        let count_pats = planted(&mut r, &docs, 8..=16);
        let find_pats = planted(&mut r, &docs, 3..=5);
        Corpus { docs, preload, count_pats, find_pats }
    }
}

/// What the store must hold: live documents, scanned with `windows`.
#[derive(Default)]
pub struct Oracle {
    pub live: HashMap<u64, Vec<u8>>,
    pub deleted: Vec<u64>,
    pub deleted_bytes: usize,
}

impl Oracle {
    pub fn insert(&mut self, doc: &Doc) {
        self.live.insert(doc.0, doc.1.clone());
    }

    pub fn delete(&mut self, id: u64) {
        self.deleted_bytes += self.live.remove(&id).map_or(0, |d| d.len());
        self.deleted.push(id);
    }

    pub fn live_bytes(&self) -> usize {
        self.live.values().map(Vec::len).sum()
    }

    pub fn count(&self, p: &[u8]) -> u64 {
        let hits = |d: &Vec<u8>| d.windows(p.len()).filter(|w| *w == p).count() as u64;
        self.live.values().map(hits).sum()
    }

    /// `find_limit` may return any `min(limit, count)` distinct true occurrences.
    pub fn find_ok(&self, p: &[u8], count: u64, hits: &[(u64, u64)]) -> bool {
        let mut sorted = hits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let real = |&(doc, off): &(u64, u64)| {
            self.live.get(&doc).is_some_and(|d| d.get(off as usize..off as usize + p.len()) == Some(p))
        };
        sorted.len() == hits.len() && hits.len() as u64 == count.min(FIND_LIMIT as u64) && hits.iter().all(real)
    }
}
