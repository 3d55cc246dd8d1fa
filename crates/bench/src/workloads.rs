//! Deterministic workload generators for the benchmark harness.
//!
//! Everything is seeded (`rand_chacha`) so the table binaries' counts
//! are reproducible run-to-run and machine-to-machine.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Default seed for ad-hoc workloads and tests. The bench binaries use
/// their own fixed per-experiment constants (grep `rng(0x` under
/// `src/bin/`) — every stream in this crate is seeded by a compile-time
/// constant, never entropy, so recorded numbers are comparable across
/// runs and machines.
pub const DEFAULT_SEED: u64 = 0xD15C_0DE5_EED0_0001;

/// A seeded RNG for a named experiment.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Generates order-`k` Markov text over `sigma` symbols: each context
/// prefers a small set of successors, yielding `Hk << log σ` like natural
/// language (the regime the paper's `nHk` bounds target).
pub fn markov_text(rng: &mut ChaCha8Rng, len: usize, sigma: u8, k: usize) -> Vec<u8> {
    assert!(sigma >= 2);
    let mut out = Vec::with_capacity(len);
    // Deterministic per-context successor tables, derived by hashing the
    // context; each context allows ~sigma/4 successors with skewed odds.
    let mut ctx_hash: u64 = 0xcbf29ce484222325;
    let refresh = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100000001b3);
    for _ in 0..len {
        let choices = (sigma / 4).max(2);
        let skew: f64 = rng.random();
        // Skewed pick: successor j with probability ~ 2^-j.
        let mut j = 0u8;
        let mut acc = 0.5f64;
        while j + 1 < choices && skew > acc {
            j += 1;
            acc += (1.0 - acc) / 2.0;
        }
        let b = ((ctx_hash >> 17) as u8).wrapping_add(j.wrapping_mul(31)) % sigma;
        out.push(b'a'.wrapping_add(b % 26).min(b'z'));
        ctx_hash = refresh(ctx_hash, *out.last().expect("just pushed"));
        if k == 0 {
            ctx_hash = rng.random();
        }
    }
    out
}

/// Splits `text` into documents with lengths uniform in
/// `[min_len, max_len]`, assigning sequential ids starting at `base_id`.
pub fn split_documents(
    rng: &mut ChaCha8Rng,
    text: &[u8],
    min_len: usize,
    max_len: usize,
    base_id: u64,
) -> Vec<(u64, Vec<u8>)> {
    let mut docs = Vec::new();
    let mut pos = 0usize;
    let mut id = base_id;
    while pos < text.len() {
        let len = rng.random_range(min_len..=max_len).min(text.len() - pos);
        docs.push((id, text[pos..pos + len].to_vec()));
        pos += len;
        id += 1;
    }
    docs
}

/// Extracts `count` patterns of length `plen` that *occur* in the corpus
/// (planted patterns — every query has hits), plus a few absent ones.
pub fn planted_patterns(
    rng: &mut ChaCha8Rng,
    docs: &[(u64, Vec<u8>)],
    plen: usize,
    count: usize,
) -> Vec<Vec<u8>> {
    let mut pats = Vec::with_capacity(count);
    let eligible: Vec<&Vec<u8>> = docs
        .iter()
        .map(|(_, d)| d)
        .filter(|d| d.len() >= plen)
        .collect();
    if eligible.is_empty() {
        return pats;
    }
    for _ in 0..count {
        let d = eligible[rng.random_range(0..eligible.len())];
        let start = rng.random_range(0..=d.len() - plen);
        pats.push(d[start..start + plen].to_vec());
    }
    pats
}

/// Zipf-ish samples over `[0, universe)`: item `i` with weight `1/(i+1)`.
pub fn zipf(rng: &mut ChaCha8Rng, universe: u64) -> u64 {
    // Inverse-CDF approximation for the harmonic distribution.
    let h = (universe as f64).ln().max(1.0);
    let u: f64 = rng.random::<f64>() * h;
    (u.exp() - 1.0).min(universe as f64 - 1.0).max(0.0) as u64
}

/// A stream of relation/graph edges with Zipf-skewed endpoints.
pub fn edge_stream(rng: &mut ChaCha8Rng, nodes: u64, count: usize) -> Vec<(u64, u64)> {
    (0..count)
        .map(|_| (zipf(rng, nodes), zipf(rng, nodes)))
        .collect()
}

/// Simple wall-clock measurement: median over `runs` of `f`'s duration,
/// in nanoseconds. `f` must return something observable to defeat DCE.
pub fn measure_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(runs >= 1);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = std::time::Instant::now();
        let out = f();
        let dt = start.elapsed().as_nanos() as f64;
        std::hint::black_box(out);
        samples.push(dt);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

/// Pretty time formatting.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markov_is_deterministic_and_compressible() {
        let mut r1 = rng(42);
        let mut r2 = rng(42);
        let t1 = markov_text(&mut r1, 5000, 26, 2);
        let t2 = markov_text(&mut r2, 5000, 26, 2);
        assert_eq!(t1, t2, "seeded generators must agree");
        let h0 = dyndex_succinct::entropy::h0(&t1);
        assert!(h0 < 5.0, "skewed text must be compressible, h0 = {h0}");
    }

    #[test]
    fn split_covers_everything() {
        let mut r = rng(7);
        let text: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let docs = split_documents(&mut r, &text, 10, 50, 100);
        let total: usize = docs.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(total, 1000);
        let ids: Vec<u64> = docs.iter().map(|(id, _)| *id).collect();
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn planted_patterns_occur() {
        let mut r = rng(9);
        let text = markov_text(&mut r, 2000, 8, 1);
        let docs = split_documents(&mut r, &text, 50, 100, 0);
        for p in planted_patterns(&mut r, &docs, 5, 20) {
            assert!(
                docs.iter()
                    .any(|(_, d)| d.windows(p.len()).any(|w| w == p.as_slice())),
                "pattern must occur"
            );
        }
    }

    /// Locks seed-threading through the whole generator pipeline: two
    /// identically-seeded runs must agree value-for-value on every
    /// workload artifact (text, document split, patterns, edges).
    #[test]
    fn full_pipeline_is_deterministic() {
        let run = |seed: u64| {
            let mut r = rng(seed);
            let text = markov_text(&mut r, 3000, 16, 2);
            let docs = split_documents(&mut r, &text, 20, 80, 0);
            let pats = planted_patterns(&mut r, &docs, 6, 10);
            let edges = edge_stream(&mut r, 500, 200);
            (text, docs, pats, edges)
        };
        assert_eq!(run(DEFAULT_SEED), run(DEFAULT_SEED));
        assert_ne!(
            run(DEFAULT_SEED).0,
            run(DEFAULT_SEED ^ 1).0,
            "distinct seeds must give distinct streams"
        );
    }

    #[test]
    fn zipf_is_skewed() {
        let mut r = rng(3);
        let samples: Vec<u64> = (0..5000).map(|_| zipf(&mut r, 1000)).collect();
        let small = samples.iter().filter(|&&x| x < 10).count();
        let large = samples.iter().filter(|&&x| x >= 500).count();
        assert!(
            small > large * 2,
            "small ids must dominate: {small} vs {large}"
        );
        assert!(samples.iter().all(|&x| x < 1000));
    }
}
