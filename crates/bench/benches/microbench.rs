//! Criterion micro-benchmarks for the core data structures.
//!
//! One group per experiment family; kept small so
//! `cargo bench --workspace` completes quickly — the table binaries in
//! `src/bin/` are the heavyweight harnesses.

use criterion::{criterion_group, criterion_main, Criterion};
use dyndex_baseline::DynFmBaseline;
use dyndex_bench::workloads::*;
use dyndex_core::prelude::*;
use dyndex_relations::DynamicGraph;
use dyndex_succinct::{BitVec, OneBitReporter, RankSelect, WaveletMatrix};
use dyndex_text::{FmIndexCompressed, SuffixTree};
use std::hint::black_box;

fn bench_succinct(c: &mut Criterion) {
    let mut g = c.benchmark_group("succinct");
    g.sample_size(20);
    let bits = BitVec::from_bits((0..1_000_000).map(|i| i % 3 == 0));
    let rs = RankSelect::new(bits);
    g.bench_function("rank_select/rank1", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % 1_000_000;
            black_box(rs.rank1(i))
        })
    });
    g.bench_function("rank_select/select1", |b| {
        let ones = rs.count_ones();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 7919) % ones;
            black_box(rs.select1(k))
        })
    });
    // Lemma 3 reporter: sparse survivors (E-L3).
    let mut v = OneBitReporter::new_all_ones(1_000_000);
    for i in 0..1_000_000 {
        if i % 1024 != 0 {
            v.zero(i);
        }
    }
    g.bench_function("one_bit/report_sparse_range", |b| {
        b.iter(|| black_box(v.report_vec(0, 999_999).len()))
    });
    let seq: Vec<u32> = (0..200_000u64)
        .map(|i| (i.wrapping_mul(2654435761) % 64) as u32)
        .collect();
    let wm = WaveletMatrix::new(&seq, 64);
    g.bench_function("wavelet/rank", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % 200_000;
            black_box(wm.rank((i % 64) as u32, i))
        })
    });
    g.finish();
}

fn bench_static_fm(c: &mut Criterion) {
    let mut g = c.benchmark_group("static_fm");
    g.sample_size(15);
    let mut r = rng(101);
    let text = markov_text(&mut r, 1 << 18, 26, 3);
    let docs = split_documents(&mut r, &text, 256, 1024, 0);
    let doc_refs: Vec<(u64, &[u8])> = docs.iter().map(|(id, d)| (*id, d.as_slice())).collect();
    let pats = planted_patterns(&mut r, &docs, 8, 16);
    let fm = FmIndexCompressed::build(&doc_refs, 8);
    g.bench_function("count_p8", |b| {
        b.iter(|| pats.iter().map(|p| black_box(fm.count(p))).sum::<usize>())
    });
    g.bench_function("locate_p8", |b| {
        b.iter(|| {
            pats.iter()
                .map(|p| black_box(fm.locate(p).len()))
                .sum::<usize>()
        })
    });
    g.bench_function("extract_64", |b| b.iter(|| black_box(fm.extract(0, 0, 64))));
    g.finish();
}

fn bench_gst(c: &mut Criterion) {
    let mut g = c.benchmark_group("gst");
    g.sample_size(15);
    let mut r = rng(202);
    let text = markov_text(&mut r, 1 << 14, 26, 2);
    let docs = split_documents(&mut r, &text, 64, 256, 0);
    g.bench_function("insert_delete_cycle", |b| {
        let mut st = SuffixTree::new();
        for (id, d) in &docs {
            st.insert(*id, d);
        }
        let mut next = 10_000u64;
        b.iter(|| {
            st.insert(next, b"ephemeral document contents here");
            st.delete(next);
            next += 1;
        })
    });
    let mut st = SuffixTree::new();
    for (id, d) in &docs {
        st.insert(*id, d);
    }
    let pats = planted_patterns(&mut r, &docs, 6, 8);
    g.bench_function("find_p6", |b| {
        b.iter(|| {
            pats.iter()
                .map(|p| black_box(st.find(p).len()))
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_dynamic_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynamic_index");
    g.sample_size(10);
    let mut r = rng(303);
    let text = markov_text(&mut r, 1 << 17, 26, 3);
    let docs = split_documents(&mut r, &text, 128, 512, 0);
    let pats = planted_patterns(&mut r, &docs, 8, 8);

    let mut t1: Transform1Index<FmIndexCompressed> =
        Transform1Index::new(FmConfig { sample_rate: 8 }, DynOptions::default());
    for (id, d) in &docs {
        t1.insert(*id, d);
    }
    g.bench_function("transform1/count", |b| {
        b.iter(|| pats.iter().map(|p| black_box(t1.count(p))).sum::<usize>())
    });

    let mut base = DynFmBaseline::new();
    for (id, d) in &docs {
        base.insert(*id, d);
    }
    g.bench_function("dyn_rank_baseline/count", |b| {
        b.iter(|| pats.iter().map(|p| black_box(base.count(p))).sum::<usize>())
    });
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph");
    g.sample_size(15);
    let mut r = rng(404);
    let mut graph = DynamicGraph::new(DynOptions::default());
    for (u, v) in edge_stream(&mut r, 2_000, 30_000) {
        graph.add_edge(u, v);
    }
    g.bench_function("out_neighbors", |b| {
        let mut u = 0u64;
        b.iter(|| {
            u = (u + 13) % 2_000;
            black_box(graph.out_neighbors(u).len())
        })
    });
    g.bench_function("has_edge", |b| {
        let mut u = 0u64;
        b.iter(|| {
            u = (u + 13) % 2_000;
            black_box(graph.has_edge(u, (u * 7) % 2_000))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_succinct,
    bench_static_fm,
    bench_gst,
    bench_dynamic_index,
    bench_graph
);
criterion_main!(benches);
