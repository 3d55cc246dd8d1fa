//! **Ablation harness** — the framework's tunables.
//!
//! Three design choices are worth ablating:
//! * **τ** (purge threshold): trades deleted-data space overhead
//!   (O(n/τ)) against update cost (O(u(n)·τ) deletion amortization and
//!   ×O(τ) T2 query overhead);
//! * **ε** (level growth): trades insertion amortization (O(u·log^ε n))
//!   against the number of levels queried;
//! * **growth profile** (polylog vs doubling = Transformation 1 vs 3).
//!
//! One workload, one knob varied at a time.

use dyndex_bench::workloads::*;
use dyndex_core::prelude::*;

fn main() {
    println!("=== Ablations: tau, eps, growth profile ===\n");
    let mut r = rng(0xAB1A7E);
    let text = markov_text(&mut r, 1 << 18, 26, 3);
    let docs = split_documents(&mut r, &text, 128, 1024, 0);
    let patterns = planted_patterns(&mut r, &docs, 8, 16);
    let churn: Vec<(u64, Vec<u8>)> = {
        let t = markov_text(&mut r, 1 << 15, 26, 3);
        split_documents(&mut r, &t, 128, 1024, 1_000_000)
    };

    println!("-- tau sweep (Transformation 1, eps = 0.5) --");
    println!(
        "{:>4} {:>12} {:>14} {:>14} {:>12}",
        "tau", "count", "insert/sym", "delete/sym", "bits/sym"
    );
    for tau in [2usize, 4, 8, 16, 32] {
        let opts = DynOptions {
            tau,
            ..DynOptions::default()
        };
        run_case(format!("{tau}"), opts, &docs, &patterns, &churn);
    }

    println!("\n-- eps sweep (Transformation 1, tau = 8) --");
    println!(
        "{:>4} {:>12} {:>14} {:>14} {:>12}",
        "eps", "count", "insert/sym", "delete/sym", "bits/sym"
    );
    for eps in [0.25f64, 0.5, 0.75, 1.0] {
        let opts = DynOptions {
            growth: Growth::PolyLog { eps },
            ..DynOptions::default()
        };
        run_case(format!("{eps}"), opts, &docs, &patterns, &churn);
    }

    println!("\n-- growth profile (tau = 8) --");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12}",
        "profile", "count", "insert/sym", "delete/sym", "bits/sym"
    );
    for (name, growth) in [
        ("polylog", Growth::PolyLog { eps: 0.5 }),
        ("doubling", Growth::Doubling),
    ] {
        let opts = DynOptions {
            growth,
            ..DynOptions::default()
        };
        run_case_named(name, opts, &docs, &patterns, &churn);
    }
    println!("\nshapes: larger tau => purge at smaller dead fraction: costlier");
    println!("deletes, O(n/tau) less retained dead data;");
    println!("larger eps => fewer levels (faster queries), costlier cascades;");
    println!("doubling (T3) => cheapest inserts, more levels queried.");
}

fn run_case(
    label: String,
    opts: DynOptions,
    docs: &[(u64, Vec<u8>)],
    patterns: &[Vec<u8>],
    churn: &[(u64, Vec<u8>)],
) {
    run_case_impl(&label, 4, opts, docs, patterns, churn);
}

fn run_case_named(
    label: &str,
    opts: DynOptions,
    docs: &[(u64, Vec<u8>)],
    patterns: &[Vec<u8>],
    churn: &[(u64, Vec<u8>)],
) {
    run_case_impl(label, 8, opts, docs, patterns, churn);
}

fn run_case_impl(
    label: &str,
    width: usize,
    opts: DynOptions,
    docs: &[(u64, Vec<u8>)],
    patterns: &[Vec<u8>],
    churn: &[(u64, Vec<u8>)],
) {
    use dyndex_succinct::SpaceUsage;
    let mut idx: Transform1Index<FmIndexCompressed> =
        Transform1Index::new(FmConfig { sample_rate: 8 }, opts);
    for (id, d) in docs {
        idx.insert(*id, d);
    }
    let count_ns = measure_ns(7, || patterns.iter().map(|p| idx.count(p)).sum::<usize>())
        / patterns.len() as f64;
    let symbols: usize = churn.iter().map(|(_, d)| d.len()).sum();
    let t0 = std::time::Instant::now();
    for (id, d) in churn {
        idx.insert(*id, d);
    }
    let ins = t0.elapsed().as_nanos() as f64 / symbols as f64;
    let t1 = std::time::Instant::now();
    for (id, _) in churn {
        idx.delete(*id);
    }
    let del = t1.elapsed().as_nanos() as f64 / symbols as f64;
    let bits = idx.heap_bytes() as f64 * 8.0 / idx.symbol_count().max(1) as f64;
    println!(
        "{:>w$} {:>12} {:>14} {:>14} {:>12.2}",
        label,
        fmt_ns(count_ns),
        fmt_ns(ins),
        fmt_ns(del),
        bits,
        w = width
    );
}
