//! **Table 2 harness** — dynamic indexing: our transformations vs the
//! dynamic-rank prior art.
//!
//! The paper's Table 2 claim: previous dynamic indexes pay a ~log n
//! factor on *every* query symbol (dynamic rank, Fredman–Saks), while the
//! transformations keep queries at the static index's speed (× log log n)
//! and amortize updates. We measure, at growing collection sizes:
//! count-query time, report (find) time, insert time/symbol, and delete
//! time/symbol for Transformation 1, Transformation 2 (inline installs),
//! Transformation 3, the dynamic-BWT baseline, and rebuild-all.

use dyndex_baseline::{DynFmBaseline, RebuildAllIndex};
use dyndex_bench::workloads::*;
use dyndex_core::prelude::*;
use dyndex_core::transform3::transform3_options;
use dyndex_store::{MaintenancePolicy, ShardedStore, StoreOptions};

fn main() {
    println!("=== Table 2: dynamic indexing (measured) ===\n");
    for &n in &[1usize << 16, 1 << 18, 1 << 20] {
        run_size(n);
    }
    println!("shape checks: our query times ~flat vs n and close to rebuild-all's;");
    println!("baseline count grows ~log n per symbol; our updates ~polylog/symbol,");
    println!("far below rebuild-all's O(n)/update.");
}

fn run_size(n: usize) {
    let mut r = rng(0x7AB1E002 ^ n as u64);
    let text = markov_text(&mut r, n, 26, 3);
    let docs = split_documents(&mut r, &text, 128, 1024, 0);
    let patterns = planted_patterns(&mut r, &docs, 8, 24);
    let extra = {
        let extra_text = markov_text(&mut r, n / 8, 26, 3);
        split_documents(&mut r, &extra_text, 128, 1024, 1_000_000)
    };
    println!(
        "corpus n={n} ({} docs), update batch {} docs",
        docs.len(),
        extra.len()
    );
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        "index", "count", "find", "insert/sym", "delete/sym"
    );

    let opts = DynOptions::default();
    let fm = FmConfig { sample_rate: 8 };

    // Transformation 1.
    {
        let mut idx: Transform1Index<FmIndexCompressed> = Transform1Index::new(fm, opts);
        for (id, d) in &docs {
            idx.insert(*id, d);
        }
        let count_ns = measure_ns(7, || patterns.iter().map(|p| idx.count(p)).sum::<usize>())
            / patterns.len() as f64;
        let find_ns = measure_ns(3, || {
            patterns.iter().map(|p| idx.find(p).len()).sum::<usize>()
        }) / patterns.len() as f64;
        let ins = time_inserts(&extra, |id, d| idx.insert(id, d));
        let del = time_deletes(&extra, |id| {
            idx.delete(id);
        });
        row("transform1", count_ns, find_ns, ins, del);
    }
    // Transformation 2 (inline installs: deterministic foreground costs).
    {
        let mut idx: Transform2Index<FmIndexCompressed> =
            Transform2Index::new(fm, opts, RebuildMode::Inline);
        for (id, d) in &docs {
            idx.insert(*id, d);
        }
        let count_ns = measure_ns(7, || patterns.iter().map(|p| idx.count(p)).sum::<usize>())
            / patterns.len() as f64;
        let find_ns = measure_ns(3, || {
            patterns.iter().map(|p| idx.find(p).len()).sum::<usize>()
        }) / patterns.len() as f64;
        let ins = time_inserts(&extra, |id, d| idx.insert(id, d));
        let del = time_deletes(&extra, |id| {
            idx.delete(id);
        });
        row("transform2", count_ns, find_ns, ins, del);
    }
    // Transformation 3.
    {
        let mut idx: Transform3Index<FmIndexCompressed> =
            new_transform3(fm, transform3_options(opts));
        for (id, d) in &docs {
            idx.insert(*id, d);
        }
        let count_ns = measure_ns(7, || patterns.iter().map(|p| idx.count(p)).sum::<usize>())
            / patterns.len() as f64;
        let find_ns = measure_ns(3, || {
            patterns.iter().map(|p| idx.find(p).len()).sum::<usize>()
        }) / patterns.len() as f64;
        let ins = time_inserts(&extra, |id, d| idx.insert(id, d));
        let del = time_deletes(&extra, |id| {
            idx.delete(id);
        });
        row("transform3", count_ns, find_ns, ins, del);
    }
    // Sharded store over Transformation 2: 4 shards, reads on this thread,
    // background rebuilds installed by the resident workers.
    {
        let store: ShardedStore<FmIndexCompressed> = ShardedStore::new(
            fm,
            StoreOptions {
                num_shards: 4,
                index: opts,
                mode: RebuildMode::Background,
                maintenance: MaintenancePolicy::Periodic(std::time::Duration::from_micros(500)),
                ..StoreOptions::default()
            },
        );
        store.insert_batch(&docs).expect("insert batch");
        store.finish_background_work();
        let count_ns = measure_ns(7, || patterns.iter().map(|p| store.count(p)).sum::<usize>())
            / patterns.len() as f64;
        let find_ns = measure_ns(3, || {
            patterns.iter().map(|p| store.find(p).len()).sum::<usize>()
        }) / patterns.len() as f64;
        let ins = time_inserts(&extra, |id, d| store.insert(id, d).expect("insert"));
        let del = time_deletes(&extra, |id| {
            store.delete(id).expect("delete");
        });
        row("sharded x4", count_ns, find_ns, ins, del);
    }
    // Prior-art dynamic-rank baseline.
    {
        let mut idx = DynFmBaseline::new();
        for (id, d) in &docs {
            idx.insert(*id, d);
        }
        let count_ns = measure_ns(7, || patterns.iter().map(|p| idx.count(p)).sum::<usize>())
            / patterns.len() as f64;
        let ins = time_inserts(&extra, |id, d| idx.insert(id, d));
        let del = time_deletes(&extra, |id| {
            idx.delete(id);
        });
        row("dyn-rank [35]", count_ns, f64::NAN, ins, del);
    }
    // Rebuild-all baseline (update batch shrunk: it is O(n) per update).
    {
        let mut idx: RebuildAllIndex<FmIndexCompressed> = RebuildAllIndex::new(fm, true);
        for (id, d) in &docs {
            idx.docs_push(*id, d);
        }
        idx.force_rebuild();
        let count_ns = measure_ns(7, || patterns.iter().map(|p| idx.count(p)).sum::<usize>())
            / patterns.len() as f64;
        let find_ns = measure_ns(3, || {
            patterns.iter().map(|p| idx.find(p).len()).sum::<usize>()
        }) / patterns.len() as f64;
        let few: Vec<(u64, Vec<u8>)> = extra.iter().take(3).cloned().collect();
        let ins = time_inserts(&few, |id, d| idx.insert(id, d));
        let del = time_deletes(&few, |id| {
            idx.delete(id);
        });
        row("rebuild-all", count_ns, find_ns, ins, del);
    }
    println!();
}

/// Times insertion of all docs in `batch`, per symbol.
fn time_inserts(batch: &[(u64, Vec<u8>)], mut ins: impl FnMut(u64, &[u8])) -> f64 {
    let symbols: usize = batch.iter().map(|(_, d)| d.len()).sum::<usize>().max(1);
    let t0 = std::time::Instant::now();
    for (id, d) in batch {
        ins(*id, d);
    }
    t0.elapsed().as_nanos() as f64 / symbols as f64
}

/// Times deletion of all docs in `batch`, per symbol.
fn time_deletes(batch: &[(u64, Vec<u8>)], mut del: impl FnMut(u64)) -> f64 {
    let symbols: usize = batch.iter().map(|(_, d)| d.len()).sum::<usize>().max(1);
    let t1 = std::time::Instant::now();
    for (id, _) in batch {
        del(*id);
    }
    t1.elapsed().as_nanos() as f64 / symbols as f64
}

fn row(name: &str, count: f64, find: f64, ins: f64, del: f64) {
    let finds = if find.is_nan() {
        "n/a".to_string()
    } else {
        fmt_ns(find)
    };
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        name,
        fmt_ns(count),
        finds,
        fmt_ns(ins),
        fmt_ns(del)
    );
}

/// Small extension trait avoided: direct helpers for the rebuild-all
/// baseline's bulk-load (inserting doc-by-doc would be O(n²)).
trait BulkLoad {
    fn docs_push(&mut self, id: u64, bytes: &[u8]);
    fn force_rebuild(&mut self);
}

impl<I: dyndex_core::StaticIndex> BulkLoad for RebuildAllIndex<I> {
    fn docs_push(&mut self, id: u64, bytes: &[u8]) {
        self.push_without_rebuild(id, bytes);
    }
    fn force_rebuild(&mut self) {
        self.rebuild_now();
    }
}
