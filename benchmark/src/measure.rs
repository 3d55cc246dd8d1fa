//! Metric tables, order statistics, the span recorder and run hygiene.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics: (name, unit), as listed in `BENCHMARK.json`, which also
/// holds their bounds (`tests/smoke.rs` checks the two agree). Every workload
/// reports every one, untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_ops_per_s", "1/s"),
    ("count_p50_us", "us"),
    ("find_p50_us", "us"),
    ("write_docs_per_s", "1/s"),
    ("ingest_mb_per_s", "MiB/s"),
    ("snapshot_s", "s"),
    ("recover_s", "s"),
    ("disk_bytes_per_user_byte", "ratio"),
    ("index_bytes_per_user_byte", "ratio"),
];

/// Per-layer metrics: (name, unit); the layer is the crate name before the
/// dot. Every workload reports every one in its traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.req_encode_ns", "ns"),
    ("serve.req_decode_ns", "ns"),
    ("serve.resp_encode_ns", "ns"),
    ("serve.resp_decode_ns", "ns"),
    ("serve.rtt_self_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.requests", "count"),
    ("serve.busy_replies", "count"),
    ("store.count_call_us", "us"),
    ("store.find_call_us", "us"),
    ("store.fanout_self_us", "us"),
    ("store.merge_self_us", "us"),
    ("store.insert_call_us", "us"),
    ("store.delete_call_us", "us"),
    ("store.queue_depth_max", "count"),
    ("store.pending_jobs_max", "count"),
    ("store.pool_installs", "count"),
    ("store.ingest_mb_per_s", "MiB/s"),
    ("store.flush_s", "s"),
    ("core.view_count_us", "us"),
    ("core.view_find_us", "us"),
    ("core.levels_per_shard", "count"),
    ("core.dead_symbol_fraction", "ratio"),
    ("core.t2_insert_us", "us"),
    ("core.t2_delete_us", "us"),
    ("core.symbols_built_per_user_symbol", "ratio"),
    ("core.max_op_symbols", "count"),
    ("core.rebuilds", "count"),
    ("core.purges", "count"),
    ("core.forced_waits", "count"),
    ("core.level_build_mb_per_s", "MiB/s"),
    ("text.sais_mb_per_s", "MiB/s"),
    ("text.fm_build_mb_per_s", "MiB/s"),
    ("text.fm_count_ns", "ns"),
    ("text.fm_locate_ns_per_occ", "ns"),
    ("text.fm_extract_ns_per_byte", "ns"),
    ("text.fm_bits_per_symbol", "bits"),
    ("succinct.rank1_ns", "ns"),
    ("succinct.select1_ns", "ns"),
    ("succinct.wavelet_rank_ns", "ns"),
    ("succinct.wavelet_access_ns", "ns"),
    ("succinct.rank_overhead_bits_per_bit", "ratio"),
    ("persist.wal_self_us", "us"),
    ("persist.sync_wal_us", "us"),
    ("persist.wal_bytes", "B"),
    ("persist.wal_bytes_per_user_byte", "ratio"),
    ("persist.snapshot_bytes_written", "B"),
    ("persist.snapshot_bytes_reused", "B"),
    ("persist.snapshot_levels_written", "count"),
    ("persist.delta_snapshot_s", "s"),
    ("persist.load_s", "s"),
    ("persist.replay_s", "s"),
    ("obs.hist_record_ns", "ns"),
    ("obs.span_record_ns", "ns"),
    ("bench.peak_rss_mb", "MiB"),
    ("bench.insert_p50_us", "us"),
    ("bench.count_p99_us", "us"),
    ("bench.find_p99_us", "us"),
    ("bench.insert_p99_us", "us"),
    ("bench.delete_p99_us", "us"),
    ("bench.late_p99_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    let mut all = END_TO_END.iter().chain(PER_LAYER);
    all.find(|m| m.0 == name).unwrap_or_else(|| panic!("metric {name} is in no table")).1
}

/// `q`-quantile of unsorted `v` (nearest rank; 0.0 is the minimum, 1.0 the
/// maximum); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    s.get(((s.len().max(1) - 1) as f64 * q).round() as usize).copied().unwrap_or(0.0)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Median over `n` runs of `f`'s wall time in nanoseconds divided by `per`.
pub fn time_ns<T>(n: usize, per: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(f(i));
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&samples)
}

/// Named values of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite");
        assert!(!self.0.iter().any(|m| m.0 == name), "{name} reported twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("{name} not reported")).1
    }

    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name)).unwrap();
        }
        out + "}"
    }
}

/// One recorded call into a layer. `id`s start at 1; `parent` 0 is a root.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
}

/// In-memory span recorder; one per thread, merged when the workload ends.
/// Off (`on == false`) it only calls through, so untraced runs pay nothing.
pub struct Recorder {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, t0: Instant) -> Recorder {
        Recorder { on, t0, spans: Vec::new() }
    }

    /// A recorder for another thread sharing this one's clock.
    pub fn fork(&self) -> Recorder {
        Recorder::new(self.on, self.t0)
    }

    /// Runs `f` inside a span; returns its result and the span's id.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, request_id: u64, f: impl FnOnce() -> T) -> (T, u32) {
        if !self.on {
            return (f(), 0);
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns, parent, request_id });
        (out, self.spans.len() as u32)
    }

    /// Appends another thread's spans, keeping their parent links valid.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        let shift = |s: Span| Span { parent: if s.parent == 0 { 0 } else { s.parent + base }, ..s };
        self.spans.extend(other.spans.into_iter().map(shift));
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request_id\": {}}}{sep}",
                i + 1, s.name, s.start_ns, s.end_ns, s.parent, s.request_id
            )
            .unwrap();
        }
        std::fs::write(path, out + "]\n")
    }
}

/// `benchmark/out`: traces, repeat files and scratch stores live here.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-run scratch directory under `out/`, removed on drop — also when a
/// panic unwinds through the run.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/out");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let entries = std::fs::read_dir(dir).expect("read store dir");
    entries
        .map(|e| {
            let e = e.expect("dir entry");
            let meta = e.metadata().expect("metadata");
            if meta.is_dir() {
                dir_bytes(&e.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

/// Copies a store directory while the store is still open (a crash image).
pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for e in std::fs::read_dir(from).expect("read store dir") {
        let e = e.expect("dir entry");
        let target = to.join(e.file_name());
        if e.metadata().expect("metadata").is_dir() {
            copy_dir(&e.path(), &target);
        } else {
            std::fs::copy(e.path(), target).expect("copy store file");
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kb: f64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM value");
    kb / 1024.0
}
