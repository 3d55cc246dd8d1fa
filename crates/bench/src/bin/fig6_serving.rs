//! **Figure 6 harness** (beyond the paper) — the network serving layer
//! under load: closed-loop and open-loop generators against a live
//! `dyndex-serve` TCP server.
//!
//! Two sections:
//!
//! * **Closed loop** — N clients issue count/find requests back-to-back
//!   (each waits for its reply before sending the next). Throughput and
//!   latency percentiles vs client count show how far the handler
//!   threads scale before the cores saturate.
//! * **Open loop** — requests are issued on a fixed arrival schedule
//!   regardless of completions, and latency is measured from the
//!   *scheduled* arrival time (coordination-omission-free). As offered
//!   load approaches capacity, p99 inflates long before p50 does.
//!
//! The server is real (`std::net` TCP over loopback), the clients are
//! real blocking [`Client`] handles, and every latency includes framing,
//! checksumming, and the kernel loopback round trip.

use dyndex_bench::workloads::*;
use dyndex_core::prelude::*;
use dyndex_serve::{Client, ServeOptions, Server};
use dyndex_store::{MaintenancePolicy, ShardedStore, StoreOptions, Telemetry};
use dyndex_text::FmIndexCompressed;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

fn main() {
    println!("=== Fig 6: serving layer under load (measured) ===\n");
    let n = 1usize << 17;
    let mut r = rng(DEFAULT_SEED ^ 0xF16_0006);
    let text = markov_text(&mut r, n, 26, 2);
    let docs = split_documents(&mut r, &text, 128, 512, 0);
    let patterns = planted_patterns(&mut r, &docs, 8, 16);

    let server = server(&docs, ServeOptions::default());
    println!(
        "corpus n={n} ({} docs, {SHARDS} shards), {} patterns, server {}",
        docs.len(),
        patterns.len(),
        server.addr()
    );

    closed_loop(&server, &patterns);
    open_loop(&server, &patterns);
}

fn server(docs: &[(u64, Vec<u8>)], serve: ServeOptions) -> Server<FmIndexCompressed> {
    let store: ShardedStore<FmIndexCompressed> = ShardedStore::new(
        FmConfig { sample_rate: 8 },
        StoreOptions {
            num_shards: SHARDS,
            index: DynOptions::default(),
            mode: RebuildMode::Inline,
            maintenance: MaintenancePolicy::Periodic(Duration::from_secs(3600)),
            telemetry: Telemetry::Enabled,
            ..StoreOptions::default()
        },
    );
    for chunk in docs.chunks(256) {
        store.insert_batch(chunk).expect("bulk load");
    }
    store.flush();
    Server::over(Arc::new(store), serve).expect("bind loopback server")
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

/// Closed loop: `clients` threads, each its own connection, each request
/// waits for its reply. Returns (requests/s, sorted latencies ns).
fn run_closed(
    addr: SocketAddr,
    patterns: &[Vec<u8>],
    clients: usize,
    window: Duration,
) -> (f64, Vec<u64>) {
    let all = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let all = &all;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut lat = Vec::new();
                let mut i = c; // stagger pattern phase across clients
                while t0.elapsed() < window {
                    let pattern = &patterns[i % patterns.len()];
                    let sent = Instant::now();
                    // 1-in-4 requests locate occurrences, the rest count.
                    if i % 4 == 0 {
                        std::hint::black_box(client.find_limit(pattern, 16).expect("find"));
                    } else {
                        std::hint::black_box(client.count(pattern).expect("count"));
                    }
                    lat.push(sent.elapsed().as_nanos() as u64);
                    i += 1;
                }
                all.lock().unwrap().extend(lat);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut lat = all.into_inner().unwrap();
    lat.sort_unstable();
    (lat.len() as f64 / elapsed, lat)
}

fn closed_loop(server: &Server<FmIndexCompressed>, patterns: &[Vec<u8>]) {
    println!("\nclosed loop (each client waits for its reply; window 400ms):");
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>10}",
        "clients", "requests/s", "p50", "p99", "max"
    );
    for clients in [1usize, 2, 4, 8] {
        let (rps, lat) = run_closed(server.addr(), patterns, clients, Duration::from_millis(400));
        println!(
            "{:<8} {:>12.0} {:>10} {:>10} {:>10}",
            clients,
            rps,
            fmt_ns(percentile(&lat, 0.50)),
            fmt_ns(percentile(&lat, 0.99)),
            fmt_ns(*lat.last().unwrap() as f64),
        );
    }
    println!("shape check: throughput rises with clients while p50 stays flat until");
    println!("the cores saturate; past that, added clients only share them.");
}

/// Open loop: requests arrive on a fixed schedule split across threads;
/// latency runs from the scheduled arrival, so a stalled client charges
/// its queue wait to every request behind it (no coordination omission).
fn run_open(
    addr: SocketAddr,
    patterns: &[Vec<u8>],
    clients: usize,
    offered_rps: u64,
    window: Duration,
) -> (f64, Vec<u64>) {
    let interval = Duration::from_nanos(1_000_000_000 / offered_rps);
    let completed = AtomicU64::new(0);
    let all = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (all, completed) = (&all, &completed);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut lat = Vec::new();
                // Thread c serves arrivals c, c+clients, c+2*clients, ...
                let mut j = c as u32;
                loop {
                    let scheduled = t0 + interval * j;
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    if t0.elapsed() >= window {
                        break;
                    }
                    let pattern = &patterns[j as usize % patterns.len()];
                    std::hint::black_box(client.count(pattern).expect("count"));
                    lat.push((Instant::now() - scheduled).as_nanos() as u64);
                    completed.fetch_add(1, Ordering::Relaxed);
                    j += clients as u32;
                }
                all.lock().unwrap().extend(lat);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut lat = all.into_inner().unwrap();
    lat.sort_unstable();
    (completed.load(Ordering::Relaxed) as f64 / elapsed, lat)
}

fn open_loop(server: &Server<FmIndexCompressed>, patterns: &[Vec<u8>]) {
    // Calibrate capacity from a closed-loop burst, then offer fractions
    // of it so the figure is meaningful on any machine.
    let (capacity, _) = run_closed(server.addr(), patterns, 4, Duration::from_millis(250));
    println!("\nopen loop (fixed arrival schedule, 4 clients; latency from scheduled");
    println!("arrival time; closed-loop capacity ~{capacity:.0} requests/s):");
    println!(
        "{:<14} {:>12} {:>10} {:>10}",
        "offered", "achieved/s", "p50", "p99"
    );
    for fraction in [0.25f64, 0.5, 0.8] {
        let offered = ((capacity * fraction) as u64).max(100);
        let (achieved, lat) = run_open(
            server.addr(),
            patterns,
            4,
            offered,
            Duration::from_millis(400),
        );
        println!(
            "{:<14} {:>12.0} {:>10} {:>10}",
            format!("{offered}/s ({:.0}%)", fraction * 100.0),
            achieved,
            fmt_ns(percentile(&lat, 0.50)),
            fmt_ns(percentile(&lat, 0.99)),
        );
    }
    println!("shape check: at low offered load p99 tracks the closed-loop service");
    println!("time; approaching capacity, arrivals outpace completions in bursts and");
    println!("p99 inflates first — the open loop charges that wait, a closed loop");
    println!("would silently slow its own arrivals instead.");
}
