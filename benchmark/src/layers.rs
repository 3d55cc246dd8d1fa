//! Per-layer probes of the traced run. Every number is taken from outside:
//! spans and timers around calls into a crate's public functions, on the
//! workload's own documents, patterns and final store.

use crate::gen::{rng, zipf, Corpus, Doc, FIND_LIMIT, PATTERNS};
use crate::measure::*;
use crate::workloads::{
    fast_p50, fm, lat, pace, read_phase, store_options, Conn, Durable, Index, Kind, Store, CLIENTS, REF_SECONDS, SHARDS,
};
use dyndex_core::{DynOptions, LevelBuilder, RebuildMode, Transform2Index};
use dyndex_obs::{FlightRecorder, Histogram, Span, SpanKind};
use dyndex_persist::{SyncPolicy, WalOptions};
use dyndex_serve::proto::{read_frame, DEFAULT_MAX_FRAME};
use dyndex_serve::{Client, Request, Response, ServeOptions, Server};
use dyndex_succinct::{BitVec, HuffmanWavelet, RankSelect, SpaceUsage};
use dyndex_text::collection::SIGMA;
use dyndex_text::{sais::suffix_array, ConcatText};
use rand::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// Times `f` inside a span; returns microseconds and the span id.
fn call<T>(rec: &mut Recorder, name: &'static str, parent: u32, id: u64, f: impl FnOnce() -> T) -> (f64, u32) {
    let t = Instant::now();
    let (out, span) = rec.span(name, parent, id, f);
    black_box(out);
    (t.elapsed().as_nanos() as f64 / 1e3, span)
}

/// The leading documents of `docs`, up to `bytes` in total (at least one).
fn prefix(docs: &[Doc], bytes: f64) -> &[Doc] {
    let mut total = 0.0;
    let fits = |d: &&Doc| {
        total += d.1.len() as f64;
        total <= bytes
    };
    &docs[..docs.iter().take_while(fits).count().max(1)]
}

fn doc_bytes(docs: &[Doc]) -> f64 {
    docs.iter().map(|d| d.1.len()).sum::<usize>() as f64
}

/// `core` shape and work counters of the workload's live store.
pub fn structure(store: &Store, user_bytes: f64, m: &mut Metrics) {
    let stats = store.stats();
    let levels = stats.shards.iter().flat_map(|s| &s.levels).filter(|l| l.alive_symbols + l.dead_symbols > 0);
    let (n, alive, dead) = levels.fold((0, 0, 0), |a, l| (a.0 + 1, a.1 + l.alive_symbols, a.2 + l.dead_symbols));
    m.set("core.levels_per_shard", n as f64 / SHARDS as f64);
    m.set("core.dead_symbol_fraction", dead as f64 / (alive + dead).max(1) as f64);
    let work: Vec<_> = (0..SHARDS).map(|s| store.lock_shard(s).work().clone()).collect();
    m.set(
        "core.symbols_built_per_user_symbol",
        work.iter().map(|w| w.total_symbols).sum::<usize>() as f64 / user_bytes,
    );
    m.set("core.max_op_symbols", work.iter().map(|w| w.max_op_symbols).max().unwrap_or(0) as f64);
    m.set("core.rebuilds", work.iter().map(|w| w.rebuilds).sum::<u64>() as f64);
    m.set("core.purges", work.iter().map(|w| w.purges).sum::<u64>() as f64);
    m.set("core.forced_waits", work.iter().map(|w| w.forced_waits).sum::<u64>() as f64);
}

pub fn probe(
    store: Arc<Store>,
    corpus: &Corpus,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let scale = seconds / REF_SECONDS;
    let rtt_us = serve(&store, corpus, seed, seconds, rec, m);
    let count_call_us = reads(&store, corpus, seed, (2000.0 * scale) as usize, rec, m);
    // Everything a loaded round trip adds to the in-process call.
    m.set("serve.rtt_self_us", rtt_us - count_call_us);
    writes(corpus, scale, scratch, rec, m);
    let chunk = prefix(&corpus.docs, MIB * scale);
    text(chunk, m);
    succinct(chunk, seed, scale, m);
    // obs: the cost of the store's own always-on recording, per event.
    let (hist, flight) = (Histogram::new(4), FlightRecorder::new(4096, 4));
    m.set("obs.hist_record_ns", time_ns(5, 100_000, |_| (0..100_000u64).for_each(|v| hist.record(v))));
    m.set(
        "obs.span_record_ns",
        time_ns(5, 100_000, |_| (0..100_000).for_each(|_| flight.record(Span::child(1, SpanKind::Count)))),
    );
}

/// Frame codec cost on the workload's own frames, connect cost, and the
/// two-client round trip over loopback, untraced and traced in turns; returns
/// the fastest traced stretch's median `count` round trip in microseconds.
fn serve(store: &Arc<Store>, corpus: &Corpus, seed: u64, seconds: f64, rec: &mut Recorder, m: &mut Metrics) -> f64 {
    const FRAMES: usize = 256;
    let finds = (FRAMES as f64 * 0.3) as usize;
    let reqs: Vec<Request> = (0..FRAMES)
        .map(|i| match i < finds {
            true => Request::FindLimit { pattern: corpus.find_pats[i].clone(), limit: FIND_LIMIT as u64 },
            false => Request::Count { pattern: corpus.count_pats[i].clone() },
        })
        .collect();
    let resps: Vec<Response> = reqs
        .iter()
        .map(|r| match r {
            Request::FindLimit { pattern, .. } => Response::Occurrences(
                store.find_limit(pattern, FIND_LIMIT).iter().map(|o| (o.doc, o.offset as u64)).collect(),
            ),
            Request::Count { pattern } => Response::Count(store.count(pattern) as u64),
            _ => unreachable!("only reads are framed here"),
        })
        .collect();
    let (mut req_wire, mut resp_wire) = (Vec::new(), Vec::new());
    let encode =
        |wire: &mut Vec<u8>, write: &dyn Fn(&mut Vec<u8>)| time_ns(21, FRAMES, |_| (wire.clear(), write(wire)));
    m.set(
        "serve.req_encode_ns",
        encode(&mut req_wire, &|w| reqs.iter().for_each(|r| r.write_frame(w, DEFAULT_MAX_FRAME).expect("frame"))),
    );
    m.set(
        "serve.resp_encode_ns",
        encode(&mut resp_wire, &|w| resps.iter().for_each(|r| r.write_frame(w, DEFAULT_MAX_FRAME).expect("frame"))),
    );
    let decode = |wire: &[u8], parse: &dyn Fn(u16, &[u8])| {
        time_ns(21, FRAMES, |_| {
            let mut r = wire;
            while let Some((opcode, payload)) = read_frame(&mut r, DEFAULT_MAX_FRAME).expect("own frame") {
                parse(opcode, &payload);
            }
        })
    };
    m.set(
        "serve.req_decode_ns",
        decode(&req_wire, &|o, p| drop(black_box(Request::decode(o, p).expect("own request")))),
    );
    m.set(
        "serve.resp_decode_ns",
        decode(&resp_wire, &|o, p| drop(black_box(Response::decode(o, p).expect("own response")))),
    );

    let server: Server<Index> = Server::over(Arc::clone(store), ServeOptions::default()).expect("bind probe server");
    let connect = || Client::connect(server.addr()).expect("connect to probe server");
    m.set("serve.connect_us", time_ns(9, 1000, |_| connect()));
    // Ten alternating stretches, so that drift in the host's speed hits both
    // modes alike; each mode then reports its fastest stretch.
    let window = Duration::from_secs_f64(seconds / 50.0);
    let (mut rps, mut rtts) = ([Vec::new(), Vec::new()], Vec::new());
    for stretch in 0..10 {
        let mut off = Recorder::new(false, Instant::now());
        let rec = if stretch % 2 == 1 { &mut *rec } else { &mut off };
        let conns = (0..CLIENTS).map(|_| Conn::Tcp(connect())).collect();
        let (samples, elapsed, readers) = read_phase(conns, corpus, seed ^ stretch, window, None, rec, None);
        readers.into_iter().for_each(|r| rec.merge(r.rec));
        rps[(stretch % 2) as usize].push(samples.len() as f64 / elapsed);
        if stretch % 2 == 1 {
            rtts.push(median(&lat(&samples, Kind::Count)));
        }
    }
    m.set("bench.trace_overhead_ratio", quantile(&rps[1], 1.0) / quantile(&rps[0], 1.0));
    quantile(&rtts, 0.0)
}

/// The read path taken apart, in process and on one thread: the store's
/// fan-out call, then the same pattern against each shard's published view.
/// Returns the median `count` call in microseconds.
fn reads(store: &Store, corpus: &Corpus, seed: u64, n: usize, rec: &mut Recorder, m: &mut Metrics) -> f64 {
    let mut r = rng(seed, 3);
    let mut take = |find: bool, rec: &mut Recorder| -> [f64; 3] {
        let (mut calls, mut views, mut selfs) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let idx = zipf(&mut r, PATTERNS);
            let (p, id) = (if find { &corpus.find_pats[idx] } else { &corpus.count_pats[idx] }, (9 << 32) + i as u64);
            let (call_us, parent) = match find {
                true => call(rec, "store.find", 0, id, || store.find_limit(p, FIND_LIMIT)),
                false => call(rec, "store.count", 0, id, || store.count(p)),
            };
            let slowest = (0..SHARDS).map(|s| {
                let view = store.shard_view(s);
                match find {
                    true => call(rec, "core.view_find", parent, id, || view.find_limit(p, FIND_LIMIT)).0,
                    false => call(rec, "core.view_count", parent, id, || view.count(p)).0,
                }
            });
            let slowest = slowest.fold(0.0, f64::max);
            calls.push(call_us);
            views.push(slowest);
            selfs.push(call_us - slowest);
        }
        [median(&calls), median(&views), median(&selfs)]
    };
    let [count_call, view_count, fanout_self] = take(false, rec);
    let [find_call, view_find, merge_self] = take(true, rec);
    m.set("store.count_call_us", count_call);
    m.set("store.find_call_us", find_call);
    m.set("store.fanout_self_us", fanout_self);
    m.set("store.merge_self_us", merge_self);
    m.set("core.view_count_us", view_count);
    m.set("core.view_find_us", view_find);
    count_call
}

/// The write path taken apart: the same 2000 fresh documents (scaled) through a bare
/// `Transform2Index`, a `ShardedStore`, and a `DurableStore` that fsyncs per
/// record; plus bulk builds of the preload.
fn writes(corpus: &Corpus, scale: f64, scratch: &Path, rec: &mut Recorder, m: &mut Metrics) {
    let docs = &corpus.docs[corpus.preload..][..(2000.0 * scale) as usize];
    let mem = Store::new(fm(), store_options());
    let dir = scratch.join("probe-wal");
    let wal = WalOptions { sync: SyncPolicy::PerRecord };
    let durable = Durable::create_with_wal(&dir, fm(), store_options(), wal).expect("create probe store");
    let mut bare: Transform2Index<Index> = Transform2Index::new(fm(), DynOptions::default(), RebuildMode::Background);
    // One pass per structure over `of` (deletes take every fourth document),
    // timed like the workloads' own write phases.
    let mut pass = |name: &'static str, kind: Kind, of: &[Doc], op: &mut dyn FnMut(&Doc)| {
        let step = if kind == Kind::Delete { 4 } else { 1 };
        let (samples, elapsed) = pace(None, of.len() / step, None, |i| {
            rec.span(name, 0, (10 << 32) + i as u64, || op(&of[i * step]));
            (kind, true)
        });
        fast_p50(&samples, kind, elapsed)
    };
    let store_insert = pass("store.insert", Kind::Insert, docs, &mut |d| mem.insert(d.0, &d.1).expect("insert"));
    m.set("store.insert_call_us", store_insert);
    m.set(
        "store.delete_call_us",
        pass("store.delete", Kind::Delete, docs, &mut |d| drop(mem.delete(d.0).expect("delete"))),
    );
    let durable_insert =
        pass("persist.insert", Kind::Insert, docs, &mut |d| durable.insert(d.0, &d.1).expect("durable insert"));
    m.set("persist.wal_self_us", durable_insert - store_insert);
    let shard0: Vec<Doc> = docs.iter().filter(|d| mem.shard_of(d.0) == 0).cloned().collect();
    m.set("core.t2_insert_us", pass("core.t2_insert", Kind::Insert, &shard0, &mut |d| bare.insert(d.0, &d.1)));
    m.set("core.t2_delete_us", pass("core.t2_delete", Kind::Delete, &shard0, &mut |d| drop(bare.delete(d.0))));
    bare.finish_background_work();

    let bulk = prefix(&corpus.docs[..corpus.preload.max(1)], 8.0 * MIB * scale);
    let t = Instant::now();
    Store::new(fm(), store_options()).ingest(bulk.iter().cloned()).expect("ingest");
    m.set("store.ingest_mb_per_s", doc_bytes(bulk) / MIB / t.elapsed().as_secs_f64());
    let chunk = prefix(bulk, MIB * scale);
    let builder: LevelBuilder<Index> = LevelBuilder::new(fm(), true);
    m.set("core.level_build_mb_per_s", doc_bytes(chunk) / MIB / (time_ns(1, 1, |_| builder.build_batch(chunk)) / 1e9));
}

/// A static compressed FM-index over one chunk: construction and queries.
fn text(chunk: &[Doc], m: &mut Metrics) {
    let refs: Vec<(u64, &[u8])> = chunk.iter().map(|d| (d.0, d.1.as_slice())).collect();
    let (concat, mib) = (ConcatText::new(&refs), doc_bytes(chunk) / MIB);
    m.set("text.sais_mb_per_s", mib / (time_ns(1, 1, |_| suffix_array(concat.text(), SIGMA)) / 1e9));
    let mut built = None;
    m.set(
        "text.fm_build_mb_per_s",
        mib / (time_ns(1, 1, |_| built = Some(Index::from_concat(&concat, fm().sample_rate))) / 1e9),
    );
    let fm = built.expect("built once");
    let doc = |i: usize| &chunk[i % chunk.len()].1;
    m.set("text.fm_count_ns", time_ns(1000, 1, |i| fm.count(&doc(i)[..12])));
    let mut located = 0;
    let locate_ns = time_ns(1, 1, |_| {
        for i in 0..200 {
            let (lo, hi) = fm.find_range(&doc(i)[..4]).expect("planted");
            (lo..hi.min(lo + FIND_LIMIT)).for_each(|row| _ = black_box(fm.resolve(fm.locate_row(row))));
            located += hi.min(lo + FIND_LIMIT) - lo;
        }
    });
    m.set("text.fm_locate_ns_per_occ", locate_ns / located as f64);
    let extracted: usize = (0..200).map(|i| doc(i).len()).sum();
    m.set(
        "text.fm_extract_ns_per_byte",
        time_ns(1, extracted, |_| (0..200).for_each(|i| drop(black_box(fm.extract(i % chunk.len(), 0, doc(i).len()))))),
    );
    m.set("text.fm_bits_per_symbol", fm.heap_bytes() as f64 * 8.0 / fm.symbol_count() as f64);
}

/// Rank/select on 8 Mbit and the Huffman-shaped wavelet tree on 1 M symbols
/// of the workload's text (both scaled), at seeded random positions.
fn succinct(chunk: &[Doc], seed: u64, scale: f64, m: &mut Metrics) {
    const OPS: usize = 100_000;
    let mut r = rng(seed, 4);
    let bits = ((8u64 << 20) as f64 * scale) as usize;
    let rs = RankSelect::new(BitVec::from_bits((0..bits).map(|_| r.random::<bool>())));
    let at: Vec<usize> = (0..OPS).map(|_| r.random_range(0..bits)).collect();
    m.set("succinct.rank1_ns", time_ns(5, OPS, |_| at.iter().map(|&i| rs.rank1(i)).sum::<usize>()));
    let ones = rs.count_ones();
    m.set(
        "succinct.select1_ns",
        time_ns(5, OPS, |_| at.iter().map(|&i| rs.select1(i % ones).expect("k < ones")).sum::<usize>()),
    );
    m.set("succinct.rank_overhead_bits_per_bit", (rs.heap_bytes() as f64 * 8.0 - bits as f64) / bits as f64);
    let syms: Vec<u32> = chunk.iter().flat_map(|d| &d.1).map(|&b| b as u32).collect();
    let (wt, n) = (HuffmanWavelet::new(&syms, 256), syms.len());
    m.set(
        "succinct.wavelet_rank_ns",
        time_ns(5, OPS, |_| at.iter().map(|&i| wt.rank(syms[i % n], i % n)).sum::<usize>()),
    );
    m.set(
        "succinct.wavelet_access_ns",
        time_ns(5, OPS, |_| at.iter().map(|&i| wt.access(i % n) as usize).sum::<usize>()),
    );
}
