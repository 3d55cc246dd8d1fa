//! The repo benchmark. Driver contract:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints one JSON object as the last line of stdout. `--all`,
//! `--repeat`, `--compare` and `--smoke` are for people; see README.md.

mod gen;
mod layers;
mod measure;
mod workloads;

use measure::{median, out_dir, unit_of, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::{run, Outcome, Workload, REF_SECONDS, WORKLOADS};

const DEFAULT_SEED: u64 = 0xD15C_0DE5_EED0_0001;
/// The layer sums must land this close to the end-to-end median they explain;
/// `--smoke` runs a tenth of the work and allows more.
const IDENTITY_TOLERANCE: f64 = 0.15;
const SMOKE_IDENTITY_TOLERANCE: f64 = 0.5;

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn number(text: &str) -> u64 {
    let hex = text.strip_prefix("0x").map(|h| u64::from_str_radix(&h.replace('_', ""), 16));
    hex.unwrap_or_else(|| text.parse()).unwrap_or_else(|_| panic!("not a number: {text}"))
}

fn workload(name: &str) -> Workload {
    WORKLOADS.iter().find(|w| w.1 == name).unwrap_or_else(|| panic!("unknown workload {name}")).0
}

/// Prints the table people read, then the contract's JSON line.
fn report(name: &str, trace: bool, out: &Outcome) -> bool {
    let samples: Vec<String> = out.samples.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("# {name} trace={} — samples: {}", trace as u8, samples.join(", "));
    for (metric, value) in &out.metrics.0 {
        println!("{metric:<36} {value:>16.4} {}", unit_of(metric));
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.json()
    );
    correct
}

/// `"key": value` of a flat JSON object we wrote ourselves.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("no {key} in {line}")) + key.len() + 4;
    line[at..].split([',', '}']).next().expect("split yields one").trim().trim_matches('"')
}

/// The `(name, value)` pairs of a report line's `"metrics"` object.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let body = &line[line.find("\"metrics\": {").expect("a report line") + 12..];
    let pair = |c: &str| (c.split('"').nth(1).expect("name").to_string(), field(c, "value").parse().expect("number"));
    body.split("}, ").map(pair).collect()
}

/// Python's `statistics.quantiles(v, n=4)`: (q1, q3).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let cut = |i: usize| {
        let j = (i * (s.len() + 1) / 4).clamp(1, s.len().max(2) - 1);
        let delta = (i * (s.len() + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j.min(s.len() - 1)] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Runs every workload `repeat` times, each in a process of its own so that
/// `peak_rss_mb` is per run, and writes one JSON line per workload × metric.
fn repeat(repeat: usize, seed: u64, seconds: f64, trace: bool, out: &str) -> bool {
    let (mut lines, mut correct) = (String::new(), true);
    for (_, name) in WORKLOADS {
        let mut values: Vec<(String, Vec<f64>)> = Vec::new();
        for k in 0..repeat {
            let args = [
                "--workload",
                name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ];
            let run = Command::new(std::env::current_exe().expect("own path"))
                .args(args)
                .stderr(Stdio::inherit())
                .output()
                .expect("run self");
            let stdout = String::from_utf8(run.stdout).expect("utf-8 report");
            let last = stdout.lines().last().unwrap_or_default();
            correct &= run.status.success() && field(last, "correct") == "true";
            for (metric, value) in parse_metrics(last) {
                match values.iter_mut().find(|v| v.0 == metric) {
                    Some(v) => v.1.push(value),
                    None => values.push((metric, vec![value])),
                }
            }
            eprintln!("{name} run {}/{repeat} done", k + 1);
        }
        for (metric, v) in &values {
            let (q1, q3) = quartiles(v);
            let row = format!("{{\"workload\": \"{name}\", \"metric\": \"{metric}\", \"unit\": \"{}\", \"n\": {}, \"median\": {}, \"q1\": {q1}, \"q3\": {q3}}}", unit_of(metric), v.len(), median(v));
            println!("{row}");
            lines += &(row + "\n");
        }
    }
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    std::fs::write(out, lines).expect("write repeat file");
    correct
}

/// One row per workload × end-to-end metric of two `--repeat` files; false
/// when any row regressed.
fn compare(a: &str, b: &str) -> bool {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
    let (a, b, listed) = (read(a), read(b), read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")));
    let mut fine = true;
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    for row in a.lines() {
        let (w, metric) = (field(row, "workload"), field(row, "metric"));
        // The metric's entry in BENCHMARK.json, which fixes direction and bound.
        let Some(entry) =
            listed.split('{').find(|o| o.contains(&format!("\"name\": \"{metric}\"")) && o.contains("\"bound\""))
        else {
            continue;
        };
        let (better, bound) = (field(entry, "better"), field(entry, "bound").parse::<f64>().expect("bound"));
        let other = b
            .lines()
            .find(|l| field(l, "workload") == w && field(l, "metric") == metric)
            .unwrap_or_else(|| panic!("{w}/{metric} missing in B"));
        let num = |line: &str, key: &str| field(line, key).parse::<f64>().expect("number");
        let (ma, mb) = (num(row, "median"), num(other, "median"));
        let spread = |l: &str| (num(l, "q3") - num(l, "q1")) / num(l, "median");
        let worse = if better == "lower" { (mb - ma) / ma } else { (ma - mb) / ma };
        let verdict = match () {
            _ if spread(row).max(spread(other)) > bound => "unresolved",
            _ if worse > bound => "regressed",
            _ => "ok",
        };
        fine &= verdict != "regressed";
        println!(
            "{w:<14} {metric:<26} {ma:>12.4} {mb:>12.4} {:>+7.2}% {:>5.1}%  {verdict}",
            (mb - ma) / ma * 100.0,
            bound * 100.0
        );
    }
    fine
}

/// Both modes of every workload at a tenth of the size, plus the two sums
/// that attribute an end-to-end median to layers.
fn smoke(seed: u64, seconds: f64, tolerance: f64) -> bool {
    let mut fine = true;
    for &(w, name) in WORKLOADS {
        let (plain, traced) = (run(w, seed, seconds, false, false), run(w, seed, seconds, true, false));
        fine &= report(name, false, &plain) & report(name, true, &traced);
        let (e2e, layer) = (&plain.metrics, &traced.metrics);
        let sums = match w {
            Workload::ReadServe => vec![(
                "count_p50_us",
                layer.get("serve.rtt_self_us") + layer.get("store.fanout_self_us") + layer.get("core.view_count_us"),
            )],
            Workload::DurableWrite => {
                vec![("bench.insert_p50_us", layer.get("persist.wal_self_us") + layer.get("store.insert_call_us"))]
            }
            _ => vec![],
        };
        for (metric, sum) in sums {
            // The explained median is end to end, or the traced run's own where it was demoted.
            let whole = if metric.starts_with("bench.") { layer.get(metric) } else { e2e.get(metric) };
            let off = (sum - whole).abs() / whole;
            println!(
                "identity {name} {metric}: layers sum to {sum:.1}, the whole is {whole:.1}, off by {:.1}%",
                off * 100.0
            );
            fine &= off <= tolerance;
        }
    }
    fine
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let seed = arg(&args, "--seed").map_or(DEFAULT_SEED, |s| number(&s));
    let seconds = arg(&args, "--seconds").map_or(REF_SECONDS, |s| s.parse().expect("--seconds takes a number"));
    let trace = arg(&args, "--trace").is_some_and(|t| t == "1");
    let fine = if has("--smoke") {
        smoke(seed, 1.0, SMOKE_IDENTITY_TOLERANCE)
    } else if has("--identities") {
        smoke(seed, seconds, IDENTITY_TOLERANCE)
    } else if let Some(a) = arg(&args, "--compare") {
        compare(&a, &args[args.iter().position(|x| x == "--compare").expect("present") + 2])
    } else if has("--all") || has("--repeat") {
        let out = arg(&args, "--out").unwrap_or_else(|| out_dir().join("repeat.json").display().to_string());
        repeat(arg(&args, "--repeat").map_or(1, |n| number(&n) as usize), seed, seconds, trace, &out)
    } else {
        let name = arg(&args, "--workload").expect("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        let out = run(workload(&name), seed, seconds, trace, has("--corrupt-oracle"));
        let listed = if trace { PER_LAYER.len() } else { END_TO_END.len() };
        assert_eq!(out.metrics.0.len(), listed, "every listed metric is reported exactly once");
        report(&name, trace, &out)
    };
    if fine {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
