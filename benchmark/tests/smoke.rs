//! `cargo test --offline --manifest-path benchmark/Cargo.toml`: the shrunken
//! run reports exactly what `BENCHMARK.json` lists, the layer sums explain the
//! end-to-end medians, and a wrong oracle answer fails the run.

use std::process::Command;
use std::sync::Mutex;

/// The runs time themselves, so the tests take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const BIN: &str = env!("CARGO_BIN_EXE_dyndex-benchmark");

/// `(name, unit)` of every object in the array `"key": [...]` of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let from = json.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let array = &json[from..from + json[from..].find(']').expect("array closes")];
    let quoted = |object: &str, field: &str| {
        let value = object
            .split(&format!("\"{field}\": \""))
            .nth(1)
            .map(|rest| rest.split('"').next().expect("split yields one"));
        value.unwrap_or_default().to_string()
    };
    array.split('{').skip(1).map(|object| (quoted(object, "name"), quoted(object, "unit"))).collect()
}

#[test]
fn smoke_reports_every_listed_metric_once_and_the_layer_sums_hold() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let (workloads, e2e, layers) =
        (listed(&json, "workloads"), listed(&json, "end_to_end"), listed(&json, "per_layer"));
    assert_eq!(workloads.len(), 4);
    let run = Command::new(BIN).arg("--smoke").output().expect("run --smoke");
    let stdout = String::from_utf8(run.stdout).expect("utf-8");
    assert!(run.status.success(), "--smoke failed:\n{stdout}\n{}", String::from_utf8_lossy(&run.stderr));

    let lines: Vec<&str> = stdout.lines().collect();
    for (workload, _) in &workloads {
        for (trace, metrics) in [(0, &e2e), (1, &layers)] {
            let header = format!("# {workload} trace={trace} ");
            let at =
                lines.iter().position(|l| l.starts_with(&header)).unwrap_or_else(|| panic!("no report for {header}"));
            let report = lines[at..].iter().find(|l| l.starts_with('{')).expect("a JSON line follows the header");
            assert!(report.contains("\"correct\": true") && report.contains("\"failed\": 0"), "{report}");
            let body = &report[report.find("\"metrics\": {").expect("metrics") + 12..];
            assert_eq!(
                body.matches("\"value\"").count(),
                metrics.len(),
                "{workload} trace={trace} reports other metrics than listed"
            );
            for (name, unit) in metrics {
                assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "bad name {name}");
                let found: Vec<&str> = body
                    .match_indices(&format!("\"{name}\": {{\"value\": "))
                    .map(|(i, m)| &body[i + m.len()..])
                    .collect();
                assert_eq!(found.len(), 1, "{name} must be reported exactly once by {workload} trace={trace}");
                let (value, rest) = found[0].split_once(", \"unit\": \"").expect("a unit follows the value");
                assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{name} = {value} is not a finite number");
                assert!(rest.starts_with(&format!("{unit}\"}}")), "{name} must be in {unit}");
            }
        }
    }
    assert_eq!(lines.iter().filter(|l| l.starts_with("identity ")).count(), 2, "both layer sums are checked");
}

#[test]
fn a_corrupted_oracle_answer_fails_the_run() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let args = ["--workload", "read_serve", "--seed", "7", "--seconds", "1", "--trace", "0", "--corrupt-oracle"];
    let run = Command::new(BIN).args(args).output().expect("run with a corrupted oracle");
    let stdout = String::from_utf8(run.stdout).expect("utf-8");
    assert!(!run.status.success(), "a wrong oracle answer must fail the command");
    assert!(stdout.lines().last().is_some_and(|l| l.contains("\"correct\": false")), "{stdout}");
}
