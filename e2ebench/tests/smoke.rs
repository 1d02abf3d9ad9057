//! Small-cohort smoke of all four workloads, timed and traced: every metric
//! `BENCHMARK.json` names is emitted, no operation fails, and paged,
//! resident and fleet jobs with the same seed return the same bonus.

use fair_serve::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["audit-paged", "dca-paged", "dca-resident", "fleet-core"];

/// `(record, result)` of one small run.
fn run(workload: &str, trace: u8) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .args(["--rows", "16384", "--shard-rows", "1024", "--steps", "8"])
        .args(["--out", concat!(env!("CARGO_TARGET_TMPDIR"), "/smoke")])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let record = stdout
        .lines()
        .find_map(|l| l.strip_prefix("record "))
        .expect("a record line");
    let last = stdout.lines().last().expect("a result line");
    (
        Json::parse(record).expect("record is JSON"),
        Json::parse(last).expect("result is JSON"),
    )
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_without_errors() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let spec = Json::parse(&spec).expect("BENCHMARK.json parses");
    let mut first_jobs = Vec::new();
    for workload in WORKLOADS {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (record, result) = run(workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = result.get("metrics").expect("metrics");
            let Json::Obj(emitted) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(
                emitted.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
                names(&spec, key),
                "{workload} trace {trace}"
            );
            for (name, m) in emitted {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload} {name}");
            }
            if trace == 0 {
                for name in ["setup_s", "op_p50_us", "ops_per_s", "server_rss_mb"] {
                    let value = metrics.get(name).and_then(|m| m.get("value")?.as_f64());
                    assert!(value > Some(0.0), "{workload} {name} is {value:?}");
                }
                if workload != "audit-paged" {
                    first_jobs.push(record.get("first_jobs").expect("first jobs").clone());
                }
            }
        }
    }
    assert!(
        first_jobs.windows(2).all(|w| w[0] == w[1]),
        "{first_jobs:?}"
    );
}
