//! Smoke test: every workload at tiny scale (`--smoke`), untraced and
//! traced, must emit every metric `BENCHMARK.json` declares for that
//! mode, pass every check, and fail no operation.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of the objects in the top-level array `key` of
/// `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON.find(&format!("\"{key}\"")).expect("key present");
    let open = start + BENCHMARK_JSON[start..].find('[').expect("array");
    let close = open + BENCHMARK_JSON[open..].find(']').expect("array end");
    BENCHMARK_JSON[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace])
        .args(["--smoke", "--trace-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "{workload} --trace {trace}: {last}\n{stderr}"
    );
    assert!(!stderr.contains("FAIL"), "{workload} --trace {trace}: a check failed:\n{stderr}");
    last
}

#[test]
fn every_workload_emits_every_metric_and_passes_every_check() {
    let workloads = declared("workloads");
    assert_eq!(workloads, ["news_replay", "catalog_serve", "tagging_rollover"]);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = declared(section);
        assert!(!names.is_empty());
        for workload in &workloads {
            let result = run(workload, trace);
            for name in &names {
                assert!(
                    result.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} is missing {name}: {result}"
                );
            }
        }
    }
}
