//! `e2ebench` — the replay-and-serve benchmark of the online TCAM
//! pipeline (ingest → warm refresh → serve).
//!
//! ```text
//! e2ebench --workload <news_replay|catalog_serve|tagging_rollover|all>
//!          --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-dir <dir>]
//! e2ebench --repro-crash <raw|full|burst|damped|iuf> [--dataset delicious|digg] [--seed <n>]
//! ```
//!
//! One driver thread bootstraps an `OnlineEngine` and replays a seeded
//! event stream through it — ratings, impression queries, background
//! queries, fold-in sessions and injected invalid ratings — closed loop,
//! repeating whole passes until `--seconds` have elapsed. `--trace 0`
//! reports the end-to-end metrics (median over passes); `--trace 1`
//! alternates untraced and traced passes and reports the per-layer
//! metrics, the reconciliation checks and the tracing overhead. The
//! human-readable report goes to stderr; the last line of stdout is one
//! JSON object. See README.md.

mod driver;
mod report;
mod repro;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use tcam_data::WeightingScheme;
use workload::Workload;

const USAGE: &str = "usage: e2ebench --workload <news_replay|catalog_serve|tagging_rollover|all> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-dir <dir>]\n       \
e2ebench --repro-crash <raw|full|burst|damped|iuf> [--dataset delicious|digg] [--seed <n>]";

struct Bench {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    trace_dir: String,
}

enum Command {
    Bench(Bench),
    Repro(Option<WeightingScheme>, String, Option<u64>),
}

fn parse(raw: &[String]) -> Result<Command, String> {
    let mut bench = Bench {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        trace_dir: String::from(".bench_trace"),
    };
    let mut repro = None;
    let mut seed_given = None;
    let mut dataset = String::from("delicious");
    let mut args = raw.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            bench.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => bench.workloads = Workload::ALL.to_vec(),
            "--workload" => bench.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => {
                bench.seed = value.parse().map_err(|_| bad())?;
                seed_given = Some(bench.seed);
            }
            "--seconds" => {
                bench.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                bench.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => bench.trace_dir = value.clone(),
            "--repro-crash" => repro = Some(repro::parse_scheme(value).ok_or_else(bad)?),
            "--dataset" if value == "delicious" || value == "digg" => dataset = value.clone(),
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    if let Some(scheme) = repro {
        return Ok(Command::Repro(scheme, dataset, seed_given));
    }
    if bench.workloads.is_empty() {
        return Err(String::from("--workload is required"));
    }
    Ok(Command::Bench(bench))
}

/// Extra set-ups timed before the passes, so `setup_s` is a median over
/// at least this many bootstraps.
const SETUP_REPEATS: usize = 10;

/// Runs passes of one workload until `seconds` have elapsed (at least
/// one untraced pass, and one traced pass when tracing).
fn run_workload(workload: Workload, bench: &Bench) -> report::Outcome {
    let inputs = workload::generate(workload, bench.seed, bench.smoke);
    eprintln!(
        "== {} seed={} seconds={} trace={} | {} users, {} items, {} bootstrap ratings, {} streamed, {} queries | fit threads {}, available cores {}",
        workload.name(),
        bench.seed,
        bench.seconds,
        u8::from(bench.traced),
        inputs.num_users,
        inputs.num_items,
        inputs.bootstrap.len(),
        inputs.stream_len(),
        inputs.query_count(),
        inputs.config.fit.num_threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let start = Instant::now();
    let setups: Vec<u64> = if bench.traced {
        Vec::new()
    } else {
        (0..SETUP_REPEATS).filter_map(|_| driver::time_setup(&inputs)).collect()
    };
    let mut passes = Vec::new();
    let mut per_pass = Vec::new();
    loop {
        let traced = bench.traced && passes.len() % 2 == 1;
        let mut pass = driver::run(&inputs, traced);
        if !traced {
            per_pass.push(report::condense(&mut pass));
        }
        let panicked = pass.panicked;
        passes.push(pass);
        let enough = !bench.traced || passes.len() >= 2;
        if panicked || (enough && start.elapsed().as_secs_f64() >= bench.seconds) {
            break;
        }
    }
    let trace_dir = bench.traced.then_some(bench.trace_dir.as_str());
    report::summarize(&inputs, &passes, &per_pass, &setups, bench.seed, trace_dir)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse(&raw) {
        Err(message) => {
            eprintln!("e2ebench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Repro(scheme, dataset, shuffle)) => {
            repro::run(scheme, &dataset, shuffle);
            ExitCode::SUCCESS
        }
        Ok(Command::Bench(bench)) => {
            let outcomes: Vec<report::Outcome> =
                bench.workloads.iter().map(|&w| run_workload(w, &bench)).collect();
            println!("{}", report::json_line(&outcomes));
            ExitCode::SUCCESS
        }
    }
}
