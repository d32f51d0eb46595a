//! Reproducer for a crash the benchmark keeps out of its workloads.
//!
//! A refresh that rollover fires on the first rating of a new interval
//! (`N_t = 1`) can return a NaN log-likelihood and NaN mixing weights,
//! depending on which rating opens the interval; the engine publishes
//! the model, and the next TA query panics on non-finite block bounds.
//! See README.md, "Known crash".

use crate::workload::time_ordered_stream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tcam_core::FitConfig;
use tcam_data::{synth, TimeId, UserId, WeightingScheme};
use tcam_online::{OnlineConfig, OnlineEngine, RefreshPolicy};
use tcam_serve::{Query, ServeConfig};

/// Parses a weighting scheme name; `raw` trains on raw counts.
pub fn parse_scheme(name: &str) -> Option<Option<WeightingScheme>> {
    match name {
        "raw" => Some(None),
        "full" => Some(Some(WeightingScheme::Full)),
        "iuf" => Some(Some(WeightingScheme::IufOnly)),
        "burst" => Some(Some(WeightingScheme::BurstOnly)),
        "damped" => Some(Some(WeightingScheme::Damped)),
        _ => None,
    }
}

/// Replays `dataset` (`delicious` or `digg`, scale 1.0, seed 1) in time
/// order — shuffled inside each interval by `shuffle`, if given — with a
/// bootstrap on intervals < 8, `K1 = 12`, `K2 = 10`, 10 EM iterations,
/// weighting `scheme` (raw counts for `None`), and refresh on rollover
/// only; stops at the first refresh that publishes non-finite
/// parameters and queries it. Returns whether the crash reproduced.
pub fn run(scheme: Option<WeightingScheme>, dataset: &str, shuffle: Option<u64>) -> bool {
    let config = match dataset {
        "digg" => synth::digg_like(1.0, 1),
        _ => synth::delicious_like(1.0, 1),
    };
    let (num_users, num_items, num_times, stream) = time_ordered_stream(config, shuffle);
    let split = stream.partition_point(|r| r.time.0 < 8);
    let online = OnlineConfig {
        fit: FitConfig::default()
            .with_user_topics(12)
            .with_time_topics(10)
            .with_iterations(10)
            .with_seed(1),
        weighting: scheme,
        policy: RefreshPolicy { every_ratings: None, on_rollover: true },
        serve: ServeConfig::default(),
    };
    let mut eng =
        OnlineEngine::bootstrap(num_users, num_items, num_times, stream[..split].to_vec(), online)
            .expect("bootstrap fit");
    println!(
        "{dataset}_like(1.0, seed 1), weighting {scheme:?}, arrival shuffle {shuffle:?}: \
         bootstrap on {split} ratings (intervals < 8)"
    );
    for &r in &stream[split..] {
        let Some(report) = eng.ingest(r).expect("stream ratings are valid").refreshed else {
            continue;
        };
        let nan_lambdas = eng.model().lambdas().iter().filter(|l| !l.is_finite()).count();
        let t = report.num_times - 1;
        let n_t = eng.log().ratings().iter().filter(|x| x.time.index() == t).count();
        println!(
            "epoch {}: interval {t} (N_t = {n_t}), log-likelihood {}, non-finite lambda for {nan_lambdas} of {} users",
            report.epoch,
            report.log_likelihood,
            eng.model().num_users()
        );
        if report.log_likelihood.is_finite() && nan_lambdas == 0 {
            continue;
        }
        let q = Query { user: UserId(0), time: TimeId(t as u32), k: 10 };
        let served = catch_unwind(AssertUnwindSafe(|| eng.query(q)));
        match served {
            Ok(response) => {
                println!("published; next query answered ({} items)", response.items.len())
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                println!("published; next query panicked: {message}");
            }
        }
        println!("reproduced");
        return true;
    }
    println!("not reproduced: every refresh published finite parameters");
    false
}
