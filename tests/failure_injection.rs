//! Failure injection and degenerate-input hardening: empty datasets,
//! single users/items/intervals, all-identical behavior, extreme
//! weights. The system must either work or fail with a typed error —
//! never panic and never emit NaNs.

use tcam::prelude::*;

fn single_cell_cuboid() -> RatingCuboid {
    RatingCuboid::from_ratings(
        1,
        1,
        2,
        vec![Rating { user: UserId(0), time: TimeId(0), item: ItemId(0), value: 1.0 }],
    )
    .expect("valid")
}

#[test]
fn empty_cuboid_rejected_by_all_models() {
    let empty = RatingCuboid::from_ratings(3, 3, 3, vec![]).expect("valid but empty");
    assert!(TtcamModel::fit(&empty, &FitConfig::default()).is_err());
    assert!(ItcamModel::fit(&empty, &FitConfig::default()).is_err());
    assert!(UserTopicModel::fit(&empty, &UtConfig::default()).is_err());
    assert!(TimeTopicModel::fit(&empty, &TtConfig::default()).is_err());
    assert!(Bprmf::fit(&empty, &BprmfConfig::default()).is_err());
    assert!(Bptf::fit(&empty, &BptfConfig::default()).is_err());
}

#[test]
fn single_cell_dataset_fits_without_nans() {
    let c = single_cell_cuboid();
    let config = FitConfig::default().with_user_topics(2).with_time_topics(2).with_iterations(5);
    let model = TtcamModel::fit(&c, &config).expect("degenerate fit should work").model;
    let mut scores = vec![0.0; 2];
    model.predict_all(UserId(0), TimeId(0), &mut scores);
    assert!(scores.iter().all(|s| s.is_finite()));
    let lam = model.lambda(UserId(0));
    assert!((0.0..=1.0).contains(&lam));
}

#[test]
fn more_topics_than_items_is_survivable() {
    let c = single_cell_cuboid();
    let config = FitConfig::default().with_user_topics(10).with_time_topics(10).with_iterations(3);
    let model = TtcamModel::fit(&c, &config).expect("over-parameterized fit").model;
    assert!(model.predict(UserId(0), TimeId(0), 0).is_finite());
}

#[test]
fn weighting_handles_unanimous_popularity() {
    // Every user rates the single item in every interval: iuf = 0
    // everywhere, so all weights collapse — the floor in map_values
    // must keep the cuboid usable and the fit finite.
    let mut ratings = Vec::new();
    for u in 0..4u32 {
        for t in 0..3u32 {
            ratings.push(Rating { user: UserId(u), time: TimeId(t), item: ItemId(0), value: 1.0 });
        }
    }
    let c = RatingCuboid::from_ratings(4, 3, 2, ratings).expect("valid");
    let weighted = ItemWeighting::compute(&c).apply(&c);
    assert_eq!(weighted.nnz(), c.nnz());
    assert!(weighted.total_mass() > 0.0);
    let config = FitConfig::default().with_user_topics(2).with_time_topics(2).with_iterations(5);
    let model = TtcamModel::fit(&weighted, &config).expect("fit on floored cuboid").model;
    assert!(model.log_likelihood(&c).is_finite());
}

#[test]
fn users_with_no_ratings_keep_neutral_lambda() {
    // User 2 never rates anything; they must keep the initial lambda
    // and still receive finite recommendations (cold start).
    let ratings = vec![
        Rating { user: UserId(0), time: TimeId(0), item: ItemId(0), value: 1.0 },
        Rating { user: UserId(0), time: TimeId(1), item: ItemId(1), value: 1.0 },
        Rating { user: UserId(1), time: TimeId(0), item: ItemId(1), value: 1.0 },
    ];
    let c = RatingCuboid::from_ratings(3, 2, 3, ratings).expect("valid");
    let config = FitConfig::default().with_user_topics(2).with_time_topics(2).with_iterations(10);
    let model = TtcamModel::fit(&c, &config).expect("fit").model;
    assert_eq!(model.lambda(UserId(2)), 0.5, "cold user keeps the neutral prior");
    let mut scores = vec![0.0; 3];
    model.predict_all(UserId(2), TimeId(0), &mut scores);
    assert!(scores.iter().all(|s| s.is_finite()));
}

#[test]
fn evaluation_with_empty_test_side() {
    // A split where every (u, t) group is a singleton puts everything
    // in train; evaluation must return an empty-but-valid report.
    let c = single_cell_cuboid();
    let split = train_test_split(&c, 0.2, &mut Pcg64::new(1));
    assert_eq!(split.test.nnz(), 0);
    let model = MostPopular::fit(&split.train);
    let report = tcam::rec::evaluate(&model, &split, &EvalConfig::default());
    assert_eq!(report.num_queries, 0);
    assert!(report.per_k.iter().all(|m| m.ndcg == 0.0));
}

#[test]
fn extreme_rating_values_stay_finite() {
    let ratings = vec![
        Rating { user: UserId(0), time: TimeId(0), item: ItemId(0), value: 1e12 },
        Rating { user: UserId(1), time: TimeId(0), item: ItemId(1), value: 1e-12 },
        Rating { user: UserId(1), time: TimeId(1), item: ItemId(0), value: 3.0 },
    ];
    let c = RatingCuboid::from_ratings(2, 2, 2, ratings).expect("valid");
    let config = FitConfig::default().with_user_topics(2).with_time_topics(2).with_iterations(10);
    let fit = TtcamModel::fit(&c, &config).expect("fit");
    assert!(fit.final_log_likelihood().is_finite());
    for w in fit.trace.windows(2) {
        assert!(w[1].log_likelihood >= w[0].log_likelihood - 1e-6);
    }
}

#[test]
fn invalid_ratings_rejected_with_typed_errors() {
    let bad_value = RatingCuboid::from_ratings(
        1,
        1,
        1,
        vec![Rating { user: UserId(0), time: TimeId(0), item: ItemId(0), value: -1.0 }],
    );
    assert!(matches!(bad_value, Err(tcam::data::DataError::InvalidRating { .. })));

    let bad_id = RatingCuboid::from_ratings(
        1,
        1,
        1,
        vec![Rating { user: UserId(5), time: TimeId(0), item: ItemId(0), value: 1.0 }],
    );
    assert!(matches!(bad_id, Err(tcam::data::DataError::IdOutOfRange { .. })));
}

#[test]
fn bprmf_user_who_rated_everything() {
    // User 0 has rated the full catalog: BPR cannot sample a negative
    // for them; training must still terminate and stay finite.
    let mut ratings = Vec::new();
    for v in 0..3u32 {
        ratings.push(Rating { user: UserId(0), time: TimeId(0), item: ItemId(v), value: 1.0 });
    }
    ratings.push(Rating { user: UserId(1), time: TimeId(0), item: ItemId(0), value: 1.0 });
    let c = RatingCuboid::from_ratings(2, 1, 3, ratings).expect("valid");
    let model = Bprmf::fit(&c, &BprmfConfig { num_epochs: 5, ..BprmfConfig::default() })
        .expect("fit must terminate");
    assert!(model.predict(UserId(0), 0).is_finite());
}

#[test]
fn ta_on_cold_interval() {
    // Query an interval with no training data at all: TA must still
    // return k items with finite scores.
    let data = SynthDataset::generate(tcam::data::synth::tiny(50)).expect("gen");
    let config = FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(5);
    // Drop all entries of interval 0 to make it cold.
    let keep: Vec<usize> = data
        .cuboid
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, r)| r.time != TimeId(0))
        .map(|(i, _)| i)
        .collect();
    let cold = data.cuboid.subset(&keep);
    let model = TtcamModel::fit(&cold, &config).expect("fit").model;
    let index = TaIndex::build(&model);
    let result = index.top_k(&model, UserId(0), TimeId(0), 5);
    assert_eq!(result.items.len(), 5);
    assert!(result.items.iter().all(|s| s.score.is_finite()));
}

#[test]
fn ingest_rejects_every_bad_rating_with_a_typed_error() {
    use tcam::online::{IngestLog, OnlineError};
    let mut log = IngestLog::new(8, 8, 8);
    log.append(Rating { user: UserId(0), time: TimeId(3), item: ItemId(0), value: 1.0 })
        .expect("valid rating accepted");

    let bad = |u: u32, t: u32, v: u32, value: f64| Rating {
        user: UserId(u),
        time: TimeId(t),
        item: ItemId(v),
        value,
    };
    // (rating, expected-error predicate, label)
    type Case = (Rating, fn(&OnlineError) -> bool, &'static str);
    let cases: Vec<Case> = vec![
        (
            bad(8, 3, 0, 1.0),
            |e| matches!(e, OnlineError::IdOutOfRange { kind: "user", index: 8, bound: 8 }),
            "user out of range",
        ),
        (
            bad(0, 3, 99, 1.0),
            |e| matches!(e, OnlineError::IdOutOfRange { kind: "item", index: 99, bound: 8 }),
            "item out of range",
        ),
        (
            bad(0, 8, 0, 1.0),
            |e| matches!(e, OnlineError::IdOutOfRange { kind: "time", index: 8, bound: 8 }),
            "time out of range",
        ),
        (bad(0, 3, 0, f64::NAN), |e| matches!(e, OnlineError::InvalidValue { .. }), "NaN"),
        (bad(0, 3, 0, f64::INFINITY), |e| matches!(e, OnlineError::InvalidValue { .. }), "+inf"),
        (
            bad(0, 3, 0, f64::NEG_INFINITY),
            |e| matches!(e, OnlineError::InvalidValue { .. }),
            "-inf",
        ),
        (
            bad(0, 3, 0, -0.5),
            |e| matches!(e, OnlineError::InvalidValue { value } if *value == -0.5),
            "negative",
        ),
        (
            bad(0, 2, 0, 1.0),
            |e| matches!(e, OnlineError::TimeRegression { time: 2, last: 3 }),
            "backwards time",
        ),
    ];
    for (r, is_expected, label) in cases {
        let before = log.fingerprint();
        let err = log.append(r).expect_err(label);
        assert!(is_expected(&err), "{label}: got {err:?}");
        // A typed error, and provably zero mutation: the fingerprint
        // covers the accepted log and every cuboid cell bit pattern.
        assert_eq!(log.fingerprint(), before, "{label}: rejected rating mutated state");
        assert_eq!(log.len(), 1, "{label}: log length moved");
    }
    assert_eq!(log.rejected(), 8);
}

#[test]
fn rejected_rating_leaves_live_snapshot_untouched() {
    use std::sync::Arc;
    use tcam::online::{OnlineConfig, OnlineEngine, RefreshPolicy};

    let data = SynthDataset::generate(tcam::data::synth::tiny(99)).unwrap();
    let c = &data.cuboid;
    let mut stream: Vec<Rating> = c.entries().to_vec();
    stream.sort_by_key(|r| (r.time, r.user, r.item));
    let config = OnlineConfig {
        fit: FitConfig::default()
            .with_user_topics(3)
            .with_time_topics(2)
            .with_iterations(2)
            .with_seed(99),
        policy: RefreshPolicy { every_ratings: Some(1), on_rollover: true },
        ..Default::default()
    };
    let mut eng =
        OnlineEngine::bootstrap(c.num_users(), c.num_items(), c.num_times() + 2, stream, config)
            .unwrap();

    let log_before = eng.log().fingerprint();
    let snap_before = eng.serve().snapshot();
    let lambdas_before: Vec<u64> = eng.model().lambdas().iter().map(|l| l.to_bits()).collect();

    // Even with the most trigger-happy policy (refresh on every
    // rating), a rejected rating must not refresh, swap, or mutate.
    let err = eng.ingest(Rating {
        user: UserId(0),
        time: TimeId(0),
        item: ItemId(c.num_items() as u32),
        value: 1.0,
    });
    assert!(err.is_err());

    assert_eq!(eng.log().fingerprint(), log_before, "ingest state mutated");
    assert!(
        Arc::ptr_eq(&snap_before, &eng.serve().snapshot()),
        "snapshot swapped on a rejected rating"
    );
    assert_eq!(eng.epoch(), 1);
    let lambdas_after: Vec<u64> = eng.model().lambdas().iter().map(|l| l.to_bits()).collect();
    assert_eq!(lambdas_before, lambdas_after, "warm-start prior mutated");
}

/// `model` re-read from its JSON file with the first value of `field`'s
/// array replaced by `replacement` (or removed, when it is empty): a
/// corrupted model file, the way a bad model reaches a server from
/// outside the fit.
fn corrupted(model: &TtcamModel, field: &str, replacement: &str) -> TtcamModel {
    let name = format!("tcam-gate-{}-{field}-{}.json", std::process::id(), replacement.len());
    let path = std::env::temp_dir().join(name);
    tcam::core::model::save_model(model, &path).expect("save");
    let json = std::fs::read_to_string(&path).expect("read");
    let at = json.find(&format!("\"{field}\":")).expect("field present");
    let first = at + json[at..].find('[').expect("array") + 1;
    let mut end = first + json[first..].find([',', ']']).expect("value");
    if replacement.is_empty() {
        end += 1; // drop the separator with the value
    }
    let edited = format!("{}{replacement}{}", &json[..first], &json[end..]);
    std::fs::write(&path, edited).expect("write");
    let back = tcam::core::model::load_model::<TtcamModel>(&path).expect("still parses");
    std::fs::remove_file(&path).ok();
    back
}

/// The publish gate refuses each class of unservable model with a
/// typed error, both as `ModelSnapshot::try_new` and through
/// `OnlineEngine::publish`, which keeps the previous epoch serving.
#[test]
fn publish_gate_refuses_each_invalid_model_class() {
    use std::sync::Arc;
    use tcam::core::InvalidModel;
    use tcam::online::OnlineError;

    let data = SynthDataset::generate(tcam::data::synth::tiny(98)).unwrap();
    let c = &data.cuboid;
    let mut stream: Vec<Rating> = c.entries().to_vec();
    stream.sort_by_key(|r| (r.time, r.user, r.item));
    let config = OnlineConfig {
        fit: FitConfig::default()
            .with_user_topics(3)
            .with_time_topics(2)
            .with_iterations(3)
            .with_seed(98),
        policy: RefreshPolicy::manual(),
        ..Default::default()
    };
    let mut eng =
        OnlineEngine::bootstrap(c.num_users(), c.num_items(), c.num_times(), stream, config)
            .unwrap();
    let fitted = eng.model().clone();
    assert_eq!(fitted.validate(), Ok(()));
    let n = fitted.num_users();

    type Case = (&'static str, &'static str, fn(&InvalidModel) -> bool);
    let cases: [Case; 6] = [
        ("theta", "1e999", |e| matches!(e, InvalidModel::NonFinite { param: "theta", index: 0 })),
        ("background", "1e999", |e| {
            matches!(e, InvalidModel::NonFinite { param: "background", index: 0 })
        }),
        (
            "phi_t",
            "2.0",
            |e| matches!(e, InvalidModel::NotDistribution { param: "phi_t", row: 0, sum } if *sum > 2.0),
        ),
        ("theta_t", "-0.25", |e| {
            matches!(e, InvalidModel::NotDistribution { param: "theta_t", row: 0, .. })
        }),
        (
            "lambda",
            "1.5",
            |e| matches!(e, InvalidModel::LambdaOutOfRange { param: "lambda", index: 0, value } if *value == 1.5),
        ),
        ("lambda", "", |e| matches!(e, InvalidModel::Shape { param: "lambda", .. })),
    ];
    let serving = eng.serve().snapshot();
    let q = Query { user: UserId(0), time: TimeId(0), k: 3 };
    let before = eng.query(q);
    for (i, (field, replacement, is_expected)) in cases.into_iter().enumerate() {
        let label = format!("{field} <- {replacement:?}");
        let bad = corrupted(&fitted, field, replacement);
        let err = ModelSnapshot::try_new(bad.clone(), 2).expect_err(&label);
        assert!(is_expected(&err), "{label}: got {err:?}");
        if let InvalidModel::Shape { expected, found, .. } = err {
            assert_eq!((expected, found), (n, n - 1));
        }

        let refused = eng.publish(bad).expect_err(&label);
        assert!(matches!(&refused, OnlineError::Refused(e) if *e == err), "{label}: {refused:?}");
        assert_eq!(eng.rejected_refreshes(), i as u64 + 1);
        assert_eq!(eng.epoch(), 1, "{label}: a refused model was published");
        assert!(Arc::ptr_eq(&serving, &eng.serve().snapshot()), "{label}: snapshot swapped");
        let after = eng.query(q);
        assert_eq!((after.epoch, &after.items), (1, &before.items), "{label}");
    }
    // The untouched model still publishes, and refreshes resume.
    assert_eq!(eng.publish(fitted).expect("a fit passes the gate"), 2);
    assert_eq!(eng.refresh().expect("warm refresh").epoch, 3);
}
