//! Persistence round-trips across crates: datasets, weighting, and
//! fitted models must survive JSON serialization bit-for-bit so the
//! offline-training / online-serving split (paper Section 4) works.

use std::path::{Path, PathBuf};
use tcam::core::model::{load_model, save_model};
use tcam::core::{Tcam, TemporalParams};
use tcam::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tcam-integration-io");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn dataset_cuboid_round_trips() {
    let data = SynthDataset::generate(tcam::data::synth::tiny(41)).expect("gen");
    let path = tmp("cuboid.json");
    tcam::data::io::save_cuboid(&data.cuboid, &path).expect("save");
    let back = tcam::data::io::load_cuboid(&path).expect("load");
    assert_eq!(back.entries(), data.cuboid.entries());
    assert_eq!(back.num_users(), data.cuboid.num_users());
    assert_eq!(back.num_times(), data.cuboid.num_times());
    assert_eq!(back.num_items(), data.cuboid.num_items());
    // Index structures must be rebuilt identically: spot-check lookups.
    for r in data.cuboid.entries().iter().take(20) {
        assert_eq!(back.get(r.user, r.time, r.item), r.value);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn ground_truth_round_trips() {
    let data = SynthDataset::generate(tcam::data::synth::tiny(42)).expect("gen");
    let path = tmp("truth.json");
    tcam::data::io::save_json(&data.truth, &path).expect("save");
    let back: tcam::data::synth::GroundTruth = tcam::data::io::load_json(&path).expect("load");
    assert_eq!(back.lambda, data.truth.lambda);
    assert_eq!(back.events.len(), data.truth.events.len());
    assert_eq!(back.events[0].core_items, data.truth.events[0].core_items);
    std::fs::remove_file(&path).ok();
}

#[test]
fn weighting_round_trips() {
    let data = SynthDataset::generate(tcam::data::synth::tiny(43)).expect("gen");
    let weighting = ItemWeighting::compute(&data.cuboid);
    let path = tmp("weighting.json");
    tcam::data::io::save_json(&weighting, &path).expect("save");
    let back: ItemWeighting = tcam::data::io::load_json(&path).expect("load");
    for v in 0..data.cuboid.num_items() {
        let item = ItemId::from(v);
        assert_eq!(back.iuf(item), weighting.iuf(item));
        for t in 0..data.cuboid.num_times() {
            let time = TimeId::from(t);
            assert_eq!(back.bursty_degree(item, time), weighting.bursty_degree(item, time));
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn fitted_models_round_trip_and_predict_identically() {
    let data = SynthDataset::generate(tcam::data::synth::tiny(44)).expect("gen");
    let config = FitConfig::default()
        .with_user_topics(4)
        .with_time_topics(3)
        .with_iterations(5)
        .with_seed(44);

    let ttcam = TtcamModel::fit(&data.cuboid, &config).expect("fit").model;
    let path = tmp("ttcam.json");
    save_model(&ttcam, &path).expect("save");
    let back = load_model::<TtcamModel>(&path).expect("load");
    for u in (0..data.cuboid.num_users()).step_by(11) {
        for t in 0..data.cuboid.num_times() {
            for v in (0..data.cuboid.num_items()).step_by(7) {
                assert_eq!(
                    back.predict(UserId::from(u), TimeId::from(t), v),
                    ttcam.predict(UserId::from(u), TimeId::from(t), v)
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn both_variants_resave_byte_identically_in_one_layout() {
    let data = SynthDataset::generate(tcam::data::synth::tiny(46)).expect("gen");
    let config = FitConfig::default()
        .with_user_topics(4)
        .with_time_topics(3)
        .with_iterations(5)
        .with_seed(46)
        .with_background(0.1);
    let itcam = ItcamModel::fit(&data.cuboid, &config).expect("fit").model;
    let ttcam = TtcamModel::fit(&data.cuboid, &config).expect("fit").model;
    let shared = ["theta", "phi", "theta_t", "lambda", "background", "background_weight"];
    let mut ttcam_keys = shared.to_vec();
    ttcam_keys.insert(3, "phi_t");
    assert_resaves(
        &itcam,
        "itcam",
        &shared,
        |m, path| save_model(m, path).expect("save"),
        |path| load_model(path).expect("load"),
    );
    assert_resaves(
        &ttcam,
        "ttcam",
        &ttcam_keys,
        |m, path| save_model(m, path).expect("save"),
        |path| load_model(path).expect("load"),
    );
}

/// Save -> load -> save: both files are byte-identical, their top-level
/// keys are `keys` in order, and every parameter's bits survive.
fn assert_resaves<C: TemporalParams>(
    model: &Tcam<C>,
    name: &str,
    keys: &[&str],
    save: fn(&Tcam<C>, &Path),
    load: fn(&Path) -> Tcam<C>,
) {
    let (first, second) = (tmp(&format!("{name}-first.json")), tmp(&format!("{name}-second.json")));
    save(model, &first);
    let back = load(&first);
    save(&back, &second);
    let json = std::fs::read_to_string(&first).expect("read");
    assert_eq!(json, std::fs::read_to_string(&second).expect("read"), "{name} resave");
    assert_eq!(top_level_keys(&json), keys, "{name} layout");
    assert_eq!(param_bits(&back), param_bits(model), "{name} parameters");
    std::fs::remove_file(&first).ok();
    std::fs::remove_file(&second).ok();
}

/// The keys of a compact JSON object's outermost level (the model files
/// hold strings only as keys).
fn top_level_keys(json: &str) -> Vec<&str> {
    let mut keys = Vec::new();
    let mut depth = 0;
    let mut i = 0;
    while i < json.len() {
        match json.as_bytes()[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' => {
                let end = i + 1 + json[i + 1..].find('"').expect("closing quote");
                if depth == 1 {
                    keys.push(&json[i + 1..end]);
                }
                i = end;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

/// Every fitted parameter's dimensions and bits.
fn param_bits<C: TemporalParams>(m: &Tcam<C>) -> Vec<u64> {
    let (theta_t, factors) = (m.temporal().theta_t(), m.temporal().factors());
    let dims = [m.num_users(), m.num_user_topics(), m.num_items(), theta_t.rows(), theta_t.cols()]
        .into_iter()
        .chain([factors.rows(), factors.cols()])
        .map(|d| d as u64);
    let weight = m.background_weight();
    let values = (0..m.num_users())
        .map(|u| m.user_interest(UserId::from(u)))
        .chain((0..m.num_user_topics()).map(|z| m.user_topic(z)))
        .chain([theta_t.as_slice(), factors.as_slice(), m.lambdas(), m.background()])
        .chain([std::slice::from_ref(&weight)])
        .flatten()
        .map(|x| x.to_bits());
    dims.chain(values).collect()
}

#[test]
fn ta_index_identical_after_model_reload() {
    // The serving-side invariant: rebuild the TA index from a reloaded
    // model and get identical recommendations.
    let data = SynthDataset::generate(tcam::data::synth::tiny(45)).expect("gen");
    let config = FitConfig::default()
        .with_user_topics(4)
        .with_time_topics(3)
        .with_iterations(5)
        .with_seed(45);
    let model = TtcamModel::fit(&data.cuboid, &config).expect("fit").model;
    let path = tmp("serving.json");
    save_model(&model, &path).expect("save");
    let reloaded = load_model::<TtcamModel>(&path).expect("load");

    let index_a = TaIndex::build(&model);
    let index_b = TaIndex::build(&reloaded);
    for u in 0..5 {
        let a = index_a.top_k(&model, UserId(u), TimeId(1), 5);
        let b = index_b.top_k(&reloaded, UserId(u), TimeId(1), 5);
        let items_a: Vec<usize> = a.items.iter().map(|s| s.index).collect();
        let items_b: Vec<usize> = b.items.iter().map(|s| s.index).collect();
        assert_eq!(items_a, items_b);
    }
    std::fs::remove_file(&path).ok();
}
