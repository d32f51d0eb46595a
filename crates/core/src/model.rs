//! Model persistence.
//!
//! Fitted TCAM models serialize to JSON so the expensive offline training
//! stage (Section 5.5's Table 4) can be decoupled from online
//! recommendation; the query-efficiency study reloads models rather than
//! refitting.

use crate::{ModelError, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// Writes any serializable model as JSON to `path`.
pub fn save_model<M: serde::Serialize>(model: &M, path: &Path) -> Result<()> {
    let file = File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), model).map_err(|e| ModelError::Io(e.to_string()))
}

/// Reads a serialized model from JSON.
pub fn load_model<M: serde::de::DeserializeOwned>(path: &Path) -> Result<M> {
    let file = File::open(path)?;
    serde_json::from_reader(BufReader::new(file)).map_err(|e| ModelError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FitConfig;
    use crate::{ItcamModel, TtcamModel};
    use tcam_data::{synth, TimeId, UserId};

    #[test]
    fn ttcam_round_trips() {
        let data = synth::SynthDataset::generate(synth::tiny(30)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(3);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;

        let dir = std::env::temp_dir().join("tcam-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ttcam.json");
        save_model(&model, &path).unwrap();
        let back: TtcamModel = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(back.num_users(), model.num_users());
        let u = UserId(3);
        let t = TimeId(1);
        for v in 0..model.num_items() {
            assert_eq!(back.predict(u, t, v), model.predict(u, t, v));
        }
    }

    #[test]
    fn itcam_round_trips() {
        let data = synth::SynthDataset::generate(synth::tiny(31)).unwrap();
        let config = FitConfig::default().with_user_topics(3).with_iterations(3);
        let model = ItcamModel::fit(&data.cuboid, &config).unwrap().model;

        let dir = std::env::temp_dir().join("tcam-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("itcam.json");
        save_model(&model, &path).unwrap();
        let back: ItcamModel = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(back.lambdas(), model.lambdas());
    }

    #[test]
    fn load_missing_is_io_error() {
        assert!(matches!(
            load_model::<TtcamModel>(Path::new("/definitely/not/here.json")),
            Err(ModelError::Io(_))
        ));
    }
}
