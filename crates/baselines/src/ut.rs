//! The **UT** (user-topic) baseline of Section 5.2.
//!
//! An author-topic-style model (Rosen-Zvi et al., UAI 2004) with
//! background smoothing:
//!
//! `P(v | u; Psi) = lambda_B P(v | theta_B) + (1 - lambda_B) sum_z P(z | theta_u) P(v | phi_z)`
//!
//! It assumes rated items reflect intrinsic interest only — exactly the
//! assumption TCAM relaxes — and ignores all temporal information (the
//! cuboid is collapsed over time before fitting).

use crate::{BaselineError, Result};
use serde::{Deserialize, Serialize};
use tcam_data::{RatingCuboid, UserId};
use tcam_math::{Matrix, Pcg64};

/// UT fit configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtConfig {
    /// Number of latent topics.
    pub num_topics: usize,
    /// Background mixing weight `lambda_B`.
    pub background_weight: f64,
    /// EM iterations.
    pub max_iterations: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for UtConfig {
    fn default() -> Self {
        UtConfig { num_topics: 20, background_weight: 0.1, max_iterations: 50, seed: 0 }
    }
}

impl UtConfig {
    fn validate(&self) -> Result<()> {
        if self.num_topics == 0 {
            return Err(BaselineError::InvalidConfig {
                field: "num_topics",
                reason: "must be positive",
            });
        }
        if !(0.0..1.0).contains(&self.background_weight) {
            return Err(BaselineError::InvalidConfig {
                field: "background_weight",
                reason: "must be in [0, 1)",
            });
        }
        if self.max_iterations == 0 {
            return Err(BaselineError::InvalidConfig {
                field: "max_iterations",
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

/// A fitted user-topic model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserTopicModel {
    /// `theta[u][z]`, shape `N x K`.
    theta: Matrix,
    /// `phi[z][v]`, shape `K x V`.
    phi: Matrix,
    /// Background item distribution `theta_B`.
    background: Vec<f64>,
    /// `lambda_B`.
    background_weight: f64,
}

impl UserTopicModel {
    /// Fits UT with EM on the time-collapsed cuboid.
    pub fn fit(cuboid: &RatingCuboid, config: &UtConfig) -> Result<Self> {
        config.validate()?;
        if cuboid.nnz() == 0 {
            return Err(BaselineError::BadData("cuboid has no ratings"));
        }
        let n = cuboid.num_users();
        let v_dim = cuboid.num_items();
        let k = config.num_topics;
        let lam_b = config.background_weight;
        let background = crate::background::empirical_item_distribution(cuboid);

        // Collapse over time: (u, v) -> summed mass. User entries are
        // sorted by (t, v), so collect per user and merge by item.
        let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
        for u in 0..n {
            let mut items: Vec<(u32, f64)> =
                cuboid.user_entries(UserId::from(u)).iter().map(|r| (r.item.0, r.value)).collect();
            items.sort_unstable_by_key(|&(v, _)| v);
            let mut merged: Vec<(u32, f64)> = Vec::with_capacity(items.len());
            for (v, c) in items {
                match merged.last_mut() {
                    Some(last) if last.0 == v => last.1 += c,
                    _ => merged.push((v, c)),
                }
            }
            pairs.extend(merged.into_iter().map(|(v, c)| (u as u32, v, c)));
        }

        let mut rng = Pcg64::new(config.seed);
        let mut theta = Matrix::zeros(n, k);
        for u in 0..n {
            theta.row_mut(u).copy_from_slice(&crate::ut::random_distribution(k, &mut rng));
        }
        let mut phi_item = random_item_major(v_dim, k, &mut rng);

        let mut a = vec![0.0; k];
        for _ in 0..config.max_iterations {
            let mut theta_num = Matrix::zeros(n, k);
            let mut phi_num = Matrix::zeros(v_dim, k);
            for &(u, v, c) in &pairs {
                let (u, v) = (u as usize, v as usize);
                let theta_u = theta.row(u);
                let phi_v = phi_item.row(v);
                let mut a_sum = 0.0;
                for z in 0..k {
                    let val = theta_u[z] * phi_v[z];
                    a[z] = val;
                    a_sum += val;
                }
                let pm = (1.0 - lam_b) * a_sum;
                let denom = lam_b * background[v] + pm;
                if denom <= 0.0 || a_sum <= 0.0 {
                    continue;
                }
                let scale = c * (pm / denom) / a_sum;
                let theta_row = theta_num.row_mut(u);
                for z in 0..k {
                    theta_row[z] += scale * a[z];
                }
                let phi_row = phi_num.row_mut(v);
                for z in 0..k {
                    phi_row[z] += scale * a[z];
                }
            }
            for u in 0..n {
                let dst = theta.row_mut(u);
                dst.copy_from_slice(theta_num.row(u));
                tcam_math::vecops::normalize_in_place(dst);
            }
            column_normalize(&phi_num, &mut phi_item);
        }

        let mut phi = Matrix::zeros(k, v_dim);
        for v in 0..v_dim {
            for z in 0..k {
                phi.set(z, v, phi_item.get(v, z));
            }
        }
        Ok(UserTopicModel { theta, phi, background, background_weight: lam_b })
    }

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.phi.rows()
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.phi.cols()
    }

    /// `P(v | u)` — time-independent rating likelihood.
    pub fn predict(&self, user: UserId, item: usize) -> f64 {
        let theta_u = self.theta.row(user.index());
        let mixture: f64 = (0..self.num_topics()).map(|z| theta_u[z] * self.phi.get(z, item)).sum();
        self.background_weight * self.background[item] + (1.0 - self.background_weight) * mixture
    }

    /// Fills `scores[v] = P(v | u)` for all items.
    pub fn predict_all(&self, user: UserId, scores: &mut [f64]) {
        assert_eq!(scores.len(), self.num_items());
        scores.fill(0.0);
        let theta_u = self.theta.row(user.index());
        for z in 0..self.num_topics() {
            let w = (1.0 - self.background_weight) * theta_u[z];
            tcam_math::vecops::scaled_add(scores, self.phi.row(z), w);
        }
        tcam_math::vecops::scaled_add(scores, &self.background, self.background_weight);
    }

    /// A topic's item distribution `P(v | phi_z)`.
    pub fn topic(&self, z: usize) -> &[f64] {
        self.phi.row(z)
    }
}

pub(crate) fn random_distribution(len: usize, rng: &mut Pcg64) -> Vec<f64> {
    let mut d: Vec<f64> = (0..len).map(|_| 0.5 + rng.next_f64()).collect();
    tcam_math::vecops::normalize_in_place(&mut d);
    d
}

pub(crate) fn random_item_major(v_dim: usize, k: usize, rng: &mut Pcg64) -> Matrix {
    let mut m = Matrix::zeros(v_dim, k);
    let mut col_sums = vec![0.0; k];
    for v in 0..v_dim {
        for (z, cell) in m.row_mut(v).iter_mut().enumerate() {
            *cell = 0.5 + rng.next_f64();
            col_sums[z] += *cell;
        }
    }
    for v in 0..v_dim {
        for (z, cell) in m.row_mut(v).iter_mut().enumerate() {
            *cell /= col_sums[z];
        }
    }
    m
}

pub(crate) fn column_normalize(src: &Matrix, dst: &mut Matrix) {
    let v_dim = src.rows();
    let k = src.cols();
    let mut col_sums = vec![0.0; k];
    for v in 0..v_dim {
        for (z, &val) in src.row(v).iter().enumerate() {
            col_sums[z] += val;
        }
    }
    for v in 0..v_dim {
        let src_row = src.row(v);
        let dst_row = dst.row_mut(v);
        for z in 0..k {
            dst_row[z] =
                if col_sums[z] > 0.0 { src_row[z] / col_sums[z] } else { 1.0 / v_dim as f64 };
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use tcam_data::synth;

    fn fitted() -> UserTopicModel {
        let data = synth::SynthDataset::generate(synth::tiny(40)).unwrap();
        let config = UtConfig { num_topics: 4, max_iterations: 15, ..UtConfig::default() };
        UserTopicModel::fit(&data.cuboid, &config).unwrap()
    }

    #[test]
    fn rejects_bad_config() {
        let c = RatingCuboid::from_ratings(1, 1, 2, vec![]).unwrap();
        let mut cfg = UtConfig::default();
        cfg.num_topics = 0;
        assert!(UserTopicModel::fit(&c, &cfg).is_err());
        let mut cfg = UtConfig::default();
        cfg.background_weight = 1.0;
        assert!(UserTopicModel::fit(&c, &cfg).is_err());
    }

    #[test]
    fn rejects_empty_data() {
        let c = RatingCuboid::from_ratings(1, 1, 2, vec![]).unwrap();
        assert!(matches!(
            UserTopicModel::fit(&c, &UtConfig::default()),
            Err(BaselineError::BadData(_))
        ));
    }

    #[test]
    fn predictions_form_distribution() {
        let m = fitted();
        let mut scores = vec![0.0; m.num_items()];
        m.predict_all(UserId(0), &mut scores);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn predict_all_matches_predict() {
        let m = fitted();
        let mut scores = vec![0.0; m.num_items()];
        m.predict_all(UserId(3), &mut scores);
        for (v, &s) in scores.iter().enumerate() {
            assert!((s - m.predict(UserId(3), v)).abs() < 1e-12);
        }
    }

    #[test]
    fn topics_are_distributions() {
        let m = fitted();
        for z in 0..m.num_topics() {
            assert!(tcam_math::vecops::is_distribution(m.topic(z), 1e-8));
        }
    }

    #[test]
    fn personalization_differs_across_users() {
        let m = fitted();
        let mut a = vec![0.0; m.num_items()];
        let mut b = vec![0.0; m.num_items()];
        m.predict_all(UserId(0), &mut a);
        m.predict_all(UserId(1), &mut b);
        assert!(a.iter().zip(b.iter()).any(|(x, y)| (x - y).abs() > 1e-9));
    }
}
