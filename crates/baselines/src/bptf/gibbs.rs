//! The BPTF Gibbs sampler.
//!
//! Each sweep resamples, in order: the Gauss–Wishart hyperpriors of the
//! user and item factors, the Wishart prior of the time chain, then
//! every user, item, and time factor row from its Gaussian conditional.
//! The conditional for an entity with observation set `O` is
//!
//! `Lambda* = Lambda_prior + alpha * sum_{o in O} q_o q_oᵀ`
//! `mu*     = Lambda*^{-1} (Lambda_prior mu_prior + alpha * sum r_o q_o)`
//!
//! where `q_o` is the element-wise product of the other two modes'
//! factor rows. Time rows additionally couple to their chain neighbors.

use super::{BptfConfig, Observation};
use crate::Result;
use tcam_data::RatingCuboid;
use tcam_math::dist::{MultivariateNormal, Normal};
use tcam_math::{Matrix, Pcg64};

use super::hyper::{resample_chain_precision, FactorPrior};

/// Per-mode index: for each entity, the indices of its observations.
fn index_by<F: Fn(&Observation) -> usize>(
    obs: &[Observation],
    count: usize,
    key: F,
) -> Vec<Vec<u32>> {
    let mut index = vec![Vec::new(); count];
    for (i, o) in obs.iter().enumerate() {
        index[key(o)].push(i as u32);
    }
    index
}

/// Sampler state: factors, priors, observations, and indexes.
pub(crate) struct GibbsSampler {
    obs: Vec<Observation>,
    by_user: Vec<Vec<u32>>,
    by_item: Vec<Vec<u32>>,
    by_time: Vec<Vec<u32>>,
    u: Matrix,
    v: Matrix,
    t: Matrix,
    user_prior: FactorPrior,
    item_prior: FactorPrior,
    time_chain_precision: Matrix,
}

impl GibbsSampler {
    /// Initializes factors with small Gaussian noise and builds indexes.
    pub(crate) fn new(
        cuboid: &RatingCuboid,
        config: &BptfConfig,
        obs: Vec<Observation>,
        rng: &mut Pcg64,
    ) -> Result<Self> {
        let d = config.num_factors;
        let init = Normal::new(0.0, config.init_std).expect("validated init_std");
        let mut init_matrix = |rows: usize| {
            let mut m = Matrix::zeros(rows, d);
            for cell in m.as_mut_slice() {
                *cell = init.sample(rng);
            }
            m
        };
        let u = init_matrix(cuboid.num_users());
        let v = init_matrix(cuboid.num_items());
        let t = init_matrix(cuboid.num_times());

        let by_user = index_by(&obs, cuboid.num_users(), |o| o.user as usize);
        let by_item = index_by(&obs, cuboid.num_items(), |o| o.item as usize);
        let by_time = index_by(&obs, cuboid.num_times(), |o| o.time as usize);

        Ok(GibbsSampler {
            obs,
            by_user,
            by_item,
            by_time,
            u,
            v,
            t,
            user_prior: FactorPrior::identity(d),
            item_prior: FactorPrior::identity(d),
            time_chain_precision: Matrix::identity(d),
        })
    }

    /// Runs burn-in plus sampling sweeps; returns posterior-mean factors.
    pub(crate) fn run(
        mut self,
        config: &BptfConfig,
        rng: &mut Pcg64,
    ) -> Result<(Matrix, Matrix, Matrix)> {
        let d = config.num_factors;
        let mut mean_u = Matrix::zeros(self.u.rows(), d);
        let mut mean_v = Matrix::zeros(self.v.rows(), d);
        let mut mean_t = Matrix::zeros(self.t.rows(), d);

        let total = config.burn_in + config.num_samples;
        for sweep in 0..total {
            self.sweep(config, rng)?;
            if sweep >= config.burn_in {
                mean_u.add_assign(&self.u)?;
                mean_v.add_assign(&self.v)?;
                mean_t.add_assign(&self.t)?;
            }
        }
        let scale = 1.0 / config.num_samples as f64;
        mean_u.scale(scale);
        mean_v.scale(scale);
        mean_t.scale(scale);
        Ok((mean_u, mean_v, mean_t))
    }

    /// One full Gibbs sweep.
    fn sweep(&mut self, config: &BptfConfig, rng: &mut Pcg64) -> Result<()> {
        self.user_prior.resample(&self.u, rng)?;
        self.item_prior.resample(&self.v, rng)?;
        self.time_chain_precision = resample_chain_precision(&self.t, rng)?;

        self.sample_mode(Mode::User, config, rng)?;
        self.sample_mode(Mode::Item, config, rng)?;
        self.sample_time(config, rng)?;
        Ok(())
    }

    /// Resamples all rows of the user or item mode.
    fn sample_mode(&mut self, mode: Mode, config: &BptfConfig, rng: &mut Pcg64) -> Result<()> {
        let d = config.num_factors;
        let alpha = config.alpha;
        let (count, prior) = match mode {
            Mode::User => (self.u.rows(), self.user_prior.clone()),
            Mode::Item => (self.v.rows(), self.item_prior.clone()),
        };
        let prior_mu_term = prior.lambda.matvec(&prior.mu)?;

        let mut q = vec![0.0; d];
        for entity in 0..count {
            let obs_idx = match mode {
                Mode::User => &self.by_user[entity],
                Mode::Item => &self.by_item[entity],
            };
            let mut precision = prior.lambda.clone();
            let mut linear = prior_mu_term.clone();
            for &oi in obs_idx {
                let o = self.obs[oi as usize];
                match mode {
                    Mode::User => {
                        let vr = self.v.row(o.item as usize);
                        let tr = self.t.row(o.time as usize);
                        for ((qd, &a), &b) in q.iter_mut().zip(vr.iter()).zip(tr.iter()) {
                            *qd = a * b;
                        }
                    }
                    Mode::Item => {
                        let ur = self.u.row(o.user as usize);
                        let tr = self.t.row(o.time as usize);
                        for ((qd, &a), &b) in q.iter_mut().zip(ur.iter()).zip(tr.iter()) {
                            *qd = a * b;
                        }
                    }
                }
                precision.rank_one_update(&q, alpha)?;
                tcam_math::vecops::scaled_add(&mut linear, &q, alpha * o.value);
            }
            precision.symmetrize();
            let row = sample_gaussian_row(&precision, &linear, rng)?;
            match mode {
                Mode::User => self.u.row_mut(entity).copy_from_slice(&row),
                Mode::Item => self.v.row_mut(entity).copy_from_slice(&row),
            }
        }
        Ok(())
    }

    /// Resamples the time chain rows in order.
    fn sample_time(&mut self, config: &BptfConfig, rng: &mut Pcg64) -> Result<()> {
        let d = config.num_factors;
        let alpha = config.alpha;
        let t_dim = self.t.rows();
        let lam_t = &self.time_chain_precision;

        let mut q = vec![0.0; d];
        for k in 0..t_dim {
            // Chain prior: T_k ~ N(T_{k-1}, Lam^{-1}) (T_{-1} := 0) and,
            // if k+1 exists, T_{k+1} ~ N(T_k, Lam^{-1}).
            let links = if k + 1 < t_dim { 2.0 } else { 1.0 };
            let mut precision = lam_t.clone();
            precision.scale(links);
            let mut neighbor_sum = vec![0.0; d];
            if k > 0 {
                for (s, &x) in neighbor_sum.iter_mut().zip(self.t.row(k - 1).iter()) {
                    *s += x;
                }
            }
            if k + 1 < t_dim {
                for (s, &x) in neighbor_sum.iter_mut().zip(self.t.row(k + 1).iter()) {
                    *s += x;
                }
            }
            let mut linear = lam_t.matvec(&neighbor_sum)?;

            for &oi in &self.by_time[k] {
                let o = self.obs[oi as usize];
                let ur = self.u.row(o.user as usize);
                let vr = self.v.row(o.item as usize);
                for ((qd, &a), &b) in q.iter_mut().zip(ur.iter()).zip(vr.iter()) {
                    *qd = a * b;
                }
                precision.rank_one_update(&q, alpha)?;
                tcam_math::vecops::scaled_add(&mut linear, &q, alpha * o.value);
            }
            precision.symmetrize();
            let row = sample_gaussian_row(&precision, &linear, rng)?;
            self.t.row_mut(k).copy_from_slice(&row);
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum Mode {
    User,
    Item,
}

/// Samples from `N(Lambda^{-1} b, Lambda^{-1})` given precision `Lambda`
/// and linear term `b`.
fn sample_gaussian_row(precision: &Matrix, linear: &[f64], rng: &mut Pcg64) -> Result<Vec<f64>> {
    let chol = tcam_math::Cholesky::new(precision)?;
    let mean = chol.solve(linear)?;
    Ok(MultivariateNormal::from_precision(mean, precision)?.sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_row_mean_matches_solve() {
        // With huge precision the sample collapses onto the mean.
        let mut precision = Matrix::identity(3);
        precision.scale(1e8);
        let linear = vec![1e8 * 2.0, -1e8, 1e8 * 0.5];
        let mut rng = Pcg64::new(70);
        let row = sample_gaussian_row(&precision, &linear, &mut rng).unwrap();
        assert!((row[0] - 2.0).abs() < 1e-2);
        assert!((row[1] + 1.0).abs() < 1e-2);
        assert!((row[2] - 0.5).abs() < 1e-2);
    }

    #[test]
    fn index_by_partitions() {
        let obs = vec![
            Observation { user: 0, item: 1, time: 0, value: 1.0 },
            Observation { user: 1, item: 0, time: 1, value: 1.0 },
            Observation { user: 0, item: 2, time: 1, value: 0.0 },
        ];
        let by_user = index_by(&obs, 2, |o| o.user as usize);
        assert_eq!(by_user[0], vec![0, 2]);
        assert_eq!(by_user[1], vec![1]);
        let total: usize = by_user.iter().map(|v| v.len()).sum();
        assert_eq!(total, obs.len());
    }
}
