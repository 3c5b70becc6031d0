//! Gaussian Mixture Model with diagonal covariance, fit by
//! Expectation–Maximization.
//!
//! Substrate for the GMMSchema baseline: k-means++ initialization,
//! log-sum-exp responsibilities, variance flooring, and BIC-based model
//! selection over the component count.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// EM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GmmConfig {
    /// Maximum EM iterations per fit.
    pub max_iters: usize,
    /// Convergence threshold on mean log-likelihood improvement.
    pub tol: f64,
    /// Variance floor (regularization). Binary presence features need a
    /// floor around 1e-2; a much smaller floor makes zero-variance
    /// dimensions dominate the likelihood and EM brittle.
    pub var_floor: f64,
    /// RNG seed (initialization is k-means++).
    pub seed: u64,
    /// Independent EM restarts; the best log-likelihood wins.
    pub restarts: usize,
}

impl Default for GmmConfig {
    fn default() -> Self {
        GmmConfig {
            max_iters: 50,
            tol: 1e-4,
            var_floor: 1e-2,
            seed: 17,
            restarts: 2,
        }
    }
}

/// A fitted diagonal-covariance Gaussian mixture.
#[derive(Debug, Clone)]
pub struct Gmm {
    /// Mixing weights (sum to 1).
    pub weights: Vec<f64>,
    /// Component means (k × dim).
    pub means: Vec<Vec<f64>>,
    /// Component variances (k × dim, floored).
    pub vars: Vec<Vec<f64>>,
}

impl Gmm {
    /// Number of components.
    pub fn k(&self) -> usize {
        self.weights.len()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.means.first().map_or(0, Vec::len)
    }

    /// Fit a `k`-component mixture to `data` (rows are observations),
    /// taking the best of `cfg.restarts` EM runs by log-likelihood.
    ///
    /// # Panics
    /// Panics if `k == 0`, data is empty, or rows have differing widths.
    pub fn fit(data: &[Vec<f64>], k: usize, cfg: &GmmConfig) -> Gmm {
        let runs = cfg.restarts.max(1);
        (0..runs)
            .map(|r| {
                Gmm::fit_once(
                    data,
                    k,
                    &GmmConfig {
                        seed: cfg.seed.wrapping_add(r as u64 * 0x51ed),
                        ..*cfg
                    },
                )
            })
            .max_by(|a, b| a.log_likelihood(data).total_cmp(&b.log_likelihood(data)))
            .expect("at least one run")
    }

    /// One EM run.
    fn fit_once(data: &[Vec<f64>], k: usize, cfg: &GmmConfig) -> Gmm {
        assert!(k > 0, "need at least one component");
        assert!(!data.is_empty(), "cannot fit to empty data");
        let dim = data[0].len();
        assert!(data.iter().all(|r| r.len() == dim), "ragged data");

        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut means = kmeanspp_init(data, k, &mut rng);
        let global_var = global_variance(data, cfg.var_floor);
        let mut vars = vec![global_var.clone(); k];
        let mut weights = vec![1.0 / k as f64; k];

        let n = data.len();
        let mut prev_ll = f64::NEG_INFINITY;
        let mut resp = vec![0.0f64; n * k];

        for _iter in 0..cfg.max_iters {
            // E step.
            let lls: Vec<f64> = resp
                .chunks_mut(k)
                .zip(data)
                .map(|(row_resp, x)| {
                    let logp: Vec<f64> = (0..k)
                        .map(|c| {
                            weights[c].max(1e-300).ln() + log_gaussian_diag(x, &means[c], &vars[c])
                        })
                        .collect();
                    let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let mut z = 0.0;
                    for (r, lp) in row_resp.iter_mut().zip(&logp) {
                        *r = (lp - mx).exp();
                        z += *r;
                    }
                    for r in row_resp.iter_mut() {
                        *r /= z;
                    }
                    mx + z.ln()
                })
                .collect();
            let ll: f64 = lls.iter().sum::<f64>() / n as f64;

            // M step.
            for c in 0..k {
                let nc: f64 = (0..n).map(|i| resp[i * k + c]).sum();
                let nc_safe = nc.max(1e-10);
                weights[c] = nc / n as f64;
                for d in 0..dim {
                    let mean: f64 =
                        (0..n).map(|i| resp[i * k + c] * data[i][d]).sum::<f64>() / nc_safe;
                    means[c][d] = mean;
                }
                for d in 0..dim {
                    let var: f64 = (0..n)
                        .map(|i| {
                            let diff = data[i][d] - means[c][d];
                            resp[i * k + c] * diff * diff
                        })
                        .sum::<f64>()
                        / nc_safe;
                    vars[c][d] = var.max(cfg.var_floor);
                }
            }

            if (ll - prev_ll).abs() < cfg.tol {
                break;
            }
            prev_ll = ll;
        }

        Gmm {
            weights,
            means,
            vars,
        }
    }

    /// Log-likelihood of the whole dataset under the mixture.
    pub fn log_likelihood(&self, data: &[Vec<f64>]) -> f64 {
        let rows: Vec<f64> = data
            .iter()
            .map(|x| {
                let logs: Vec<f64> = (0..self.k())
                    .map(|c| {
                        self.weights[c].max(1e-300).ln()
                            + log_gaussian_diag(x, &self.means[c], &self.vars[c])
                    })
                    .collect();
                let mx = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                mx + logs.iter().map(|l| (l - mx).exp()).sum::<f64>().ln()
            })
            .collect();
        run_sum(&rows)
    }

    /// Bayesian Information Criterion (lower is better): `-2·LL + p·ln N`
    /// with `p = k·(2·dim) + (k-1)` free parameters.
    pub fn bic(&self, data: &[Vec<f64>]) -> f64 {
        let p = (self.k() * 2 * self.dim() + (self.k() - 1)) as f64;
        -2.0 * self.log_likelihood(data) + p * (data.len() as f64).ln()
    }

    /// Most likely component for one observation.
    pub fn predict(&self, x: &[f64]) -> usize {
        (0..self.k())
            .map(|c| {
                (
                    c,
                    self.weights[c].max(1e-300).ln()
                        + log_gaussian_diag(x, &self.means[c], &self.vars[c]),
                )
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .expect("k > 0")
    }

    /// Fit mixtures for `k` in `k_min..=k_max` and return the BIC-best.
    /// The search stops early after two consecutive non-improvements —
    /// this is what makes GMM's runtime grow on noisy data (more distinct
    /// patterns → later stops).
    pub fn fit_select(data: &[Vec<f64>], k_min: usize, k_max: usize, cfg: &GmmConfig) -> Gmm {
        assert!(k_min >= 1 && k_min <= k_max);
        let mut best: Option<(f64, Gmm)> = None;
        let mut worse_streak = 0;
        for k in k_min..=k_max.min(data.len()) {
            let m = Gmm::fit(data, k, cfg);
            let bic = m.bic(data);
            match &best {
                Some((b, _)) if bic >= *b => {
                    worse_streak += 1;
                    if worse_streak >= 2 {
                        break;
                    }
                }
                _ => {
                    worse_streak = 0;
                    best = Some((bic, m));
                }
            }
        }
        best.expect("at least one k fitted").1
    }
}

/// Sum `terms` in 64 left-to-right runs of `len.div_ceil(64)` terms, then
/// the run totals left to right: the order every recorded GMM result was
/// computed in. A single run re-associates the floats and moves the last
/// bits of the log-likelihood, which the restart choice and the BIC read.
fn run_sum(terms: &[f64]) -> f64 {
    let run = terms.len().div_ceil(64).max(1);
    terms.chunks(run).map(|c| c.iter().sum::<f64>()).sum()
}

fn log_gaussian_diag(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..x.len() {
        let diff = x[d] - mean[d];
        acc += -0.5 * ((2.0 * std::f64::consts::PI * var[d]).ln() + diff * diff / var[d]);
    }
    acc
}

fn global_variance(data: &[Vec<f64>], floor: f64) -> Vec<f64> {
    let dim = data[0].len();
    let n = data.len() as f64;
    let mut mean = vec![0.0; dim];
    for row in data {
        for d in 0..dim {
            mean[d] += row[d];
        }
    }
    mean.iter_mut().for_each(|m| *m /= n);
    let mut var = vec![0.0; dim];
    for row in data {
        for d in 0..dim {
            let diff = row[d] - mean[d];
            var[d] += diff * diff;
        }
    }
    var.iter_mut().for_each(|v| *v = (*v / n).max(floor));
    var
}

/// k-means++ seeding: the first center uniform, subsequent centers
/// proportional to squared distance from the nearest chosen center.
fn kmeanspp_init(data: &[Vec<f64>], k: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
    let mut centers = Vec::with_capacity(k);
    centers.push(data[rng.gen_range(0..data.len())].clone());
    let mut d2: Vec<f64> = data.iter().map(|x| sq_dist(x, &centers[0])).collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= f64::EPSILON {
            rng.gen_range(0..data.len())
        } else {
            let mut pick = rng.gen::<f64>() * total;
            let mut chosen = data.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if pick < w {
                    chosen = i;
                    break;
                }
                pick -= w;
            }
            chosen
        };
        centers.push(data[idx].clone());
        for (i, x) in data.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(x, centers.last().expect("nonempty")));
        }
    }
    centers
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut data = Vec::new();
        for i in 0..n {
            let center = if i % 2 == 0 { 0.0 } else { 10.0 };
            data.push(vec![center + rng.gen::<f64>(), center - rng.gen::<f64>()]);
        }
        data
    }

    #[test]
    fn recovers_two_well_separated_blobs() {
        let data = two_blobs(200, 1);
        let m = Gmm::fit(&data, 2, &GmmConfig::default());
        // All even-index points share a component; odd the other.
        let c0 = m.predict(&data[0]);
        let c1 = m.predict(&data[1]);
        assert_ne!(c0, c1);
        let correct = data
            .iter()
            .enumerate()
            .filter(|(i, x)| m.predict(x) == if i % 2 == 0 { c0 } else { c1 })
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.99);
    }

    #[test]
    fn bic_selects_the_true_component_count() {
        let data = two_blobs(300, 2);
        let m = Gmm::fit_select(&data, 1, 6, &GmmConfig::default());
        assert_eq!(m.k(), 2, "BIC should pick 2 components");
    }

    #[test]
    fn weights_sum_to_one() {
        let data = two_blobs(100, 3);
        let m = Gmm::fit(&data, 3, &GmmConfig::default());
        let s: f64 = m.weights.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert!(m.vars.iter().flatten().all(|&v| v > 0.0));
    }

    #[test]
    fn single_component_centers_on_mean() {
        let data = vec![vec![1.0, 1.0], vec![3.0, 3.0]];
        let m = Gmm::fit(&data, 1, &GmmConfig::default());
        assert!((m.means[0][0] - 2.0).abs() < 1e-6);
        assert_eq!(m.weights, vec![1.0]);
    }

    #[test]
    fn degenerate_identical_points_do_not_crash() {
        let data = vec![vec![5.0, 5.0]; 30];
        let m = Gmm::fit(&data, 2, &GmmConfig::default());
        // Variance floored, predictions valid.
        let c = m.predict(&data[0]);
        assert!(c < 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        let _ = Gmm::fit(&[], 1, &GmmConfig::default());
    }

    #[test]
    fn deterministic_per_seed() {
        let data = two_blobs(80, 4);
        let a = Gmm::fit(&data, 2, &GmmConfig::default());
        let b = Gmm::fit(&data, 2, &GmmConfig::default());
        assert_eq!(a.means, b.means);
    }

    /// FNV-1a over the bits of every fitted parameter.
    fn model_bits(m: &Gmm) -> u64 {
        let params = m
            .weights
            .iter()
            .chain(m.means.iter().flatten())
            .chain(m.vars.iter().flatten());
        params.fold(0xcbf29ce484222325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x100000001b3)
        })
    }

    /// The fitted model and its log-likelihood keep their recorded bits.
    /// The log-likelihood sums per-row terms in 64 runs; summing them in
    /// one run instead moves its last bits, and through the
    /// best-of-restarts choice and the BIC it can move the model.
    #[test]
    fn fitted_bits_are_pinned() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let data: Vec<Vec<f64>> = (0..500)
            .map(|i| {
                let c = (i % 3) as f64 * 4.0;
                (0..3).map(|_| c + rng.gen::<f64>() * 3.0).collect()
            })
            .collect();
        let m = Gmm::fit(&data, 3, &GmmConfig::default());
        assert_eq!(model_bits(&m), 0x402a71c241cd3776);
        assert_eq!(m.log_likelihood(&data).to_bits(), 0xc0a3117845d31e1c);
    }
}
