//! Proximal Policy Optimization (clipped surrogate) trainer.
//!
//! This is the algorithm the paper trains AutoCkt with (via RLlib); here it
//! is implemented directly on top of [`crate::mlp`]: advantage
//! normalization, minibatched epochs over the collected batch, entropy
//! bonus, value-function regression and global gradient-norm clipping.
//!
//! The policy and value networks share nothing but each epoch's shuffle:
//! separate losses, gradient clipping and Adam state. So each epoch steps
//! the policy on the calling thread and the value network on a second
//! lane when the thread budget grants one; the result is bitwise the same
//! either way.

use crate::env::Env;
use crate::mlp::Mlp;
use crate::policy::{GradBuffers, PolicyNet, ValueNet};
use crate::rollout::{collect_parallel, run_beside, Batch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// PPO clip radius.
const CLIP: f64 = 0.2;
/// Value-loss coefficient.
const VF_COEF: f64 = 0.5;
/// Global gradient-norm clip.
const MAX_GRAD_NORM: f64 = 0.5;
/// Adam learning rate.
const LR: f64 = 3e-4;

/// Hyperparameters for PPO.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Hidden layer sizes of both networks (paper: three 50-neuron layers).
    pub hidden: Vec<usize>,
    /// Environment steps collected per iteration (split across workers).
    pub steps_per_iter: usize,
    /// Minibatch size for gradient steps.
    pub minibatch: usize,
    /// Optimization epochs over each batch.
    pub epochs: usize,
    /// Discount factor.
    pub gamma: f64,
    /// GAE lambda.
    pub lam: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            hidden: vec![50, 50, 50],
            steps_per_iter: 2048,
            minibatch: 256,
            epochs: 8,
            gamma: 0.99,
            lam: 0.95,
            ent_coef: 5e-3,
        }
    }
}

/// Diagnostics from one training iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterStats {
    /// Mean return of episodes completed this iteration (the quantity the
    /// paper plots in Figs. 5, 7, 11). `NaN` if none completed.
    pub mean_episode_reward: f64,
    /// Number of completed episodes.
    pub episodes: usize,
    /// Fraction of completed episodes that reached the goal.
    pub success_rate: f64,
    /// Mean completed-episode length.
    pub mean_episode_len: f64,
    /// Mean policy entropy over the batch after the update.
    pub entropy: f64,
    /// Approximate KL(old || new) after the update.
    pub approx_kl: f64,
    /// Environment steps consumed so far (cumulative).
    pub total_env_steps: usize,
}

/// A PPO agent: policy, value function, optimizer state and config.
#[derive(Debug, Clone)]
pub struct Ppo {
    /// The stochastic policy being optimized.
    pub policy: PolicyNet,
    /// The value-function baseline.
    pub value: ValueNet,
    cfg: PpoConfig,
    rng: StdRng,
    total_env_steps: usize,
    iter: usize,
    /// The update's reusable buffers (policy, value). The first update
    /// allocates them, on the calling thread, so the value lane never
    /// allocates.
    bufs: Option<(GradBuffers, GradBuffers)>,
}

impl Ppo {
    /// Creates an agent for the given observation/action space.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.minibatch` is 0 or an action factor has no choices.
    pub fn new(obs_dim: usize, action_dims: &[usize], cfg: PpoConfig, seed: u64) -> Self {
        assert!(cfg.minibatch > 0, "need a minibatch of at least one sample");
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = PolicyNet::new(obs_dim, action_dims, &cfg.hidden, &mut rng);
        let value = ValueNet::new(obs_dim, &cfg.hidden, &mut rng);
        Ppo {
            policy,
            value,
            cfg,
            rng,
            total_env_steps: 0,
            iter: 0,
            bufs: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// Cumulative environment steps consumed.
    pub fn total_env_steps(&self) -> usize {
        self.total_env_steps
    }

    /// Runs one collect + update iteration over the given environments.
    pub fn train_iteration<E: Env + Send>(&mut self, envs: &mut [E]) -> IterStats {
        assert!(!envs.is_empty(), "need at least one environment");
        let steps_per_worker = self.cfg.steps_per_iter.div_ceil(envs.len());
        let seed = {
            use rand::Rng;
            self.rng.random::<u64>()
        };
        let mut batch = collect_parallel(
            &self.policy,
            &self.value,
            envs,
            steps_per_worker,
            self.cfg.gamma,
            self.cfg.lam,
            seed,
        );
        self.total_env_steps += batch.transitions.len();
        self.iter += 1;
        let (entropy, approx_kl) = self.update(&mut batch);
        IterStats {
            mean_episode_reward: batch.mean_episode_return().unwrap_or(f64::NAN),
            episodes: batch.episode_returns.len(),
            success_rate: batch.success_rate().unwrap_or(0.0),
            mean_episode_len: if batch.episode_lens.is_empty() {
                f64::NAN
            } else {
                batch.episode_lens.iter().sum::<usize>() as f64 / batch.episode_lens.len() as f64
            },
            entropy,
            approx_kl,
            total_env_steps: self.total_env_steps,
        }
    }

    /// Performs the PPO update on a collected batch. Returns
    /// `(mean entropy, approximate KL)` measured during the last epoch.
    pub fn update(&mut self, batch: &mut Batch) -> (f64, f64) {
        let n = batch.transitions.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        // Advantage normalization across the whole batch.
        let mean = batch.transitions.iter().map(|t| t.advantage).sum::<f64>() / n as f64;
        let var = batch
            .transitions
            .iter()
            .map(|t| (t.advantage - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        let std = var.sqrt().max(1e-8);
        for t in &mut batch.transitions {
            t.advantage = (t.advantage - mean) / std;
        }

        let (policy, value, cfg) = (&mut self.policy, &mut self.value, &self.cfg);
        let (pbufs, vbufs) = self.bufs.get_or_insert_with(|| {
            (
                GradBuffers::new(policy.net()),
                GradBuffers::new(value.net()),
            )
        });
        let transitions = &batch.transitions;
        let mut indices: Vec<usize> = (0..n).collect();
        let mut ent_sum = 0.0;
        let mut ent_count = 0usize;
        let mut kl_sum = 0.0;
        for epoch in 0..cfg.epochs {
            indices.shuffle(&mut self.rng);
            let last = epoch == cfg.epochs - 1;
            let minibatches = || indices.chunks(cfg.minibatch);
            run_beside(
                || {
                    for chunk in minibatches() {
                        policy.net_mut().zero_grad();
                        policy.ppo_grad(
                            pbufs,
                            transitions,
                            chunk,
                            CLIP,
                            cfg.ent_coef,
                            |t, logp_new, ent| {
                                if last {
                                    ent_sum += ent;
                                    kl_sum += t.logp - logp_new;
                                    ent_count += 1;
                                }
                            },
                        );
                        descend(policy.net_mut(), chunk.len());
                    }
                },
                || {
                    for chunk in minibatches() {
                        value.net_mut().zero_grad();
                        value.mse_grad(vbufs, transitions, chunk, VF_COEF);
                        descend(value.net_mut(), chunk.len());
                    }
                },
            );
        }
        if ent_count == 0 {
            (0.0, 0.0)
        } else {
            (ent_sum / ent_count as f64, kl_sum / ent_count as f64)
        }
    }
}

/// One optimizer step on a minibatch of `len` samples' accumulated
/// gradient: average, clip to the global norm bound, Adam.
fn descend(net: &mut Mlp, len: usize) {
    net.scale_grad(1.0 / len as f64);
    let gn = net.grad_norm();
    if gn > MAX_GRAD_NORM {
        net.scale_grad(MAX_GRAD_NORM / gn);
    }
    net.adam_step(LR);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenv::LineEnv;

    #[test]
    fn ppo_solves_line_env() {
        // The sanity benchmark for the whole learning stack: a policy must
        // learn to walk a 1-D grid to a sampled target within the horizon.
        let mut envs: Vec<LineEnv> = (0..4).map(|_| LineEnv::new(16, 24)).collect();
        let cfg = PpoConfig {
            steps_per_iter: 512,
            minibatch: 128,
            epochs: 6,
            ..PpoConfig::default()
        };
        let mut agent = Ppo::new(3, &[3], cfg, 12345);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..40 {
            let stats = agent.train_iteration(&mut envs);
            if stats.mean_episode_reward.is_finite() {
                best = best.max(stats.mean_episode_reward);
            }
        }
        // A random walk rarely hits the target (return ~ -2); a trained
        // policy should routinely collect the +10 bonus.
        assert!(best > 5.0, "best mean episode reward {best}");
    }

    #[test]
    fn stats_track_env_steps() {
        let mut envs: Vec<LineEnv> = (0..2).map(|_| LineEnv::new(8, 10)).collect();
        let cfg = PpoConfig {
            steps_per_iter: 64,
            minibatch: 32,
            epochs: 2,
            ..PpoConfig::default()
        };
        let mut agent = Ppo::new(3, &[3], cfg, 1);
        let s1 = agent.train_iteration(&mut envs);
        let s2 = agent.train_iteration(&mut envs);
        assert!(s2.total_env_steps > s1.total_env_steps);
        assert_eq!(agent.total_env_steps(), s2.total_env_steps);
    }

    #[test]
    fn update_on_empty_batch_is_noop() {
        let cfg = PpoConfig::default();
        let mut agent = Ppo::new(3, &[3], cfg, 2);
        let mut empty = Batch::default();
        let (e, k) = agent.update(&mut empty);
        assert_eq!((e, k), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "need a minibatch of at least one sample")]
    fn zero_minibatch_is_rejected_at_construction() {
        let cfg = PpoConfig {
            minibatch: 0,
            ..PpoConfig::default()
        };
        Ppo::new(3, &[3], cfg, 3);
    }
}
