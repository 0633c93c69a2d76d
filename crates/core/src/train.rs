//! The AutoCkt training loop (Fig. 3, left half).
//!
//! Fifty target specifications are sampled, parallel environments generate
//! trajectories against them, and PPO updates the agent until the mean
//! episode reward reaches zero — "meaning all target specifications are
//! consistently satisfied" (Sec. II-A) — or the iteration budget runs out.

use crate::env::{EnvConfig, SizingEnv, TargetMode};
use crate::target::training_targets;
use autockt_circuits::{SharedMemo, SimMode, SizingProblem};
use autockt_rl::env::Env;
use autockt_rl::ppo::{IterStats, Ppo, PpoConfig};
use autockt_rl::rollout::register_thread_budget;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Wires the PPO update to the process-wide thread budget
/// (`autockt_sim::par::thread_budget`): the update steps the value
/// network on a second lane only when the budget is at least 2, so
/// `autockt_sim::par::set_thread_budget(1)` keeps it on the calling
/// thread. Idempotent; called by [`train`], and callable directly by
/// deployments that run the update themselves.
pub fn wire_thread_budget() {
    register_thread_budget(autockt_sim::par::thread_budget);
}

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// PPO hyperparameters.
    pub ppo: PpoConfig,
    /// Parallel environment workers (the paper uses Ray on 8 cores).
    pub num_workers: usize,
    /// Trajectory horizon `H`.
    pub horizon: usize,
    /// Number of training targets (paper: 50, from a hyperparameter sweep).
    pub num_targets: usize,
    /// Draw training targets from feasible designs (guarantees the stopping
    /// rule is attainable) instead of uniformly from the spec box.
    pub feasible_targets: bool,
    /// Stop when the mean episode reward reaches this value (paper: 0).
    pub target_mean_reward: f64,
    /// Hard cap on PPO iterations.
    pub max_iters: usize,
    /// Simulation fidelity during training (schematic in the paper; PEX is
    /// only ever used at deployment, via transfer).
    pub mode: SimMode,
    /// Pool one concurrent evaluation memo across all rollout workers
    /// (default off): every grid point solved by any worker then serves
    /// every other worker's revisits. Warm-start state stays private per
    /// worker. Off, each worker evaluates through its own memo, so nothing
    /// a worker sees depends on the thread schedule and a seeded run
    /// repeats bit for bit. On, which worker's entry lands first depends
    /// on the schedule, and a pooled hit may serve specs solved from a
    /// sibling's warm trajectory, so runs agree only within solver
    /// tolerance.
    pub pool_memo: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            ppo: PpoConfig::default(),
            num_workers: 8,
            horizon: 30,
            num_targets: 50,
            feasible_targets: false,
            target_mean_reward: 8.0,
            max_iters: 60,
            mode: SimMode::Schematic,
            pool_memo: false,
            seed: 0,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The trained agent.
    pub agent: Ppo,
    /// Per-iteration statistics (the paper's Figs. 5/7/11 reward curves).
    pub curve: Vec<IterStats>,
    /// The training target set `O*`.
    pub targets: Vec<Vec<f64>>,
    /// Whether the stopping rule fired before the iteration cap.
    pub converged: bool,
    /// The evaluation memo pooled across rollout workers, with its hit
    /// counters; `None` unless [`TrainConfig::pool_memo`] was on.
    pub shared_memo: Option<Arc<SharedMemo>>,
}

impl TrainResult {
    /// Total environment steps (simulations) spent in training.
    pub fn env_steps(&self) -> usize {
        self.curve.last().map_or(0, |s| s.total_env_steps)
    }
}

/// Trains an AutoCkt agent on a sizing problem.
///
/// The returned agent's policy is what gets deployed — including, for
/// Table IV, deployed unchanged on the PEX environment (transfer learning,
/// Fig. 13).
pub fn train(problem: Arc<dyn SizingProblem>, cfg: &TrainConfig) -> TrainResult {
    wire_thread_budget();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let targets = training_targets(
        problem.as_ref(),
        cfg.num_targets,
        &mut rng,
        cfg.feasible_targets,
    );
    // With pooling on, one memo serves all rollout workers: any worker's
    // solve serves every other worker's revisit of that grid point.
    let shared_memo = cfg
        .pool_memo
        .then(|| Arc::new(SharedMemo::with_default_capacity()));
    let env_cfg = EnvConfig {
        horizon: cfg.horizon,
        mode: cfg.mode,
        target_mode: TargetMode::FixedSet(targets.clone()),
        shared_memo: shared_memo.clone(),
        ..EnvConfig::default()
    };
    let mut envs: Vec<SizingEnv> = (0..cfg.num_workers.max(1))
        .map(|_| SizingEnv::new(Arc::clone(&problem), env_cfg.clone()))
        .collect();
    let obs_dim = envs[0].obs_dim();
    let action_dims = envs[0].action_dims();
    let mut agent = Ppo::new(obs_dim, &action_dims, cfg.ppo.clone(), cfg.seed ^ 0xA5);

    let mut curve = Vec::with_capacity(cfg.max_iters);
    let mut converged = false;
    for _ in 0..cfg.max_iters {
        let stats = agent.train_iteration(&mut envs);
        let mean_r = stats.mean_episode_reward;
        curve.push(stats);
        if mean_r.is_finite() && mean_r >= cfg.target_mean_reward {
            converged = true;
            break;
        }
    }
    TrainResult {
        agent,
        curve,
        targets,
        converged,
        shared_memo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::Tia;

    /// A smoke test at a deliberately tiny budget: training machinery runs
    /// end-to-end and produces a curve. (Full-scale convergence is
    /// exercised by the bench binaries and integration tests in release
    /// mode.)
    #[test]
    fn training_smoke() {
        let cfg = TrainConfig {
            ppo: PpoConfig {
                steps_per_iter: 64,
                minibatch: 32,
                epochs: 2,
                ..PpoConfig::default()
            },
            num_workers: 2,
            horizon: 8,
            num_targets: 4,
            feasible_targets: true,
            max_iters: 2,
            target_mean_reward: f64::INFINITY, // never stop early
            pool_memo: true,
            ..TrainConfig::default()
        };
        let res = train(Arc::new(Tia::default()), &cfg);
        assert_eq!(res.curve.len(), 2);
        assert_eq!(res.targets.len(), 4);
        assert!(!res.converged);
        assert!(res.env_steps() >= 128);
        // Both workers restart episodes from the grid center, so the
        // pooled memo must have served at least one cross-worker revisit.
        let memo = res.shared_memo.expect("pooling on");
        assert!(memo.cross_hits() > 0, "no cross-worker hits pooled");
    }

    #[test]
    fn training_without_pooling_keeps_private_memos() {
        let cfg = TrainConfig {
            ppo: PpoConfig {
                steps_per_iter: 32,
                minibatch: 16,
                epochs: 1,
                ..PpoConfig::default()
            },
            num_workers: 2,
            horizon: 8,
            num_targets: 2,
            feasible_targets: true,
            max_iters: 1,
            pool_memo: false,
            target_mean_reward: f64::INFINITY,
            ..TrainConfig::default()
        };
        let res = train(Arc::new(Tia::default()), &cfg);
        assert!(res.shared_memo.is_none());
    }
}
