//! `train_opamp2`: the paper's training loop on the two-stage op-amp.
//!
//! A round is everything `autockt_core::train` builds before its first
//! iteration, followed by a fixed number of iterations with the stopping
//! rule off. The end-to-end phase steps each iteration with
//! `Ppo::train_iteration`, the loop body of `train`. The traced run drives
//! the same loop through `collect_parallel` followed by `Ppo::update`, so
//! the collect/update boundary is visible.

use crate::phase::{mix, Budget, Phase};
use crate::trace::{self, TracedEnv, TracedProblem};
use autockt_circuits::{OpAmp2, SharedMemo, SimMode, SizingProblem};
use autockt_core::train::wire_thread_budget;
use autockt_core::{training_targets, EnvConfig, SizingEnv, TargetMode, TrainConfig};
use autockt_rl::env::Env;
use autockt_rl::ppo::{IterStats, Ppo, PpoConfig};
use autockt_rl::rollout::collect_parallel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Rollout workers: one per core of the 2-core reference host, so the
/// run measures the program rather than the scheduler.
pub const WORKERS: usize = 2;
/// PPO iterations per round.
pub const ITERS_PER_ROUND: usize = 4;

/// Paper-default training at a fixed iteration count.
pub fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        ppo: PpoConfig::default(),
        num_workers: WORKERS,
        horizon: 30,
        num_targets: 50,
        feasible_targets: false,
        target_mean_reward: f64::INFINITY,
        max_iters: ITERS_PER_ROUND,
        mode: SimMode::Schematic,
        pool_memo: true,
        seed,
    }
}

/// What `autockt_core::train` builds before its first iteration.
pub struct Setup {
    /// One environment per rollout worker.
    pub envs: Vec<SizingEnv>,
    /// The PPO agent.
    pub agent: Ppo,
    /// The evaluation memo pooled across the workers.
    pub memo: Arc<SharedMemo>,
}

/// Builds a round's targets, memo, environments and agent exactly as
/// `autockt_core::train` does.
pub fn setup(problem: Arc<dyn SizingProblem>, cfg: &TrainConfig) -> Setup {
    wire_thread_budget();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let targets = training_targets(
        problem.as_ref(),
        cfg.num_targets,
        &mut rng,
        cfg.feasible_targets,
    );
    let memo = Arc::new(SharedMemo::with_default_capacity());
    let env_cfg = EnvConfig {
        horizon: cfg.horizon,
        mode: cfg.mode,
        target_mode: TargetMode::FixedSet(targets),
        shared_memo: Some(Arc::clone(&memo)),
        ..EnvConfig::default()
    };
    let envs: Vec<SizingEnv> = (0..cfg.num_workers)
        .map(|_| SizingEnv::new(Arc::clone(&problem), env_cfg.clone()))
        .collect();
    let agent = Ppo::new(
        envs[0].obs_dim(),
        &envs[0].action_dims(),
        cfg.ppo.clone(),
        cfg.seed ^ 0xA5,
    );
    Setup { envs, agent, memo }
}

fn sim_count(envs: &[SizingEnv]) -> u64 {
    envs.iter().map(SizingEnv::sim_count).sum()
}

fn steps_per_iter(cfg: &TrainConfig) -> usize {
    cfg.ppo.steps_per_iter.div_ceil(cfg.num_workers) * cfg.num_workers
}

/// Nominal FLOPs of one PPO update sample: forward (2 per multiply-add)
/// and backward (4 per multiply-add) through the policy and value MLPs.
fn flops_per_sample(obs_dim: usize, n_logits: usize, hidden: &[usize]) -> f64 {
    let macs = |out: usize| {
        let mut sizes = vec![obs_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(out);
        sizes.windows(2).map(|w| w[0] * w[1]).sum::<usize>()
    };
    6.0 * (macs(n_logits) + macs(1)) as f64
}

fn check_curve(curve: &[IterStats], cfg: &TrainConfig, errors: &mut Vec<String>) {
    if curve.len() != cfg.max_iters {
        errors.push(format!(
            "train: curve has {} iterations, expected {}",
            curve.len(),
            cfg.max_iters
        ));
    }
    let want = cfg.max_iters * steps_per_iter(cfg);
    let got = curve.last().map_or(0, |s| s.total_env_steps);
    if got != want {
        errors.push(format!("train: {got} env steps, expected {want}"));
    }
    for (i, s) in curve.iter().enumerate() {
        let fields = [
            s.mean_episode_reward,
            s.success_rate,
            s.mean_episode_len,
            s.entropy,
            s.approx_kl,
        ];
        if !fields.iter().all(|v| v.is_finite()) {
            errors.push(format!(
                "train: iteration {i} has a non-finite statistic: {s:?}"
            ));
        }
    }
}

/// The end-to-end phase: rounds of `Ppo::train_iteration`.
pub fn e2e(seed: u64, budget: Budget) -> Phase {
    let mut ph = Phase::default();
    let started = Instant::now();
    while budget.more(ph.rounds, started) {
        let cfg = config(mix(seed, ph.rounds as u64));
        let problem = Arc::new(TracedProblem::new(Arc::new(OpAmp2::default())));
        let mut s = ph.setup(cfg.seed, |seed| setup(problem.clone(), &config(seed)));
        let mut curve = Vec::with_capacity(cfg.max_iters);
        for _ in 0..cfg.max_iters {
            let before = sim_count(&s.envs);
            let t = Instant::now();
            curve.push(s.agent.train_iteration(&mut s.envs));
            ph.unit(t.elapsed().as_secs_f64(), sim_count(&s.envs) - before);
        }
        check_curve(&curve, &cfg, &mut ph.errors);
        for e in &s.envs {
            ph.add_env(e);
        }
        ph.add_memo(&s.memo);
        ph.failed += problem.failures();
        ph.rounds += 1;
    }
    ph
}

/// One round of `train`'s loop driven through public calls: per
/// iteration, `collect_parallel` then `Ppo::update`.
fn public_round(agent: &mut Ppo, envs: &mut [TracedEnv], cfg: &TrainConfig, ph: &mut Phase) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC011EC7);
    let per_worker = cfg.ppo.steps_per_iter.div_ceil(envs.len());
    let flops = flops_per_sample(
        envs[0].obs_dim(),
        envs[0].action_dims().iter().sum(),
        &cfg.ppo.hidden,
    );
    for it in 0..cfg.max_iters {
        trace::set_run((ph.rounds * cfg.max_iters + it) as u64);
        let before: u64 = envs.iter().map(|e| e.inner.sim_count()).sum();
        let t = Instant::now();
        let iteration = trace::open("rl.iteration");
        let collect = trace::open("rl.collect");
        for e in envs.iter_mut() {
            e.context = collect.as_ref().map(trace::Open::context);
        }
        let mut batch = collect_parallel(
            &agent.policy,
            &agent.value,
            envs,
            per_worker,
            cfg.ppo.gamma,
            cfg.ppo.lam,
            rng.random(),
        );
        trace::close(collect, None);
        trace::span("rl.update", || agent.update(&mut batch));
        trace::close(iteration, None);
        let secs = t.elapsed().as_secs_f64();
        let after: u64 = envs.iter().map(|e| e.inner.sim_count()).sum();
        ph.unit(secs, after - before);
        let n = batch.transitions.len();
        if n != steps_per_iter(cfg) {
            ph.errors.push(format!(
                "train: collected {n} transitions, expected {}",
                steps_per_iter(cfg)
            ));
        }
        let samples = (n * cfg.ppo.epochs) as u64;
        ph.update_samples += samples;
        ph.update_flops += samples as f64 * flops;
        for e in envs.iter_mut() {
            ph.spans.append(&mut e.spans);
        }
    }
    ph.spans.append(&mut trace::drain());
}

/// Rounds of the public loop, spans recorded while tracing is on: the
/// untraced run and the traced rerun of the same rounds.
pub fn public(seed: u64, budget: Budget) -> Phase {
    let mut ph = Phase::default();
    let started = Instant::now();
    while budget.more(ph.rounds, started) {
        let cfg = config(mix(seed, ph.rounds as u64));
        let problem = Arc::new(TracedProblem::new(Arc::new(OpAmp2::default())));
        let s = ph.setup(cfg.seed, |seed| setup(problem.clone(), &config(seed)));
        let mut agent = s.agent;
        let mut envs: Vec<TracedEnv> = s.envs.into_iter().map(TracedEnv::new).collect();
        public_round(&mut agent, &mut envs, &cfg, &mut ph);
        for e in &envs {
            ph.add_env(&e.inner);
        }
        ph.add_memo(&s.memo);
        ph.failed += problem.failures();
        ph.rounds += 1;
    }
    ph
}
