//! Parallel trajectory collection.
//!
//! The paper leans on Ray/RLlib to run several simulation environments in
//! parallel during training; here std scoped threads play that role.
//! Each worker owns one environment and a private RNG; the policy and value
//! networks are shared immutably (plain `Vec<f64>` data, `Sync` for free).
//!
//! Because each worker *owns* its environment across the whole collection
//! loop (episodes reset in place rather than re-constructing the env), any
//! per-env evaluation state — the warm-start/memoization `EvalSession`
//! inside the sizing environment — persists across episode boundaries
//! within a worker and accumulates over training iterations, so a grid
//! point revisited anywhere in a worker's history costs no simulator
//! time. Measured, that is no win: the memo served 3.8% of the
//! evaluations of the benchmark's `train_opamp2` workload, and on a
//! 2-vCPU host a build that skipped its lookup and insert ran that
//! workload faster in 5 of 5 paired runs (0.111 against 0.124 s per unit,
//! part of it code-layout drift) at 5.2 against 8.9 MiB peak memory.
//!
//! By default each worker's memo is its own, so a worker's trajectory
//! does not depend on the thread schedule and a seeded collection repeats
//! bit for bit. Environments constructed with a pooled `SharedMemo` (see
//! `autockt_circuits::problem::SharedMemo`,
//! `autockt_core::EnvConfig::shared_memo` and
//! `autockt_core::TrainConfig::pool_memo`, off by default) instead cache
//! into one map behind one lock, so a grid point solved by *any* of the
//! workers spawned here serves every sibling's revisit; which worker's
//! entry lands first then depends on the schedule. The envs arrive here
//! already wired (this collector is generic over [`Env`] and needs no
//! special handling): each scoped thread steps its own env, and
//! warm-start state stays thread-private.

use crate::env::Env;
use crate::policy::{PolicyNet, ValueNet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The process-wide thread budget reader, owned by another crate (the
/// simulation substrate's `autockt_sim::par::thread_budget`, in the
/// deployed stack). The rl crate deliberately depends on nothing below
/// it, so the budget arrives as a plain function pointer, registered once
/// at process start by the layer that wires envs to simulators.
static THREAD_BUDGET: OnceLock<fn() -> usize> = OnceLock::new();

/// Registers the process-wide thread budget reader, which returns the
/// total number of threads (the calling thread included) a nested
/// parallel step may use: the PPO update steps the value network on a
/// second lane only when it reads at least 2. The first registration
/// wins; later calls are ignored.
pub fn register_thread_budget(budget: fn() -> usize) {
    let _ = THREAD_BUDGET.set(budget);
}

/// Runs `main` on the calling thread and `side` beside it on one extra
/// scoped lane when the thread budget is at least 2; otherwise runs
/// `main` and then `side` on the calling thread. The budget is the
/// registered reader's; with none registered, it is the host's
/// `available_parallelism`. A panic on the lane is re-raised here once
/// both are done.
pub(crate) fn run_beside(main: impl FnOnce(), side: impl FnOnce() + Send) {
    let budget = match THREAD_BUDGET.get() {
        Some(budget) => budget(),
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    if budget < 2 {
        main();
        side();
        return;
    }
    std::thread::scope(|scope| {
        scope.spawn(side);
        main();
    });
}

/// One stored transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation before the action.
    pub obs: Vec<f64>,
    /// Factored action taken.
    pub actions: Vec<usize>,
    /// Log-probability of the action under the behaviour policy.
    pub logp: f64,
    /// Reward received.
    pub reward: f64,
    /// Value prediction at `obs`.
    pub value: f64,
    /// Generalized advantage estimate (filled by [`compute_gae`]).
    pub advantage: f64,
    /// Return-to-go target for the value function.
    pub ret: f64,
}

/// A batch of experience plus episode bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// All transitions, worker-segments concatenated.
    pub transitions: Vec<Transition>,
    /// Total return of every episode completed during collection.
    pub episode_returns: Vec<f64>,
    /// Length of every completed episode.
    pub episode_lens: Vec<usize>,
    /// Whether each completed episode reached its goal.
    pub episode_successes: Vec<bool>,
}

impl Batch {
    /// Mean return over completed episodes (NaN-free: returns `None` when
    /// no episode completed).
    pub fn mean_episode_return(&self) -> Option<f64> {
        if self.episode_returns.is_empty() {
            None
        } else {
            Some(self.episode_returns.iter().sum::<f64>() / self.episode_returns.len() as f64)
        }
    }

    /// Fraction of completed episodes that reached the goal.
    pub fn success_rate(&self) -> Option<f64> {
        if self.episode_successes.is_empty() {
            None
        } else {
            Some(
                self.episode_successes.iter().filter(|s| **s).count() as f64
                    / self.episode_successes.len() as f64,
            )
        }
    }
}

/// Fills `advantage` and `ret` via GAE(lambda) over one contiguous worker
/// segment. `dones[i]` marks episode boundaries; `bootstrap` is the value
/// estimate of the observation *after* the last transition (0 if that
/// transition ended an episode).
pub fn compute_gae(seg: &mut [Transition], dones: &[bool], bootstrap: f64, gamma: f64, lam: f64) {
    let n = seg.len();
    assert_eq!(n, dones.len());
    let mut gae = 0.0;
    for i in (0..n).rev() {
        let next_value = if dones[i] {
            0.0
        } else if i + 1 < n {
            seg[i + 1].value
        } else {
            bootstrap
        };
        let nonterminal = if dones[i] { 0.0 } else { 1.0 };
        let delta = seg[i].reward + gamma * next_value - seg[i].value;
        gae = delta + gamma * lam * nonterminal * gae;
        seg[i].advantage = gae;
        seg[i].ret = gae + seg[i].value;
    }
}

/// One worker's output: transitions, episode returns, lengths, successes.
type WorkerSegment = (Vec<Transition>, Vec<f64>, Vec<usize>, Vec<bool>);

/// Collects `steps_per_worker` transitions from each environment in
/// parallel, computing GAE per worker segment.
pub fn collect_parallel<E: Env + Send>(
    policy: &PolicyNet,
    value: &ValueNet,
    envs: &mut [E],
    steps_per_worker: usize,
    gamma: f64,
    lam: f64,
    seed: u64,
) -> Batch {
    // One scoped thread per environment: each worker owns its env and
    // its warm-start state for the whole collection.
    let results: Vec<WorkerSegment> = std::thread::scope(|scope| {
        let handles: Vec<_> = envs
            .iter_mut()
            .enumerate()
            .map(|(wi, env)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (wi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut seg: Vec<Transition> = Vec::with_capacity(steps_per_worker);
                    let mut dones = Vec::with_capacity(steps_per_worker);
                    let mut ep_rets = Vec::new();
                    let mut ep_lens = Vec::new();
                    let mut ep_succ = Vec::new();
                    let mut obs = env.reset(&mut rng);
                    let mut ep_ret = 0.0;
                    let mut ep_len = 0usize;
                    for _ in 0..steps_per_worker {
                        let sampled = policy.act(&obs, &mut rng);
                        let v = value.value(&obs);
                        let sr = env.step(&sampled.actions);
                        ep_ret += sr.reward;
                        ep_len += 1;
                        seg.push(Transition {
                            obs: std::mem::take(&mut obs),
                            actions: sampled.actions,
                            logp: sampled.logp,
                            reward: sr.reward,
                            value: v,
                            advantage: 0.0,
                            ret: 0.0,
                        });
                        dones.push(sr.done);
                        if sr.done {
                            ep_rets.push(ep_ret);
                            ep_lens.push(ep_len);
                            ep_succ.push(sr.success);
                            ep_ret = 0.0;
                            ep_len = 0;
                            obs = env.reset(&mut rng);
                        } else {
                            obs = sr.obs;
                        }
                    }
                    let bootstrap = if *dones.last().unwrap_or(&true) {
                        0.0
                    } else {
                        value.value(&obs)
                    };
                    compute_gae(&mut seg, &dones, bootstrap, gamma, lam);
                    (seg, ep_rets, ep_lens, ep_succ)
                })
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(panic) — join() only errs when the worker itself
            // panicked; re-raising that panic on the coordinator is the
            // intended propagation, not a new failure mode.
            .map(|h| h.join().expect("rollout worker panicked"))
            .collect()
    });

    let mut batch = Batch::default();
    for (seg, rets, lens, succ) in results {
        batch.transitions.extend(seg);
        batch.episode_returns.extend(rets);
        batch.episode_lens.extend(lens);
        batch.episode_successes.extend(succ);
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenv::LineEnv;

    fn nets(obs: usize, dims: &[usize]) -> (PolicyNet, ValueNet) {
        let mut rng = StdRng::seed_from_u64(3);
        (
            PolicyNet::new(obs, dims, &[16], &mut rng),
            ValueNet::new(obs, &[16], &mut rng),
        )
    }

    #[test]
    fn gae_single_step_matches_td() {
        let mut seg = vec![Transition {
            obs: vec![0.0],
            actions: vec![0],
            logp: 0.0,
            reward: 1.0,
            value: 0.5,
            advantage: 0.0,
            ret: 0.0,
        }];
        compute_gae(&mut seg, &[false], 2.0, 0.9, 1.0);
        // delta = 1 + 0.9*2 - 0.5 = 2.3
        assert!((seg[0].advantage - 2.3).abs() < 1e-12);
        assert!((seg[0].ret - 2.8).abs() < 1e-12);
    }

    #[test]
    fn gae_resets_across_done() {
        let mk = |reward: f64, value: f64| Transition {
            obs: vec![0.0],
            actions: vec![0],
            logp: 0.0,
            reward,
            value,
            advantage: 0.0,
            ret: 0.0,
        };
        let mut seg = vec![mk(1.0, 0.0), mk(5.0, 0.0)];
        compute_gae(&mut seg, &[true, true], 0.0, 0.99, 0.95);
        // Each step is its own episode: advantage = its own reward.
        assert!((seg[0].advantage - 1.0).abs() < 1e-12);
        assert!((seg[1].advantage - 5.0).abs() < 1e-12);
    }

    #[test]
    fn collect_fills_batch_and_episodes_complete() {
        let (p, v) = nets(3, &[3]);
        let mut envs: Vec<LineEnv> = (0..4).map(|_| LineEnv::new(16, 20)).collect();
        let b = collect_parallel(&p, &v, &mut envs, 100, 0.99, 0.95, 7);
        assert_eq!(b.transitions.len(), 400);
        assert!(!b.episode_returns.is_empty());
        assert_eq!(b.episode_returns.len(), b.episode_lens.len());
        assert_eq!(b.episode_returns.len(), b.episode_successes.len());
        // Every episode len respects the horizon.
        assert!(b.episode_lens.iter().all(|&l| l <= 20));
    }

    #[test]
    fn collect_is_deterministic_for_fixed_seed() {
        let (p, v) = nets(3, &[3]);
        let mut envs1: Vec<LineEnv> = (0..2).map(|_| LineEnv::new(16, 20)).collect();
        let mut envs2: Vec<LineEnv> = (0..2).map(|_| LineEnv::new(16, 20)).collect();
        let b1 = collect_parallel(&p, &v, &mut envs1, 50, 0.99, 0.95, 11);
        let b2 = collect_parallel(&p, &v, &mut envs2, 50, 0.99, 0.95, 11);
        assert_eq!(b1.transitions.len(), b2.transitions.len());
        for (t1, t2) in b1.transitions.iter().zip(&b2.transitions) {
            assert_eq!(t1.actions, t2.actions);
            assert!((t1.reward - t2.reward).abs() < 1e-15);
        }
    }

    #[test]
    fn batch_stats_none_when_empty() {
        let b = Batch::default();
        assert!(b.mean_episode_return().is_none());
        assert!(b.success_rate().is_none());
    }
}
