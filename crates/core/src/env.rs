//! The AutoCkt sizing environment.
//!
//! Implements the trajectory mechanics of Fig. 2: on reset the parameters
//! start at the grid center `K/2` and a target specification is drawn; each
//! step the agent outputs decrement/keep/increment for every parameter, the
//! circuit is simulated, and the Eq. 1 reward is granted. The episode ends
//! on success (`r >= -0.01`, with a +10 bonus) or after `H` steps.

use crate::reward::{is_success, reward, SIM_FAIL_REWARD, SUCCESS_BONUS};
use crate::target::sample_uniform;
use autockt_circuits::{EvalSession, SharedMemo, SimMode, SizingProblem};
use autockt_rl::env::{Env, StepResult};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// How the environment draws targets on reset.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetMode {
    /// Uniform over each spec's declared range.
    Uniform,
    /// Cycle through a fixed set (the training set `O*`), selected at
    /// random each episode as in the paper.
    FixedSet(Vec<Vec<f64>>),
}

/// Configuration of a [`SizingEnv`].
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Maximum trajectory length `H` (paper: 30 for the op-amp).
    pub horizon: usize,
    /// Simulation fidelity.
    pub mode: SimMode,
    /// Target sampling strategy.
    pub target_mode: TargetMode,
    /// Terminal bonus granted on success (paper: +10; the reward-shaping
    /// ablation sets this to 0).
    pub success_bonus: f64,
    /// Pool the memo across environments: when set, this env's session
    /// caches into (and serves revisits from) the given memo instead of
    /// its own, so parallel rollout workers share every solved grid
    /// point. Warm-start state stays private per env, so a pooled hit may
    /// serve specs solved from a sibling's warm trajectory — identical to
    /// a private run within solver tolerance. Without it, the env
    /// memoizes into a memo of its own.
    pub shared_memo: Option<Arc<SharedMemo>>,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            horizon: 30,
            mode: SimMode::Schematic,
            target_mode: TargetMode::Uniform,
            success_bonus: SUCCESS_BONUS,
            shared_memo: None,
        }
    }
}

/// The sizing environment: one episode = one attempt to walk the parameter
/// grid from the center to a design meeting the drawn target.
#[derive(Clone)]
pub struct SizingEnv {
    session: EvalSession,
    cfg: EnvConfig,
    cards: Vec<usize>,
    idx: Vec<usize>,
    target: Vec<f64>,
    last_specs: Vec<f64>,
    last_sim_failed: bool,
    t: usize,
}

impl std::fmt::Debug for SizingEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizingEnv")
            .field("problem", &self.problem().name())
            .field("idx", &self.idx)
            .field("target", &self.target)
            .field("t", &self.t)
            .finish()
    }
}

impl SizingEnv {
    /// Creates an environment over a sizing problem.
    pub fn new(problem: Arc<dyn SizingProblem>, cfg: EnvConfig) -> Self {
        let cards = problem.cardinalities();
        let nspecs = problem.specs().len();
        let mut session = EvalSession::new(problem, cfg.mode);
        if let Some(memo) = &cfg.shared_memo {
            session = session.with_shared_memo(Arc::clone(memo));
        }
        SizingEnv {
            session,
            cfg,
            cards: cards.clone(),
            idx: cards.iter().map(|k| k / 2).collect(),
            target: vec![0.0; nspecs],
            last_specs: vec![0.0; nspecs],
            last_sim_failed: false,
            t: 0,
        }
    }

    /// The problem being sized.
    pub fn problem(&self) -> &Arc<dyn SizingProblem> {
        self.session.problem()
    }

    /// Total simulations requested (the paper's sample-efficiency unit —
    /// every env evaluation counts, whether it hit the memo cache or ran
    /// the solver; see [`SizingEnv::solve_count`] for solver work actually
    /// spent).
    pub fn sim_count(&self) -> u64 {
        self.solve_count() + self.memo_hits()
    }

    /// Evaluations that actually ran the simulator (memo misses).
    pub fn solve_count(&self) -> u64 {
        self.session.solve_count()
    }

    /// Evaluations served from the memo cache.
    pub fn memo_hits(&self) -> u64 {
        self.session.memo_hits()
    }

    /// Shared-memo hits served from a grid point solved by a *different*
    /// worker (always 0 without [`EnvConfig::shared_memo`]).
    pub fn cross_memo_hits(&self) -> u64 {
        self.session.cross_memo_hits()
    }

    /// Current parameter indices.
    pub fn param_indices(&self) -> &[usize] {
        &self.idx
    }

    /// Most recent measured specs.
    pub fn last_specs(&self) -> &[f64] {
        &self.last_specs
    }

    /// The active target specification.
    pub fn target(&self) -> &[f64] {
        &self.target
    }

    /// Starts an episode against an explicit target (deployment entry
    /// point; [`Env::reset`] samples one instead).
    pub fn reset_with_target(&mut self, target: Vec<f64>) -> Vec<f64> {
        assert_eq!(target.len(), self.problem().specs().len());
        self.target = target;
        self.idx = self.cards.iter().map(|k| k / 2).collect();
        self.t = 0;
        // New episode: the previous operating point is no longer adjacent
        // to the (re-centered) design, so warm state is dropped; the memo
        // cache survives because the grid -> specs map is episode-invariant.
        self.session.reset_warm();
        self.simulate_current();
        self.observation()
    }

    fn simulate_current(&mut self) {
        match self.session.evaluate(&self.idx) {
            Ok(specs) => {
                self.last_specs = specs;
                self.last_sim_failed = false;
            }
            Err(_) => {
                self.last_specs = self
                    .problem()
                    .specs()
                    .iter()
                    .map(|s| s.fail_value)
                    .collect();
                self.last_sim_failed = true;
            }
        }
    }

    /// Whether the most recent evaluation failed outright (no operating
    /// point); `last_specs` then holds each spec's `fail_value`. Lets
    /// deployment report an unreachable design point instead of treating
    /// pessimistic placeholder specs as a measurement.
    pub fn last_sim_failed(&self) -> bool {
        self.last_sim_failed
    }

    /// Observation layout: `[n(o_m, o*_m)]_m ++ [scaled targets]_m ++
    /// [scaled params]_n` — the paper's (observed performance, target,
    /// current parameters) triple, all in O(1) ranges.
    fn observation(&self) -> Vec<f64> {
        let specs = self.problem().specs();
        let mut obs = Vec::with_capacity(2 * specs.len() + self.idx.len());
        for (o, t) in self.last_specs.iter().zip(&self.target) {
            obs.push(crate::reward::normalize(*o, *t));
        }
        for (d, t) in specs.iter().zip(&self.target) {
            let span = d.hi - d.lo;
            obs.push(if span.abs() < f64::EPSILON {
                0.0
            } else {
                2.0 * (t - d.lo) / span - 1.0
            });
        }
        for (i, k) in self.idx.iter().zip(&self.cards) {
            obs.push(2.0 * *i as f64 / (*k as f64 - 1.0).max(1.0) - 1.0);
        }
        obs
    }

    fn current_reward(&self) -> f64 {
        // A fail-value spec vector produces a very negative Eq. 1 value on
        // its own, but an unsolvable operating point is reported even more
        // pessimistically. A design that solves is scored by Eq. 1 even
        // when every measurement fell back to its fail value.
        if self.last_sim_failed {
            SIM_FAIL_REWARD
        } else {
            reward(self.problem().specs(), &self.last_specs, &self.target)
        }
    }
}

impl Env for SizingEnv {
    fn obs_dim(&self) -> usize {
        2 * self.problem().specs().len() + self.cards.len()
    }

    fn action_dims(&self) -> Vec<usize> {
        vec![3; self.cards.len()]
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let target = match &self.cfg.target_mode {
            TargetMode::Uniform => sample_uniform(self.problem().as_ref(), rng),
            TargetMode::FixedSet(set) => {
                assert!(!set.is_empty(), "empty target set");
                set[rng.random_range(0..set.len())].clone()
            }
        };
        self.reset_with_target(target)
    }

    fn step(&mut self, action: &[usize]) -> StepResult {
        assert_eq!(action.len(), self.idx.len(), "wrong action arity");
        for ((i, k), a) in self.idx.iter_mut().zip(&self.cards).zip(action) {
            let delta = *a as i64 - 1;
            let next = *i as i64 + delta;
            *i = next.clamp(0, *k as i64 - 1) as usize;
        }
        self.t += 1;
        self.simulate_current();
        let r = self.current_reward();
        let success = is_success(r);
        let reward = if success {
            self.cfg.success_bonus + r
        } else {
            r
        };
        StepResult {
            obs: self.observation(),
            reward,
            done: success || self.t >= self.cfg.horizon,
            success,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::Tia;
    use autockt_sim::SimError;
    use rand::SeedableRng;

    fn env(target_mode: TargetMode) -> SizingEnv {
        SizingEnv::new(
            Arc::new(Tia::default()),
            EnvConfig {
                horizon: 10,
                target_mode,
                ..EnvConfig::default()
            },
        )
    }

    #[test]
    fn obs_dim_matches_layout() {
        let e = env(TargetMode::Uniform);
        // TIA: 3 specs, 6 params -> 3 + 3 + 6 = 12.
        assert_eq!(e.obs_dim(), 12);
        assert_eq!(e.action_dims(), vec![3; 6]);
    }

    #[test]
    fn reset_centers_parameters() {
        let mut e = env(TargetMode::Uniform);
        let mut rng = StdRng::seed_from_u64(5);
        let obs = e.reset(&mut rng);
        assert_eq!(obs.len(), e.obs_dim());
        let cards = e.problem().cardinalities();
        for (i, k) in e.param_indices().iter().zip(&cards) {
            assert_eq!(*i, k / 2);
        }
        assert!(obs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn step_clamps_at_grid_edges() {
        let mut e = env(TargetMode::Uniform);
        let mut rng = StdRng::seed_from_u64(6);
        e.reset(&mut rng);
        // Push all decrements many times: indices must pin at 0.
        for _ in 0..40 {
            e.step(&[0, 0, 0, 0, 0, 0]);
        }
        assert!(e.param_indices().iter().all(|&i| i == 0));
    }

    #[test]
    fn keep_actions_do_not_move_parameters() {
        let mut e = env(TargetMode::Uniform);
        let mut rng = StdRng::seed_from_u64(7);
        e.reset(&mut rng);
        let before = e.param_indices().to_vec();
        e.step(&[1; 6]);
        assert_eq!(e.param_indices(), &before[..]);
    }

    #[test]
    fn horizon_terminates_episode() {
        let mut e = env(TargetMode::Uniform);
        let mut rng = StdRng::seed_from_u64(8);
        // A target at the very edge of all ranges is unlikely reachable in
        // 10 keep-steps; the episode must still end.
        e.reset(&mut rng);
        let mut done = false;
        for _ in 0..10 {
            let sr = e.step(&[1; 6]);
            done = sr.done;
            if done {
                break;
            }
        }
        assert!(done, "episode must terminate at the horizon");
    }

    #[test]
    fn reaching_a_self_target_succeeds_immediately() {
        // Target = specs of the center design: the first step with all
        // "keep" actions must succeed (reward ~ 0 plus bonus).
        let mut e = env(TargetMode::Uniform);
        let center: Vec<usize> = e.problem().cardinalities().iter().map(|k| k / 2).collect();
        let specs = e
            .problem()
            .simulate(&center, SimMode::Schematic)
            .expect("center simulates");
        e.reset_with_target(specs);
        let sr = e.step(&[1; 6]);
        assert!(sr.success, "self-target must be satisfied");
        assert!(sr.reward > 9.0, "bonus applied, got {}", sr.reward);
    }

    #[test]
    fn sim_count_increments_per_step() {
        let mut e = env(TargetMode::Uniform);
        let mut rng = StdRng::seed_from_u64(9);
        e.reset(&mut rng);
        let c0 = e.sim_count();
        e.step(&[1; 6]);
        e.step(&[1; 6]);
        assert_eq!(e.sim_count(), c0 + 2);
    }

    #[test]
    fn memoized_revisits_do_not_resolve() {
        let mut e = env(TargetMode::Uniform);
        let mut rng = StdRng::seed_from_u64(12);
        e.reset(&mut rng);
        assert_eq!(e.solve_count(), 1);
        // Keep actions stay on the same grid point: memo hits, no solves.
        e.step(&[1; 6]);
        e.step(&[1; 6]);
        assert_eq!(e.solve_count(), 1);
        assert_eq!(e.memo_hits(), 2);
        assert_eq!(e.sim_count(), 3);
    }

    #[test]
    fn memo_survives_episode_reset() {
        let mut e = env(TargetMode::Uniform);
        let mut rng = StdRng::seed_from_u64(13);
        e.reset(&mut rng);
        let solves = e.solve_count();
        // A new episode re-simulates the center design: memo hit.
        e.reset(&mut rng);
        assert_eq!(e.solve_count(), solves);
        assert!(e.memo_hits() >= 1);
    }

    /// The warm-started env's rewards against the pure cold reference:
    /// the same walk re-scored from `SizingProblem::simulate` at every
    /// visited grid point.
    #[test]
    fn cold_env_matches_warm_env_rewards() {
        let mut warm = SizingEnv::new(
            Arc::new(Tia::default()),
            EnvConfig {
                horizon: 10,
                target_mode: TargetMode::Uniform,
                ..EnvConfig::default()
            },
        );
        let target = {
            let mut rng = StdRng::seed_from_u64(14);
            crate::target::sample_uniform(warm.problem().as_ref(), &mut rng)
        };
        warm.reset_with_target(target);
        let cold_reward = |e: &SizingEnv| {
            let specs = e
                .problem()
                .simulate(e.param_indices(), SimMode::Schematic)
                .unwrap();
            let r = reward(e.problem().specs(), &specs, e.target());
            if is_success(r) {
                r + SUCCESS_BONUS
            } else {
                r
            }
        };
        let walk = [[0, 1, 2, 1, 0, 2], [2, 1, 0, 1, 2, 0], [1, 1, 1, 1, 1, 1]];
        for a in walk.iter().cycle().take(9) {
            let rw = warm.step(a);
            let rc = cold_reward(&warm);
            assert!(
                (rc - rw.reward).abs() < 1e-6 * (1.0 + rc.abs()),
                "cold {} vs warm {}",
                rc,
                rw.reward
            );
        }
    }

    #[test]
    fn shared_memo_pools_revisits_across_envs() {
        use autockt_circuits::SharedMemo;
        let memo = Arc::new(SharedMemo::new(4096));
        let mk = || {
            SizingEnv::new(
                Arc::new(Tia::default()),
                EnvConfig {
                    horizon: 10,
                    target_mode: TargetMode::Uniform,
                    shared_memo: Some(Arc::clone(&memo)),
                    ..EnvConfig::default()
                },
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut rng = StdRng::seed_from_u64(21);
        // Env a solves the center design on reset; env b's reset (same
        // center start) is served from the pooled memo without a solve.
        a.reset(&mut rng);
        assert_eq!(a.solve_count(), 1);
        b.reset(&mut rng);
        assert_eq!(b.solve_count(), 0);
        assert_eq!(b.cross_memo_hits(), 1);
        assert!(memo.cross_hits() >= 1);
    }

    /// One parameter, one `HardMin` spec: index 0 cannot be solved, and
    /// every other index solves but fails its measurement.
    struct FailingProblem {
        params: Vec<autockt_circuits::ParamSpec>,
        specs: Vec<autockt_circuits::SpecDef>,
    }

    impl SizingProblem for FailingProblem {
        fn name(&self) -> &'static str {
            "failing"
        }

        fn params(&self) -> &[autockt_circuits::ParamSpec] {
            &self.params
        }

        fn specs(&self) -> &[autockt_circuits::SpecDef] {
            &self.specs
        }

        fn simulate(&self, idx: &[usize], _mode: SimMode) -> Result<Vec<f64>, SimError> {
            if idx[0] == 0 {
                Err(SimError::InvalidOptions { what: "unsolvable" })
            } else {
                Ok(self.specs.iter().map(|d| d.fail_value).collect())
            }
        }
    }

    #[test]
    fn only_an_unsolvable_design_gets_the_failure_reward() {
        use autockt_circuits::{ParamSpec, SpecDef, SpecKind};
        let problem = FailingProblem {
            params: vec![ParamSpec::swept("p", 0.0, 2.0, 1.0, 1.0)],
            specs: vec![SpecDef {
                name: "gain",
                unit: "",
                kind: SpecKind::HardMin,
                lo: 0.5,
                hi: 2.0,
                fail_value: 0.0,
            }],
        };
        let mut e = SizingEnv::new(Arc::new(problem), EnvConfig::default());
        let target = vec![1.0];
        e.reset_with_target(target.clone());
        // Center index 1 solves, with every spec at its fail value: Eq. 1.
        let sr = e.step(&[1]);
        assert!(!e.last_sim_failed());
        assert_eq!(sr.reward, reward(e.problem().specs(), &[0.0], &target));
        assert_ne!(sr.reward, SIM_FAIL_REWARD);
        // Index 0 has no operating point.
        let sr = e.step(&[0]);
        assert!(e.last_sim_failed());
        assert_eq!(sr.reward, SIM_FAIL_REWARD);
    }

    #[test]
    fn fixed_set_targets_are_used() {
        let probe = vec![100e-12, 2e9, 1e-4];
        let mut e = env(TargetMode::FixedSet(vec![probe.clone()]));
        let mut rng = StdRng::seed_from_u64(10);
        e.reset(&mut rng);
        assert_eq!(e.target(), &probe[..]);
    }
}
