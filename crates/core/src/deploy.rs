//! Deployment and transfer-learning evaluation (Fig. 3, right half; Fig. 13
//! for the PEX transfer).
//!
//! A trained policy is run against freshly sampled target specifications —
//! possibly in a *different* simulation environment than it was trained in
//! (schematic -> PEX transfer, Sec. III-D). Each target yields a trajectory
//! of at most `H` steps; the run records whether the target was reached and
//! how many simulations it took (the paper's sample-efficiency metric).

use crate::env::{EnvConfig, SizingEnv, TargetMode};
use autockt_circuits::{SimMode, SizingProblem};
use autockt_rl::env::Env;
use autockt_rl::policy::PolicyNet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Configuration of a deployment run.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Trajectory horizon `H`.
    pub horizon: usize,
    /// Simulation fidelity (PEX worst-case for Table IV).
    pub mode: SimMode,
    /// Sample actions stochastically from the policy (as during training)
    /// rather than greedily.
    pub stochastic: bool,
    /// Seed for target and action sampling.
    pub seed: u64,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            horizon: 30,
            mode: SimMode::Schematic,
            stochastic: true,
            seed: 1,
        }
    }
}

/// Outcome of one deployment trajectory.
#[derive(Debug, Clone)]
pub struct DeployOutcome {
    /// The target specification attempted.
    pub target: Vec<f64>,
    /// Whether the agent reached it within the horizon.
    pub reached: bool,
    /// Simulations consumed (= environment steps taken).
    pub steps: usize,
    /// Specs measured at the final design point.
    pub final_specs: Vec<f64>,
    /// Final parameter indices.
    pub final_params: Vec<usize>,
    /// Per-step trajectory of measured specs (for Fig. 14-style plots).
    pub spec_trajectory: Vec<Vec<f64>>,
    /// Whether the trajectory's starting design failed to simulate at all
    /// (no operating point at this fidelity): the target is reported
    /// unreached with zero steps rather than panicking or scoring the
    /// fail-value placeholder specs as a measurement.
    pub sim_failed: bool,
}

/// Aggregate deployment statistics.
#[derive(Debug, Clone)]
pub struct DeployStats {
    /// Per-target outcomes.
    pub outcomes: Vec<DeployOutcome>,
}

impl DeployStats {
    /// Number of reached targets (the paper's "generalization" numerator).
    pub fn reached(&self) -> usize {
        self.outcomes.iter().filter(|o| o.reached).count()
    }

    /// Total targets attempted.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Mean simulations over *reached* targets (the paper's
    /// sample-efficiency number, e.g. 27 for the op-amp).
    pub fn mean_steps_reached(&self) -> f64 {
        let reached: Vec<_> = self.outcomes.iter().filter(|o| o.reached).collect();
        if reached.is_empty() {
            f64::NAN
        } else {
            reached.iter().map(|o| o.steps as f64).sum::<f64>() / reached.len() as f64
        }
    }

    /// Fraction reached.
    pub fn generalization(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.reached() as f64 / self.total() as f64
        }
    }
}

/// Runs one trajectory of `policy` against `target`, returning its
/// outcome: [`run_episode`] with actions sampled from the policy (or its
/// greedy action when `cfg.stochastic` is off).
pub fn run_trajectory(
    policy: &PolicyNet,
    env: &mut SizingEnv,
    target: Vec<f64>,
    cfg: &DeployConfig,
    rng: &mut StdRng,
) -> DeployOutcome {
    run_episode(env, target, cfg.horizon, |obs| {
        if cfg.stochastic {
            policy.act(obs, rng).actions
        } else {
            policy.act_greedy(obs)
        }
    })
}

/// Runs one episode of at most `horizon` steps against `target`, taking
/// each step's action from `act(observation)`, and returns its outcome.
/// The episode ends early when the target is reached or the environment
/// reports done.
///
/// All evaluation goes through the environment's `EvalSession` (the
/// warm-start and memo pipeline); a starting design whose operating point
/// cannot be solved at this fidelity — possible for PEX worst-case
/// corners — is propagated as an unreached outcome with zero steps,
/// without consulting `act`, instead of panicking.
pub fn run_episode(
    env: &mut SizingEnv,
    target: Vec<f64>,
    horizon: usize,
    mut act: impl FnMut(&[f64]) -> Vec<usize>,
) -> DeployOutcome {
    let mut obs = env.reset_with_target(target.clone());
    if env.last_sim_failed() {
        return DeployOutcome {
            target,
            reached: false,
            steps: 0,
            final_specs: env.last_specs().to_vec(),
            final_params: env.param_indices().to_vec(),
            spec_trajectory: vec![env.last_specs().to_vec()],
            sim_failed: true,
        };
    }
    let mut spec_trajectory = vec![env.last_specs().to_vec()];
    let mut reached = false;
    let mut steps = 0;
    for _ in 0..horizon {
        let sr = env.step(&act(&obs));
        steps += 1;
        spec_trajectory.push(env.last_specs().to_vec());
        obs = sr.obs;
        if sr.success {
            reached = true;
            break;
        }
        if sr.done {
            break;
        }
    }
    DeployOutcome {
        target,
        reached,
        steps,
        final_specs: env.last_specs().to_vec(),
        final_params: env.param_indices().to_vec(),
        spec_trajectory,
        sim_failed: false,
    }
}

/// Deploys a trained policy on `targets` (drawn elsewhere, typically
/// uniformly from the spec box as in the paper's generalization tests).
pub fn deploy(
    policy: &PolicyNet,
    problem: Arc<dyn SizingProblem>,
    targets: &[Vec<f64>],
    cfg: &DeployConfig,
) -> DeployStats {
    let env_cfg = EnvConfig {
        horizon: cfg.horizon,
        mode: cfg.mode,
        target_mode: TargetMode::Uniform, // unused; targets are explicit
        ..EnvConfig::default()
    };
    let mut env = SizingEnv::new(problem, env_cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let outcomes = targets
        .iter()
        .map(|t| run_trajectory(policy, &mut env, t.clone(), cfg, &mut rng))
        .collect();
    DeployStats { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::{ParamSpec, SimMode, SpecDef, SpecKind, Tia};
    use autockt_rl::policy::PolicyNet;
    use autockt_sim::SimError;

    /// A sizing problem whose operating point never solves — models a PEX
    /// worst-case corner that cannot converge.
    struct Unsolvable {
        params: Vec<ParamSpec>,
        specs: Vec<SpecDef>,
    }

    impl Unsolvable {
        fn new() -> Self {
            Unsolvable {
                params: vec![ParamSpec::swept("w", 1.0, 5.0, 1.0, 1.0)],
                specs: vec![SpecDef {
                    name: "gain",
                    unit: "V/V",
                    kind: SpecKind::HardMin,
                    lo: 1.0,
                    hi: 2.0,
                    fail_value: 0.0,
                }],
            }
        }
    }

    impl SizingProblem for Unsolvable {
        fn name(&self) -> &'static str {
            "unsolvable"
        }
        fn params(&self) -> &[ParamSpec] {
            &self.params
        }
        fn specs(&self) -> &[SpecDef] {
            &self.specs
        }
        fn simulate(&self, _idx: &[usize], _mode: SimMode) -> Result<Vec<f64>, SimError> {
            Err(SimError::DcNoConvergence {
                iterations: 1,
                residual: 1.0,
            })
        }
    }

    #[test]
    fn unsolvable_start_is_an_unreached_outcome_not_a_panic() {
        let problem: Arc<dyn SizingProblem> = Arc::new(Unsolvable::new());
        let mut rng = StdRng::seed_from_u64(6);
        let policy = PolicyNet::new(3, &[3], &[8], &mut rng);
        let stats = deploy(&policy, problem, &[vec![1.5]], &DeployConfig::default());
        assert_eq!(stats.total(), 1);
        let o = &stats.outcomes[0];
        assert!(o.sim_failed);
        assert!(!o.reached);
        assert_eq!(o.steps, 0);
        assert_eq!(o.spec_trajectory.len(), 1);
        assert_eq!(stats.reached(), 0);
    }

    #[test]
    fn untrained_policy_still_produces_valid_outcomes() {
        let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
        let mut rng = StdRng::seed_from_u64(3);
        let policy = PolicyNet::new(12, &[3; 6], &[16], &mut rng);
        let targets = vec![
            crate::target::sample_uniform(problem.as_ref(), &mut rng),
            crate::target::sample_uniform(problem.as_ref(), &mut rng),
        ];
        let cfg = DeployConfig {
            horizon: 5,
            mode: SimMode::Schematic,
            stochastic: true,
            seed: 4,
        };
        let stats = deploy(&policy, problem, &targets, &cfg);
        assert_eq!(stats.total(), 2);
        for o in &stats.outcomes {
            assert!(o.steps >= 1 && o.steps <= 5);
            assert_eq!(o.spec_trajectory.len(), o.steps + 1);
        }
        assert!(stats.generalization() >= 0.0 && stats.generalization() <= 1.0);
    }

    #[test]
    fn self_target_is_reached_in_one_step() {
        let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
        let center: Vec<usize> = problem.cardinalities().iter().map(|k| k / 2).collect();
        // Evaluate through the session pipeline like deployment itself
        // does — a SimFailed center is a test failure with context, not a
        // bare unwrap panic on the stateless cold path.
        let specs = autockt_circuits::EvalSession::shared(Arc::clone(&problem), SimMode::Schematic)
            .evaluate(&center)
            .expect("center design must simulate at schematic fidelity");
        let mut rng = StdRng::seed_from_u64(5);
        let policy = PolicyNet::new(12, &[3; 6], &[16], &mut rng);
        let cfg = DeployConfig {
            horizon: 10,
            ..DeployConfig::default()
        };
        let stats = deploy(&policy, problem, &[specs], &cfg);
        // Even a random policy may wander, but the first step from center
        // can only move one grid notch; with the target exactly at center
        // specs most single-notch designs still satisfy r >= -0.01 rarely.
        // We only assert accounting invariants here.
        assert_eq!(stats.total(), 1);
        let o = &stats.outcomes[0];
        assert_eq!(o.spec_trajectory.len(), o.steps + 1);
    }
}
