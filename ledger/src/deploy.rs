//! `deploy_tia_pexwc` and `deploy_tia_pexwc_mesh8`: PEX worst-case
//! deployment of a seeded, untrained policy on the TIA.
//!
//! A round builds one `SizingEnv`, one policy and a fixed list of uniform
//! targets, then deploys the policy on every target in turn. The
//! end-to-end phase calls `run_trajectory`; the traced phase runs the same
//! loop through a [`TracedEnv`] so every env call is timed, and must
//! reproduce the end-to-end outcomes exactly.

use crate::phase::{mix, within_warm_tol, Budget, Phase};
use crate::trace::{self, TracedEnv, TracedProblem};
use autockt_circuits::{SimMode, SizingProblem, Tia};
use autockt_core::{
    run_trajectory, sample_uniform, DeployConfig, DeployOutcome, EnvConfig, SizingEnv, TargetMode,
};
use autockt_rl::env::Env;
use autockt_rl::policy::PolicyNet;
use autockt_sim::pex::PexConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Trajectory horizon `H`.
pub const HORIZON: usize = 30;
/// Hidden layers of the deployed policy (the paper's 3 x 50).
pub const HIDDEN: [usize; 3] = [50, 50, 50];
const MODE: SimMode = SimMode::PexWorstCase;

/// One deployment workload: extraction depth and round size.
#[derive(Debug, Clone, Copy)]
pub struct Deploy {
    /// `PexConfig::mesh_depth` (0 is stock lumped extraction).
    pub mesh_depth: usize,
    /// Targets deployed per round.
    pub targets_per_round: usize,
    /// Visited points re-simulated cold per run by the correctness check.
    pub check_points: usize,
}

/// The TIA at the given extraction depth.
pub fn problem(mesh_depth: usize) -> Arc<dyn SizingProblem> {
    let tia = Tia::default();
    let pex = PexConfig {
        mesh_depth,
        ..tia.pex_config().clone()
    };
    Arc::new(tia.with_pex_config(pex))
}

/// A round's environment, policy, targets and deployment config.
pub struct Setup {
    /// The environment every target of the round is deployed on.
    pub env: SizingEnv,
    /// The seeded, untrained policy.
    pub policy: PolicyNet,
    /// Uniform targets.
    pub targets: Vec<Vec<f64>>,
    /// Deployment settings (stochastic actions, horizon 30).
    pub cfg: DeployConfig,
}

/// Builds a round over `problem`, as `autockt_core::deploy` does.
pub fn setup(problem: Arc<dyn SizingProblem>, n_targets: usize, seed: u64) -> Setup {
    let env = SizingEnv::new(
        problem,
        EnvConfig {
            horizon: HORIZON,
            mode: MODE,
            target_mode: TargetMode::Uniform,
            ..EnvConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let policy = PolicyNet::new(env.obs_dim(), &env.action_dims(), &HIDDEN, &mut rng);
    let targets = (0..n_targets)
        .map(|_| sample_uniform(env.problem().as_ref(), &mut rng))
        .collect();
    let cfg = DeployConfig {
        horizon: HORIZON,
        mode: MODE,
        stochastic: true,
        seed: rng.random(),
    };
    Setup {
        env,
        policy,
        targets,
        cfg,
    }
}

impl Deploy {
    /// The end-to-end phase: rounds of `run_trajectory`.
    pub fn e2e(&self, seed: u64, budget: Budget) -> Phase {
        let mut ph = Phase::default();
        let mut visited = Vec::new();
        let started = Instant::now();
        while budget.more(ph.rounds, started) {
            let problem = Arc::new(TracedProblem::new(problem(self.mesh_depth)));
            let mut s = ph.setup(mix(seed, ph.rounds as u64), |seed| {
                setup(problem.clone(), self.targets_per_round, seed)
            });
            let mut rng = StdRng::seed_from_u64(s.cfg.seed);
            for target in std::mem::take(&mut s.targets) {
                let before = s.env.sim_count();
                let t = Instant::now();
                let out = run_trajectory(&s.policy, &mut s.env, target, &s.cfg, &mut rng);
                ph.unit(t.elapsed().as_secs_f64(), s.env.sim_count() - before);
                record(&mut ph, &out);
                visited.push((out.final_params, out.final_specs));
            }
            ph.add_env(&s.env);
            ph.failed += problem.failures();
            ph.rounds += 1;
        }
        self.check(seed, &visited, &mut ph.errors);
        ph
    }

    /// The traced rerun: the same rounds, `run_trajectory`'s loop driven
    /// through a [`TracedEnv`] so that every env call is timed.
    pub fn traced(&self, seed: u64, rounds: usize) -> Phase {
        let mut ph = Phase::default();
        while ph.rounds < rounds {
            let problem = Arc::new(TracedProblem::new(problem(self.mesh_depth)));
            let mut s = ph.setup(mix(seed, ph.rounds as u64), |seed| {
                setup(problem.clone(), self.targets_per_round, seed)
            });
            let mut env = TracedEnv::new(s.env);
            let mut rng = StdRng::seed_from_u64(s.cfg.seed);
            for target in std::mem::take(&mut s.targets) {
                trace::set_run(ph.unit_s.len() as u64);
                let before = env.inner.sim_count();
                let t = Instant::now();
                let out = trace::span("core.trajectory", || {
                    trajectory(&s.policy, &mut env, target, &s.cfg, &mut rng)
                });
                ph.unit(t.elapsed().as_secs_f64(), env.inner.sim_count() - before);
                record(&mut ph, &out);
            }
            ph.spans.append(&mut trace::drain());
            ph.add_env(&env.inner);
            ph.failed += problem.failures();
            ph.rounds += 1;
        }
        ph
    }

    /// Re-evaluates a seeded sample of visited points cold with
    /// `SizingProblem::simulate` and compares them with the session's
    /// specs.
    fn check(&self, seed: u64, visited: &[(Vec<usize>, Vec<f64>)], errors: &mut Vec<String>) {
        let cold = problem(self.mesh_depth);
        let fail: Vec<f64> = cold.specs().iter().map(|d| d.fail_value).collect();
        let mut rng = StdRng::seed_from_u64(mix(seed, u64::MAX));
        for _ in 0..self.check_points.min(visited.len()) {
            let (idx, session) = &visited[rng.random_range(0..visited.len())];
            match cold.simulate(idx, MODE) {
                Ok(specs) => {
                    if !specs
                        .iter()
                        .zip(session)
                        .all(|(c, w)| within_warm_tol(*c, *w))
                    {
                        errors.push(format!(
                            "deploy: {idx:?} cold {specs:?} vs session {session:?}"
                        ));
                    }
                }
                Err(e) if *session != fail => {
                    errors.push(format!(
                        "deploy: {idx:?} fails cold ({e}) but not in the session"
                    ));
                }
                Err(_) => {}
            }
        }
    }
}

fn record(ph: &mut Phase, out: &DeployOutcome) {
    ph.targets += 1;
    ph.reached += usize::from(out.reached);
    ph.fingerprint.push(out.steps as u64);
    ph.fingerprint
        .extend(out.final_params.iter().map(|&i| i as u64));
    ph.fingerprint
        .extend(out.final_specs.iter().map(|v| v.to_bits()));
}

/// `run_trajectory`'s loop through a [`TracedEnv`].
fn trajectory(
    policy: &PolicyNet,
    env: &mut TracedEnv,
    target: Vec<f64>,
    cfg: &DeployConfig,
    rng: &mut StdRng,
) -> DeployOutcome {
    let mut obs = env.reset_with_target(target.clone());
    let mut spec_trajectory = vec![env.inner.last_specs().to_vec()];
    let sim_failed = env.inner.last_sim_failed();
    let mut reached = false;
    let mut steps = 0;
    if !sim_failed {
        for _ in 0..cfg.horizon {
            let actions = if cfg.stochastic {
                policy.act(&obs, rng).actions
            } else {
                policy.act_greedy(&obs)
            };
            let sr = env.step(&actions);
            steps += 1;
            spec_trajectory.push(env.inner.last_specs().to_vec());
            obs = sr.obs;
            if sr.success {
                reached = true;
                break;
            }
            if sr.done {
                break;
            }
        }
    }
    DeployOutcome {
        target,
        reached,
        steps,
        final_specs: env.inner.last_specs().to_vec(),
        final_params: env.inner.param_indices().to_vec(),
        spec_trajectory,
        sim_failed,
    }
}
