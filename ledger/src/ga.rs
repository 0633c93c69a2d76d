//! `ga_opamp2`: the paper's GA baseline on the two-stage op-amp.
//!
//! A round builds the problem and a fixed list of uniform targets, each
//! with its own GA seed, then runs `ga_solve` with `GaConfig::default()`
//! on every target.

use crate::phase::{mix, Budget, Phase};
use crate::trace::{self, TracedProblem};
use autockt_baselines::{ga_solve, GaConfig};
use autockt_circuits::{OpAmp2, SimMode, SizingProblem};
use autockt_core::{is_success, reward, sample_uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// GA targets per round.
pub const TARGETS_PER_ROUND: usize = 8;
const MODE: SimMode = SimMode::Schematic;

/// A round's problem, targets and GA configs.
pub struct Setup {
    /// The problem the GA evaluates.
    pub problem: Arc<dyn SizingProblem>,
    /// `(target, config)` per unit.
    pub units: Vec<(Vec<f64>, GaConfig)>,
}

/// Builds a round over `problem`.
pub fn setup(problem: Arc<dyn SizingProblem>, seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let units = (0..TARGETS_PER_ROUND)
        .map(|_| {
            let target = sample_uniform(problem.as_ref(), &mut rng);
            let cfg = GaConfig {
                seed: rng.random(),
                ..GaConfig::default()
            };
            (target, cfg)
        })
        .collect();
    Setup { problem, units }
}

/// Runs rounds of `ga_solve`, each call timed while tracing is on.
pub fn run(seed: u64, budget: Budget) -> Phase {
    let mut ph = Phase::default();
    let cold = OpAmp2::default();
    let started = Instant::now();
    while budget.more(ph.rounds, started) {
        let problem = Arc::new(TracedProblem::new(Arc::new(OpAmp2::default())));
        let s = ph.setup(mix(seed, ph.rounds as u64), |seed| {
            setup(problem.clone(), seed)
        });
        for (target, cfg) in &s.units {
            trace::set_run(ph.unit_s.len() as u64);
            let t = Instant::now();
            let out = trace::span("baselines.ga", || {
                ga_solve(s.problem.as_ref(), target, MODE, cfg)
            });
            ph.unit(t.elapsed().as_secs_f64(), out.sims as u64);
            ph.evals += out.sims as u64;
            ph.ga_sims += out.sims as u64;
            ph.targets += 1;
            ph.reached += usize::from(out.reached);
            ph.fingerprint.push(out.sims as u64);
            ph.fingerprint.push(out.best_reward.to_bits());
            ph.fingerprint
                .extend(out.best_idx.iter().map(|&i| i as u64));
            if out.reached {
                // The reached design, re-simulated cold, must meet the target.
                let ok = cold
                    .simulate(&out.best_idx, MODE)
                    .is_ok_and(|specs| is_success(reward(cold.specs(), &specs, target)));
                if !ok {
                    ph.errors.push(format!(
                        "ga: reached design {:?} misses its target cold",
                        out.best_idx
                    ));
                }
            }
        }
        ph.spans.append(&mut trace::drain());
        ph.failed += problem.failures();
        ph.rounds += 1;
    }
    ph
}
