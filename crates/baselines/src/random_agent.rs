//! Random RL agent baseline (Tables II and III): a policy that takes
//! uniformly random decrement/keep/increment actions in the same sizing
//! environment, illustrating design-space complexity.

use autockt_circuits::{SimMode, SizingProblem};
use autockt_core::{run_episode, DeployStats, EnvConfig, SizingEnv, TargetMode};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;

/// Runs a uniformly random policy against each target, on deployment's
/// episode loop ([`run_episode`]).
pub fn random_agent_deploy(
    problem: Arc<dyn SizingProblem>,
    targets: &[Vec<f64>],
    horizon: usize,
    mode: SimMode,
    seed: u64,
) -> DeployStats {
    let mut env = SizingEnv::new(
        Arc::clone(&problem),
        EnvConfig {
            horizon,
            mode,
            target_mode: TargetMode::Uniform,
            ..EnvConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n_params = problem.cardinalities().len();
    let outcomes = targets
        .iter()
        .map(|t| {
            run_episode(&mut env, t.clone(), horizon, |_| {
                (0..n_params).map(|_| rng.random_range(0..3)).collect()
            })
        })
        .collect();
    DeployStats { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::Tia;
    use autockt_core::sample_uniform;

    #[test]
    fn random_agent_rarely_succeeds_but_always_terminates() {
        let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
        let mut rng = StdRng::seed_from_u64(31);
        let targets: Vec<Vec<f64>> = (0..10)
            .map(|_| sample_uniform(problem.as_ref(), &mut rng))
            .collect();
        let stats = random_agent_deploy(Arc::clone(&problem), &targets, 10, SimMode::Schematic, 7);
        assert_eq!(stats.total(), 10);
        for o in &stats.outcomes {
            assert!(o.steps <= 10);
        }
        // Not asserting failure count: randomness may get lucky, but the
        // success rate should be far from 100% on uniform targets.
        assert!(stats.reached() < stats.total());
    }
}
