//! Property: with the memo cache on, replaying an episode (same target,
//! same action sequence) reproduces the *identical* reward trajectory.
//! Episode reset clears warm-start state but keeps the memo, so every
//! revisited grid point is served from the cache — the replay is exact
//! even though the warm solve trajectory that first produced each value
//! can never be re-run bit-for-bit.

use autockt_circuits::{SimMode, Tia};
use autockt_core::{
    is_success, reward, EnvConfig, SizingEnv, TargetMode, SIM_FAIL_REWARD, SUCCESS_BONUS,
};
use autockt_rl::env::Env;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #[test]
    fn memoized_episode_replay_is_exact(
        target_u in prop::collection::vec(0.0..1.0f64, 3),
        moves in prop::collection::vec(0usize..3, 42),
    ) {
        let mut env = SizingEnv::new(
            Arc::new(Tia::default()),
            EnvConfig {
                horizon: 100,
                target_mode: TargetMode::Uniform,
                ..EnvConfig::default()
            },
        );
        let target: Vec<f64> = env
            .problem()
            .specs()
            .iter()
            .zip(&target_u)
            .map(|(d, u)| d.lo + u * (d.hi - d.lo))
            .collect();
        let actions: Vec<Vec<usize>> = moves
            .chunks(6)
            .map(|c| c.to_vec())
            .collect();

        env.reset_with_target(target.clone());
        let first: Vec<f64> = actions.iter().map(|a| env.step(a).reward).collect();

        let hits_before = env.memo_hits();
        env.reset_with_target(target);
        let replay: Vec<f64> = actions.iter().map(|a| env.step(a).reward).collect();

        prop_assert!(
            first == replay,
            "replay diverged:\n  first  {first:?}\n  replay {replay:?}"
        );
        // Every replay evaluation (reset + steps) was served from the memo.
        prop_assert!(env.memo_hits() - hits_before == actions.len() as u64 + 1);
    }

    /// The warm-started env's rewards against the pure cold reference:
    /// `SizingProblem::simulate` at every visited grid point, scored as
    /// the env scores it.
    #[test]
    fn warm_env_rewards_match_cold_env(
        target_u in prop::collection::vec(0.0..1.0f64, 3),
        moves in prop::collection::vec(0usize..3, 30),
    ) {
        let mut warm = SizingEnv::new(
            Arc::new(Tia::default()),
            EnvConfig {
                horizon: 100,
                target_mode: TargetMode::Uniform,
                ..EnvConfig::default()
            },
        );
        let target: Vec<f64> = warm
            .problem()
            .specs()
            .iter()
            .zip(&target_u)
            .map(|(d, u)| d.lo + u * (d.hi - d.lo))
            .collect();
        warm.reset_with_target(target);
        for a in moves.chunks(6) {
            let act: Vec<usize> = a.to_vec();
            let rw = warm.step(&act).reward;
            let problem = warm.problem();
            let rc = match problem.simulate(warm.param_indices(), SimMode::Schematic) {
                Ok(specs) => {
                    let r = reward(problem.specs(), &specs, warm.target());
                    if is_success(r) { r + SUCCESS_BONUS } else { r }
                }
                Err(_) => SIM_FAIL_REWARD,
            };
            prop_assert!(
                (rc - rw).abs() <= 5e-3 * (1.0 + rc.abs()),
                "cold {rc} vs warm {rw}"
            );
        }
    }
}
