//! Integration checks across the framework and baseline crates: the GA and
//! the environment must agree on what "reaching a target" means, so the
//! sample-efficiency comparison in the tables is apples-to-apples.

use autockt::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

#[test]
fn ga_solution_satisfies_env_success_rule() {
    let tia = Tia::default();
    let mut rng = StdRng::seed_from_u64(63);
    let target = sample_feasible(&tia, &mut rng, 50);
    let out = ga_solve(
        &tia,
        &target,
        SimMode::Schematic,
        &GaConfig {
            population: 30,
            generations: 40,
            seed: 64,
        },
    );
    assert!(out.reached, "GA must solve a feasible target");
    // Re-check through the framework's own reward path.
    let specs = tia
        .simulate(&out.best_idx, SimMode::Schematic)
        .expect("winning design simulates");
    let r = reward(tia.specs(), &specs, &target);
    assert!(
        is_success(r),
        "GA winner must satisfy the env rule, r = {r}"
    );
}

#[test]
fn env_counts_simulations_like_the_tables_do() {
    // One environment step = one simulation; trajectory length equals the
    // sample-efficiency number reported for AutoCkt.
    let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
    let mut env = SizingEnv::new(
        Arc::clone(&problem),
        EnvConfig {
            horizon: 7,
            mode: SimMode::Schematic,
            target_mode: TargetMode::Uniform,
            ..EnvConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(65);
    use autockt::rl::env::Env;
    env.reset(&mut rng);
    let before = env.sim_count();
    for _ in 0..7 {
        let sr = env.step(&[1; 6]);
        if sr.done {
            break;
        }
    }
    assert!(env.sim_count() - before <= 7);
    assert!(env.sim_count() - before >= 1);
}

#[test]
fn feasible_targets_are_solvable_by_random_search() {
    // sample_feasible promises reachability: verify the design it found is
    // recoverable by modest random search (sanity for the GA baselines).
    let tia = Tia::default();
    let mut rng = StdRng::seed_from_u64(66);
    for _ in 0..3 {
        let target = sample_feasible(&tia, &mut rng, 50);
        let out = ga_solve(
            &tia,
            &target,
            SimMode::Schematic,
            &GaConfig {
                population: 40,
                generations: 50,
                seed: 67,
            },
        );
        assert!(out.reached, "feasible target not reached by GA");
    }
}
