//! Quick training probe: trains AutoCkt on one topology at a configurable
//! budget and prints the reward curve plus a deployment check. Useful for
//! hyperparameter iteration before running the full table experiments.
//!
//! Run: `cargo run --release -p autockt_bench --bin train_probe -- \
//!        --problem tia --iters 25 --steps 2048 --deploy 100`

use autockt_bench::{arg_value, flag_or};
use autockt_circuits::prelude::*;
use autockt_core::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), String> {
    let problem_name = arg_value("--problem").unwrap_or_else(|| "tia".into());
    let iters: usize = flag_or("--iters", 25)?;
    let steps: usize = flag_or("--steps", 2048)?;
    let n_deploy: usize = flag_or("--deploy", 100)?;
    let horizon: usize = flag_or("--horizon", 30)?;
    let seed: u64 = flag_or("--seed", 17)?;

    let problem: Arc<dyn SizingProblem> = match problem_name.as_str() {
        "tia" => Arc::new(Tia::default()),
        "opamp2" => Arc::new(OpAmp2::default()),
        "neggm" => Arc::new(NegGmOta::default()),
        other => {
            return Err(format!(
                "invalid --problem value: {other} (expected tia, opamp2 or neggm)"
            ))
        }
    };

    let min_reward: f64 = flag_or("--min-reward", 0.0)?;
    let ent: f64 = flag_or("--ent", 1e-3)?;
    let n_targets: usize = flag_or("--targets", 50)?;
    let cfg = TrainConfig {
        ppo: PpoConfig {
            steps_per_iter: steps,
            ent_coef: ent,
            ..PpoConfig::default()
        },
        horizon,
        max_iters: iters,
        num_targets: n_targets,
        feasible_targets: !std::env::args().any(|a| a == "--uniform-train"),
        target_mean_reward: min_reward,
        seed,
        ..TrainConfig::default()
    };
    println!(
        "training {} (|space| ~ 1e{:.1}) for up to {iters} iters x {steps} steps",
        problem.name(),
        problem.log10_space_size()
    );
    let t0 = Instant::now();
    let res = train(Arc::clone(&problem), &cfg);
    println!(
        "trained in {:.1}s, {} env steps, converged = {}",
        t0.elapsed().as_secs_f64(),
        res.env_steps(),
        res.converged
    );
    for (i, s) in res.curve.iter().enumerate() {
        println!(
            "iter {i:>3}: mean_ep_reward {:>8.3} | episodes {:>4} | success {:>5.2} | ep_len {:>5.1} | ent {:>6.3}",
            s.mean_episode_reward, s.episodes, s.success_rate, s.mean_episode_len, s.entropy
        );
    }

    // Deployment on unseen uniform targets.
    let mut rng = <StdRng as SeedableRng>::seed_from_u64(seed ^ 0xDEAD);
    let targets: Vec<Vec<f64>> = (0..n_deploy)
        .map(|_| sample_uniform(problem.as_ref(), &mut rng))
        .collect();
    let dcfg = DeployConfig {
        horizon,
        mode: SimMode::Schematic,
        stochastic: !std::env::args().any(|a| a == "--greedy"),
        seed: seed ^ 0xBEEF,
    };
    let t1 = Instant::now();
    let stats = deploy(&res.agent.policy, Arc::clone(&problem), &targets, &dcfg);
    println!(
        "deploy: reached {}/{} ({:.1}%), mean steps (reached) {:.1}, in {:.1}s",
        stats.reached(),
        stats.total(),
        100.0 * stats.generalization(),
        stats.mean_steps_reached(),
        t1.elapsed().as_secs_f64()
    );

    // For each unreached target, probe reachability with random search:
    // does ANY of `probe_n` random designs satisfy it? This separates
    // "agent failed" from "target outside the achievable region" (the
    // paper's Fig. 8 discussion).
    let probe_n = 800;
    let mut pr_rng = <StdRng as SeedableRng>::seed_from_u64(999);
    let cards = problem.cardinalities();
    let designs: Vec<Vec<f64>> = (0..probe_n)
        .filter_map(|_| {
            let idx: Vec<usize> = cards
                .iter()
                .map(|&k| rand::Rng::random_range(&mut pr_rng, 0..k))
                .collect();
            problem.simulate(&idx, SimMode::Schematic).ok()
        })
        .collect();
    let satisfies = |specs: &[f64], target: &[f64]| -> bool {
        autockt_core::is_success(autockt_core::reward(problem.specs(), specs, target))
    };
    let mut unreachable = 0;
    let mut agent_missed = 0;
    for o in stats.outcomes.iter().filter(|o| !o.reached) {
        if designs.iter().any(|d| satisfies(d, &o.target)) {
            agent_missed += 1;
        } else {
            unreachable += 1;
        }
    }
    println!(
        "unreached breakdown: {agent_missed} missed-but-reachable, {unreachable} likely unreachable (random-search probe)"
    );
    Ok(())
}
