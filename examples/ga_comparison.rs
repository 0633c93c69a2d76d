//! Head-to-head sample-efficiency comparison on one target: trained
//! AutoCkt agent vs a vanilla genetic algorithm vs the GA+ML screen —
//! a single-target slice of the paper's Tables I/II/IV.
//!
//! Run: `cargo run --release --example ga_comparison`

use autockt::prelude::*;
use rand::rngs::StdRng;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
    let mut rng = StdRng::seed_from_u64(5);
    let target = sample_feasible(problem.as_ref(), &mut rng, 50);
    println!("target specification:");
    for (d, t) in problem.specs().iter().zip(&target) {
        println!("  {:<14} {:>10.3e} {}", d.name, t, d.unit);
    }

    // AutoCkt: train once (amortized across every future target), deploy.
    println!("\ntraining AutoCkt once (amortized over all future targets)...");
    let result = train(
        Arc::clone(&problem),
        &TrainConfig {
            max_iters: 30,
            seed: 3,
            ..TrainConfig::default()
        },
    );
    let stats = deploy(
        &result.agent.policy,
        Arc::clone(&problem),
        std::slice::from_ref(&target),
        &DeployConfig::default(),
    );
    let autockt_sims = stats.outcomes[0].steps;
    println!(
        "AutoCkt: reached = {}, {} simulations at deployment",
        stats.outcomes[0].reached, autockt_sims
    );

    // Vanilla GA: restarted from scratch for this target.
    let ga = ga_solve_sweep(
        problem.as_ref(),
        &target,
        SimMode::Schematic,
        &[20, 40, 80],
        &GaConfig::default(),
    );
    println!(
        "vanilla GA: reached = {}, {} simulations",
        ga.reached, ga.sims
    );

    // GA boosted with a neural screen (BagNet-style).
    let ml = ga_ml_solve(
        problem.as_ref(),
        &target,
        SimMode::Schematic,
        &GaConfig::default(),
    );
    println!(
        "GA+ML:      reached = {}, {} simulations",
        ml.reached, ml.sims
    );

    if ga.reached && stats.outcomes[0].reached {
        println!(
            "\nspeedup vs vanilla GA: {:.1}x (paper reports ~25-40x per target)",
            ga.sims as f64 / autockt_sims.max(1) as f64
        );
    }
    Ok(())
}
