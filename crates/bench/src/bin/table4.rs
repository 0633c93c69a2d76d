//! Table IV — transfer learning to post-layout extraction on the
//! negative-gm OTA: the schematic-trained agent is deployed, without
//! retraining, on PEX simulations with worst-case PVT.
//!
//! Paper: GA+ML \[7\] 220 sims; AutoCkt schematic-only 10 sims (500/500);
//! AutoCkt PEX 23 sims (40/40); vanilla GA is "too sample inefficient"
//! (N/A).
//!
//! GA+ML simulates and counts each distinct genome once (a repeat is
//! served from its map of scored genomes); the vanilla GA of Tables I–III
//! simulates and counts every evaluation. Both score genomes through the
//! one evaluator in `autockt_baselines::ga`, so the "AutoCkt PEX vs GA+ML"
//! row divides a GA+ML count of unique genomes by AutoCkt's count of every
//! step. A seeded run repeats byte for byte.
//!
//! Run: `cargo run --release -p autockt_bench --bin table4 [-- --full]`;
//! `--iters N` (PPO iterations, default 40), `--deploy N` (deployment
//! targets, 20; 40 with `--full`) and `--ga N` (GA+ML targets, 5; 10 with
//! `--full`) override the scale.

use autockt_baselines::{ga_ml_solve, GaConfig};
use autockt_bench::exp::{
    deploy_and_report, mean_sims_reached, outcome_rows, ratio_cell, se_cell, train_agent,
    uniform_targets,
};
use autockt_bench::{flag_or, print_comparison, write_csv};
use autockt_circuits::neggm::spec_index;
use autockt_circuits::{NegGmOta, SimMode, SizingProblem};
use std::sync::Arc;

fn main() -> Result<(), String> {
    let full = autockt_bench::full_scale();
    let train_iters = flag_or("--iters", 40)?;
    let n_pex_targets = flag_or("--deploy", if full { 40 } else { 20 })?;
    let n_ga_ml = flag_or("--ga", if full { 10 } else { 5 })?;
    let problem: Arc<dyn SizingProblem> = Arc::new(NegGmOta::default());
    let horizon = 60;

    // Train on schematic only (the whole point of Fig. 13).
    let trained = train_agent(Arc::clone(&problem), train_iters, 30, 59);

    // Deployment targets: phase margin pinned to its 60-degree floor as in
    // Sec. III-D.
    let targets = uniform_targets(
        problem.as_ref(),
        n_pex_targets,
        0x4444,
        Some(spec_index::PM),
    );

    // Row 1: AutoCkt on schematic (reference).
    let sch = deploy_and_report(
        "schematic",
        &trained.agent.policy,
        Arc::clone(&problem),
        &targets,
        30,
        SimMode::Schematic,
        0x4445,
    );
    // Row 2: the same policy on PEX worst-case — no retraining.
    let pex = deploy_and_report(
        "pex",
        &trained.agent.policy,
        Arc::clone(&problem),
        &targets,
        horizon,
        SimMode::PexWorstCase,
        0x4446,
    );

    // Row 3: GA+ML (BagNet-style) directly on the PEX environment.
    let ga_ml_outs: Vec<_> = targets
        .iter()
        .take(n_ga_ml)
        .enumerate()
        .map(|(i, t)| {
            ga_ml_solve(
                problem.as_ref(),
                t,
                SimMode::PexWorstCase,
                &GaConfig {
                    population: 30,
                    generations: 60,
                    seed: 4000 + i as u64,
                },
            )
        })
        .collect();
    let ga_ml_mean = mean_sims_reached(&ga_ml_outs);
    let ga_ml_reached = ga_ml_outs.iter().filter(|o| o.reached).count();
    let ga_ml_total = ga_ml_outs.len();

    print_comparison(
        "Table IV — transfer to PEX with worst-case PVT (neg-gm OTA)",
        &[
            (
                "Genetic Alg. (PEX)",
                "N/A (too inefficient)".into(),
                "not run".into(),
            ),
            (
                "Genetic Alg.+ML [7] SE (sims)",
                "220".into(),
                format!(
                    "{} ({ga_ml_reached}/{ga_ml_total} reached)",
                    se_cell(ga_ml_mean)
                ),
            ),
            (
                "AutoCkt schematic-only SE",
                "10 (500/500)".into(),
                format!(
                    "{} ({}/{})",
                    se_cell(sch.mean_steps_reached()),
                    sch.reached(),
                    sch.total()
                ),
            ),
            (
                "AutoCkt PEX SE",
                "23 (40/40)".into(),
                format!(
                    "{} ({}/{})",
                    se_cell(pex.mean_steps_reached()),
                    pex.reached(),
                    pex.total()
                ),
            ),
            (
                "AutoCkt PEX vs GA+ML",
                "9.56x".into(),
                ratio_cell(ga_ml_mean, pex.mean_steps_reached()),
            ),
        ],
    );

    let path = write_csv(
        "table4_pex_transfer.csv",
        &["gain", "ugbw", "pm", "reached", "steps"],
        &outcome_rows(&pex),
    );
    println!("wrote {}", path.display());
    Ok(())
}
