//! Fig. 12 — distribution of reached target specifications for the
//! negative-gm OTA (the paper reports *no* unreached targets for this
//! circuit).
//!
//! Run: `cargo run --release -p autockt_bench --bin fig12 [-- --full]`

use autockt_bench::exp::{deploy_and_report, outcome_rows, train_agent, uniform_targets};
use autockt_bench::write_csv;
use autockt_circuits::{NegGmOta, SimMode, SizingProblem};
use std::sync::Arc;

fn main() -> Result<(), String> {
    let scale = autockt_bench::exp::Scale::resolve(200, 500)?;
    let problem: Arc<dyn SizingProblem> = Arc::new(NegGmOta::default());
    let trained = train_agent(Arc::clone(&problem), scale.train_iters, 30, 53);
    let targets = uniform_targets(problem.as_ref(), scale.deploy_targets, 0x1212, None);
    let stats = deploy_and_report(
        "fig12",
        &trained.agent.policy,
        Arc::clone(&problem),
        &targets,
        30,
        SimMode::Schematic,
        0x1213,
    );
    let path = write_csv(
        "fig12_neggm_target_scatter.csv",
        &["gain", "ugbw", "pm", "reached", "steps"],
        &outcome_rows(&stats),
    );
    println!(
        "\nFig. 12: {}/{} targets reached (paper: 500/500)",
        stats.reached(),
        stats.total()
    );
    println!("wrote {}", path.display());
    Ok(())
}
