//! Fig. 8 — distribution of reached and unreached target design
//! specifications for the two-stage op-amp. The paper's 3D/2D scatter
//! shows unreached targets concentrated where the bias-current budget is
//! very low; this binary reproduces the data and quantifies that
//! concentration.
//!
//! Run: `cargo run --release -p autockt_bench --bin fig8 [-- --full]`

use autockt_bench::exp::{deploy_and_report, train_agent, uniform_targets};
use autockt_bench::write_csv;
use autockt_circuits::opamp2::spec_index;
use autockt_circuits::{OpAmp2, SimMode, SizingProblem};
use std::sync::Arc;

fn main() -> Result<(), String> {
    let scale = autockt_bench::exp::Scale::resolve(300, 1000)?;
    let problem: Arc<dyn SizingProblem> = Arc::new(OpAmp2::default());
    let trained = train_agent(Arc::clone(&problem), scale.train_iters, 30, 83);
    let targets = uniform_targets(problem.as_ref(), scale.deploy_targets, 0x808, None);
    let stats = deploy_and_report(
        "fig8",
        &trained.agent.policy,
        Arc::clone(&problem),
        &targets,
        30,
        SimMode::Schematic,
        0x809,
    );

    let rows: Vec<Vec<f64>> = stats
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.target[spec_index::GAIN],
                o.target[spec_index::UGBW],
                o.target[spec_index::PM],
                o.target[spec_index::IBIAS],
                if o.reached { 1.0 } else { 0.0 },
            ]
        })
        .collect();
    let path = write_csv(
        "fig8_opamp_target_scatter.csv",
        &["gain", "ugbw", "pm", "ibias_budget", "reached"],
        &rows,
    );

    // The paper's observation: unreached points sit at very low bias
    // current. Compare the median ibias budget of reached vs unreached.
    let mut reached_ib: Vec<f64> = stats
        .outcomes
        .iter()
        .filter(|o| o.reached)
        .map(|o| o.target[spec_index::IBIAS])
        .collect();
    let mut missed_ib: Vec<f64> = stats
        .outcomes
        .iter()
        .filter(|o| !o.reached)
        .map(|o| o.target[spec_index::IBIAS])
        .collect();
    reached_ib.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    missed_ib.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let med = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v[v.len() / 2]
        }
    };
    println!(
        "\nFig. 8 analysis: median ibias budget — reached {:.3e} A vs unreached {:.3e} A",
        med(&reached_ib),
        med(&missed_ib)
    );
    println!(
        "paper shape: unreached targets cluster at low bias-current budgets ({})",
        if med(&missed_ib) < med(&reached_ib) || missed_ib.is_empty() {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
    println!("wrote {}", path.display());
    Ok(())
}
