//! Table III — sample efficiency and generalization on the two-stage OTA
//! with negative-gm load: GA 406 sims; random agent 4/500; AutoCkt 10
//! sims, 500/500.
//!
//! Run: `cargo run --release -p autockt_bench --bin table3 [-- --full]`

use autockt_bench::exp::{run_table, Scale, Table};
use autockt_circuits::NegGmOta;
use std::sync::Arc;

fn main() -> Result<(), String> {
    let table = Table {
        title: "Table III — negative-gm OTA SE and generalization",
        train_seed: 43,
        target_seed: 0x333,
        deploy_seed: 0x334,
        random: Some((0x335, "4/500 (0.8%)")),
        ga_seed: 3000,
        ga_generations: 80,
        paper: ["406", "10", "40.6x", "500/500 (100%)"],
        csv: "table3_neggm_deploy.csv",
        header: &["gain", "ugbw", "pm", "reached", "steps"],
    };
    run_table(
        Arc::new(NegGmOta::default()),
        Scale::resolve(150, 500)?,
        &table,
    );
    Ok(())
}
