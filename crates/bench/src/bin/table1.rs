//! Table I — sample efficiency and generalization on the transimpedance
//! amplifier: vanilla GA vs AutoCkt.
//!
//! Paper: GA 376 sims; AutoCkt 15 sims; generalization 487/500 (97.4%).
//!
//! Run: `cargo run --release -p autockt_bench --bin table1 [-- --full]`

use autockt_bench::exp::{run_table, Scale, Table};
use autockt_circuits::Tia;
use std::sync::Arc;

fn main() -> Result<(), String> {
    let table = Table {
        title: "Table I — TIA sample efficiency (SE) and generalization",
        train_seed: 17,
        target_seed: 0xDEAD,
        deploy_seed: 0xBEEF,
        random: None,
        ga_seed: 1000,
        ga_generations: 60,
        paper: ["376", "15", "25.1x", "487/500 (97.4%)"],
        csv: "table1_tia_deploy.csv",
        header: &["settling", "cutoff", "noise", "reached", "steps"],
    };
    run_table(Arc::new(Tia::default()), Scale::resolve(150, 500)?, &table);
    Ok(())
}
