//! Table II — sample efficiency and generalization on the two-stage
//! op-amp: vanilla GA (1063 sims) vs a random RL agent (38/1000) vs
//! AutoCkt (27 sims, 963/1000 = 96.3%).
//!
//! Run: `cargo run --release -p autockt_bench --bin table2 [-- --full]`
//!
//! **How the GA count is produced.** The GA row (148 sims at default
//! scale when last recorded, against the paper's 1063) is the mean of `GaOutcome::sims`
//! over the GA targets that were reached: the first 12 deployment
//! targets (40 with `--full`, `--ga N` to override). For each target:
//!
//! - `ga_solve_sweep` runs the GA once per population size in
//!   {20, 40, 80}, each with its own seed, and keeps the run that reached
//!   the target in the fewest sims (else the highest reward). The sweep
//!   follows the paper's "best result obtained when sweeping initial
//!   population sizes", as `ga_solve_sweep`'s documentation quotes it;
//!   the three sizes are this repository's choice.
//! - Every run uses the `GaConfig` defaults but for `generations: 100`
//!   (the default is 60), and the operators are constants in
//!   `autockt_baselines::ga`: tournament selection of 3, uniform crossover
//!   with per-gene probability 0.5, per-gene mutation 0.15 (half ±1-notch
//!   nudges, half uniform resets), elitism 2. A run stops at the first
//!   genome that meets the target (Eq. 1 reward ≥ −0.01,
//!   `autockt_core::is_success`) or after 100 generations.
//! - The GA counts every evaluation as a simulation, repeated genomes
//!   included, as a GA driving a real simulator would run them; the memo
//!   only saves the compute.
//!
//! What the paper states about its GA could not be checked here: beyond
//! that phrase the repository carries no text of the paper, so its GA's
//! population sizes, selection, crossover and mutation operators,
//! generation limit, and whether its count includes repeated genomes are
//! unconfirmed. Each choice above moves the count, and the sweep lowers
//! it: a target's count is the least of three runs, where one run per
//! target would count about their mean. The gap to 1063 is documented,
//! not tuned away.

use autockt_bench::exp::{run_table, Scale, Table};
use autockt_circuits::OpAmp2;
use std::sync::Arc;

fn main() -> Result<(), String> {
    let table = Table {
        title: "Table II — two-stage op-amp SE and generalization",
        train_seed: 29,
        target_seed: 0xF00D,
        deploy_seed: 0xF11D,
        random: Some((0xAAAA, "38/1000 (3.8%)")),
        ga_seed: 2000,
        ga_generations: 100,
        paper: ["1063", "27", "~40x", "963/1000 (96.3%)"],
        csv: "table2_opamp_deploy.csv",
        header: &["gain", "ugbw", "pm", "ibias", "reached", "steps"],
    };
    run_table(
        Arc::new(OpAmp2::default()),
        Scale::resolve(200, 1000)?,
        &table,
    );
    Ok(())
}
