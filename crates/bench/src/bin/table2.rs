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
//!   (the default is 60): tournament selection of 3, uniform crossover
//!   with per-gene probability 0.5, per-gene mutation 0.15 (half ±1-notch
//!   nudges, half uniform resets), elitism 2. A run stops at the first
//!   genome that meets the target (Eq. 1 reward ≥ −0.01,
//!   `autockt_core::is_success`) or after 100 generations.
//! - `count_duplicates: true` (the default) counts every evaluation as a
//!   simulation, repeated genomes included, as a GA driving a real
//!   simulator would run them; the memo only saves the compute.
//!
//! What the paper states about its GA could not be checked here: beyond
//! that phrase the repository carries no text of the paper, so its GA's
//! population sizes, selection, crossover and mutation operators,
//! generation limit, and whether its count includes repeated genomes are
//! unconfirmed. Each choice above moves the count, and the sweep lowers
//! it: a target's count is the least of three runs, where one run per
//! target would count about their mean. The gap to 1063 is documented,
//! not tuned away.

use autockt_baselines::{ga_solve_sweep, random_agent_deploy, GaConfig};
use autockt_bench::exp::{deploy_and_report, mean_sims_reached, train_agent, uniform_targets};
use autockt_bench::{print_comparison, write_csv};
use autockt_circuits::{OpAmp2, SimMode, SizingProblem};
use std::sync::Arc;

fn main() {
    let scale = autockt_bench::exp::Scale::resolve(200, 1000);
    let problem: Arc<dyn SizingProblem> = Arc::new(OpAmp2::default());
    let horizon = 30; // the paper's trajectory length for this circuit

    let trained = train_agent(Arc::clone(&problem), scale.train_iters, horizon, 29);
    let targets = uniform_targets(problem.as_ref(), scale.deploy_targets, 0xF00D, None);
    let stats = deploy_and_report(
        "opamp2",
        &trained.agent.policy,
        Arc::clone(&problem),
        &targets,
        horizon,
        SimMode::Schematic,
        0xF11D,
    );

    // Random RL agent over the full target set.
    let random = random_agent_deploy(
        Arc::clone(&problem),
        &targets,
        horizon,
        SimMode::Schematic,
        0xAAAA,
    );

    // Vanilla GA on a subset.
    let ga_outs: Vec<_> = targets
        .iter()
        .take(scale.ga_targets)
        .enumerate()
        .map(|(i, t)| {
            ga_solve_sweep(
                problem.as_ref(),
                t,
                SimMode::Schematic,
                &[20, 40, 80],
                &GaConfig {
                    generations: 100,
                    seed: 2000 + i as u64,
                    ..GaConfig::default()
                },
            )
        })
        .collect();
    let ga_mean = mean_sims_reached(&ga_outs);
    let autockt_mean = stats.mean_steps_reached();

    print_comparison(
        "Table II — two-stage op-amp SE and generalization",
        &[
            (
                "Genetic Alg. SE (sims)",
                "1063".into(),
                format!("{ga_mean:.0}"),
            ),
            (
                "AutoCkt SE (sims)",
                "27".into(),
                format!("{autockt_mean:.0}"),
            ),
            (
                "AutoCkt speedup vs GA",
                "~40x".into(),
                format!("{:.1}x", ga_mean / autockt_mean),
            ),
            (
                "Random RL agent generalization",
                "38/1000 (3.8%)".into(),
                format!(
                    "{}/{} ({:.1}%)",
                    random.reached(),
                    random.total(),
                    100.0 * random.reached() as f64 / random.total() as f64
                ),
            ),
            (
                "AutoCkt generalization",
                "963/1000 (96.3%)".into(),
                format!(
                    "{}/{} ({:.1}%)",
                    stats.reached(),
                    stats.total(),
                    100.0 * stats.generalization()
                ),
            ),
        ],
    );

    let rows: Vec<Vec<f64>> = stats
        .outcomes
        .iter()
        .map(|o| {
            let mut row = o.target.clone();
            row.push(if o.reached { 1.0 } else { 0.0 });
            row.push(o.steps as f64);
            row
        })
        .collect();
    let path = write_csv(
        "table2_opamp_deploy.csv",
        &["gain", "ugbw", "pm", "ibias", "reached", "steps"],
        &rows,
    );
    println!("wrote {}", path.display());
}
