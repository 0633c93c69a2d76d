//! Shared experiment plumbing for the table/figure binaries: the
//! Tables I–III comparison ([`run_table`]), the reward-curve report of
//! Figs. 5/7/11 ([`report_curve`]) and the deployment-outcome CSV rows
//! ([`outcome_rows`]).

use crate::{flag_or, print_comparison, write_csv};
use autockt_baselines::{ga_solve_sweep, random_agent_deploy, GaConfig};
use autockt_circuits::{SimMode, SizingProblem};
use autockt_core::{
    deploy, sample_uniform, train, DeployConfig, DeployStats, TrainConfig, TrainResult,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Experiment budget: laptop-scale defaults, `--full` for paper-scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Deployment targets for generalization measurement.
    pub deploy_targets: usize,
    /// Targets given to the GA baselines (each GA run is hundreds of
    /// simulations, so these are the expensive rows).
    pub ga_targets: usize,
    /// PPO iteration cap for training.
    pub train_iters: usize,
}

impl Scale {
    /// Resolves the scale from the command line (`--full`, or explicit
    /// `--deploy N` / `--ga N` / `--iters N` overrides).
    ///
    /// # Errors
    ///
    /// Names the override whose value does not parse (see
    /// [`crate::flag_or`]).
    pub fn resolve(default_deploy: usize, full_deploy: usize) -> Result<Scale, String> {
        let full = crate::full_scale();
        Ok(Scale {
            deploy_targets: flag_or("--deploy", if full { full_deploy } else { default_deploy })?,
            ga_targets: flag_or("--ga", if full { 40 } else { 12 })?,
            train_iters: flag_or("--iters", if full { 100 } else { 60 })?,
        })
    }
}

/// Trains an AutoCkt agent with the tuned defaults of this reproduction.
pub fn train_agent(
    problem: Arc<dyn SizingProblem>,
    iters: usize,
    horizon: usize,
    seed: u64,
) -> TrainResult {
    let cfg = TrainConfig {
        max_iters: iters,
        horizon,
        seed,
        ..TrainConfig::default()
    };
    let t0 = Instant::now();
    let res = train(problem, &cfg);
    eprintln!(
        "[train] {} iterations, {} simulations, converged={}, {:.1}s",
        res.curve.len(),
        res.env_steps(),
        res.converged,
        t0.elapsed().as_secs_f64()
    );
    res
}

/// Samples `n` uniform deployment targets; `pm_floor` pins a
/// phase-margin-like spec at its lower bound (index given) as the paper
/// does for the PEX transfer runs.
pub fn uniform_targets(
    problem: &dyn SizingProblem,
    n: usize,
    seed: u64,
    pin_to_lo: Option<usize>,
) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = sample_uniform(problem, &mut rng);
            if let Some(i) = pin_to_lo {
                t[i] = problem.specs()[i].lo;
            }
            t
        })
        .collect()
}

/// Deploys and prints a one-line summary.
pub fn deploy_and_report(
    label: &str,
    policy: &autockt_rl::policy::PolicyNet,
    problem: Arc<dyn SizingProblem>,
    targets: &[Vec<f64>],
    horizon: usize,
    mode: SimMode,
    seed: u64,
) -> DeployStats {
    let t0 = Instant::now();
    let stats = deploy(
        policy,
        problem,
        targets,
        &DeployConfig {
            horizon,
            mode,
            stochastic: true,
            seed,
        },
    );
    eprintln!(
        "[deploy:{label}] {}/{} reached, {:.1} sims avg, {:.1}s",
        stats.reached(),
        stats.total(),
        stats.mean_steps_reached(),
        t0.elapsed().as_secs_f64()
    );
    stats
}

/// Mean [`GaOutcome::sims`](autockt_baselines::GaOutcome::sims) over the
/// targets reached; NaN if none. The vanilla GA counts every evaluation,
/// repeated genomes included; GA+ML counts only the genomes it had not
/// evaluated before (see `autockt_baselines::ga`).
pub fn mean_sims_reached(outs: &[autockt_baselines::GaOutcome]) -> f64 {
    let reached: Vec<_> = outs.iter().filter(|o| o.reached).collect();
    if reached.is_empty() {
        f64::NAN
    } else {
        reached.iter().map(|o| o.sims as f64).sum::<f64>() / reached.len() as f64
    }
}

/// A sample-efficiency cell: the mean simulations over the targets
/// reached, or `none reached` when that mean is NaN.
pub fn se_cell(mean_sims: f64) -> String {
    if mean_sims.is_nan() {
        "none reached".into()
    } else {
        format!("{mean_sims:.0}")
    }
}

/// A speedup or ratio cell `num / den` (`12.5x`), or `n/a` when either
/// side reached nothing (a NaN mean).
pub fn ratio_cell(num: f64, den: f64) -> String {
    if num.is_nan() || den.is_nan() {
        "n/a".into()
    } else {
        format!("{:.1}x", num / den)
    }
}

/// CSV rows of a deployment: each target's specs, then `reached` (1 or 0)
/// and the simulations spent.
pub fn outcome_rows(stats: &DeployStats) -> Vec<Vec<f64>> {
    stats
        .outcomes
        .iter()
        .map(|o| {
            let mut row = o.target.clone();
            row.push(if o.reached { 1.0 } else { 0.0 });
            row.push(o.steps as f64);
            row
        })
        .collect()
}

/// Prints a training run's reward curve under `title`, one line per PPO
/// iteration, writes it to `csv` under `results/`, then prints `note`
/// (the paper's figure next to the measured one) and the CSV path.
pub fn report_curve(res: &TrainResult, title: &str, csv: &str, note: Option<&str>) {
    println!("\n{title}");
    println!("{:>5} {:>12} {:>14}", "iter", "env_steps", "mean_reward");
    let mut rows = Vec::new();
    for (i, s) in res.curve.iter().enumerate() {
        println!(
            "{:>5} {:>12} {:>14.3}",
            i, s.total_env_steps, s.mean_episode_reward
        );
        rows.push(vec![
            i as f64,
            s.total_env_steps as f64,
            s.mean_episode_reward,
            s.success_rate,
            s.mean_episode_len,
        ]);
    }
    let header = [
        "iter",
        "env_steps",
        "mean_episode_reward",
        "success_rate",
        "mean_ep_len",
    ];
    let path = write_csv(csv, &header, &rows);
    if let Some(note) = note {
        println!("\n{note}");
    }
    println!("wrote {}", path.display());
}

/// The constants of one of Tables I–III: sample efficiency (SE) and
/// generalization of AutoCkt against a vanilla GA and, where the paper
/// reports one, a random RL agent.
pub struct Table {
    /// Heading of the printed comparison.
    pub title: &'static str,
    /// Training seed.
    pub train_seed: u64,
    /// Seed of the uniform deployment targets.
    pub target_seed: u64,
    /// Seed of the stochastic deployment.
    pub deploy_seed: u64,
    /// The random agent's seed and the paper's value for it; `None` runs
    /// no random agent (Table I reports none).
    pub random: Option<(u64, &'static str)>,
    /// GA seed of the first GA target; target `i` runs at `ga_seed + i`.
    pub ga_seed: u64,
    /// GA generation cap.
    pub ga_generations: usize,
    /// The paper's GA SE, AutoCkt SE, speedup and AutoCkt generalization.
    pub paper: [&'static str; 4],
    /// CSV file of the AutoCkt deployment outcomes, under `results/`.
    pub csv: &'static str,
    /// Its header: the spec names, then `reached` and `steps`.
    pub header: &'static [&'static str],
}

/// The measured numbers of one [`run_table`] comparison.
#[derive(Debug, Clone, Copy)]
pub struct TableNumbers {
    /// Mean GA simulations over the GA targets reached (NaN if none).
    pub ga_mean_sims: f64,
    /// Mean AutoCkt simulations over the targets reached (NaN if none).
    pub autockt_mean_sims: f64,
    /// AutoCkt's `(reached, total)` deployment targets.
    pub autockt_reached: (usize, usize),
    /// The random agent's `(reached, total)`, when the table runs one.
    pub random_reached: Option<(usize, usize)>,
}

/// Runs one of Tables I–III: trains AutoCkt on `problem`, deploys it on
/// `scale.deploy_targets` uniform targets, runs the random agent on the
/// same targets and the GA population sweep on the first
/// `scale.ga_targets`, prints the paper-vs-measured comparison and writes
/// the AutoCkt outcomes as CSV.
pub fn run_table(problem: Arc<dyn SizingProblem>, scale: Scale, table: &Table) -> TableNumbers {
    // The paper's trajectory length for all three circuits.
    let horizon = 30;
    let mode = SimMode::Schematic;
    let trained = train_agent(
        Arc::clone(&problem),
        scale.train_iters,
        horizon,
        table.train_seed,
    );
    let targets = uniform_targets(
        problem.as_ref(),
        scale.deploy_targets,
        table.target_seed,
        None,
    );
    let stats = deploy_and_report(
        problem.name(),
        &trained.agent.policy,
        Arc::clone(&problem),
        &targets,
        horizon,
        mode,
        table.deploy_seed,
    );
    let random = table.random.map(|(seed, paper)| {
        let r = random_agent_deploy(Arc::clone(&problem), &targets, horizon, mode, seed);
        (r, paper)
    });
    let ga_outs: Vec<_> = targets
        .iter()
        .take(scale.ga_targets)
        .enumerate()
        .map(|(i, t)| {
            let cfg = GaConfig {
                generations: table.ga_generations,
                seed: table.ga_seed + i as u64,
                ..GaConfig::default()
            };
            ga_solve_sweep(problem.as_ref(), t, mode, &[20, 40, 80], &cfg)
        })
        .collect();
    let ga_mean = mean_sims_reached(&ga_outs);
    let autockt_mean = stats.mean_steps_reached();

    let share = |s: &DeployStats| {
        let pct = 100.0 * s.generalization();
        format!("{}/{} ({pct:.1}%)", s.reached(), s.total())
    };
    let [ga_paper, autockt_paper, speedup_paper, gen_paper] = table.paper;
    let mut rows = vec![
        ("Genetic Alg. SE (sims)", ga_paper.into(), se_cell(ga_mean)),
        (
            "AutoCkt SE (sims)",
            autockt_paper.into(),
            se_cell(autockt_mean),
        ),
        (
            "AutoCkt speedup vs GA",
            speedup_paper.into(),
            ratio_cell(ga_mean, autockt_mean),
        ),
    ];
    if let Some((r, paper)) = &random {
        rows.push(("Random RL agent generalization", (*paper).into(), share(r)));
    }
    rows.push(("AutoCkt generalization", gen_paper.into(), share(&stats)));
    print_comparison(table.title, &rows);

    let path = write_csv(table.csv, table.header, &outcome_rows(&stats));
    println!("wrote {}", path.display());
    TableNumbers {
        ga_mean_sims: ga_mean,
        autockt_mean_sims: autockt_mean,
        autockt_reached: (stats.reached(), stats.total()),
        random_reached: random.map(|(r, _)| (r.reached(), r.total())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::Tia;

    /// Nothing reached reads as words, never as `NaN`; a measured mean
    /// keeps its paper-table format.
    #[test]
    fn cells_name_an_empty_mean_instead_of_printing_nan() {
        assert_eq!(se_cell(f64::NAN), "none reached");
        assert_eq!(se_cell(148.4), "148");
        assert_eq!(ratio_cell(148.0, f64::NAN), "n/a");
        assert_eq!(ratio_cell(f64::NAN, 16.0), "n/a");
        assert_eq!(ratio_cell(f64::NAN, f64::NAN), "n/a");
        assert_eq!(ratio_cell(148.0, 16.0), "9.2x");
    }

    /// The Tables I–III runner end to end at a tiny budget: an untrained
    /// policy, three deployment targets, one GA target under a two-generation
    /// cap. Its CSV holds one row per target, and a seeded rerun repeats
    /// every number.
    #[test]
    fn table_runner_is_consistent_and_repeats() {
        let table = Table {
            title: "smoke",
            train_seed: 1,
            target_seed: 2,
            deploy_seed: 3,
            random: Some((4, "-")),
            ga_seed: 5,
            ga_generations: 2,
            paper: ["-"; 4],
            csv: "test_table_runner.csv",
            header: &["settling", "cutoff", "noise", "reached", "steps"],
        };
        let scale = Scale {
            deploy_targets: 3,
            ga_targets: 1,
            train_iters: 0,
        };
        let run = || run_table(Arc::new(Tia::default()), scale, &table);
        let a = run();
        let csv = std::fs::read_to_string(crate::results_dir().join(table.csv)).unwrap();
        let b = run();
        std::fs::remove_file(crate::results_dir().join(table.csv)).ok();

        for (reached, total) in [a.autockt_reached, a.random_reached.unwrap()] {
            assert_eq!(total, 3);
            assert!(reached <= total);
        }
        let specs = Tia::default().specs().len();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.split(',').count() == specs + 2));
        // NaN (no GA target reached) fails too.
        assert!(a.ga_mean_sims >= 1.0, "GA mean {}", a.ga_mean_sims);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
