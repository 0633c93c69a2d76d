//! Design-space calibration: samples random parameter vectors per topology
//! and prints the percentile distribution of every measured spec next to
//! its declared target-sampling range.
//!
//! Used to verify that the paper's specification ranges sit inside the
//! region our simulator substrate can reach (so deployment generalization
//! percentages are comparable), and to report the fraction of random
//! designs that fail to simulate.
//!
//! Run: `cargo run --release -p autockt_bench --bin calibrate [-- --n 400]`

use autockt_circuits::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn calibrate(problem: &dyn SizingProblem, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cards = problem.cardinalities();
    let nspec = problem.specs().len();
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); nspec];
    let mut failures = 0usize;
    let mut in_box = 0usize;
    for _ in 0..n {
        let idx: Vec<usize> = cards.iter().map(|&k| rng.random_range(0..k)).collect();
        match problem.simulate(&idx, SimMode::Schematic) {
            Ok(specs) => {
                let mut all_in = true;
                for (i, v) in specs.iter().enumerate() {
                    values[i].push(*v);
                    let d = &problem.specs()[i];
                    // "Feasible" in the sample_feasible sense: the design
                    // clears the box in each spec's constraint direction.
                    let ok = match d.kind {
                        SpecKind::HardMin => *v >= d.lo,
                        SpecKind::HardMax | SpecKind::Minimize => *v <= d.hi,
                    };
                    all_in &= ok;
                }
                if all_in {
                    in_box += 1;
                }
            }
            Err(_) => failures += 1,
        }
    }
    println!(
        "\n## {} — {} random designs, {} sim failures, {} fully inside spec box ({:.1}%)",
        problem.name(),
        n,
        failures,
        in_box,
        100.0 * in_box as f64 / n as f64
    );
    println!(
        "{:<16} {:>12} {:>12} | {:>12} {:>12} {:>12} {:>12} {:>12}",
        "spec", "range_lo", "range_hi", "p05", "p25", "p50", "p75", "p95"
    );
    for (i, d) in problem.specs().iter().enumerate() {
        let mut v = values[i].clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite specs"));
        println!(
            "{:<16} {:>12.3e} {:>12.3e} | {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            d.name,
            d.lo,
            d.hi,
            percentile(&v, 0.05),
            percentile(&v, 0.25),
            percentile(&v, 0.50),
            percentile(&v, 0.75),
            percentile(&v, 0.95),
        );
    }
}

/// Estimates, for uniform targets, what fraction of random designs satisfy
/// each (the "random hit rate" — the reciprocal is roughly the sample
/// budget a blind random search needs, a lower bound for the GA rows).
fn hit_rate(problem: &dyn SizingProblem, n_designs: usize, n_targets: usize, seed: u64) {
    use autockt_core::{is_success, reward, sample_uniform};
    let mut rng = StdRng::seed_from_u64(seed);
    let cards = problem.cardinalities();
    let designs: Vec<Vec<f64>> = (0..n_designs)
        .filter_map(|_| {
            let idx: Vec<usize> = cards.iter().map(|&k| rng.random_range(0..k)).collect();
            problem.simulate(&idx, SimMode::Schematic).ok()
        })
        .collect();
    let mut rates = Vec::new();
    for _ in 0..n_targets {
        let t = sample_uniform(problem, &mut rng);
        let hits = designs
            .iter()
            .filter(|d| is_success(reward(problem.specs(), d, &t)))
            .count();
        rates.push(hits as f64 / designs.len() as f64);
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let med = rates[rates.len() / 2];
    println!(
        "{}: random-design hit rate per uniform target: median {:.3} (1-in-{:.0}), p25 {:.3}, p75 {:.3}",
        problem.name(),
        med,
        if med > 0.0 { 1.0 / med } else { f64::INFINITY },
        rates[rates.len() / 4],
        rates[3 * rates.len() / 4]
    );
}

fn main() -> Result<(), String> {
    let n: usize = autockt_bench::flag_or("--n", 400)?;
    if std::env::args().any(|a| a == "--hitrate") {
        hit_rate(&Tia::default(), n, 60, 31);
        hit_rate(&OpAmp2::default(), n, 60, 32);
        hit_rate(&NegGmOta::default(), n, 60, 33);
        return Ok(());
    }
    calibrate(&Tia::default(), n, 11);
    calibrate(&OpAmp2::default(), n, 12);
    calibrate(&NegGmOta::default(), n, 13);
    Ok(())
}
