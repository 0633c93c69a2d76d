//! GA + neural-discriminator baseline in the style of BagNet
//! (Hakhamaneshi et al., ICCAD 2019 — reference \[7\] of the AutoCkt paper,
//! the prior state of the art Table IV compares against).
//!
//! The mechanism that makes BagNet sample-efficient is reproduced: a neural
//! network is trained online on all designs simulated so far and used to
//! *screen* GA offspring, so only the children predicted to be promising
//! are actually simulated. Genomes are scored, bred and counted through
//! the vanilla GA's evaluator (see [`crate::ga`]). Sample efficiency
//! counts simulations, not model queries, and unlike the vanilla GA's
//! count a repeated genome is not one: [`GaOutcome::sims`] is the
//! session's solve count, and a genome adds a dataset row exactly when it
//! was solved.

use crate::ga::{offspring, outcome, random_genome, Evaluator, GaConfig, GaOutcome, ELITISM};
use autockt_circuits::{SimMode, SizingProblem};
use autockt_core::is_success;
use autockt_rl::mlp::{Mlp, Tape, TILE};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fraction of a generation's population simulated after screening.
const SCREEN_KEEP: f64 = 0.25;
/// Simulated-sample count before the model is trusted for screening.
const WARMUP: usize = 20;
/// Gradient epochs over the dataset per generation.
const TRAIN_EPOCHS: usize = 30;
/// Model learning rate.
const LR: f64 = 3e-3;

fn features(idx: &[usize], cards: &[usize]) -> Vec<f64> {
    idx.iter()
        .zip(cards)
        .map(|(i, k)| 2.0 * *i as f64 / (*k as f64 - 1.0).max(1.0) - 1.0)
        .collect()
}

/// Scores genome `g`, adding it to the discriminator's `dataset` when the
/// session solved it (a memo hit is a genome the dataset already holds).
fn simulate(ev: &mut Evaluator<'_>, g: &[usize], dataset: &mut Vec<(Vec<f64>, f64)>) -> f64 {
    let solves = ev.solves();
    let f = ev.score(g);
    if ev.solves() > solves {
        dataset.push((features(g, &ev.cards), f));
    }
    f
}

/// Runs the discriminator-boosted GA against one target. `cfg.population`
/// sizes the initial, fully simulated population; each generation breeds
/// four times that many candidates and simulates the quarter of
/// `cfg.population` (at least two) the discriminator ranks highest.
pub fn ga_ml_solve(
    problem: &dyn SizingProblem,
    target: &[f64],
    mode: SimMode,
    cfg: &GaConfig,
) -> GaOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ev = Evaluator::new(problem, target, mode);
    let mut model = Mlp::new(&[ev.cards.len(), 32, 32, 1], &mut rng);
    let mut tape = Tape::new(&model);
    let mut dout = Vec::with_capacity(TILE);
    let mut dataset: Vec<(Vec<f64>, f64)> = Vec::new();

    // Initial population, fully simulated.
    let mut pop: Vec<(Vec<usize>, f64)> = (0..cfg.population)
        .map(|_| {
            let g = random_genome(&mut rng, &ev.cards);
            let f = simulate(&mut ev, &g, &mut dataset);
            (g, f)
        })
        .collect();
    // As in `ga_solve`: `total_cmp` instead of a panicking comparator,
    // and an empty population ends with no genome at reward −∞.
    let best = pop.iter().max_by(|a, b| a.1.total_cmp(&b.1)).cloned();
    let mut best = best.unwrap_or((Vec::new(), f64::NEG_INFINITY));

    for _gen in 0..cfg.generations {
        if is_success(best.1) {
            return outcome(best, ev.solves());
        }
        // Retrain the discriminator on everything simulated so far.
        if dataset.len() >= WARMUP {
            for _ in 0..TRAIN_EPOCHS {
                model.zero_grad();
                // Full batch, walked in order a tile at a time.
                for tile in dataset.chunks(TILE) {
                    tape.load(tile.iter().map(|(x, _)| x.as_slice()));
                    let out = model.forward_tile(&mut tape);
                    dout.clear();
                    dout.extend(out.iter().zip(tile).map(|(o, (_, y))| o - y));
                    model.backward_tile(&mut tape, &dout);
                }
                model.scale_grad(1.0 / dataset.len() as f64);
                model.adam_step(LR);
            }
        }
        // Generate a large pool of children, screen, simulate survivors.
        pop.sort_by(|a, b| b.1.total_cmp(&a.1));
        let pool: Vec<Vec<usize>> = (0..cfg.population * 4)
            .map(|_| offspring(&mut rng, &pop, &ev.cards))
            .collect();
        let keep = ((cfg.population as f64 * SCREEN_KEEP).ceil() as usize).max(2);
        let survivors: Vec<Vec<usize>> = if dataset.len() >= WARMUP {
            // Screen by predicted reward.
            let mut scored: Vec<(Vec<usize>, f64)> = pool
                .into_iter()
                .map(|g| {
                    let p = model.forward(&features(&g, &ev.cards))[0];
                    (g, p)
                })
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            scored.into_iter().take(keep).map(|(g, _)| g).collect()
        } else {
            pool.into_iter().take(keep).collect()
        };
        let mut next: Vec<(Vec<usize>, f64)> = pop.iter().take(ELITISM).cloned().collect();
        for child in survivors {
            let f = simulate(&mut ev, &child, &mut dataset);
            if f > best.1 {
                best = (child.clone(), f);
            }
            if is_success(f) {
                return outcome((child, f), ev.solves());
            }
            next.push((child, f));
        }
        // Keep the population at a constant size with the fittest seen.
        next.sort_by(|a, b| b.1.total_cmp(&a.1));
        next.truncate(cfg.population.max(keep));
        pop = next;
    }
    outcome(best, ev.solves())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::Tia;
    use autockt_core::sample_feasible;

    #[test]
    fn ga_ml_reaches_feasible_target() {
        let tia = Tia::default();
        let mut rng = StdRng::seed_from_u64(41);
        let target = sample_feasible(&tia, &mut rng, 50);
        let cfg = GaConfig {
            population: 20,
            generations: 30,
            seed: 9,
        };
        let out = ga_ml_solve(&tia, &target, SimMode::Schematic, &cfg);
        assert!(out.reached, "GA+ML should solve a feasible target");
    }

    #[test]
    fn screening_reduces_simulations_versus_vanilla() {
        // Compare sims on the same target with the same generation budget:
        // the screened GA must simulate fewer designs. The vanilla GA
        // counts every evaluation, GA+ML only genomes it had not evaluated
        // before (see the module doc).
        let tia = Tia::default();
        let mut rng = StdRng::seed_from_u64(42);
        let target = sample_feasible(&tia, &mut rng, 50);
        let base = GaConfig {
            population: 24,
            generations: 12,
            seed: 10,
        };
        let vanilla = crate::ga::ga_solve(&tia, &target, SimMode::Schematic, &base);
        let boosted = ga_ml_solve(&tia, &target, SimMode::Schematic, &base);
        if vanilla.reached && boosted.reached {
            assert!(
                boosted.sims <= vanilla.sims,
                "screened {} vs vanilla {}",
                boosted.sims,
                vanilla.sims
            );
        }
    }
}
