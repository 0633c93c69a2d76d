//! GA + neural-discriminator baseline in the style of BagNet
//! (Hakhamaneshi et al., ICCAD 2019 — reference \[7\] of the AutoCkt paper,
//! the prior state of the art Table IV compares against).
//!
//! The mechanism that makes BagNet sample-efficient is reproduced: a neural
//! network is trained online on all designs simulated so far and used to
//! *screen* GA offspring, so only the children predicted to be promising
//! are actually simulated. Genomes are scored and bred through the
//! vanilla GA's evaluator (see [`crate::ga`]). Sample efficiency counts
//! simulations, not model queries, and unlike the vanilla GA a repeated
//! genome costs none: a map of the genomes scored so far returns a
//! repeat's stored score without a solve, only a new genome adds a
//! dataset row, and [`GaOutcome::sims`] is the map's length.

use crate::ga::{offspring, outcome, random_genome, Evaluator, GaConfig, GaOutcome, ELITISM};
use autockt_circuits::{SimMode, SizingProblem};
use autockt_core::is_success;
use autockt_rl::mlp::{Mlp, Tape, TILE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

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

/// The genomes scored so far, the discriminator's dataset, and the
/// evaluator that simulates each new genome once.
struct Scored<'a> {
    ev: Evaluator<'a>,
    seen: HashMap<Vec<usize>, f64>,
    dataset: Vec<(Vec<f64>, f64)>,
}

impl Scored<'_> {
    /// The score of genome `g`: stored for a repeat, else simulated and
    /// added to the dataset.
    fn score(&mut self, g: &[usize]) -> f64 {
        if let Some(&f) = self.seen.get(g) {
            return f;
        }
        let f = self.ev.score(g);
        self.seen.insert(g.to_vec(), f);
        self.dataset.push((features(g, &self.ev.cards), f));
        f
    }

    /// Simulations spent: one per distinct genome.
    fn sims(&self) -> usize {
        self.seen.len()
    }
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
    let mut sc = Scored {
        ev: Evaluator::new(problem, target, mode),
        seen: HashMap::new(),
        dataset: Vec::new(),
    };
    let cards = sc.ev.cards.clone();
    let mut model = Mlp::new(&[cards.len(), 32, 32, 1], &mut rng);
    let mut tape = Tape::new(&model);
    let mut dout = Vec::with_capacity(TILE);

    // Initial population, fully simulated.
    let mut pop: Vec<(Vec<usize>, f64)> = (0..cfg.population)
        .map(|_| {
            let g = random_genome(&mut rng, &cards);
            let f = sc.score(&g);
            (g, f)
        })
        .collect();
    // As in `ga_solve`: `total_cmp` instead of a panicking comparator,
    // and an empty population ends with no genome at reward −∞.
    let best = pop.iter().max_by(|a, b| a.1.total_cmp(&b.1)).cloned();
    let mut best = best.unwrap_or((Vec::new(), f64::NEG_INFINITY));

    for _gen in 0..cfg.generations {
        if is_success(best.1) {
            return outcome(best, sc.sims());
        }
        // Retrain the discriminator on everything simulated so far.
        if sc.dataset.len() >= WARMUP {
            for _ in 0..TRAIN_EPOCHS {
                model.zero_grad();
                // Full batch, walked in order a tile at a time.
                for tile in sc.dataset.chunks(TILE) {
                    tape.load(tile.iter().map(|(x, _)| x.as_slice()));
                    let out = model.forward_tile(&mut tape);
                    dout.clear();
                    dout.extend(out.iter().zip(tile).map(|(o, (_, y))| o - y));
                    model.backward_tile(&mut tape, &dout);
                }
                model.scale_grad(1.0 / sc.dataset.len() as f64);
                model.adam_step(LR);
            }
        }
        // Generate a large pool of children, screen, simulate survivors.
        pop.sort_by(|a, b| b.1.total_cmp(&a.1));
        let pool: Vec<Vec<usize>> = (0..cfg.population * 4)
            .map(|_| offspring(&mut rng, &pop, &cards))
            .collect();
        let keep = ((cfg.population as f64 * SCREEN_KEEP).ceil() as usize).max(2);
        let survivors: Vec<Vec<usize>> = if sc.dataset.len() >= WARMUP {
            // Screen by predicted reward.
            let mut scored: Vec<(Vec<usize>, f64)> = pool
                .into_iter()
                .map(|g| {
                    let p = model.forward(&features(&g, &cards))[0];
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
            let f = sc.score(&child);
            if f > best.1 {
                best = (child.clone(), f);
            }
            if is_success(f) {
                return outcome((child, f), sc.sims());
            }
            next.push((child, f));
        }
        // Keep the population at a constant size with the fittest seen.
        next.sort_by(|a, b| b.1.total_cmp(&a.1));
        next.truncate(cfg.population.max(keep));
        pop = next;
    }
    outcome(best, sc.sims())
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
        // simulates every evaluation, GA+ML each distinct genome once (see
        // the module doc).
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
