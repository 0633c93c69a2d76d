//! GA + neural-discriminator baseline in the style of BagNet
//! (Hakhamaneshi et al., ICCAD 2019 — reference \[7\] of the AutoCkt paper,
//! the prior state of the art Table IV compares against).
//!
//! The mechanism that makes BagNet sample-efficient is reproduced: a neural
//! network is trained online on all designs simulated so far and used to
//! *screen* GA offspring, so only the children predicted to be promising
//! are actually simulated. Sample efficiency counts simulations, not model
//! queries.

use crate::ga::{empty_outcome, offspring, GaConfig, GaOutcome};
use autockt_circuits::{EvalSession, SimMode, SizingProblem};
use autockt_core::{is_success, reward};
use autockt_rl::mlp::{Activation, Mlp, Tape, TILE};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration of the GA+ML optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct GaMlConfig {
    /// Underlying GA settings (population here means *candidates generated*
    /// per generation, before screening).
    pub ga: GaConfig,
    /// Fraction of generated children actually simulated after screening.
    pub screen_keep: f64,
    /// Simulated-sample count before the model is trusted for screening.
    pub warmup: usize,
    /// Gradient epochs over the dataset per generation.
    pub train_epochs: usize,
    /// Model learning rate.
    pub lr: f64,
}

impl Default for GaMlConfig {
    fn default() -> Self {
        GaMlConfig {
            ga: GaConfig::default(),
            screen_keep: 0.25,
            warmup: 20,
            train_epochs: 30,
            lr: 3e-3,
        }
    }
}

fn features(idx: &[usize], cards: &[usize]) -> Vec<f64> {
    idx.iter()
        .zip(cards)
        .map(|(i, k)| 2.0 * *i as f64 / (*k as f64 - 1.0).max(1.0) - 1.0)
        .collect()
}

/// Runs the discriminator-boosted GA against one target.
pub fn ga_ml_solve(
    problem: &dyn SizingProblem,
    target: &[f64],
    mode: SimMode,
    cfg: &GaMlConfig,
) -> GaOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.ga.seed);
    let cards = problem.cardinalities();
    let n = cards.len();
    let mut model = Mlp::new(
        &[n, 32, 32, 1],
        Activation::Tanh,
        Activation::Linear,
        &mut rng,
    );
    let mut tape = Tape::new(&model);
    let mut dout = Vec::with_capacity(TILE);

    // Evaluate through the shared session pipeline: duplicate genomes are
    // served from the memo cache and count neither as sims nor as fresh
    // dataset rows. Warm-starting is off — genomes are arbitrary grid
    // jumps, not one-notch moves — and the memo is unbounded like the
    // pre-session cache so that accounting never drifts with a capacity
    // limit.
    let mut session = EvalSession::borrowed(problem, mode)
        .with_warm_start(false)
        .with_memo_capacity(usize::MAX);
    let mut sims = 0usize;
    let mut dataset: Vec<(Vec<f64>, f64)> = Vec::new();
    let simulate = |idx: &[usize],
                    sims: &mut usize,
                    dataset: &mut Vec<(Vec<f64>, f64)>,
                    session: &mut EvalSession<'_>|
     -> f64 {
        let hits_before = session.memo_hits();
        let res = session.evaluate(idx);
        let fresh = session.memo_hits() == hits_before;
        if fresh {
            *sims += 1;
        }
        let r = match res {
            Ok(specs) => reward(problem.specs(), &specs, target),
            Err(_) => -5.0,
        };
        if fresh {
            dataset.push((features(idx, &cards), r));
        }
        r
    };

    let random_genome = |rng: &mut StdRng| -> Vec<usize> {
        cards.iter().map(|&k| rng.random_range(0..k)).collect()
    };

    // Initial population, fully simulated.
    let mut pop: Vec<(Vec<usize>, f64)> = (0..cfg.ga.population)
        .map(|_| {
            let g = random_genome(&mut rng);
            let f = simulate(&g, &mut sims, &mut dataset, &mut session);
            (g, f)
        })
        .collect();
    // As in `ga_solve`: `total_cmp` instead of a panicking comparator,
    // and an empty population short-circuits to a degenerate outcome.
    let mut best = match pop.iter().max_by(|a, b| a.1.total_cmp(&b.1)).cloned() {
        Some(b) => b,
        None => return empty_outcome(sims),
    };

    for _gen in 0..cfg.ga.generations {
        if is_success(best.1) {
            return GaOutcome {
                reached: true,
                sims,
                best_reward: best.1,
                best_idx: best.0,
            };
        }
        // Retrain the discriminator on everything simulated so far.
        if dataset.len() >= cfg.warmup {
            for _ in 0..cfg.train_epochs {
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
                model.adam_step(cfg.lr);
            }
        }
        // Generate a large pool of children, screen, simulate survivors.
        pop.sort_by(|a, b| b.1.total_cmp(&a.1));
        let pool: Vec<Vec<usize>> = (0..cfg.ga.population * 4)
            .map(|_| offspring(&mut rng, &pop, &cards, &cfg.ga))
            .collect();
        let keep = ((cfg.ga.population as f64 * cfg.screen_keep).ceil() as usize).max(2);
        let survivors: Vec<Vec<usize>> = if dataset.len() >= cfg.warmup {
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
        let mut next: Vec<(Vec<usize>, f64)> = pop.iter().take(cfg.ga.elitism).cloned().collect();
        for child in survivors {
            let f = simulate(&child, &mut sims, &mut dataset, &mut session);
            if f > best.1 {
                best = (child.clone(), f);
            }
            if is_success(f) {
                return GaOutcome {
                    reached: true,
                    sims,
                    best_reward: f,
                    best_idx: child,
                };
            }
            next.push((child, f));
        }
        // Keep the population at a constant size with the fittest seen.
        next.sort_by(|a, b| b.1.total_cmp(&a.1));
        next.truncate(cfg.ga.population.max(keep));
        pop = next;
    }
    GaOutcome {
        reached: is_success(best.1),
        sims,
        best_reward: best.1,
        best_idx: best.0,
    }
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
        let cfg = GaMlConfig {
            ga: GaConfig {
                population: 20,
                generations: 30,
                seed: 9,
                ..GaConfig::default()
            },
            ..GaMlConfig::default()
        };
        let out = ga_ml_solve(&tia, &target, SimMode::Schematic, &cfg);
        assert!(out.reached, "GA+ML should solve a feasible target");
    }

    #[test]
    fn screening_reduces_simulations_versus_vanilla() {
        // Compare unique sims on the same target with the same generation
        // budget: the screened GA must simulate fewer designs.
        let tia = Tia::default();
        let mut rng = StdRng::seed_from_u64(42);
        let target = sample_feasible(&tia, &mut rng, 50);
        let base = GaConfig {
            population: 24,
            generations: 12,
            seed: 10,
            ..GaConfig::default()
        };
        let vanilla = crate::ga::ga_solve(&tia, &target, SimMode::Schematic, &base);
        let boosted = ga_ml_solve(
            &tia,
            &target,
            SimMode::Schematic,
            &GaMlConfig {
                ga: base,
                ..GaMlConfig::default()
            },
        );
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
