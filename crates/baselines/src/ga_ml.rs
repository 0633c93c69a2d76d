//! GA + neural-discriminator baseline in the style of BagNet
//! (Hakhamaneshi et al., ICCAD 2019 — reference \[7\] of the AutoCkt paper,
//! the prior state of the art Table IV compares against).
//!
//! The mechanism that makes BagNet sample-efficient is reproduced: a neural
//! network is trained online on all designs simulated so far and used to
//! *screen* GA offspring, so only the children predicted to be promising
//! are actually simulated. Sample efficiency counts simulations, not model
//! queries. Unlike the vanilla GA's count, a repeated genome is not one:
//! it is served from the memo and adds no dataset row. A genome whose
//! operating point does not solve scores [`SIM_FAIL_REWARD`], as in the
//! environment.

use crate::ga::{empty_outcome, offspring, GaConfig, GaOutcome};
use autockt_circuits::{EvalSession, SharedMemo, SimMode, SizingProblem};
use autockt_core::{is_success, reward, SIM_FAIL_REWARD};
use autockt_rl::mlp::{Mlp, Tape, TILE};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;

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
    let cards = problem.cardinalities();
    let n = cards.len();
    let mut model = Mlp::new(&[n, 32, 32, 1], &mut rng);
    let mut tape = Tape::new(&model);
    let mut dout = Vec::with_capacity(TILE);

    // Evaluate through the shared session pipeline: duplicate genomes are
    // served from the memo cache and count neither as sims nor as fresh
    // dataset rows. Warm-starting is off — genomes are arbitrary grid
    // jumps, not one-notch moves — and the memo is unbounded, so that
    // accounting never drifts with a capacity limit.
    let mut session = EvalSession::borrowed(problem, mode)
        .with_warm_start(false)
        .with_shared_memo(Arc::new(SharedMemo::new(usize::MAX)));
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
            Err(_) => SIM_FAIL_REWARD,
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
    let mut pop: Vec<(Vec<usize>, f64)> = (0..cfg.population)
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

    for _gen in 0..cfg.generations {
        if is_success(best.1) {
            return GaOutcome {
                reached: true,
                sims,
                best_reward: best.1,
                best_idx: best.0,
            };
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
            .map(|_| offspring(&mut rng, &pop, &cards, cfg))
            .collect();
        let keep = ((cfg.population as f64 * SCREEN_KEEP).ceil() as usize).max(2);
        let survivors: Vec<Vec<usize>> = if dataset.len() >= WARMUP {
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
        let mut next: Vec<(Vec<usize>, f64)> = pop.iter().take(cfg.elitism).cloned().collect();
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
        next.truncate(cfg.population.max(keep));
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
        let cfg = GaConfig {
            population: 20,
            generations: 30,
            seed: 9,
            ..GaConfig::default()
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
            ..GaConfig::default()
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
