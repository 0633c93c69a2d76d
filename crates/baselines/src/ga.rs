//! Vanilla genetic algorithm baseline (the comparator in Tables I–IV).
//!
//! Genome = the vector of parameter grid indices; fitness = the Eq. 1
//! reward against a fixed target ([`SIM_FAIL_REWARD`] for a genome with
//! no operating point, as in the environment); tournament selection,
//! uniform crossover, per-gene mutation; optional initial-population sweep
//! (the paper picked the best GA configuration per circuit the same way).
//!
//! Sample efficiency counts every evaluation as a simulation, repeated
//! genomes included (a GA driving a real simulator does not memoize — this
//! matches how the paper's numbers are counted). Evaluation goes through
//! the same [`EvalSession`] pipeline as the RL environments: the memo
//! serves repeated genomes, so no compute is spent on a repeat and the
//! evolution is the one an uncached GA would run. Warm-starting is
//! disabled — GA genomes are arbitrary jumps across the grid, outside the
//! one-notch adjacency premise that makes the previous operating point a
//! trustworthy Newton guess.

use autockt_circuits::{EvalSession, SharedMemo, SimMode, SizingProblem};
use autockt_core::{is_success, reward, SIM_FAIL_REWARD};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;

/// Genetic-algorithm hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Maximum generations before giving up.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-gene crossover probability (uniform crossover).
    pub crossover_p: f64,
    /// Per-gene mutation probability.
    pub mutation_p: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 40,
            generations: 60,
            tournament: 3,
            crossover_p: 0.5,
            mutation_p: 0.15,
            elitism: 2,
            seed: 0,
        }
    }
}

/// Result of one GA run against one target.
#[derive(Debug, Clone, PartialEq)]
pub struct GaOutcome {
    /// Whether a design meeting the target was found.
    pub reached: bool,
    /// Simulations performed (the sample-efficiency metric): every
    /// evaluation, repeated genomes included.
    pub sims: usize,
    /// Best Eq. 1 reward seen.
    pub best_reward: f64,
    /// Best genome seen.
    pub best_idx: Vec<usize>,
}

struct Evaluator<'a> {
    session: EvalSession<'a>,
    target: &'a [f64],
    sims: usize,
}

impl<'a> Evaluator<'a> {
    fn eval(&mut self, idx: &[usize]) -> f64 {
        self.sims += 1;
        match self.session.evaluate(idx) {
            Ok(specs) => reward(self.session.problem().specs(), &specs, self.target),
            Err(_) => SIM_FAIL_REWARD,
        }
    }
}

/// Runs the GA against one target specification.
pub fn ga_solve(
    problem: &dyn SizingProblem,
    target: &[f64],
    mode: SimMode,
    cfg: &GaConfig,
) -> GaOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cards = problem.cardinalities();
    // Memoize duplicate genomes but evaluate fresh ones cold: consecutive
    // genomes are not grid-adjacent, so the warm-start premise (previous
    // operating point seeds Newton) does not hold here. The memo is
    // unbounded, so a repeated genome is never solved twice (GA runs
    // evaluate thousands of unique genomes, not millions).
    let mut ev = Evaluator {
        session: EvalSession::borrowed(problem, mode)
            .with_warm_start(false)
            .with_shared_memo(Arc::new(SharedMemo::new(usize::MAX))),
        target,
        sims: 0,
    };

    let random_genome = |rng: &mut StdRng| -> Vec<usize> {
        cards.iter().map(|&k| rng.random_range(0..k)).collect()
    };
    let mut pop: Vec<(Vec<usize>, f64)> = (0..cfg.population)
        .map(|_| {
            let g = random_genome(&mut rng);
            let f = ev.eval(&g);
            (g, f)
        })
        .collect();

    // `total_cmp` keeps selection deterministic even if a fitness ever
    // came back NaN; an empty population (population = 0) cannot reach
    // anything, so it short-circuits instead of panicking.
    let mut best = match pop.iter().max_by(|a, b| a.1.total_cmp(&b.1)).cloned() {
        Some(b) => b,
        None => return empty_outcome(ev.sims),
    };

    for _gen in 0..cfg.generations {
        if is_success(best.1) {
            return GaOutcome {
                reached: true,
                sims: ev.sims,
                best_reward: best.1,
                best_idx: best.0,
            };
        }
        // Sort descending by fitness for elitism.
        pop.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut next: Vec<(Vec<usize>, f64)> = pop.iter().take(cfg.elitism).cloned().collect();
        while next.len() < cfg.population {
            let child = offspring(&mut rng, &pop, &cards, cfg);
            let f = ev.eval(&child);
            if is_success(f) {
                return GaOutcome {
                    reached: true,
                    sims: ev.sims,
                    best_reward: f,
                    best_idx: child,
                };
            }
            if f > best.1 {
                best = (child.clone(), f);
            }
            next.push((child, f));
        }
        pop = next;
    }
    GaOutcome {
        reached: is_success(best.1),
        sims: ev.sims,
        best_reward: best.1,
        best_idx: best.0,
    }
}

/// Runs [`ga_solve`] over a sweep of population sizes and returns the best
/// outcome (fewest simulations among runs that reached the target, else
/// the highest reward), mirroring the paper's "best result obtained when
/// sweeping initial population sizes".
pub fn ga_solve_sweep(
    problem: &dyn SizingProblem,
    target: &[f64],
    mode: SimMode,
    populations: &[usize],
    base: &GaConfig,
) -> GaOutcome {
    let mut best: Option<GaOutcome> = None;
    for (i, &p) in populations.iter().enumerate() {
        let cfg = GaConfig {
            population: p,
            seed: base.seed ^ ((i as u64 + 1) << 16),
            ..base.clone()
        };
        let out = ga_solve(problem, target, mode, &cfg);
        best = Some(match best {
            None => out,
            Some(prev) => match (prev.reached, out.reached) {
                (true, true) => {
                    if out.sims < prev.sims {
                        out
                    } else {
                        prev
                    }
                }
                (false, true) => out,
                (true, false) => prev,
                (false, false) => {
                    if out.best_reward > prev.best_reward {
                        out
                    } else {
                        prev
                    }
                }
            },
        });
    }
    // An empty sweep ran no GA at all; report that honestly.
    best.unwrap_or_else(|| empty_outcome(0))
}

/// One child of `pop`: two tournament-selected parents, uniform
/// crossover, then per-gene mutation, half local nudges and half resets
/// (the classic exploration/exploitation mix). Draws from `rng` in that
/// order, so [`ga_solve`] and [`crate::ga_ml::ga_ml_solve`] breed alike.
pub(crate) fn offspring(
    rng: &mut StdRng,
    pop: &[(Vec<usize>, f64)],
    cards: &[usize],
    cfg: &GaConfig,
) -> Vec<usize> {
    let parent = |rng: &mut StdRng| -> usize {
        let mut best = rng.random_range(0..pop.len());
        for _ in 1..cfg.tournament {
            let j = rng.random_range(0..pop.len());
            if pop[j].1 > pop[best].1 {
                best = j;
            }
        }
        best
    };
    let (pa, pb) = (parent(rng), parent(rng));
    let mut child: Vec<usize> = pop[pa]
        .0
        .iter()
        .zip(&pop[pb].0)
        .map(|(&a, &b)| {
            if rng.random::<f64>() < cfg.crossover_p {
                b
            } else {
                a
            }
        })
        .collect();
    for (g, &k) in child.iter_mut().zip(cards) {
        if rng.random::<f64>() < cfg.mutation_p {
            if rng.random::<bool>() {
                let delta: i64 = if rng.random::<bool>() { 1 } else { -1 };
                *g = (*g as i64 + delta).clamp(0, k as i64 - 1) as usize;
            } else {
                *g = rng.random_range(0..k);
            }
        }
    }
    child
}

/// Outcome of a degenerate run (empty population or empty sweep):
/// nothing simulated, nothing reached.
pub(crate) fn empty_outcome(sims: usize) -> GaOutcome {
    GaOutcome {
        reached: false,
        sims,
        best_reward: f64::NEG_INFINITY,
        best_idx: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::Tia;
    use autockt_core::sample_feasible;

    #[test]
    fn ga_reaches_feasible_tia_target() {
        let tia = Tia::default();
        let mut rng = StdRng::seed_from_u64(21);
        let target = sample_feasible(&tia, &mut rng, 50);
        let cfg = GaConfig {
            population: 30,
            generations: 30,
            seed: 5,
            ..GaConfig::default()
        };
        let out = ga_solve(&tia, &target, SimMode::Schematic, &cfg);
        assert!(out.reached, "GA should solve a feasible TIA target");
        assert!(out.sims >= 1);
        assert!(is_success(out.best_reward));
    }

    #[test]
    fn sweep_returns_some_outcome() {
        let tia = Tia::default();
        let mut rng = StdRng::seed_from_u64(23);
        let target = sample_feasible(&tia, &mut rng, 50);
        let out = ga_solve_sweep(
            &tia,
            &target,
            SimMode::Schematic,
            &[10, 20],
            &GaConfig {
                generations: 10,
                ..GaConfig::default()
            },
        );
        assert!(out.sims > 0);
    }
}
