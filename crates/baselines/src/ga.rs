//! Vanilla genetic algorithm baseline (the comparator in Tables I–IV),
//! and the evaluator it shares with [`crate::ga_ml`].
//!
//! Genome = the vector of parameter grid indices; fitness = the Eq. 1
//! reward against a fixed target ([`SIM_FAIL_REWARD`] for a genome with
//! no operating point, as in the environment); tournament selection of 3,
//! uniform crossover at 0.5 per gene, per-gene mutation at 0.15 and 2
//! elites (the constants `TOURNAMENT`, `CROSSOVER_P`, `MUTATION_P` and
//! `ELITISM`); optional initial-population sweep (the paper picked the
//! best GA configuration per circuit the same way).
//!
//! Both GAs score genomes through one evaluator that calls
//! [`SizingProblem::simulate`] directly: GA genomes are arbitrary jumps
//! across the grid, not the one-notch moves warm-starting assumes, and
//! `simulate` is pure. The vanilla GA keeps no memo: it counts every
//! evaluation as a simulation and solves every one, repeated genomes
//! included, as a GA driving a real simulator would. GA+ML keeps a map of
//! the genomes it scored and counts only those (see [`crate::ga_ml`]).

use autockt_circuits::{SimMode, SizingProblem};
use autockt_core::{is_success, reward, SIM_FAIL_REWARD};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
/// Per-gene crossover probability (uniform crossover).
const CROSSOVER_P: f64 = 0.5;
/// Per-gene mutation probability.
const MUTATION_P: f64 = 0.15;
/// Individuals copied unchanged into the next generation.
pub(crate) const ELITISM: usize = 2;

/// Genetic-algorithm hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Maximum generations before giving up.
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 40,
            generations: 60,
            seed: 0,
        }
    }
}

/// Result of one GA run against one target.
#[derive(Debug, Clone, PartialEq)]
pub struct GaOutcome {
    /// Whether a design meeting the target was found.
    pub reached: bool,
    /// Simulations performed (the sample-efficiency metric), under the
    /// counting rule of the GA that ran: [`ga_solve`] simulates and counts
    /// every evaluation, repeated genomes included;
    /// [`crate::ga_ml::ga_ml_solve`] simulates and counts each distinct
    /// genome once.
    pub sims: usize,
    /// Best Eq. 1 reward seen.
    pub best_reward: f64,
    /// Best genome seen.
    pub best_idx: Vec<usize>,
}

/// The evaluator both GAs score genomes with: the Eq. 1 reward of a cold
/// [`SizingProblem::simulate`] against one target, and a count of the
/// evaluations.
pub(crate) struct Evaluator<'a> {
    problem: &'a dyn SizingProblem,
    mode: SimMode,
    target: &'a [f64],
    /// Grid cardinalities: gene `i` ranges over `0..cards[i]`.
    pub(crate) cards: Vec<usize>,
    /// Genomes scored, each one simulation.
    evaluations: usize,
}

impl<'a> Evaluator<'a> {
    pub(crate) fn new(problem: &'a dyn SizingProblem, target: &'a [f64], mode: SimMode) -> Self {
        Evaluator {
            problem,
            mode,
            target,
            cards: problem.cardinalities(),
            evaluations: 0,
        }
    }

    /// Simulates genome `idx` and returns its Eq. 1 reward, or
    /// [`SIM_FAIL_REWARD`] when it has no operating point.
    pub(crate) fn score(&mut self, idx: &[usize]) -> f64 {
        self.evaluations += 1;
        match self.problem.simulate(idx, self.mode) {
            Ok(specs) => reward(self.problem.specs(), &specs, self.target),
            Err(_) => SIM_FAIL_REWARD,
        }
    }
}

/// A uniformly random genome over the grid `cards`.
pub(crate) fn random_genome(rng: &mut StdRng, cards: &[usize]) -> Vec<usize> {
    cards.iter().map(|&k| rng.random_range(0..k)).collect()
}

/// The outcome of a run whose best genome and reward are `best`, after
/// `sims` simulations.
pub(crate) fn outcome((best_idx, best_reward): (Vec<usize>, f64), sims: usize) -> GaOutcome {
    GaOutcome {
        reached: is_success(best_reward),
        sims,
        best_reward,
        best_idx,
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
    let mut ev = Evaluator::new(problem, target, mode);
    let mut pop: Vec<(Vec<usize>, f64)> = (0..cfg.population)
        .map(|_| {
            let g = random_genome(&mut rng, &ev.cards);
            let f = ev.score(&g);
            (g, f)
        })
        .collect();

    // `total_cmp` keeps selection deterministic even if a fitness ever
    // came back NaN; an empty population (population = 0) breeds nothing
    // and ends with no genome at reward −∞.
    let best = pop.iter().max_by(|a, b| a.1.total_cmp(&b.1)).cloned();
    let mut best = best.unwrap_or((Vec::new(), f64::NEG_INFINITY));

    for _gen in 0..cfg.generations {
        if is_success(best.1) {
            return outcome(best, ev.evaluations);
        }
        // Sort descending by fitness for elitism.
        pop.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut next: Vec<(Vec<usize>, f64)> = pop.iter().take(ELITISM).cloned().collect();
        while next.len() < cfg.population {
            let child = offspring(&mut rng, &pop, &ev.cards);
            let f = ev.score(&child);
            if is_success(f) {
                return outcome((child, f), ev.evaluations);
            }
            if f > best.1 {
                best = (child.clone(), f);
            }
            next.push((child, f));
        }
        pop = next;
    }
    outcome(best, ev.evaluations)
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
    best.unwrap_or_else(|| outcome((Vec::new(), f64::NEG_INFINITY), 0))
}

/// One child of `pop`: two tournament-selected parents, uniform
/// crossover, then per-gene mutation, half local nudges and half resets
/// (the classic exploration/exploitation mix). Draws from `rng` in that
/// order, so [`ga_solve`] and [`crate::ga_ml::ga_ml_solve`] breed alike.
pub(crate) fn offspring(
    rng: &mut StdRng,
    pop: &[(Vec<usize>, f64)],
    cards: &[usize],
) -> Vec<usize> {
    let parent = |rng: &mut StdRng| -> usize {
        let mut best = rng.random_range(0..pop.len());
        for _ in 1..TOURNAMENT {
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
            if rng.random::<f64>() < CROSSOVER_P {
                b
            } else {
                a
            }
        })
        .collect();
    for (g, &k) in child.iter_mut().zip(cards) {
        if rng.random::<f64>() < MUTATION_P {
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

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::{ParamSpec, SpecDef, SpecKind, Tia};
    use autockt_core::sample_feasible;
    use autockt_sim::SimError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ga_reaches_feasible_tia_target() {
        let tia = Tia::default();
        let mut rng = StdRng::seed_from_u64(21);
        let target = sample_feasible(&tia, &mut rng, 50);
        let cfg = GaConfig {
            population: 30,
            generations: 30,
            seed: 5,
        };
        let out = ga_solve(&tia, &target, SimMode::Schematic, &cfg);
        assert!(out.reached, "GA should solve a feasible TIA target");
        assert!(out.sims >= 1);
        assert!(is_success(out.best_reward));
    }

    /// A 3 x 3 grid whose one spec never meets its target and whose
    /// point `FAILING` has no operating point, counting the solves its
    /// `simulate` runs and the failed ones among them.
    struct Grid {
        params: Vec<ParamSpec>,
        specs: Vec<SpecDef>,
        solves: AtomicUsize,
        failures: AtomicUsize,
    }

    const FAILING: [usize; 2] = [2, 2];

    impl SizingProblem for Grid {
        fn name(&self) -> &'static str {
            "grid"
        }
        fn params(&self) -> &[ParamSpec] {
            &self.params
        }
        fn specs(&self) -> &[SpecDef] {
            &self.specs
        }
        fn simulate(&self, idx: &[usize], _: SimMode) -> Result<Vec<f64>, SimError> {
            self.solves.fetch_add(1, Ordering::Relaxed);
            if idx == FAILING {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(SimError::DcNoConvergence {
                    iterations: 0,
                    residual: f64::INFINITY,
                });
            }
            Ok(vec![(idx[0] + idx[1]) as f64])
        }
    }

    #[test]
    fn each_ga_counts_sims_under_its_own_rule() {
        let grid = Grid {
            params: vec![
                ParamSpec::swept("a", 0.0, 2.0, 1.0, 1.0),
                ParamSpec::swept("b", 0.0, 2.0, 1.0, 1.0),
            ],
            specs: vec![SpecDef {
                name: "gain",
                unit: "V/V",
                kind: SpecKind::HardMin,
                lo: 0.0,
                hi: 4.0,
                fail_value: 0.0,
            }],
            solves: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
        };
        let target = [100.0];
        let cfg = GaConfig {
            population: 12,
            generations: 5,
            seed: 3,
        };
        // Twelve genomes on nine grid points: every run repeats genomes.
        let ga = ga_solve(&grid, &target, SimMode::Schematic, &cfg);
        let solves = grid.solves.swap(0, Ordering::Relaxed);
        let failures = grid.failures.swap(0, Ordering::Relaxed);
        assert!(!ga.reached);
        // The GA counts every evaluation: the first population, then each
        // generation's children beside its elites.
        assert_eq!(
            ga.sims,
            cfg.population + cfg.generations * (cfg.population - ELITISM)
        );
        // It solves every evaluation it counts, a repeated failing genome
        // on every visit.
        assert_eq!(ga.sims, solves);
        assert!(failures > 1, "{failures} failed solves");
        // GA+ML counts only the genomes it solved, a failing one once.
        let ml = crate::ga_ml::ga_ml_solve(&grid, &target, SimMode::Schematic, &cfg);
        assert!(!ml.reached);
        assert_eq!(ml.sims, grid.solves.load(Ordering::Relaxed));
        assert_eq!(grid.failures.load(Ordering::Relaxed), 1);
        assert!(ml.sims < cfg.population, "{} sims", ml.sims);
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
