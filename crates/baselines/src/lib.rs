//! # autockt-baselines — the optimizers AutoCkt is compared against
//!
//! Implementations (from scratch, per the reproduction rules) of every
//! baseline in the paper's tables:
//!
//! - [`ga`] — vanilla genetic algorithm (Tables I–IV's "Genetic Alg." rows)
//! - [`random_agent`] — uniformly random policy in the same environment
//!   (the "Random RL Agent" rows of Tables II and III)
//! - [`ga_ml`] — GA boosted by an online-trained neural discriminator that
//!   screens offspring before simulation, in the style of BagNet \[7\]
//!   (the "Genetic Alg.+ML" row of Table IV)
//!
//! ## Example
//!
//! ```no_run
//! use autockt_baselines::ga::{ga_solve, GaConfig};
//! use autockt_circuits::{SimMode, Tia, SizingProblem};
//! use autockt_core::sample_feasible;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let tia = Tia::default();
//! let mut rng = StdRng::seed_from_u64(1);
//! let target = sample_feasible(&tia, &mut rng, 50);
//! let out = ga_solve(&tia, &target, SimMode::Schematic, &GaConfig::default());
//! println!("GA reached = {} in {} simulations", out.reached, out.sims);
//! ```

pub mod ga;
pub mod ga_ml;
pub mod random_agent;

pub use ga::{ga_solve, ga_solve_sweep, GaConfig, GaOutcome};
pub use ga_ml::ga_ml_solve;
pub use random_agent::random_agent_deploy;
