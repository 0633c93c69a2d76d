//! # autockt-core — the AutoCkt framework
//!
//! The primary contribution of *AutoCkt: Deep Reinforcement Learning of
//! Analog Circuit Designs* (Settaluri et al., DATE 2020), reimplemented in
//! Rust on top of the [`autockt_sim`]/[`autockt_circuits`] simulation
//! substrate and the [`autockt_rl`] PPO stack:
//!
//! - [`mod@reward`] — the Eq. 1 dense reward and success rule
//! - [`target`] — sparse target-specification subsampling (`O*`)
//! - [`mod@env`] — the sizing MDP of Fig. 2 (center start, +/-1 grid walks,
//!   horizon `H`)
//! - [`mod@train`] — the training loop with the mean-reward-zero stopping rule
//! - [`mod@deploy`] — deployment on unseen targets and schematic-to-PEX
//!   transfer (Fig. 13)
//!
//! ## Example: train briefly on the TIA and deploy
//!
//! ```no_run
//! use autockt_core::prelude::*;
//! use autockt_circuits::Tia;
//! use std::sync::Arc;
//!
//! let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
//! let result = train(Arc::clone(&problem), &TrainConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! let targets: Vec<Vec<f64>> =
//!     (0..100).map(|_| sample_uniform(problem.as_ref(), &mut rng)).collect();
//! let stats = deploy(&result.agent.policy, problem, &targets, &DeployConfig::default());
//! println!("reached {}/{} in {:.1} sims on average",
//!          stats.reached(), stats.total(), stats.mean_steps_reached());
//! ```

pub mod deploy;
pub mod env;
pub mod reward;
pub mod target;
pub mod train;

pub use deploy::{deploy, run_episode, run_trajectory, DeployConfig, DeployOutcome, DeployStats};
pub use env::{EnvConfig, SizingEnv, TargetMode};
pub use reward::{
    is_success, normalize, reward, SIM_FAIL_REWARD, SUCCESS_BONUS, SUCCESS_THRESHOLD,
};
pub use target::{sample_feasible, sample_uniform, training_targets};
pub use train::{train, TrainConfig, TrainResult};

/// Commonly used items, including upstream re-exports needed to drive the
/// framework.
pub mod prelude {
    pub use crate::deploy::{deploy, DeployConfig, DeployStats};
    pub use crate::env::{EnvConfig, SizingEnv, TargetMode};
    pub use crate::reward::{is_success, reward};
    pub use crate::target::{sample_feasible, sample_uniform, training_targets};
    pub use crate::train::{train, TrainConfig, TrainResult};
    pub use autockt_circuits::{SimMode, SizingProblem};
    pub use autockt_rl::ppo::{Ppo, PpoConfig};
    pub use rand::SeedableRng;
}
