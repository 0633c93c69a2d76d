//! # autockt — deep reinforcement learning of analog circuit designs
//!
//! A full-stack Rust reproduction of *AutoCkt: Deep Reinforcement Learning
//! of Analog Circuit Designs* (Settaluri, Haj-Ali, Huang, Hakhamaneshi,
//! Nikolić — DATE 2020, arXiv:2001.01808).
//!
//! This facade crate re-exports the whole system; see the workspace crates
//! for the pieces:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | SPICE-class simulator: MNA, Newton DC, AC, transient, noise, PEX |
//! | [`circuits`] | The paper's three topologies (TIA, two-stage op-amp, negative-gm OTA) |
//! | [`rl`] | MLP + Adam + factorized-categorical PPO + parallel rollouts |
//! | [`core`] | The AutoCkt framework: sizing MDP, Eq. 1 reward, training, deployment, transfer |
//! | [`baselines`] | Vanilla GA, random agent, GA+ML discriminator (BagNet-style) |
//!
//! ## Quickstart
//!
//! Train an agent on the transimpedance amplifier and ask it for designs
//! meeting fresh target specifications (see `examples/quickstart.rs` for
//! the runnable version):
//!
//! ```no_run
//! use autockt::prelude::*;
//! use std::sync::Arc;
//!
//! let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
//! let trained = train(Arc::clone(&problem), &TrainConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let target = sample_uniform(problem.as_ref(), &mut rng);
//! let stats = deploy(&trained.agent.policy, problem, &[target], &DeployConfig::default());
//! assert!(stats.total() == 1);
//! ```

pub use autockt_baselines as baselines;
pub use autockt_circuits as circuits;
pub use autockt_core as core;
pub use autockt_rl as rl;
pub use autockt_sim as sim;

/// One-stop imports for applications.
pub mod prelude {
    pub use autockt_baselines::{ga_ml_solve, ga_solve, ga_solve_sweep, GaConfig};
    pub use autockt_circuits::{
        NegGmOta, OpAmp2, ParamSpec, SimMode, SizingProblem, SpecDef, SpecKind, Tia,
    };
    pub use autockt_core::{
        deploy, is_success, reward, sample_feasible, sample_uniform, train, training_targets,
        DeployConfig, DeployStats, EnvConfig, SizingEnv, TargetMode, TrainConfig,
    };
    pub use autockt_rl::{Ppo, PpoConfig};
    pub use autockt_sim::prelude::Technology;
    pub use rand::SeedableRng;
}
