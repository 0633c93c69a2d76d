//! # autockt-circuits — the paper's three circuit topologies
//!
//! Parameterised generators for the circuits AutoCkt is evaluated on
//! (Settaluri et al., DATE 2020):
//!
//! - [`tia::Tia`] — simple transimpedance amplifier (Fig. 4, Sec. III-A)
//! - [`opamp2::OpAmp2`] — two-stage op-amp (Fig. 6, Sec. III-B)
//! - [`neggm::NegGmOta`] — two-stage OTA with negative-gm load
//!   (Fig. 9, Sec. III-C/D)
//!
//! Each implements [`problem::SizingProblem`]: a discrete parameter grid, a
//! spec list with target sampling ranges, and a pure
//! `parameters -> measured specs` evaluation at schematic, PEX, or
//! worst-case-PVT PEX fidelity.
//!
//! ## Example
//!
//! ```
//! use autockt_circuits::prelude::*;
//!
//! # fn main() -> Result<(), autockt_sim::SimError> {
//! let tia = Tia::default();
//! let center: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
//! let specs = tia.simulate(&center, SimMode::Schematic)?;
//! println!("settling {:.3e} s, cutoff {:.3e} Hz", specs[0], specs[1]);
//! # Ok(())
//! # }
//! ```

pub mod neggm;
pub mod opamp2;
pub mod problem;
pub mod tia;

pub use neggm::NegGmOta;
pub use opamp2::OpAmp2;
pub use problem::{
    CornerCase, CornerEvaluator, EvalSession, ParamSpec, SharedMemo, SimMode, SizingProblem,
    SpecDef, SpecKind,
};
pub use tia::Tia;

/// Commonly used items.
pub mod prelude {
    pub use crate::neggm::NegGmOta;
    pub use crate::opamp2::OpAmp2;
    pub use crate::problem::{
        EvalSession, ParamSpec, SharedMemo, SimMode, SizingProblem, SpecDef, SpecKind,
    };
    pub use crate::tia::Tia;
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_sim::device::Technology;
    use autockt_sim::pex::{extract, PexConfig};

    fn center(p: &dyn SizingProblem) -> Vec<usize> {
        p.cardinalities().iter().map(|k| k / 2).collect()
    }

    /// The MNA dims the benchmark workloads factor: the op-amp's schematic
    /// system (training and GA), and the TIA's extracted system at the
    /// stock extraction and at mesh depth 8 (the two deployment
    /// workloads). These are the dims the dense backend is measured at.
    #[test]
    fn benchmark_systems_are_dense_dims() {
        let tech = Technology::ptm45();
        let opamp = OpAmp2::default();
        let (ckt, _) = opamp.build(&center(&opamp), &tech);
        assert_eq!(ckt.mna_dim(), 11);
        let tia = Tia::default();
        let (ckt, _) = tia.build(&center(&tia), &tech);
        for (mesh_depth, dim) in [(0, 4), (8, 60)] {
            let pex = PexConfig {
                mesh_depth,
                ..tia.pex_config().clone()
            };
            assert_eq!(
                extract(&ckt, &pex).mna_dim(),
                dim,
                "mesh depth {mesh_depth}"
            );
        }
    }
}
