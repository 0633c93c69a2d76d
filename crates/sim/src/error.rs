//! Error types for the simulator.

use std::fmt;

/// Errors produced by circuit construction and analysis.
///
/// All analyses return `Result<_, SimError>`; an error means the requested
/// quantity could not be computed (singular system, non-convergent Newton
/// iteration, or a measurement that does not exist for the response, such
/// as a unity-gain crossing for an amplifier with sub-unity gain).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The MNA matrix was singular to working precision.
    SingularMatrix {
        /// Column at which elimination failed.
        column: usize,
    },
    /// Singular to working precision on a sparse LU backend. The
    /// simulator has one dense backend and never returns this variant; it
    /// is kept only so that code matching every variant exhaustively (an
    /// external error table, for example) keeps compiling.
    SingularSparse {
        /// Original-matrix column at which elimination failed.
        column: usize,
    },
    /// The MNA matrix is *structurally* singular: no assignment of
    /// matrix entries can make it numerically nonsingular, because some
    /// column cannot be matched to a distinct row holding one of its
    /// structural nonzeros (maximum bipartite matching on the sparsity
    /// pattern falls short of the dimension). The DC solve checks the
    /// pattern of a Jacobian its cold Newton iteration could not factor,
    /// before the gmin homotopy — typically voltage sources in parallel
    /// or in a loop, whose branch columns gmin never touches. Unlike
    /// the numeric singular variant this is a property of the circuit
    /// topology alone, so retrying with different values (gmin stepping,
    /// source ramping) cannot help.
    StructurallySingular {
        /// First unmatched column, in original MNA numbering (node
        /// voltages first, then voltage-source branch currents).
        column: usize,
        /// Size of the maximum matching (the structural rank).
        structural_rank: usize,
        /// Dimension of the MNA system.
        dim: usize,
    },
    /// The Newton–Raphson DC solve did not converge.
    DcNoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the last iteration.
        residual: f64,
    },
    /// Transient time stepping failed to converge at a time point.
    TranNoConvergence {
        /// Simulation time at which the failure occurred.
        time: f64,
    },
    /// A measurement could not be extracted from the response.
    MeasureFailed {
        /// Human-readable description of the missing feature.
        what: &'static str,
    },
    /// Analysis options are degenerate (e.g. a transient with zero steps,
    /// whose derived `dt` is infinite); caught up front instead of
    /// silently producing an empty or NaN sweep.
    InvalidOptions {
        /// Human-readable description of the defect.
        what: &'static str,
    },
    /// The netlist is structurally invalid.
    BadNetlist {
        /// Human-readable description of the defect.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SingularMatrix { column } => {
                write!(f, "singular MNA matrix at column {column}")
            }
            SimError::SingularSparse { column } => {
                write!(f, "singular sparse MNA matrix at column {column}")
            }
            SimError::StructurallySingular {
                column,
                structural_rank,
                dim,
            } => write!(
                f,
                "structurally singular MNA matrix: column {column} unmatched (structural rank {structural_rank} of {dim})"
            ),
            SimError::DcNoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "dc operating point did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            SimError::TranNoConvergence { time } => {
                write!(f, "transient solve did not converge at t = {time:.3e} s")
            }
            SimError::MeasureFailed { what } => write!(f, "measurement failed: {what}"),
            SimError::InvalidOptions { what } => write!(f, "invalid analysis options: {what}"),
            SimError::BadNetlist { what } => write!(f, "bad netlist: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            SimError::SingularMatrix { column: 3 },
            SimError::SingularSparse { column: 3 },
            SimError::StructurallySingular {
                column: 3,
                structural_rank: 5,
                dim: 6,
            },
            SimError::DcNoConvergence {
                iterations: 50,
                residual: 1.0,
            },
            SimError::TranNoConvergence { time: 1e-9 },
            SimError::MeasureFailed { what: "no ugbw" },
            SimError::InvalidOptions { what: "dt = 0" },
            SimError::BadNetlist {
                what: "dangling node".into(),
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
