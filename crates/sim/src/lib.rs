//! # autockt-sim — analog circuit simulation substrate
//!
//! A from-scratch SPICE-class simulator built as the substrate for the
//! AutoCkt reproduction (Settaluri et al., *AutoCkt: Deep Reinforcement
//! Learning of Analog Circuit Designs*, DATE 2020). It provides everything
//! the paper's simulation environments (Spectre on BSIM 45 nm / TSMC 16 nm,
//! and BAG with extracted parasitics) provide to the RL agent: a black box
//! from sizing parameters to measured design specifications.
//!
//! ## Components
//!
//! - [`netlist`] — circuit representation (nodes, R/C/V/I/VCCS/MOSFET)
//! - [`device`] — square-law MOSFET cards for 45 nm and 16 nm flavours,
//!   PVT corners
//! - [`dc`] — Newton–Raphson operating point with gmin stepping; its
//!   element stamps and Newton loop are the only ones, shared by the
//!   transient and the small-signal linearization
//! - [`ac`] — complex-valued small-signal sweeps
//! - [`linalg`] — the dense LU and the Hessenberg–triangular pencil
//!   reduction every analysis solves through
//! - [`tran`] — trapezoidal transient analysis, one DC Newton solve per
//!   time point
//! - [`noise`] — per-source noise analysis with input referral
//! - [`measure`] — gain / UGBW / phase margin / settling / integration
//! - [`pex`] — deterministic layout-parasitic extraction (BAG substitute)
//! - [`par`] — the process-wide thread budget that decides the PPO
//!   update's second lane (the simulator itself never spawns)
//!
//! There is one linear-algebra backend and no solver settings: every MNA
//! system is factored densely ([`linalg::LuFactors`]), and AC and noise
//! sweeps reduce the `(G, C)` pencil once per operating point
//! ([`linalg::pencil`]). Every analysis runs on the calling thread.
//!
//! ## Example: measure an amplifier
//!
//! ```
//! use autockt_sim::prelude::*;
//!
//! # fn main() -> Result<(), autockt_sim::SimError> {
//! let tech = Technology::ptm45();
//! let mut ckt = Circuit::new();
//! let vdd = ckt.node("vdd");
//! let gate = ckt.node("gate");
//! let out = ckt.node("out");
//! ckt.vsource(vdd, GND, tech.vdd, 0.0);
//! ckt.vsource(gate, GND, 0.50, 1.0); // bias + 1 V AC probe
//! ckt.resistor(vdd, out, 20.0e3);
//! ckt.capacitor(out, GND, 50e-15);
//! ckt.mosfet(Mosfet {
//!     polarity: MosPolarity::Nmos,
//!     d: out, g: gate, s: GND,
//!     w: 2e-6, l: 2.0 * tech.lmin, mult: 1.0,
//!     model: tech.nmos,
//! });
//! let op = dc_operating_point(&ckt, &DcOptions::default())?;
//! let resp = ac_sweep(&ckt, &op, &log_freqs(1e3, 1e11, 20), out)?;
//! assert!(resp.dc_gain() > 1.0);
//! assert!(resp.f_3db()? > 1e6);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod complex;
pub mod dc;
pub mod device;
pub mod error;
pub mod linalg;
pub mod measure;
pub mod netlist;
pub mod noise;
pub mod par;
pub mod pex;
pub mod tran;

pub use error::SimError;

/// A solver configuration with no settings.
///
/// The simulator has one dense backend and runs every analysis serially,
/// so there is nothing left to configure. The type is kept, field-less,
/// only so that external implementors of the sizing-problem trait's
/// `solver_config`/`simulate_cfg`/`simulate_warm_cfg` methods (in
/// `autockt_circuits`) keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SolverConfig;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::ac::{ac_sweep, log_freqs, AcResponse, AcSolver};
    pub use crate::complex::Complex;
    pub use crate::dc::{dc_operating_point, DcOptions, OpPoint};
    pub use crate::device::{MosPolarity, MosRegion, ProcessCorner, Pvt, Technology};
    pub use crate::error::SimError;
    pub use crate::measure::{db20, integrate_trapezoid, settling_time};
    pub use crate::netlist::{Circuit, Element, Mosfet, Node, Step, GND};
    pub use crate::noise::{noise_analysis, noise_analysis_corners, NoiseResult};
    pub use crate::pex::{extract, PexConfig};
    pub use crate::tran::{transient, TranOptions, TranResult};
}
