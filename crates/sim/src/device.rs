//! MOSFET device model and technology cards.
//!
//! The simulator uses a Level-1-style square-law MOSFET with channel-length
//! modulation and Meyer-style gate capacitances. This is the standard
//! hand-analysis model; it reproduces the gm/ID, gain–bandwidth and
//! noise–power trade-offs that drive the AutoCkt sizing problem, which is
//! what matters for reproducing the paper.
//!
//! The substitution: the paper simulates its circuits in Spectre with
//! proprietary BSIM FinFET model decks, which cannot ship here, so this
//! square-law model stands in for BSIM. Absolute spec values therefore
//! differ from the paper's, while the trade-offs the agent has to learn
//! are the same.

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Operating region of a MOSFET at a DC operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// `vgs <= vth`: device is off.
    Cutoff,
    /// `vds < vgs - vth`: linear/triode region.
    Triode,
    /// `vds >= vgs - vth`: saturation.
    Saturation,
}

/// Model card for one polarity of MOSFET in a technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosModel {
    /// Process transconductance `k' = mu * Cox` (A/V^2).
    pub kp: f64,
    /// Zero-bias threshold voltage magnitude (V).
    pub vth0: f64,
    /// Channel-length modulation (1/V) at the technology's unit length.
    pub lambda: f64,
    /// Gate-oxide capacitance per area (F/m^2).
    pub cox: f64,
    /// Gate overlap capacitance per width (F/m).
    pub cgso: f64,
    /// Junction capacitance per area (F/m^2).
    pub cj: f64,
    /// Source/drain diffusion extent (m).
    pub ldiff: f64,
    /// Thermal-noise excess factor gamma (2/3 long channel, >1 short).
    pub gamma: f64,
    /// Flicker-noise coefficient (V^2 * F).
    pub kf: f64,
}

/// Process corner for PVT analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessCorner {
    /// Slow NMOS, slow PMOS.
    Ss,
    /// Typical.
    #[default]
    Tt,
    /// Fast NMOS, fast PMOS.
    Ff,
}

/// One point in PVT (process, voltage, temperature) space.
///
/// # Examples
///
/// ```
/// use autockt_sim::device::{Pvt, ProcessCorner};
///
/// let worst_speed = Pvt { process: ProcessCorner::Ss, vdd_scale: 0.9, temp_c: 125.0 };
/// assert!(worst_speed.temp_kelvin() > 390.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pvt {
    /// Process corner.
    pub process: ProcessCorner,
    /// Supply scaling relative to nominal (e.g. 0.9, 1.0, 1.1).
    pub vdd_scale: f64,
    /// Junction temperature in Celsius.
    pub temp_c: f64,
}

impl Default for Pvt {
    fn default() -> Self {
        Pvt {
            process: ProcessCorner::Tt,
            vdd_scale: 1.0,
            temp_c: 27.0,
        }
    }
}

impl Pvt {
    /// Nominal typical corner at 27 C.
    pub fn nominal() -> Self {
        Pvt::default()
    }

    /// Temperature in Kelvin.
    pub fn temp_kelvin(&self) -> f64 {
        self.temp_c + 273.15
    }

    /// The canonical corner set used for worst-case PEX evaluation:
    /// {SS, TT, FF} x {0.9, 1.0, 1.1} Vdd x {-40, 27, 125} C reduced to the
    /// six classically-binding combinations (keeps PEX evaluation tractable
    /// while still spanning the speed/leakage extremes).
    pub fn corner_set() -> Vec<Pvt> {
        vec![
            Pvt::nominal(),
            Pvt {
                process: ProcessCorner::Ss,
                vdd_scale: 0.9,
                temp_c: 125.0,
            },
            Pvt {
                process: ProcessCorner::Ss,
                vdd_scale: 0.9,
                temp_c: -40.0,
            },
            Pvt {
                process: ProcessCorner::Ff,
                vdd_scale: 1.1,
                temp_c: -40.0,
            },
            Pvt {
                process: ProcessCorner::Ff,
                vdd_scale: 1.1,
                temp_c: 125.0,
            },
            Pvt {
                process: ProcessCorner::Tt,
                vdd_scale: 1.0,
                temp_c: 85.0,
            },
        ]
    }
}

/// A complete technology description (both device polarities plus supply).
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable name, e.g. `"ptm45"`.
    pub name: &'static str,
    /// Nominal supply voltage (V).
    pub vdd: f64,
    /// Minimum / unit channel length (m).
    pub lmin: f64,
    /// NMOS model card.
    pub nmos: MosModel,
    /// PMOS model card.
    pub pmos: MosModel,
}

impl Technology {
    /// 45 nm predictive-technology-flavoured card (substitute for the
    /// paper's 45 nm BSIM PTM deck).
    pub fn ptm45() -> Self {
        Technology {
            name: "ptm45",
            vdd: 1.0,
            lmin: 45e-9,
            nmos: MosModel {
                kp: 320e-6,
                vth0: 0.40,
                lambda: 0.20,
                cox: 9.0e-3,
                cgso: 0.25e-9,
                cj: 1.0e-3,
                ldiff: 90e-9,
                gamma: 1.0,
                kf: 2.0e-25,
            },
            pmos: MosModel {
                kp: 140e-6,
                vth0: 0.42,
                lambda: 0.25,
                cox: 9.0e-3,
                cgso: 0.25e-9,
                cj: 1.1e-3,
                ldiff: 90e-9,
                gamma: 1.0,
                kf: 8.0e-25,
            },
        }
    }

    /// 16 nm FinFET-flavoured card (substitute for the paper's TSMC 16FF
    /// Spectre deck): higher drive, lower supply, worse output resistance.
    pub fn finfet16() -> Self {
        Technology {
            name: "finfet16",
            vdd: 0.8,
            lmin: 16e-9,
            nmos: MosModel {
                kp: 650e-6,
                vth0: 0.33,
                lambda: 0.30,
                cox: 1.5e-2,
                cgso: 0.35e-9,
                cj: 1.4e-3,
                ldiff: 40e-9,
                gamma: 1.3,
                kf: 1.0e-25,
            },
            pmos: MosModel {
                kp: 550e-6,
                vth0: 0.34,
                lambda: 0.35,
                cox: 1.5e-2,
                cgso: 0.35e-9,
                cj: 1.5e-3,
                ldiff: 40e-9,
                gamma: 1.3,
                kf: 4.0e-25,
            },
        }
    }

    /// Returns a copy of the technology with a PVT corner applied.
    ///
    /// Mobility degrades as `T^-1.5`, threshold drifts -1 mV/K, and the
    /// process corner shifts `kp` by +/-12% and `vth0` by -/+30 mV (fast
    /// means more drive, lower threshold). The nominal corner returns the
    /// technology unchanged, so a nominal-corner evaluation is exactly the
    /// schematic technology's.
    pub fn at_corner(&self, pvt: Pvt) -> Technology {
        if pvt == Pvt::nominal() {
            return self.clone();
        }
        let t_ratio = pvt.temp_kelvin() / 300.15;
        let mob = t_ratio.powf(-1.5);
        let dvth_t = -1.0e-3 * (pvt.temp_c - 27.0);
        let (kp_f, vth_f) = match pvt.process {
            ProcessCorner::Ss => (0.88, 0.030),
            ProcessCorner::Tt => (1.0, 0.0),
            ProcessCorner::Ff => (1.12, -0.030),
        };
        let adjust = |m: &MosModel| MosModel {
            kp: m.kp * mob * kp_f,
            vth0: (m.vth0 + vth_f + dvth_t).max(0.05),
            ..*m
        };
        Technology {
            name: self.name,
            vdd: self.vdd * pvt.vdd_scale,
            lmin: self.lmin,
            nmos: adjust(&self.nmos),
            pmos: adjust(&self.pmos),
        }
    }
}

/// Large-signal evaluation of the square-law model at a bias point.
///
/// All voltages are polarity-normalized (for PMOS pass `vsg`, `vsd`): the
/// caller flips signs. Returns drain current and its partial derivatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain current (A), polarity-normalized (always >= 0).
    pub id: f64,
    /// Transconductance d(id)/d(vgs) (S).
    pub gm: f64,
    /// Output conductance d(id)/d(vds) (S).
    pub gds: f64,
    /// Operating region.
    pub region: MosRegion,
}

impl MosModel {
    /// Evaluates drain current and derivatives at `(vgs, vds)` for a device
    /// of width `w`, length `l` and multiplier `mult`.
    ///
    /// `vds` is clamped to be non-negative (the model is symmetric; callers
    /// orient drain/source so that `vds >= 0` holds at the solution, and the
    /// clamp only smooths Newton iterates passing through negative values).
    pub fn eval(&self, vgs: f64, vds: f64, w: f64, l: f64, mult: f64) -> MosEval {
        let vds = vds.max(0.0);
        let beta = self.kp * (w / l) * mult;
        // Channel-length modulation is the card's `lambda` as is, at every
        // length: no inverse-length scaling.
        let lambda = self.lambda;
        let vov = vgs - self.vth0;
        if vov <= 0.0 {
            return MosEval {
                id: 0.0,
                gm: 0.0,
                gds: 0.0,
                region: MosRegion::Cutoff,
            };
        }
        if vds < vov {
            // Triode, with the same (1 + lambda*vds) factor as saturation so
            // current and gds are continuous at vds = vov.
            let clm = 1.0 + lambda * vds;
            let core = vov * vds - 0.5 * vds * vds;
            let id = beta * core * clm;
            let gm = beta * vds * clm;
            let gds = beta * ((vov - vds) * clm + core * lambda);
            MosEval {
                id,
                gm,
                gds,
                region: MosRegion::Triode,
            }
        } else {
            let clm = 1.0 + lambda * vds;
            let id = 0.5 * beta * vov * vov * clm;
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * lambda;
            MosEval {
                id,
                gm,
                gds,
                region: MosRegion::Saturation,
            }
        }
    }

    /// Meyer-style small-signal gate capacitances at a region, for a device
    /// of geometry `(w, l, mult)`. Returns `(cgs, cgd)` in farads.
    pub fn gate_caps(&self, region: MosRegion, w: f64, l: f64, mult: f64) -> (f64, f64) {
        let cov = self.cgso * w * mult;
        let cch = self.cox * w * l * mult;
        match region {
            MosRegion::Cutoff => (cov, cov),
            MosRegion::Triode => (0.5 * cch + cov, 0.5 * cch + cov),
            MosRegion::Saturation => (2.0 / 3.0 * cch + cov, cov),
        }
    }

    /// Drain/source junction capacitance to the bulk for geometry
    /// `(w, mult)`.
    pub fn junction_cap(&self, w: f64, mult: f64) -> f64 {
        self.cj * w * self.ldiff * mult
    }

    /// Thermal-noise drain-current power spectral density `4 k T gamma gm`
    /// (A^2/Hz) at temperature `temp_k`.
    pub fn thermal_noise_psd(&self, gm: f64, temp_k: f64) -> f64 {
        4.0 * BOLTZMANN * temp_k * self.gamma * gm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> MosModel {
        Technology::ptm45().nmos
    }

    #[test]
    fn cutoff_below_threshold() {
        let e = nmos().eval(0.2, 0.5, 1e-6, 45e-9, 1.0);
        assert_eq!(e.region, MosRegion::Cutoff);
        assert_eq!(e.id, 0.0);
    }

    #[test]
    fn saturation_current_square_law() {
        let m = nmos();
        let w = 1e-6;
        let l = 45e-9;
        let e = m.eval(m.vth0 + 0.2, 1.0, w, l, 1.0);
        assert_eq!(e.region, MosRegion::Saturation);
        let expect = 0.5 * m.kp * (w / l) * 0.04 * (1.0 + m.lambda);
        assert!((e.id - expect).abs() / expect < 1e-12);
        // gm = 2 Id / Vov up to the lambda factor structure.
        assert!(e.gm > 0.0 && e.gds > 0.0);
    }

    #[test]
    fn current_continuous_at_triode_sat_boundary() {
        let m = nmos();
        let (w, l) = (2e-6, 45e-9);
        let vov = 0.25;
        let vgs = m.vth0 + vov;
        let below = m.eval(vgs, vov - 1e-9, w, l, 1.0);
        let above = m.eval(vgs, vov + 1e-9, w, l, 1.0);
        assert!((below.id - above.id).abs() / above.id < 1e-6);
        assert!((below.gm - above.gm).abs() / above.gm < 1e-6);
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let m = nmos();
        let (w, l) = (4e-6, 45e-9);
        for &(vgs, vds) in &[(0.6, 0.8), (0.7, 0.1), (0.55, 0.3)] {
            let e = m.eval(vgs, vds, w, l, 1.0);
            let h = 1e-7;
            let dgm = (m.eval(vgs + h, vds, w, l, 1.0).id - m.eval(vgs - h, vds, w, l, 1.0).id)
                / (2.0 * h);
            let dgds = (m.eval(vgs, vds + h, w, l, 1.0).id - m.eval(vgs, vds - h, w, l, 1.0).id)
                / (2.0 * h);
            assert!(
                (e.gm - dgm).abs() <= 1e-6 * dgm.abs().max(1e-9),
                "gm mismatch"
            );
            assert!(
                (e.gds - dgds).abs() <= 1e-5 * dgds.abs().max(1e-9),
                "gds mismatch at ({vgs},{vds}): model {} fd {}",
                e.gds,
                dgds
            );
        }
    }

    #[test]
    fn multiplier_scales_current_linearly() {
        let m = nmos();
        let e1 = m.eval(0.7, 0.9, 1e-6, 45e-9, 1.0);
        let e4 = m.eval(0.7, 0.9, 1e-6, 45e-9, 4.0);
        assert!((e4.id - 4.0 * e1.id).abs() / e4.id < 1e-12);
    }

    #[test]
    fn corner_shifts_are_directionally_correct() {
        let t = Technology::ptm45();
        let ss = t.at_corner(Pvt {
            process: ProcessCorner::Ss,
            vdd_scale: 0.9,
            temp_c: 125.0,
        });
        let ff = t.at_corner(Pvt {
            process: ProcessCorner::Ff,
            vdd_scale: 1.1,
            temp_c: -40.0,
        });
        assert!(ss.nmos.kp < t.nmos.kp);
        assert!(ff.nmos.kp > t.nmos.kp);
        assert!(ss.vdd < t.vdd && ff.vdd > t.vdd);
        // SS hot: higher vth from corner but lower from temperature; corner
        // dominates the sign at +125C? -1mV/K * 98K = -98mV vs +30mV -> net lower.
        assert!(ss.nmos.vth0 < t.nmos.vth0);
    }

    #[test]
    fn nominal_corner_is_the_identity() {
        // A threshold below the corner formula's 50 mV clamp would be
        // raised by it; the nominal corner must not apply the formula.
        let mut low_vth = Technology::ptm45();
        low_vth.nmos.vth0 = 0.03;
        for t in [Technology::ptm45(), Technology::finfet16(), low_vth] {
            assert_eq!(t.at_corner(Pvt::nominal()), t);
        }
    }

    #[test]
    fn noise_psds_are_positive_and_scale() {
        let m = nmos();
        let th = m.thermal_noise_psd(1e-3, 300.0);
        assert!(th > 0.0);
        assert!((m.thermal_noise_psd(2e-3, 300.0) - 2.0 * th).abs() / th < 1e-12);
    }

    #[test]
    fn gate_caps_by_region() {
        let m = nmos();
        let (w, l, mult) = (1e-6, 45e-9, 1.0);
        let (cgs_sat, cgd_sat) = m.gate_caps(MosRegion::Saturation, w, l, mult);
        let (cgs_tri, cgd_tri) = m.gate_caps(MosRegion::Triode, w, l, mult);
        assert!(cgs_sat > cgd_sat, "saturation cgs dominated by channel");
        assert!((cgs_tri - cgd_tri).abs() < 1e-30, "triode splits evenly");
    }
}
