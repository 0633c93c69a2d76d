//! The simple transimpedance amplifier of Fig. 4: a CMOS inverter with a
//! resistive feedback network, driven by a photodiode-like current source.
//!
//! Parameter space (paper Sec. III-A, `[start, end, increment]`):
//! width `[2, 10, 2] um` and multiplier `[2, 32, 2]` for each of the two
//! transistors, feedback resistors in series `[2, 20, 2]` and in parallel
//! `[1, 20, 1]` with a fixed 5.6 kOhm unit.
//!
//! Specifications: settling time, cutoff (-3 dB) frequency, and integrated
//! output noise.

use crate::problem::{
    CornerCase, CornerEvaluator, ParamSpec, SettleRecord, SettleSpec, SimMode, SizingProblem,
    SpecDef, SpecKind,
};
use autockt_sim::ac::{log_freqs, AcResponse, StopLevel};
use autockt_sim::dc::{DcOptions, WarmState};
use autockt_sim::device::{MosPolarity, Technology};
use autockt_sim::netlist::{Circuit, Mosfet, Node, Step, GND};
use autockt_sim::noise::NoiseResult;
use autockt_sim::pex::PexConfig;
use autockt_sim::SimError;

/// Index constants into the TIA spec vector.
pub mod spec_index {
    /// Settling time (s).
    pub const SETTLING: usize = 0;
    /// Cutoff frequency (Hz).
    pub const CUTOFF: usize = 1;
    /// Integrated output noise (V rms).
    pub const NOISE: usize = 2;
}

/// The transimpedance-amplifier sizing problem.
#[derive(Debug, Clone)]
pub struct Tia {
    tech: Technology,
    params: Vec<ParamSpec>,
    specs: Vec<SpecDef>,
    pex: PexConfig,
}

impl Default for Tia {
    fn default() -> Self {
        Tia::new(Technology::ptm45())
    }
}

impl Tia {
    /// Creates the TIA problem over a technology (the paper uses 45 nm
    /// BSIM predictive models).
    pub fn new(tech: Technology) -> Self {
        let params = vec![
            ParamSpec::swept("w_n", 2.0, 10.0, 2.0, 1e-6),
            ParamSpec::swept("m_n", 2.0, 32.0, 2.0, 1.0),
            ParamSpec::swept("w_p", 2.0, 10.0, 2.0, 1e-6),
            ParamSpec::swept("m_p", 2.0, 32.0, 2.0, 1.0),
            ParamSpec::swept("r_series", 2.0, 20.0, 2.0, 1.0),
            ParamSpec::swept("r_parallel", 1.0, 20.0, 1.0, 1.0),
        ];
        let specs = vec![
            SpecDef {
                name: "settling_time",
                unit: "s",
                kind: SpecKind::HardMax,
                lo: 150e-12,
                hi: 1000e-12,
                fail_value: 1.0,
            },
            SpecDef {
                name: "cutoff_freq",
                unit: "Hz",
                kind: SpecKind::HardMin,
                lo: 6.0e8,
                hi: 3.5e9,
                fail_value: 0.0,
            },
            SpecDef {
                name: "noise",
                unit: "Vrms",
                kind: SpecKind::HardMax,
                lo: 3.9e-4,
                hi: 6.0e-4,
                fail_value: 1.0,
            },
        ];
        Tia {
            tech,
            params,
            specs,
            pex: PexConfig::default(),
        }
    }

    /// Unit feedback resistance (paper: 5.6 kOhm).
    pub const R_UNIT: f64 = 5.6e3;
    /// Photodiode capacitance at the input (F).
    pub const C_IN: f64 = 40e-15;
    /// Load capacitance at the output (F).
    pub const C_LOAD: f64 = 25e-15;

    /// Replaces the parasitic-extraction configuration — e.g. to deepen
    /// the RC mesh (`PexConfig::mesh_depth`) for denser MNA systems.
    pub fn with_pex_config(mut self, pex: PexConfig) -> Self {
        self.pex = pex;
        self
    }

    /// The parasitic-extraction configuration used by `Pex` and
    /// `PexWorstCase` evaluations.
    pub fn pex_config(&self) -> &PexConfig {
        &self.pex
    }

    /// Builds the netlist at the given grid indices for a technology
    /// variant. Returns the circuit and its output node.
    pub fn build(&self, idx: &[usize], tech: &Technology) -> (Circuit, Node) {
        self.build_inner(idx, tech, None)
    }

    /// Like [`Tia::build`], with the photodiode replaced by a step current
    /// source (`0 -> i_step` at `t = 0`) for nonlinear transient settling
    /// measurements, which cross-check the linear step response the specs
    /// use. Element and node order match `build` exactly, so the MNA
    /// structure — and therefore a session's warm-start slot — is
    /// interchangeable with the AC variant's.
    pub fn build_step(&self, idx: &[usize], tech: &Technology, i_step: f64) -> (Circuit, Node) {
        self.build_inner(
            idx,
            tech,
            Some(Step {
                v0: 0.0,
                v1: i_step,
                t_delay: 0.0,
            }),
        )
    }

    fn build_inner(&self, idx: &[usize], tech: &Technology, step: Option<Step>) -> (Circuit, Node) {
        assert_eq!(idx.len(), self.params.len(), "wrong parameter count");
        let w_n = self.params[0].values[idx[0]];
        let m_n = self.params[1].values[idx[1]];
        let w_p = self.params[2].values[idx[2]];
        let m_p = self.params[3].values[idx[3]];
        let n_ser = self.params[4].values[idx[4]];
        let n_par = self.params[5].values[idx[5]];
        let rf = Tia::R_UNIT * n_ser / n_par;

        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(vdd, GND, tech.vdd, 0.0);
        // Photodiode: AC test current of 1 A (linearity makes magnitude
        // irrelevant), zero DC so the inverter self-biases through Rf.
        match step {
            None => ckt.isource(GND, vin, 0.0, 1.0),
            Some(s) => ckt.isource_step(GND, vin, s, 1.0),
        }
        ckt.capacitor(vin, GND, Tia::C_IN);
        ckt.capacitor(out, GND, Tia::C_LOAD);
        ckt.resistor(out, vin, rf);
        let l = 2.0 * tech.lmin;
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: out,
            g: vin,
            s: GND,
            w: w_n,
            l,
            mult: m_n,
            model: tech.nmos,
        });
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Pmos,
            d: out,
            g: vin,
            s: vdd,
            w: w_p,
            l,
            mult: m_p,
            model: tech.pmos,
        });
        (ckt, out)
    }

    /// The AC sweep grid of every fidelity's measurement.
    pub fn ac_freqs() -> Vec<f64> {
        log_freqs(1e5, 1e12, 10)
    }

    /// Where every fidelity's AC sweep stops: after the first downward
    /// crossing of the -3 dB level `|H(f₀)|/√2`, which the cutoff (and so
    /// the settle window) reads.
    pub const AC_STOP: StopLevel = StopLevel::RelativeToFirst(std::f64::consts::FRAC_1_SQRT_2);

    /// The settle stage of every fidelity: one shared window of 8 periods
    /// of the slowest corner's cutoff (a one-corner plan: its own), 2048
    /// trapezoidal steps, so both 5 ps and 500 ps responses resolve, and
    /// a 2% settling band.
    pub const SETTLE: SettleSpec = SettleSpec {
        steps: 2048,
        window: 8.0,
        band: 0.02,
    };

    /// The noise integration grid of every fidelity's measurement. Public
    /// so the noise-corner benches time the exact production workload.
    pub fn noise_freqs() -> Vec<f64> {
        log_freqs(1e4, 1e11, 8)
    }

    /// The DC options of every fidelity's operating point.
    pub fn dc_opts(&self) -> DcOptions {
        DcOptions {
            initial_v: self.tech.vdd / 2.0,
        }
    }

    /// Shared body of `simulate`/`simulate_warm`: `state` selects the
    /// warm (session-threaded) or cold evaluation.
    fn simulate_inner(
        &self,
        idx: &[usize],
        mode: SimMode,
        state: Option<&mut WarmState>,
    ) -> Result<Vec<f64>, SimError> {
        // Noise and settling run inside the engine (`with_noise` /
        // `with_settling`) so warm worst-case evaluations can share work
        // across the corner set at dense-mesh dims (Woodbury) — the TIA's
        // worst-case step is noise- and settle-bound, so this is where its
        // dense-dim speedup comes from.
        let engine = CornerEvaluator::for_mode(
            mode,
            &self.pex,
            self.dc_opts(),
            Tia::ac_freqs(),
            Tia::AC_STOP,
        )
        .with_noise(Tia::noise_freqs())
        .with_settling(Tia::SETTLE);
        engine.evaluate(
            &self.specs,
            |_slot, pvt| {
                let (ckt, out) = self.build(idx, &self.tech.at_corner(*pvt));
                CornerCase { ckt, out }
            },
            |_slot, _case, _op, resp, noise, settle| self.corner_specs(resp, noise, settle),
            state,
        )
    }

    /// Step amplitude for nonlinear transient settling measurements on
    /// [`Tia::build_step`]: small enough that the response stays in the
    /// small-signal regime (output deviation of a few millivolts), so it
    /// cross-checks the linear step response rather than measuring slewing.
    pub const STEP_CURRENT: f64 = 1e-6;

    /// One corner's spec row: cutoff from the swept response, settling
    /// from the engine's linear step-response measurement (a measurement
    /// failure, or no measurement for want of a valid cutoff, reports the
    /// fail value; a solver error fails the corner) and integrated output
    /// noise from the engine's noise analysis (a noise failure reports
    /// the fail value).
    fn corner_specs(
        &self,
        resp: &AcResponse,
        noise: Option<&Result<NoiseResult, SimError>>,
        settle: Option<&SettleRecord>,
    ) -> Result<Vec<f64>, SimError> {
        let cutoff = resp
            .f_3db()
            .unwrap_or(self.specs[spec_index::CUTOFF].fail_value);
        let settling = match settle {
            Some(Ok(ts)) => *ts,
            Some(Err(SimError::MeasureFailed { .. })) | None => {
                self.specs[spec_index::SETTLING].fail_value
            }
            Some(Err(e)) => return Err(e.clone()),
        };
        let noise = match noise {
            Some(Ok(n)) => n.out_vrms,
            _ => self.specs[spec_index::NOISE].fail_value,
        };
        Ok(vec![settling, cutoff, noise])
    }
}

impl SizingProblem for Tia {
    fn name(&self) -> &'static str {
        "tia"
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn specs(&self) -> &[SpecDef] {
        &self.specs
    }

    fn simulate(&self, idx: &[usize], mode: SimMode) -> Result<Vec<f64>, SimError> {
        self.simulate_inner(idx, mode, None)
    }

    fn simulate_warm(
        &self,
        idx: &[usize],
        mode: SimMode,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        self.simulate_inner(idx, mode, Some(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_sim::ac::{ac_sweep, AcSolver};
    use autockt_sim::dc::dc_operating_point;
    use autockt_sim::device::{ProcessCorner, Pvt};
    use autockt_sim::measure::settling_time;
    use autockt_sim::pex::extract;
    use autockt_sim::tran::{transient, TranOptions};

    #[test]
    fn center_design_simulates() {
        let tia = Tia::default();
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let specs = tia.simulate(&idx, SimMode::Schematic).unwrap();
        assert_eq!(specs.len(), 3);
        let (ts, fc, vn) = (specs[0], specs[1], specs[2]);
        assert!(ts > 0.0 && ts < 1e-6, "settling {ts}");
        assert!(fc > 1e6 && fc < 1e12, "cutoff {fc}");
        assert!(vn > 1e-9 && vn < 1e-1, "noise {vn}");
    }

    #[test]
    fn more_feedback_resistance_lowers_bandwidth() {
        let tia = Tia::default();
        let mut lo_r: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let mut hi_r = lo_r.clone();
        lo_r[4] = 0; // fewest series units
        lo_r[5] = tia.cardinalities()[5] - 1; // most parallel
        hi_r[4] = tia.cardinalities()[4] - 1;
        hi_r[5] = 0;
        let s_lo = tia.simulate(&lo_r, SimMode::Schematic).unwrap();
        let s_hi = tia.simulate(&hi_r, SimMode::Schematic).unwrap();
        assert!(
            s_hi[spec_index::CUTOFF] < s_lo[spec_index::CUTOFF],
            "bigger Rf must be slower: {} vs {}",
            s_hi[spec_index::CUTOFF],
            s_lo[spec_index::CUTOFF]
        );
    }

    /// The corner of [`Pvt::corner_set`] where the small-step transient
    /// is no cross-check of the linear step response. At the center
    /// design, SS at 0.9 Vdd and -40 C has its cutoff near 384 kHz, three
    /// decades below the other corners'. Its linear settling time reads
    /// 1.75 µs. The `STEP_CURRENT` step swings its output by 110 mV, which
    /// is not small-signal, and the transient settles in about 80 ns.
    fn transient_disagrees(pvt: &Pvt) -> bool {
        pvt.process == ProcessCorner::Ss && pvt.temp_c == -40.0
    }

    /// The nonlinear transient engine cross-checks the linear step
    /// response behind the settling spec: a small photodiode step on
    /// [`Tia::build_step`] stays small-signal, so its settling time agrees
    /// with `simulate`'s in `Schematic` and `Pex`. At `PexWorstCase`,
    /// every corner's [`AcSolver::step_settling_time`] over its own 8
    /// cutoff periods is checked the same way (but for
    /// [`transient_disagrees`]); the transient shares no code with the
    /// blocked propagator. The engine's worst case is the largest of the
    /// corners' fused measurements over the shared window, bitwise.
    #[test]
    fn small_step_transient_matches_linear_settling() {
        let tia = Tia::default();
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        // Transient settling of the small step at `tech`, extracted or
        // not, over `t_stop`.
        let tran_settling = |tech: &Technology, pex: bool, t_stop: f64| {
            let (ckt, out) = tia.build_step(&idx, tech, Tia::STEP_CURRENT);
            let ckt = if pex { extract(&ckt, &tia.pex) } else { ckt };
            let mut opts = TranOptions::new(t_stop, 512);
            opts.dc = tia.dc_opts();
            let res = transient(&ckt, &opts).unwrap();
            settling_time(&res.t, &res.node_waveform(out), 0.02).expect("step settles")
        };
        // Up to integration and device-cap modelling differences.
        let check = |what: &str, tran_t: f64, lin_t: f64| {
            assert!(tran_t > 0.0 && tran_t < 1e-6, "{what}: settling {tran_t}");
            assert!(
                (tran_t - lin_t).abs() <= 0.5 * lin_t.max(tran_t),
                "{what}: transient settling {tran_t} vs linear {lin_t}"
            );
        };
        for mode in [SimMode::Schematic, SimMode::Pex] {
            let lin = tia.simulate(&idx, mode).unwrap();
            let (lin_t, cutoff) = (lin[spec_index::SETTLING], lin[spec_index::CUTOFF]);
            let tran_t = tran_settling(&tia.tech, mode == SimMode::Pex, 8.0 / cutoff);
            check(&format!("{mode:?}"), tran_t, lin_t);
        }
        let corners: Vec<_> = Pvt::corner_set()
            .into_iter()
            .map(|pvt| {
                let tech = tia.tech.at_corner(pvt);
                let (ckt, out) = tia.build(&idx, &tech);
                let ex = extract(&ckt, &tia.pex);
                let op = dc_operating_point(&ex, &tia.dc_opts()).unwrap();
                let cutoff = ac_sweep(&ex, &op, &Tia::ac_freqs(), out)
                    .and_then(|r| r.f_3db())
                    .unwrap();
                (pvt, tech, ex, op, out, cutoff)
            })
            .collect();
        let shared = Tia::SETTLE.window / corners.iter().fold(f64::INFINITY, |m, c| m.min(c.5));
        let mut worst = 0.0f64;
        for (pvt, tech, ex, op, out, cutoff) in &corners {
            let solver = AcSolver::new(ex, op);
            let settle = |t_stop: f64| {
                solver
                    .step_settling_time(*out, t_stop, Tia::SETTLE.steps, Tia::SETTLE.band)
                    .unwrap()
            };
            worst = worst.max(settle(shared));
            if !transient_disagrees(pvt) {
                let window = Tia::SETTLE.window / cutoff;
                check(
                    &format!("{pvt:?}"),
                    tran_settling(tech, true, window),
                    settle(window),
                );
            }
        }
        let wc = tia.simulate(&idx, SimMode::PexWorstCase).unwrap();
        assert_eq!(wc[spec_index::SETTLING], worst, "engine worst case");
    }

    #[test]
    fn pex_is_slower_than_schematic() {
        let tia = Tia::default();
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let sch = tia.simulate(&idx, SimMode::Schematic).unwrap();
        let pex = tia.simulate(&idx, SimMode::Pex).unwrap();
        assert!(pex[spec_index::CUTOFF] < sch[spec_index::CUTOFF]);
    }

    #[test]
    fn simulation_is_deterministic() {
        let tia = Tia::default();
        let idx = vec![1, 3, 2, 5, 4, 9];
        let a = tia.simulate(&idx, SimMode::Schematic).unwrap();
        let b = tia.simulate(&idx, SimMode::Schematic).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn space_size_matches_structure() {
        let tia = Tia::default();
        // 5 * 16 * 5 * 16 * 10 * 20 = 1.28e6
        assert!((tia.log10_space_size() - 6.107).abs() < 0.01);
    }

    #[test]
    fn worst_case_reduction_directions() {
        let specs = vec![
            SpecDef {
                name: "a",
                unit: "",
                kind: SpecKind::HardMin,
                lo: 0.0,
                hi: 1.0,
                fail_value: 0.0,
            },
            SpecDef {
                name: "b",
                unit: "",
                kind: SpecKind::HardMax,
                lo: 0.0,
                hi: 1.0,
                fail_value: 9.0,
            },
        ];
        let rows = vec![vec![3.0, 5.0], vec![2.0, 7.0], vec![4.0, 6.0]];
        assert_eq!(crate::problem::worst_case(&specs, &rows), vec![2.0, 7.0]);
    }
}
