//! The two-stage OTA with negative-gm load of Fig. 9, in the
//! FinFET-16-flavoured technology.
//!
//! The first stage is an NMOS differential pair loaded by PMOS
//! diode-connected devices *and* a PMOS cross-coupled pair. The
//! cross-coupled pair contributes a negative transconductance that
//! partially cancels the diode load, boosting gain — at the cost of
//! positive feedback that makes the stage sensitive to sizing and to
//! layout parasitics, which is exactly why the paper uses it to stress
//! transfer learning (Sec. III-C/D).
//!
//! Parameter space: six independent widths on a 64-point grid
//! (`64^6 ~ 6.9e10`, the paper quotes ~1e11 combinations).
//! Specifications: gain `[1, 40]`, UGBW `[1e6, 2.5e7]` Hz, phase margin
//! `[60, 75]` degrees (a *range* is sampled during training; Sec. III-D
//! explains this aids transfer).

use crate::problem::{
    unity_specs, CornerCase, CornerEvaluator, ParamSpec, SimMode, SizingProblem, SpecDef, SpecKind,
};
use autockt_sim::ac::{log_freqs, AcResponse, StopLevel};
use autockt_sim::dc::{DcOptions, WarmState};
use autockt_sim::device::{MosPolarity, Technology};
use autockt_sim::netlist::{Circuit, Mosfet, Node, GND};
use autockt_sim::pex::PexConfig;
use autockt_sim::SimError;

/// Index constants into the OTA spec vector.
pub mod spec_index {
    /// DC gain (V/V).
    pub const GAIN: usize = 0;
    /// Unity-gain bandwidth (Hz).
    pub const UGBW: usize = 1;
    /// Phase margin (degrees).
    pub const PM: usize = 2;
}

/// The negative-gm OTA sizing problem.
#[derive(Debug, Clone)]
pub struct NegGmOta {
    tech: Technology,
    params: Vec<ParamSpec>,
    specs: Vec<SpecDef>,
    pex: PexConfig,
}

impl Default for NegGmOta {
    fn default() -> Self {
        NegGmOta::new(Technology::finfet16())
    }
}

impl NegGmOta {
    /// Creates the problem over a technology (the paper uses TSMC 16 nm
    /// FinFET via Spectre).
    pub fn new(tech: Technology) -> Self {
        let grid = |name| ParamSpec::swept(name, 1.0, 64.0, 1.0, 0.2e-6);
        let params = vec![
            grid("w_in"),    // M1/M2
            grid("w_diode"), // M3/M4 diode loads
            grid("w_cross"), // M5/M6 cross-coupled (negative gm)
            grid("w_tail"),  // M7
            grid("w_cs"),    // M9 second-stage PMOS common source
            grid("w_sink"),  // M10 second-stage NMOS current sink
        ];
        let specs = vec![
            SpecDef {
                name: "gain",
                unit: "V/V",
                kind: SpecKind::HardMin,
                lo: 10.0,
                hi: 60.0,
                fail_value: 0.0,
            },
            SpecDef {
                name: "ugbw",
                unit: "Hz",
                kind: SpecKind::HardMin,
                lo: 2.0e7,
                hi: 1.5e8,
                fail_value: 0.0,
            },
            SpecDef {
                name: "phase_margin",
                unit: "deg",
                kind: SpecKind::HardMin,
                lo: 60.0,
                hi: 75.0,
                fail_value: 0.0,
            },
        ];
        NegGmOta {
            tech,
            params,
            specs,
            // This testbench's explicit capacitors are pF-scale, so the
            // extraction model is scaled to match a physically large
            // layout: long routes to the big MiM caps dominate (the paper's
            // Fig. 14 histogram shows tens-of-percent schematic-vs-PEX
            // shifts for this circuit).
            pex: PexConfig {
                cap_per_width: 7e-9,
                cap_fixed: 35e-15,
                spread: 0.35,
                junction_scale: 1.8,
                ..PexConfig::default()
            },
        }
    }

    /// Supply voltage (V).
    pub const VDD: f64 = 0.8;
    /// Input common mode (V).
    pub const VCM: f64 = 0.55;
    /// Bias reference current (A).
    pub const IREF: f64 = 20e-6;
    /// Output load capacitance (F).
    pub const C_LOAD: f64 = 4e-12;
    /// Miller compensation capacitance (F), fixed.
    pub const C_COMP: f64 = 2e-12;

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

    /// Overrides the phase-margin target sampling range (Sec. III-D: a
    /// range `[60, 75]` trains better transfer than a fixed lower bound).
    pub fn with_pm_range(mut self, lo: f64, hi: f64) -> Self {
        self.specs[spec_index::PM].lo = lo;
        self.specs[spec_index::PM].hi = hi;
        self
    }

    /// Builds the netlist at grid indices `idx`.
    pub fn build(&self, idx: &[usize], tech: &Technology) -> (Circuit, Node) {
        assert_eq!(idx.len(), self.params.len(), "wrong parameter count");
        let w_in = self.params[0].values[idx[0]];
        let w_diode = self.params[1].values[idx[1]];
        let w_cross = self.params[2].values[idx[2]];
        let w_tail = self.params[3].values[idx[3]];
        let w_cs = self.params[4].values[idx[4]];
        let w_sink = self.params[5].values[idx[5]];
        let l = 2.0 * tech.lmin;
        let w_ref = 2.0e-6; // fixed mirror reference width

        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vinp = ckt.node("vinp");
        let vinn = ckt.node("vinn");
        let bias = ckt.node("bias");
        let tail = ckt.node("tail");
        let x1 = ckt.node("x1");
        let x2 = ckt.node("x2");
        let out = ckt.node("out");

        ckt.vsource(vdd, GND, NegGmOta::VDD, 0.0);
        ckt.vsource(vinp, GND, NegGmOta::VCM, 1.0);
        ckt.vsource(vinn, GND, NegGmOta::VCM, 0.0);
        ckt.isource(vdd, bias, NegGmOta::IREF, 0.0); // NMOS mirror reference
        let mos = |polarity, d, g, s, w| Mosfet {
            polarity,
            d,
            g,
            s,
            w,
            l,
            mult: 1.0,
            model: match polarity {
                MosPolarity::Nmos => tech.nmos,
                MosPolarity::Pmos => tech.pmos,
            },
        };
        // Bias mirror.
        ckt.mosfet(mos(MosPolarity::Nmos, bias, bias, GND, w_ref)); // M8

        // First stage.
        ckt.mosfet(mos(MosPolarity::Nmos, tail, bias, GND, w_tail)); // M7
        ckt.mosfet(mos(MosPolarity::Nmos, x1, vinn, tail, w_in)); // M1
        ckt.mosfet(mos(MosPolarity::Nmos, x2, vinp, tail, w_in)); // M2
        ckt.mosfet(mos(MosPolarity::Pmos, x1, x1, vdd, w_diode)); // M3
        ckt.mosfet(mos(MosPolarity::Pmos, x2, x2, vdd, w_diode)); // M4
        ckt.mosfet(mos(MosPolarity::Pmos, x1, x2, vdd, w_cross)); // M5
        ckt.mosfet(mos(MosPolarity::Pmos, x2, x1, vdd, w_cross)); // M6

        // Second stage: PMOS common source (its gate sits a PMOS vgs below
        // the supply — exactly where the diode-loaded x2 node rests) with a
        // mirrored NMOS sink.
        ckt.mosfet(mos(MosPolarity::Pmos, out, x2, vdd, w_cs)); // M9
        ckt.mosfet(mos(MosPolarity::Nmos, out, bias, GND, w_sink)); // M10
        ckt.capacitor(x2, out, NegGmOta::C_COMP);
        ckt.capacitor(out, GND, NegGmOta::C_LOAD);
        (ckt, out)
    }

    /// The AC sweep grid of every fidelity's measurement.
    pub fn ac_freqs() -> Vec<f64> {
        log_freqs(1e2, 1e10, 10)
    }

    /// Where every fidelity's AC sweep stops: after the first downward
    /// crossing of unity, the level `ugbw` and the phase margin read.
    pub const AC_STOP: StopLevel = StopLevel::Absolute(1.0);

    /// The DC options of every fidelity's operating point.
    pub fn dc_opts(&self) -> DcOptions {
        DcOptions {
            initial_v: NegGmOta::VDD / 2.0,
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
        let engine = CornerEvaluator::for_mode(
            mode,
            &self.pex,
            self.dc_opts(),
            NegGmOta::ac_freqs(),
            NegGmOta::AC_STOP,
        );
        engine.evaluate(
            &self.specs,
            |_slot, pvt| {
                let (ckt, out) = self.build(idx, &self.tech.at_corner(*pvt));
                CornerCase { ckt, out }
            },
            |_slot, _case, _op, resp, _noise, _settle| self.corner_specs(resp),
            state,
        )
    }

    /// One corner's spec row.
    fn corner_specs(&self, resp: &AcResponse) -> Result<Vec<f64>, SimError> {
        let gain = resp.dc_gain();
        let (ugbw, pm) = unity_specs(
            resp,
            self.specs[spec_index::UGBW].fail_value,
            self.specs[spec_index::PM].fail_value,
        );
        Ok(vec![gain, ugbw, pm])
    }
}

impl SizingProblem for NegGmOta {
    fn name(&self) -> &'static str {
        "neggm_ota"
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

    fn mid(p: &NegGmOta) -> Vec<usize> {
        p.cardinalities().iter().map(|k| k / 2).collect()
    }

    #[test]
    fn space_size_is_paper_scale() {
        let p = NegGmOta::default();
        // 64^6 ~ 6.9e10, paper quotes ~1e11.
        assert!((p.log10_space_size() - 10.84).abs() < 0.02);
    }

    #[test]
    fn center_design_simulates() {
        let p = NegGmOta::default();
        let s = p.simulate(&mid(&p), SimMode::Schematic).unwrap();
        assert!(s[spec_index::GAIN] > 0.1, "gain {}", s[spec_index::GAIN]);
        assert!(s[spec_index::PM] >= 0.0 && s[spec_index::PM] <= 180.0);
    }

    #[test]
    fn stronger_cross_coupling_raises_first_stage_gain() {
        let p = NegGmOta::default();
        let mut weak = mid(&p);
        let mut strong = weak.clone();
        weak[2] = 4; // small cross-coupled pair
                     // Strong but still below the diode width at the same index scale:
        strong[2] = weak[1].saturating_sub(8);
        let a = p.simulate(&weak, SimMode::Schematic).unwrap();
        let b = p.simulate(&strong, SimMode::Schematic).unwrap();
        assert!(
            b[spec_index::GAIN] > a[spec_index::GAIN],
            "negative gm should boost gain: {} -> {}",
            a[spec_index::GAIN],
            b[spec_index::GAIN]
        );
    }

    #[test]
    fn deterministic() {
        let p = NegGmOta::default();
        let idx = vec![10, 30, 20, 15, 40, 25];
        assert_eq!(
            p.simulate(&idx, SimMode::Schematic).unwrap(),
            p.simulate(&idx, SimMode::Schematic).unwrap()
        );
    }

    #[test]
    fn pex_worst_case_is_no_better_than_nominal_pex() {
        let p = NegGmOta::default();
        let idx = mid(&p);
        let nom = p.simulate(&idx, SimMode::Pex).unwrap();
        let wc = p.simulate(&idx, SimMode::PexWorstCase).unwrap();
        // Hard-min specs can only get worse (smaller) under worst-case.
        // The corner set includes the nominal corner, so <= holds exactly.
        assert!(wc[spec_index::GAIN] <= nom[spec_index::GAIN] + 1e-9);
        assert!(wc[spec_index::UGBW] <= nom[spec_index::UGBW] + 1e-3);
    }
}
