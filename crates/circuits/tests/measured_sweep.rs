//! Measure-driven AC sweeps against the full grid.
//!
//! Every evaluation stops its AC sweep after the point that completes the
//! first downward crossing of the level its topology declares
//! (`AC_STOP`), because no spec reads a point past it. This file checks
//! that the stop changes no spec bit: for each topology at `Schematic`
//! and `Pex`, over seeded random designs (cold) and a seeded one-notch
//! walk (warm), the production evaluation is bitwise equal to the specs
//! measured on the *full* `ac_sweep` response of the same operating
//! point. A recording engine checks that every response it hands the
//! measurement is a bitwise prefix of the full one, that the stop fired,
//! and prints the median number of points solved, and of lanes solved
//! past the stop in the sweep's last lockstep pass.
//!
//! The design count is `PROPTEST_CASES`, at least 200.

use autockt_circuits::prelude::*;
use autockt_circuits::{CornerCase, CornerEvaluator};
use autockt_sim::ac::{ac_sweep, AcResponse, AcSolver, StopLevel};
use autockt_sim::dc::{DcOptions, OpPoint, WarmState};
use autockt_sim::device::{Pvt, Technology};
use autockt_sim::linalg::pencil::LANES;
use autockt_sim::measure::settling_time;
use autockt_sim::noise::noise_analysis;
use autockt_sim::pex::PexConfig;
use autockt_sim::SimError;

/// Designs per topology and fidelity: `PROPTEST_CASES`, at least 200.
fn design_count() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0usize)
        .max(200)
}

/// SplitMix64: a seeded stream for the design indices.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }
}

/// `count` uniformly random grid points.
fn random_designs(cards: &[usize], count: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut s = Stream(seed);
    (0..count)
        .map(|_| cards.iter().map(|&k| s.below(k)).collect())
        .collect()
}

/// A walk of `count` points from a random start, each parameter moving
/// at most one notch per step, as the RL environment moves.
fn walk(cards: &[usize], count: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut s = Stream(seed);
    let mut idx: Vec<usize> = cards.iter().map(|&k| s.below(k)).collect();
    (0..count)
        .map(|_| {
            for (i, &k) in idx.iter_mut().zip(cards) {
                *i = (*i + s.below(3)).saturating_sub(1).min(k - 1);
            }
            idx.clone()
        })
        .collect()
}

/// Builds a design's netlist at a corner.
type Build = Box<dyn Fn(&[usize], &Pvt) -> CornerCase>;

/// Measures a corner's spec row from its case, operating point and full
/// response.
type Measure = Box<dyn Fn(&CornerCase, &OpPoint, &AcResponse) -> Result<Vec<f64>, SimError>>;

/// One topology as the test sees it: its production problem, the grid,
/// stop level and DC options its engine uses, its builder, and an
/// independent measurement of its spec row from a full response.
struct Topology {
    problem: Box<dyn SizingProblem>,
    pex: PexConfig,
    freqs: Vec<f64>,
    stop: StopLevel,
    dc_opts: DcOptions,
    build: Build,
    measure: Measure,
}

/// `ugbw` and the phase margin measured the long way on `full`.
fn unity_specs(full: &AcResponse, specs: &[SpecDef]) -> (f64, f64) {
    (
        full.ugbw().unwrap_or(specs[1].fail_value),
        full.phase_margin_deg().unwrap_or(specs[2].fail_value),
    )
}

fn opamp2() -> Topology {
    let p = OpAmp2::default();
    let (pex, dc_opts) = (p.pex_config().clone(), p.dc_opts());
    let specs = p.specs().to_vec();
    let builder = p.clone();
    Topology {
        problem: Box::new(p),
        pex,
        freqs: OpAmp2::ac_freqs(),
        stop: OpAmp2::AC_STOP,
        dc_opts,
        build: Box::new(move |idx, pvt| {
            let (ckt, out) = builder.build(idx, &Technology::ptm45().at_corner(*pvt));
            CornerCase { ckt, out }
        }),
        measure: Box::new(move |_case, op, full| {
            let (ugbw, pm) = unity_specs(full, &specs);
            let ibias = op.vsource_current(OpAmp2::VDD_SOURCE).abs();
            Ok(vec![full.dc_gain(), ugbw, pm, ibias])
        }),
    }
}

fn neggm() -> Topology {
    let p = NegGmOta::default();
    let (pex, dc_opts) = (p.pex_config().clone(), p.dc_opts());
    let specs = p.specs().to_vec();
    let builder = p.clone();
    Topology {
        problem: Box::new(p),
        pex,
        freqs: NegGmOta::ac_freqs(),
        stop: NegGmOta::AC_STOP,
        dc_opts,
        build: Box::new(move |idx, pvt| {
            let (ckt, out) = builder.build(idx, &Technology::finfet16().at_corner(*pvt));
            CornerCase { ckt, out }
        }),
        measure: Box::new(move |_case, _op, full| {
            let (ugbw, pm) = unity_specs(full, &specs);
            Ok(vec![full.dc_gain(), ugbw, pm])
        }),
    }
}

fn tia() -> Topology {
    let p = Tia::default();
    let (pex, dc_opts) = (p.pex_config().clone(), p.dc_opts());
    let specs = p.specs().to_vec();
    let builder = p.clone();
    Topology {
        problem: Box::new(p),
        pex,
        freqs: Tia::ac_freqs(),
        stop: Tia::AC_STOP,
        dc_opts,
        build: Box::new(move |idx, pvt| {
            let (ckt, out) = builder.build(idx, &Technology::ptm45().at_corner(*pvt));
            CornerCase { ckt, out }
        }),
        // Spec order: settling, cutoff, noise. The settle window is read
        // off the full response's cutoff; both fidelities checked here run
        // at the nominal corner, so noise is measured at its temperature.
        measure: Box::new(move |case, op, full| {
            let cutoff = full.f_3db();
            let settling = match cutoff {
                Ok(c) if c > 0.0 => {
                    let (t, y) = AcSolver::new(&case.ckt, op).step_response(
                        case.out,
                        Tia::SETTLE.window / c,
                        Tia::SETTLE.steps,
                    )?;
                    settling_time(&t, &y, 0.02).unwrap_or(specs[0].fail_value)
                }
                _ => specs[0].fail_value,
            };
            let temp_k = Pvt::nominal().temp_kelvin();
            let noise = noise_analysis(&case.ckt, op, case.out, &Tia::noise_freqs(), temp_k)
                .map_or(specs[2].fail_value, |n| n.out_vrms);
            Ok(vec![settling, cutoff.unwrap_or(specs[1].fail_value), noise])
        }),
    }
}

/// What one fidelity's run saw.
#[derive(Default)]
struct Tally {
    /// Points each recorded response solved.
    solved: Vec<usize>,
    /// Evaluations whose full sweep failed while the stopped one did not.
    rescued: usize,
    /// Evaluations that failed on both sides.
    both_failed: usize,
    mismatches: Vec<String>,
}

/// Evaluates `designs` at `mode` through production (`problem.simulate`
/// or `simulate_warm`) and through a recording engine of the same
/// configuration whose measurement reads the full sweep; both must agree
/// bit for bit.
fn check(t: &Topology, mode: SimMode, designs: &[Vec<usize>], warm: bool, tally: &mut Tally) {
    let engine =
        CornerEvaluator::for_mode(mode, &t.pex, t.dc_opts.clone(), t.freqs.clone(), t.stop);
    let (mut prod_ws, mut test_ws) = (WarmState::new(), WarmState::new());
    for idx in designs {
        let prod = if warm {
            t.problem.simulate_warm(idx, mode, &mut prod_ws)
        } else {
            t.problem.simulate(idx, mode)
        };
        let mut solved = None;
        let mut prefix_ok = true;
        let expect = engine.evaluate(
            t.problem.specs(),
            |_slot, pvt| (t.build)(idx, pvt),
            |_slot, case, op, resp, _noise, _settle| {
                let full = ac_sweep(&case.ckt, op, &t.freqs, case.out)?;
                let k = resp.h.len();
                prefix_ok = k <= full.h.len()
                    && resp.h[..] == full.h[..k]
                    && resp.freqs[..] == t.freqs[..k];
                solved = Some(k);
                (t.measure)(case, op, &full)
            },
            if warm { Some(&mut test_ws) } else { None },
        );
        tally.solved.extend(solved);
        if !prefix_ok {
            tally
                .mismatches
                .push(format!("{idx:?}: the stopped response is not a prefix"));
        }
        match (&prod, &expect) {
            (Ok(p), Ok(e)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if bits(p) != bits(e) {
                    tally
                        .mismatches
                        .push(format!("{idx:?}: stopped {p:?} vs full {e:?}"));
                }
            }
            (Ok(_), Err(_)) => tally.rescued += 1,
            (Err(_), Err(_)) => tally.both_failed += 1,
            (Err(p), Ok(e)) => tally.mismatches.push(format!(
                "{idx:?}: stopped failed {p:?}, full measured {e:?}"
            )),
        }
    }
}

fn median(v: &mut [usize]) -> usize {
    v.sort_unstable();
    v[v.len() / 2]
}

fn check_topology(t: Topology, seed: u64) {
    let name = t.problem.name();
    let cards = t.problem.cardinalities();
    let n = design_count();
    for (m, mode) in [SimMode::Schematic, SimMode::Pex].into_iter().enumerate() {
        let mut tally = Tally::default();
        let designs = random_designs(&cards, n, seed + m as u64);
        check(&t, mode, &designs, false, &mut tally);
        let cold_solved = tally.solved.clone();
        check(
            &t,
            mode,
            &walk(&cards, n, seed + 10 + m as u64),
            true,
            &mut tally,
        );
        assert!(
            tally.mismatches.is_empty(),
            "{name} {mode:?}: {} mismatches\n{}",
            tally.mismatches.len(),
            tally.mismatches.join("\n")
        );
        let grid = t.freqs.len();
        assert!(
            tally.solved.iter().any(|&k| k < grid),
            "{name} {mode:?}: no sweep stopped early"
        );
        let mut cold = cold_solved;
        let at_two = cold.iter().filter(|&&k| k == 2).count();
        // A sweep solves its points LANES at a time, so the last pass of
        // one that stopped holds up to LANES - 1 points nothing reads.
        let mut past: Vec<usize> = cold
            .iter()
            .map(|&k| (k.div_ceil(LANES) * LANES).min(grid) - k)
            .collect();
        println!(
            "{name} {mode:?}: median {} of {grid} points solved over {} random designs \
             ({at_two} stopped at 2 points), median {} lanes past the stop; \
             {} rescued by the stop, {} failed on both sides",
            median(&mut cold),
            cold.len(),
            median(&mut past),
            tally.rescued,
            tally.both_failed,
        );
    }
}

#[test]
fn opamp2_stopped_sweeps_measure_like_the_full_grid() {
    check_topology(opamp2(), 0x0a2_0001);
}

#[test]
fn neggm_stopped_sweeps_measure_like_the_full_grid() {
    check_topology(neggm(), 0x0a2_0002);
}

#[test]
fn tia_stopped_sweeps_measure_like_the_full_grid() {
    check_topology(tia(), 0x0a2_0003);
}

/// The Woodbury corner rows at mesh depth 8 (dim 60) share one base
/// factor per point, so they stop once every corner has crossed: warm
/// `PexWorstCase` evaluations against cold within the warm path's
/// solver-tolerance contract (`proptest_warm_equivalence.rs`), and every
/// corner's response ending on its own crossing.
#[test]
fn tia_mesh8_worst_case_woodbury_rows_stop_and_match_cold() {
    const REL_TOL: f64 = 5e-3;
    let mut t = tia();
    t.pex = PexConfig {
        mesh_depth: 8,
        ..t.pex.clone()
    };
    let problem = Tia::default().with_pex_config(t.pex.clone());
    let engine = CornerEvaluator::for_mode(
        SimMode::PexWorstCase,
        &t.pex,
        t.dc_opts.clone(),
        t.freqs.clone(),
        t.stop,
    );
    let cards = problem.cardinalities();
    let mut state = WarmState::new();
    let mut probe = WarmState::new();
    let mut solved = Vec::new();
    for idx in walk(&cards, 4, 0x0a2_0008) {
        let cold = problem.simulate(&idx, SimMode::PexWorstCase).unwrap();
        let warm = problem
            .simulate_warm(&idx, SimMode::PexWorstCase, &mut state)
            .unwrap();
        for (w, c) in warm.iter().zip(&cold) {
            assert!(
                (w - c).abs() <= REL_TOL * (1.0 + w.abs().max(c.abs())),
                "{idx:?}: warm {warm:?} vs cold {cold:?}"
            );
        }
        engine
            .evaluate(
                problem.specs(),
                |_slot, pvt| (t.build)(&idx, pvt),
                |_slot, case, op, resp, _noise, _settle| {
                    let full = ac_sweep(&case.ckt, op, &t.freqs, case.out)?;
                    let k = resp.h.len();
                    for (a, b) in resp.h.iter().zip(&full.h) {
                        assert!((*a - *b).norm() <= 1e-9 * (1.0 + b.norm()), "{a} vs {b}");
                    }
                    let level = full.h[0].norm() * std::f64::consts::FRAC_1_SQRT_2;
                    assert!(k < full.h.len() && resp.h[k - 1].norm() < level);
                    solved.push(k);
                    Ok(vec![0.0; 3])
                },
                Some(&mut probe),
            )
            .unwrap();
    }
    println!(
        "tia mesh8 PexWorstCase: median {} of {} points solved per corner",
        median(&mut solved),
        t.freqs.len()
    );
}
