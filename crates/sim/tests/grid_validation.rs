//! Degenerate analysis grids are rejected with `SimError::InvalidOptions`
//! instead of producing empty, backwards, singular or infinite results:
//! the linear step response checks its time grid like
//! `TranOptions::validate`, and every AC sweep entry point checks its
//! frequency grid like the noise analysis does.

use autockt_sim::ac::{
    ac_sweep, ac_sweep_corners, ac_sweep_ws, AcBatchWorkspace, AcSolver, AcWorkspace,
};
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::netlist::{Circuit, Node, GND};
use autockt_sim::noise::noise_analysis;
use autockt_sim::SimError;

/// The RC low-pass (1 kΩ into 1 nF) driven by a 1 V AC source.
fn rc_lowpass() -> (Circuit, Node, OpPoint) {
    let mut ckt = Circuit::new();
    let i = ckt.node("in");
    let o = ckt.node("out");
    ckt.vsource(i, GND, 0.0, 1.0);
    ckt.resistor(i, o, 1.0e3);
    ckt.capacitor(o, GND, 1e-9);
    let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
    (ckt, o, op)
}

fn is_invalid<T: std::fmt::Debug>(r: &Result<T, SimError>) -> bool {
    matches!(r, Err(SimError::InvalidOptions { .. }))
}

#[test]
fn step_response_rejects_zero_steps() {
    let (ckt, o, op) = rc_lowpass();
    let r = AcSolver::new(&ckt, &op).step_response(o, 1e-5, 0);
    assert!(is_invalid(&r), "{r:?}");
}

#[test]
fn step_response_rejects_negative_stop_time() {
    let (ckt, o, op) = rc_lowpass();
    let r = AcSolver::new(&ckt, &op).step_response(o, -1e-5, 100);
    assert!(is_invalid(&r), "{r:?}");
}

#[test]
fn step_response_rejects_nan_stop_time() {
    let (ckt, o, op) = rc_lowpass();
    let r = AcSolver::new(&ckt, &op).step_response(o, f64::NAN, 100);
    assert!(is_invalid(&r), "{r:?}");
}

#[test]
fn step_response_rejects_infinite_stop_time() {
    let (ckt, o, op) = rc_lowpass();
    let r = AcSolver::new(&ckt, &op).step_response(o, f64::INFINITY, 100);
    assert!(is_invalid(&r), "{r:?}");
}

#[test]
fn ac_sweep_rejects_empty_grid() {
    let (ckt, o, op) = rc_lowpass();
    assert!(is_invalid(&ac_sweep(&ckt, &op, &[], o)));
}

#[test]
fn ac_sweep_rejects_non_finite_frequencies() {
    let (ckt, o, op) = rc_lowpass();
    for bad in [f64::NAN, f64::INFINITY] {
        assert!(is_invalid(&ac_sweep(&ckt, &op, &[1e3, bad], o)), "{bad}");
    }
}

#[test]
fn ac_sweep_rejects_non_positive_frequencies() {
    let (ckt, o, op) = rc_lowpass();
    for bad in [[-1e4, -1e3], [0.0, 1e3]] {
        assert!(is_invalid(&ac_sweep(&ckt, &op, &bad, o)), "{bad:?}");
    }
}

#[test]
fn ac_sweep_rejects_non_increasing_grids() {
    // f_3db/ugbw interpolation assumes an increasing grid.
    let (ckt, o, op) = rc_lowpass();
    for bad in [&[1e4, 1e3][..], &[1e3, 1e3, 1e4][..]] {
        assert!(is_invalid(&ac_sweep(&ckt, &op, bad, o)), "{bad:?}");
        let mut ws = AcWorkspace::new();
        let r = ac_sweep_ws(&ckt, &op, bad, o, &mut ws);
        assert!(is_invalid(&r), "{bad:?} with a workspace");
    }
}

/// Above about 2.86e307 Hz the angular frequency `2πf` overflows to
/// infinity, so the point cannot be stamped.
#[test]
fn sweeps_reject_frequencies_whose_angular_frequency_overflows() {
    let (ckt, o, op) = rc_lowpass();
    let bad = [1e3, 3e307];
    assert!(is_invalid(&ac_sweep(&ckt, &op, &bad, o)));
    assert!(is_invalid(&noise_analysis(&ckt, &op, o, &bad, 300.0)));
    let solvers = [AcSolver::new(&ckt, &op), AcSolver::new(&ckt, &op)];
    let mut ws = AcBatchWorkspace::new();
    let r = ac_sweep_corners(&solvers, &bad, &[o, o], None, &mut ws);
    assert_eq!(r.len(), 2);
    assert!(r.iter().all(is_invalid), "{r:?}");
}

#[test]
fn corner_sweep_reports_invalid_grid_per_corner() {
    let (ckt, o, op) = rc_lowpass();
    let solvers = [AcSolver::new(&ckt, &op), AcSolver::new(&ckt, &op)];
    let mut ws = AcBatchWorkspace::new();
    let r = ac_sweep_corners(&solvers, &[1e4, 1e3], &[o, o], None, &mut ws);
    assert_eq!(r.len(), 2);
    assert!(r.iter().all(is_invalid));
}
