//! Property-based tests for running the simulator from several threads at
//! once, the way the rollout collector does (one thread per environment,
//! each with its own workspace): every threaded AC sweep and noise
//! analysis must be *bitwise* equal to its serial reference, and a
//! workspace kept by a thread across calls of differing dimension must be
//! indistinguishable from a fresh one.
//!
//! The analyses themselves are serial; these properties pin that they
//! share no mutable state across threads and that workspace reuse leaks
//! nothing from one call into the next.
//!
//! Every call is a one-corner call of the evaluation entry points
//! ([`ac_sweep_corners`], [`noise_analysis_corners`]), which runs the
//! scalar kernel on the caller's [`AcWorkspace`].

use autockt_sim::ac::{ac_sweep_corners, AcResponse, AcSolver, AcWorkspace};
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::netlist::{Circuit, Node, GND};
use autockt_sim::noise::{noise_analysis_corners, NoiseResult};
use autockt_sim::SimError;
use proptest::prelude::*;

/// The thread counts every property sweeps over: a single thread, even
/// counts, and an odd count above the usual core count.
const LANES: [usize; 4] = [1, 2, 4, 7];

/// An `n`-segment RC ladder with an AC-driven source (magnitude 1), so
/// both the transfer function and the noise signal gain are nonzero.
/// MNA dimension `n + 2`: `n` internal nodes, the drive node, and the
/// vsource branch current.
fn noisy_ladder(n: usize, r_scale: f64) -> (Circuit, Node) {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("drive");
    ckt.vsource(prev, GND, 1.0, 1.0);
    for i in 0..n {
        let node = ckt.node(&format!("n{i}"));
        ckt.resistor(prev, node, r_scale * (1.0 + i as f64));
        ckt.capacitor(node, GND, 1e-12);
        prev = node;
    }
    // A resistive path to ground so the DC solution is nontrivial.
    ckt.resistor(prev, GND, 10.0 * r_scale);
    (ckt, prev)
}

/// One circuit's full AC sweep on `ws`, as a one-corner set.
fn sweep(
    ckt: &Circuit,
    op: &OpPoint,
    freqs: &[f64],
    out: Node,
    ws: &mut AcWorkspace,
) -> Result<AcResponse, SimError> {
    let solver = AcSolver::new(ckt, op);
    ac_sweep_corners(std::slice::from_ref(&solver), freqs, &[out], None, ws).remove(0)
}

/// One circuit's noise analysis at 300 K on `ws`, as a one-corner set.
fn noise(
    ckt: &Circuit,
    op: &OpPoint,
    out: Node,
    freqs: &[f64],
    ws: &mut AcWorkspace,
) -> Result<NoiseResult, SimError> {
    let solver = AcSolver::new(ckt, op);
    noise_analysis_corners(
        std::slice::from_ref(&solver),
        &[op],
        &[out],
        freqs,
        &[300.0],
        ws,
    )
    .remove(0)
}

/// A strictly increasing frequency grid spanning several decades.
fn freq_grid(npts: usize) -> Vec<f64> {
    (0..npts).map(|k| 1e3 * 2f64.powi(k as i32)).collect()
}

/// Every field of a noise result, compared bitwise.
fn assert_noise_eq(a: &NoiseResult, b: &NoiseResult) {
    assert_eq!(a.out_psd, b.out_psd);
    assert_eq!(a.gain, b.gain);
    assert_eq!(a.out_vrms, b.out_vrms);
    assert_eq!(a.input_referred_rms, b.input_referred_rms);
}

proptest! {
    /// The AC sweep run concurrently on `t` threads, each with its own
    /// workspace, is bitwise-equal to the serial sweep on every thread.
    #[test]
    fn threaded_ac_sweep_is_bitwise_serial(
        segs in 3usize..32,
        npts in 2usize..14,
        r_scale in 10.0..1e4f64,
    ) {
        let (ckt, out) = noisy_ladder(segs, r_scale);
        let op = dc_operating_point(&ckt, &DcOptions::default()).expect("ladder solves");
        let freqs = freq_grid(npts);
        let serial = sweep(&ckt, &op, &freqs, out, &mut AcWorkspace::new())
            .expect("serial sweep");
        for t in LANES {
            let threaded: Vec<_> = std::thread::scope(|s| {
                let lanes: Vec<_> = (0..t)
                    .map(|_| {
                        s.spawn(|| sweep(&ckt, &op, &freqs, out, &mut AcWorkspace::new()))
                    })
                    .collect();
                lanes.into_iter().map(|h| h.join().expect("lane panicked")).collect()
            });
            for (lane, r) in threaded.into_iter().enumerate() {
                let r = r.expect("threaded sweep");
                prop_assert_eq!(&serial.h, &r.h, "threads={} lane={}", t, lane);
            }
        }
    }

    /// The noise analysis run concurrently on `t` threads is bitwise-equal
    /// to the serial walk — every derived field, including the integrated
    /// rms figures — on every thread.
    #[test]
    fn threaded_noise_analysis_is_bitwise_serial(
        segs in 3usize..24,
        npts in 2usize..12,
        r_scale in 10.0..1e4f64,
    ) {
        let (ckt, out) = noisy_ladder(segs, r_scale);
        let op = dc_operating_point(&ckt, &DcOptions::default()).expect("ladder solves");
        let freqs = freq_grid(npts);
        let serial = noise(&ckt, &op, out, &freqs, &mut AcWorkspace::new())
            .expect("serial noise");
        for t in LANES {
            let threaded: Vec<_> = std::thread::scope(|s| {
                let lanes: Vec<_> = (0..t)
                    .map(|_| {
                        s.spawn(|| noise(&ckt, &op, out, &freqs, &mut AcWorkspace::new()))
                    })
                    .collect();
                lanes.into_iter().map(|h| h.join().expect("lane panicked")).collect()
            });
            for r in threaded {
                assert_noise_eq(&serial, &r.expect("threaded noise"));
            }
        }
    }

    /// Each thread keeps one workspace across a sequence of calls of
    /// *different* dimension, alternating AC sweeps and noise analyses: a
    /// workspace last used by a large system must be indistinguishable
    /// from a fresh one when a smaller system uses it next (and vice
    /// versa).
    #[test]
    fn workspace_pool_reuse_across_calls_stays_bitwise(
        segs in prop::collection::vec(3usize..32, 3..6),
        npts in 2usize..10,
        r_scale in 10.0..1e4f64,
    ) {
        let freqs = freq_grid(npts);
        let ladders: Vec<_> = segs
            .iter()
            .map(|&s| {
                let (ckt, out) = noisy_ladder(s, r_scale);
                let op = dc_operating_point(&ckt, &DcOptions::default()).expect("ladder solves");
                (ckt, out, op)
            })
            .collect();
        let fresh: Vec<_> = ladders
            .iter()
            .map(|(ckt, out, op)| {
                let h = sweep(ckt, op, &freqs, *out, &mut AcWorkspace::new())
                    .expect("fresh sweep")
                    .h;
                let n = noise(ckt, op, *out, &freqs, &mut AcWorkspace::new())
                    .expect("fresh noise");
                (h, n)
            })
            .collect();
        let reused: Vec<Vec<_>> = std::thread::scope(|s| {
            let lanes: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut ws = AcWorkspace::new();
                        ladders
                            .iter()
                            .map(|(ckt, out, op)| {
                                let h = sweep(ckt, op, &freqs, *out, &mut ws)
                                    .expect("reused sweep")
                                    .h;
                                let n = noise(ckt, op, *out, &freqs, &mut ws)
                                    .expect("reused noise");
                                (h, n)
                            })
                            .collect()
                    })
                })
                .collect();
            lanes.into_iter().map(|h| h.join().expect("lane panicked")).collect()
        });
        for lane in &reused {
            for (i, ((fh, fnz), (rh, rnz))) in fresh.iter().zip(lane).enumerate() {
                prop_assert_eq!(fh, rh, "call #{} segs={}", i, segs[i]);
                assert_noise_eq(fnz, rnz);
            }
        }
    }
}
