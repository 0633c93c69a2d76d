//! Criterion micro-benchmarks of the simulation substrate: these bound the
//! per-environment-step cost that dominates training wall clock (the
//! paper's 25 ms/schematic-sim and 91 s/PEX-sim discussion in Sec. III-D).

use autockt_bench::{tia_corner_case, tia_mesh_kernel_case, AcKernelCase};
use autockt_circuits::{NegGmOta, OpAmp2, SimMode, SizingProblem, Tia};
use autockt_sim::ac::{ac_sweep, ac_sweep_corners, log_freqs, AcSolver, AcWorkspace};
use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::device::Technology;
use autockt_sim::linalg::pencil::{HessenbergLu, Pencil, LANES};
use autockt_sim::linalg::{solve, LuFactors, Matrix};
use autockt_sim::netlist::{Circuit, Node};
use autockt_sim::noise::noise_analysis_corners;
use autockt_sim::pex::extract;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn center(p: &dyn SizingProblem) -> Vec<usize> {
    p.cardinalities().iter().map(|k| k / 2).collect()
}

fn bench_lu(c: &mut Criterion) {
    let n = 12;
    let mut a = Matrix::<f64>::zeros(n, n);
    for r in 0..n {
        for cc in 0..n {
            a[(r, cc)] = if r == cc {
                10.0
            } else {
                1.0 / (1 + r + cc) as f64
            };
        }
    }
    let b = vec![1.0; n];
    c.bench_function("lu_solve_12x12", |bench| {
        bench.iter(|| solve(black_box(a.clone()), black_box(&b)).expect("nonsingular"))
    });
}

fn bench_dc(c: &mut Criterion) {
    let opamp = OpAmp2::default();
    let idx = center(&opamp);
    let tech = Technology::ptm45();
    let (ckt, _) = opamp.build(&idx, &tech);
    let opts = DcOptions { initial_v: 0.6 };
    c.bench_function("dc_newton_opamp2", |bench| {
        bench.iter(|| dc_operating_point(black_box(&ckt), &opts).expect("converges"))
    });
}

fn bench_ac(c: &mut Criterion) {
    let opamp = OpAmp2::default();
    let idx = center(&opamp);
    let tech = Technology::ptm45();
    let (ckt, out) = opamp.build(&idx, &tech);
    let opts = DcOptions { initial_v: 0.6 };
    let op = dc_operating_point(&ckt, &opts).expect("converges");
    let freqs = log_freqs(1e2, 1e10, 10);
    c.bench_function("ac_sweep_opamp2_82pts", |bench| {
        bench.iter(|| ac_sweep(black_box(&ckt), &op, &freqs, out).expect("solves"))
    });
}

/// The stock-dim settling record: the TIA center design at stock
/// extraction (dim 4, the `deploy_tia_pexwc` system), 2048 trapezoidal
/// steps over 8 cutoff periods. The record is blocked: a per-step
/// warm-up of `SETTLE_BLOCK` steps, the output rows and `M^B`, then one
/// `n²` anchor advance and `SETTLE_BLOCK` length-`n` dots per block.
/// This row times the record-producing oracle `step_response`; the
/// settle stage itself runs `step_settling_time`, which the
/// `settle_corners_*` rows time.
fn bench_settle(c: &mut Criterion) {
    let tia = Tia::default();
    let idx = center(&tia);
    let (ckt, out) = tia.build(&idx, &Technology::ptm45());
    let ex = extract(&ckt, tia.pex_config());
    let opts = DcOptions { initial_v: 0.5 };
    let op = dc_operating_point(&ex, &opts).expect("converges");
    let cutoff = ac_sweep(&ex, &op, &log_freqs(1e3, 1e11, 10), out)
        .and_then(|r| r.f_3db())
        .expect("has a cutoff");
    let solver = AcSolver::new(&ex, &op);
    c.bench_function(
        &format!("settle_step_response_tia_dim{}", solver.dim()),
        |bench| {
            bench.iter(|| {
                solver
                    .step_response(out, 8.0 / cutoff, black_box(2048))
                    .expect("integrates")
            })
        },
    );
}

/// One whole cold evaluation per iteration: DC, the measure-driven AC
/// sweep (and the TIA's noise and settle stages), spec measurement.
fn bench_full_spec_eval(c: &mut Criterion) {
    let opamp = OpAmp2::default();
    let idx_o = center(&opamp);
    c.bench_function("spec_eval_opamp2_schematic", |bench| {
        bench.iter(|| {
            opamp
                .simulate(black_box(&idx_o), SimMode::Schematic)
                .expect("ok")
        })
    });
    let tia = Tia::default();
    let idx_t = center(&tia);
    c.bench_function("spec_eval_tia_schematic", |bench| {
        bench.iter(|| {
            tia.simulate(black_box(&idx_t), SimMode::Schematic)
                .expect("ok")
        })
    });
    let neggm = NegGmOta::default();
    let idx_n = center(&neggm);
    c.bench_function("spec_eval_neggm_schematic", |bench| {
        bench.iter(|| {
            neggm
                .simulate(black_box(&idx_n), SimMode::Schematic)
                .expect("ok")
        })
    });
    c.bench_function("spec_eval_neggm_pex_worstcase", |bench| {
        bench.iter(|| {
            neggm
                .simulate(black_box(&idx_n), SimMode::PexWorstCase)
                .expect("ok")
        })
    });
}

/// One AC point per iteration through the dense LU: stamp the pattern
/// into the reused factor buffer, refactor, solve — the per-point work of
/// the Woodbury corner rows and of the LU oracle (dense sweeps run on the
/// pencil reduction instead; see `ac_sweep_opamp2_82pts`).
fn bench_dense_point(c: &mut Criterion, label: &str, case: &AcKernelCase) {
    let (n, w) = (case.n, case.w);
    let mut lu = LuFactors::<Complex>::empty();
    let mut x = Vec::new();
    c.bench_function(&format!("ac_point_dense_{label}_dim{n}"), |bench| {
        bench.iter(|| {
            lu.refactor_with(n, 1e-300, |m| {
                for &(r, cc, gg, cap) in &case.pattern {
                    m[(r, cc)] = Complex::new(gg, w * cap);
                }
            })
            .expect("nonsingular");
            lu.solve_into(&case.rhs, &mut x);
            black_box(x.last());
        })
    });
}

/// The dense per-point LU on the TIA's extracted mesh systems: dim 32
/// (mesh 4) and dim 60 (mesh 8, the `deploy_tia_pexwc_mesh8` system, where
/// this LU runs as the Woodbury base factor).
fn bench_dense_points(c: &mut Criterion) {
    for depth in [4usize, 8] {
        let case = tia_mesh_kernel_case(depth).expect("TIA mesh workload builds");
        bench_dense_point(c, &format!("mesh{depth}"), &case);
    }
}

/// The per-point layer of the dense AC sweep: one lockstep transposed
/// Hessenberg solve per `L` grid points plus each point's dot with the
/// projected source, over a grid prefix, on a reduction prepared once.
/// `lanes1` is the one-point kernel.
fn bench_hessenberg_lanes<const L: usize>(
    c: &mut Criterion,
    label: &str,
    ckt: &Circuit,
    op: &OpPoint,
    out: Node,
    freqs: &[f64],
) {
    let solver = AcSolver::new(ckt, op);
    let (g, cap) = solver.stamps();
    let mut p = Pencil::new();
    p.reduce(g, cap);
    let mut qb = Vec::new();
    p.project(solver.source_rhs(), &mut qb);
    let zo = p
        .z_row(solver.mna_index(out).expect("output is a node"))
        .to_vec();
    let mut lu = HessenbergLu::<L>::new();
    let name = format!("hessenberg_points_{label}_dim{}_lanes{L}", solver.dim());
    c.bench_function(&name, |bench| {
        bench.iter(|| {
            let mut acc = Complex::ZERO;
            for chunk in freqs.chunks(L) {
                let w = std::array::from_fn(|i| {
                    2.0 * std::f64::consts::PI * chunk[i.min(chunk.len() - 1)]
                });
                p.solve_transposed_lanes(&w, black_box(&zo), &mut lu);
                for (lane, v) in lu.dot(&qb).into_iter().take(chunk.len()).enumerate() {
                    lu.status(lane).expect("nonsingular");
                    acc += v;
                }
            }
            black_box(acc)
        })
    });
}

/// The points a measured sweep solves on the center designs: the first
/// 56 of the op-amp's grid (dim 11, schematic) and the first 40 of the
/// TIA's (dim 4, stock extraction), the median prefixes the measure-driven
/// sweeps stop after, at one lane and at `LANES`.
fn bench_hessenberg_points(c: &mut Criterion) {
    let tech = Technology::ptm45();
    let opamp = OpAmp2::default();
    let (ckt, out) = opamp.build(&center(&opamp), &tech);
    let opts = DcOptions { initial_v: 0.6 };
    let op = dc_operating_point(&ckt, &opts).expect("converges");
    let freqs = &OpAmp2::ac_freqs()[..56];
    bench_hessenberg_lanes::<1>(c, "opamp2", &ckt, &op, out, freqs);
    bench_hessenberg_lanes::<LANES>(c, "opamp2", &ckt, &op, out, freqs);

    let tia = Tia::default();
    let (ckt, out) = tia.build(&center(&tia), &tech);
    let ex = extract(&ckt, tia.pex_config());
    let opts = DcOptions { initial_v: 0.5 };
    let op = dc_operating_point(&ex, &opts).expect("converges");
    let freqs = &Tia::ac_freqs()[..40];
    bench_hessenberg_lanes::<1>(c, "tia", &ex, &op, out, freqs);
    bench_hessenberg_lanes::<LANES>(c, "tia", &ex, &op, out, freqs);
}

/// One full TIA corner-set noise analysis (6 corners x the noise grid)
/// through the two pipelines — serial per corner (the cold path: one
/// one-corner `noise_analysis_corners` call per corner, the scalar
/// kernel) and corner-corrected (the warm fast path: one base factor and
/// a few adjoint solves per point, each corner's adjoint recovered by a
/// transposed Woodbury correction) — at mesh depths 0, 4 and 8 (dim 60,
/// the `deploy_tia_pexwc_mesh8` system), over the
/// [`autockt_bench::TiaCornerCase`] workloads. On the same corner sets,
/// the `ac_corners_*` rows time the warm AC stage (`ac_sweep_corners` over
/// the TIA's AC grid, each corner stopped at its cutoff, `Tia::AC_STOP`,
/// on the adjoint row the noise analysis shares at mesh depths 4 and 8),
/// and the `settle_corners_*` rows the settle stage (each corner's
/// `step_settling_time` over the shared window, `Tia::SETTLE.steps`
/// steps at `Tia::SETTLE.band`: the settling time measured inside the
/// blocked propagator, no record built).
fn bench_tia_corners(c: &mut Criterion) {
    for depth in [0usize, 4, 8] {
        let case = tia_corner_case(depth).expect("TIA corner workload builds");
        let solvers: Vec<AcSolver<'_>> = case
            .ckts
            .iter()
            .zip(&case.ops)
            .map(|(ckt, op)| AcSolver::new(ckt, op))
            .collect();
        let op_refs: Vec<&OpPoint> = case.ops.iter().collect();
        let outs = vec![case.out; solvers.len()];
        let noise_freqs = Tia::noise_freqs();
        let mut sws = AcWorkspace::new();
        c.bench_function(&format!("noise_corners_serial_tia_mesh{depth}"), |b| {
            b.iter(|| {
                for k in 0..solvers.len() {
                    let r = k..k + 1;
                    let nr = noise_analysis_corners(
                        &solvers[r.clone()],
                        &op_refs[r.clone()],
                        &outs[r.clone()],
                        &noise_freqs,
                        &case.temps[r],
                        &mut sws,
                    );
                    black_box(nr[0].as_ref().expect("corner solves").out_vrms);
                }
            });
        });
        let mut ws = AcWorkspace::new();
        c.bench_function(&format!("noise_corners_corrected_tia_mesh{depth}"), |b| {
            b.iter(|| {
                let r = noise_analysis_corners(
                    &solvers,
                    &op_refs,
                    &outs,
                    &noise_freqs,
                    &case.temps,
                    &mut ws,
                );
                black_box(r.len())
            });
        });
        let ac_freqs = Tia::ac_freqs();
        c.bench_function(&format!("ac_corners_tia_mesh{depth}"), |b| {
            b.iter(|| {
                let r = ac_sweep_corners(&solvers, &ac_freqs, &outs, Some(Tia::AC_STOP), &mut ws);
                black_box(r.len())
            });
        });
        c.bench_function(&format!("settle_corners_serial_tia_mesh{depth}"), |b| {
            b.iter(|| {
                for s in &solvers {
                    let r = s.step_settling_time(
                        case.out,
                        case.t_stop,
                        Tia::SETTLE.steps,
                        Tia::SETTLE.band,
                    );
                    black_box(r.expect("corner settles"));
                }
            });
        });
    }
}

criterion_group!(
    benches,
    bench_lu,
    bench_dc,
    bench_ac,
    bench_settle,
    bench_full_spec_eval,
    bench_dense_points,
    bench_hessenberg_points,
    bench_tia_corners
);
criterion_main!(benches);
