//! Criterion benchmark of a full environment step per topology — the unit
//! the paper's sample-efficiency numbers count, and the quantity that maps
//! our wall-clock numbers onto the paper's (their schematic step is a
//! 25 ms Spectre run; ours is a sub-millisecond MNA solve).
//!
//! Three pipeline configurations are measured on the keep-action workload
//! of the original bench (every step re-evaluates the current grid point —
//! the revisit-heavy regime of converged policies and replayed
//! trajectories):
//!
//! - `env_step_<topo>` — cold: every step runs the stateless `simulate`
//!   path, re-solving DC from the `vdd/2` guess (the seed behaviour).
//! - `env_step_warm_<topo>` — warm: the previous step's operating point
//!   seeds the Newton iteration and solver buffers are reused.
//! - `env_step_warm_memo_<topo>` — warm + memo: exact grid revisits are
//!   served from the session's memo without any solve.
//!
//! `env_step_walk_*` variants drive a uniform random one-notch walk
//! instead — the memoization worst case, isolating the warm-start win on
//! fresh solves.

use autockt_circuits::{NegGmOta, OpAmp2, SimMode, SizingProblem, Tia};
use autockt_core::{EnvConfig, SizingEnv, TargetMode};
use autockt_rl::env::Env;
use autockt_sim::pex::PexConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

/// A fixed random walk of factored one-notch actions, shared by every
/// pipeline configuration so they all visit the same grid points.
fn walk_actions(n_params: usize, len: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| (0..n_params).map(|_| rng.random_range(0..3)).collect())
        .collect()
}

fn bench_env(
    c: &mut Criterion,
    name: &str,
    problem: Arc<dyn SizingProblem>,
    mode: SimMode,
    warm_start: bool,
    memoize: bool,
    walk: bool,
) {
    let cfg = EnvConfig {
        horizon: usize::MAX / 2, // never terminate on the horizon
        mode,
        target_mode: TargetMode::Uniform,
        warm_start,
        memoize,
        ..EnvConfig::default()
    };
    let mut env = SizingEnv::new(problem, cfg);
    let mut rng = StdRng::seed_from_u64(11);
    env.reset(&mut rng);
    let n = env.action_dims().len();
    let actions = if walk {
        walk_actions(n, 64, 42)
    } else {
        vec![vec![1usize; n]]
    };
    let mut i = 0usize;
    c.bench_function(name, |b| {
        b.iter(|| {
            let a = &actions[i % actions.len()];
            i += 1;
            env.step(black_box(a))
        });
    });
}

fn benches(c: &mut Criterion) {
    let topologies: Vec<(&str, Arc<dyn SizingProblem>)> = vec![
        ("tia", Arc::new(Tia::default())),
        ("opamp2", Arc::new(OpAmp2::default())),
        ("neggm", Arc::new(NegGmOta::default())),
    ];
    for (name, problem) in &topologies {
        for (prefix, warm, memo, walk) in [
            ("env_step_", false, false, false),
            ("env_step_warm_", true, false, false),
            ("env_step_warm_memo_", true, true, false),
            ("env_step_walk_", false, false, true),
            ("env_step_walk_warm_", true, false, true),
        ] {
            bench_env(
                c,
                &format!("{prefix}{name}"),
                Arc::clone(problem),
                SimMode::Schematic,
                warm,
                memo,
                walk,
            );
        }
    }
    // PexWorstCase stepping: cold and warm at the stock extraction, and
    // warm at dense-mesh extractions where the warm corner kernels
    // switch to base-plus-Woodbury correction (the TIA's dense step is
    // noise- and settle-bound).
    let dense_neggm = || {
        let base = NegGmOta::default();
        let pex = PexConfig {
            mesh_depth: 1,
            ..base.pex_config().clone()
        };
        base.with_pex_config(pex)
    };
    let dense_tia = || {
        let base = Tia::default();
        let pex = PexConfig {
            mesh_depth: 4,
            ..base.pex_config().clone()
        };
        base.with_pex_config(pex)
    };
    let worst_case: [(&str, Arc<dyn SizingProblem>, bool); 4] = [
        (
            "env_step_neggm_pex_worstcase",
            Arc::new(NegGmOta::default()),
            false,
        ),
        (
            "env_step_warm_neggm_pex_worstcase",
            Arc::new(NegGmOta::default()),
            true,
        ),
        (
            "env_step_warm_neggm_pex_dense",
            Arc::new(dense_neggm()),
            true,
        ),
        ("env_step_warm_tia_pex_dense", Arc::new(dense_tia()), true),
    ];
    for (name, problem, warm) in worst_case {
        bench_env(c, name, problem, SimMode::PexWorstCase, warm, false, false);
    }
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
/// `step_response` over the shared window, `Tia::SETTLE.steps` steps).
fn bench_tia_corners(c: &mut Criterion) {
    use autockt_sim::ac::{ac_sweep_corners, AcSolver, AcWorkspace};
    use autockt_sim::dc::OpPoint;
    use autockt_sim::noise::noise_analysis_corners;
    for depth in [0usize, 4, 8] {
        let case = autockt_bench::tia_corner_case(depth).expect("TIA corner workload builds");
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
                    let r = s.step_response(case.out, case.t_stop, Tia::SETTLE.steps);
                    black_box(r.expect("corner settles").1.last().copied());
                }
            });
        });
    }
}

criterion_group!(bench_group, benches, bench_tia_corners);
criterion_main!(bench_group);
