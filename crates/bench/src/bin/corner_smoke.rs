//! CI smoke for the corner evaluation engine: on a fixed set of seed
//! designs, a warm-started `PexWorstCase` session walk — which routes the
//! sweep, the TIA's noise analysis and its settling records through the
//! corner kernels (shared base factor plus Woodbury correction at dense
//! dims) — must agree with cold per-corner evaluation within solver
//! tolerance, for all three topologies at stock and dense-mesh
//! extraction. The TIA's noise and settling specs are additionally
//! printed on their own, so a divergence in either pipeline is visible as
//! such instead of hiding inside the full-vector comparison. Further
//! gates hold the dense-vs-sparse backends, BTF-vs-plain sparse
//! factorization, and threaded-vs-serial tile schedules to each other.
//!
//! Exits nonzero on any divergence, failing the workflow.
//!
//! Run: `cargo run --release -p autockt_bench --bin corner_smoke`

use autockt_circuits::tia::spec_index;
use autockt_circuits::{NegGmOta, OpAmp2, SimMode, SizingProblem, Tia};
use autockt_sim::dc::WarmState;
use autockt_sim::pex::PexConfig;
use autockt_sim::{Parallelism, SimError, SolverConfig};

/// Same tolerance as the warm-equivalence property suites.
const REL_TOL: f64 = 5e-3;

/// Deterministic seed designs: grid corners, center, and two fixed
/// off-center points.
fn seed_designs(problem: &dyn SizingProblem) -> Vec<Vec<usize>> {
    let cards = problem.cardinalities();
    let at = |f: f64| -> Vec<usize> {
        cards
            .iter()
            .map(|k| (((*k - 1) as f64 * f) as usize).min(k - 1))
            .collect()
    };
    vec![at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)]
}

/// Whether two spec vectors (or two failures) agree within [`REL_TOL`].
fn specs_close(a: &Result<Vec<f64>, SimError>, b: &Result<Vec<f64>, SimError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| (x - y).abs() <= REL_TOL * (1.0 + x.abs().max(y.abs())))
        }
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// Warm-vs-cold gate: walks the seed designs through one warm state and
/// compares every warm `PexWorstCase` evaluation with the cold one.
/// `shown` names specs printed on their own line per design (the TIA's
/// noise and settling specs).
fn check_warm_vs_cold(
    name: &str,
    depth: usize,
    problem: &dyn SizingProblem,
    shown: &[(&str, usize)],
) -> usize {
    let mut failures = 0;
    let mut warm = WarmState::new();
    for idx in seed_designs(problem) {
        let c = problem.simulate(&idx, SimMode::PexWorstCase);
        let w = problem.simulate_warm(&idx, SimMode::PexWorstCase, &mut warm);
        let ok = specs_close(&w, &c);
        let verdict = if ok { "ok" } else { "DIVERGED" };
        println!("{name:<8} mesh={depth} idx={idx:?}: warm-vs-cold={ok} [{verdict}]");
        for &(label, i) in shown {
            let spec = |r: &Result<Vec<f64>, SimError>| r.as_ref().ok().map(|v| v[i]);
            println!(
                "  {name}-{label} mesh={depth}: cold {:?} vs warm {:?}",
                spec(&c),
                spec(&w)
            );
        }
        if !ok {
            eprintln!("  cold: {c:?}\n  warm: {w:?}");
            failures += 1;
        }
    }
    failures
}

/// Backend gate: on every seed design, a cold `PexWorstCase` evaluation
/// forced through the CSC sparse backend must agree with the forced-dense
/// reference within the same solver tolerance the warm paths are held to.
/// Run at a mesh depth dense enough that the sparse factorization does
/// real elimination work (not just a trivial near-diagonal system).
fn check_sparse_backend(
    name: &str,
    depth: usize,
    dense: &dyn SizingProblem,
    sparse: &dyn SizingProblem,
) -> usize {
    let mut failures = 0;
    for idx in seed_designs(dense) {
        let d = dense.simulate(&idx, SimMode::PexWorstCase);
        let s = sparse.simulate(&idx, SimMode::PexWorstCase);
        let ok = specs_close(&d, &s);
        let verdict = if ok { "ok" } else { "DIVERGED" };
        println!("{name:<8} mesh={depth} idx={idx:?}: dense-vs-sparse={ok} [{verdict}]");
        if !ok {
            eprintln!("  dense: {d:?}\n  sparse: {s:?}");
            failures += 1;
        }
    }
    failures
}

/// BTF gate: on every seed design, a cold `PexWorstCase` evaluation
/// forced through the sparse backend with block-triangular-form
/// factorization on must agree with the same backend with BTF off,
/// within solver tolerance. Run at depth 0 (small, often irreducible
/// systems — the degenerate single-block path) and at a mesh depth where
/// the Dulmage–Mendelsohn decomposition has real blocks to find.
fn check_btf_mode(
    name: &str,
    depth: usize,
    plain: &dyn SizingProblem,
    btf: &dyn SizingProblem,
) -> usize {
    let mut failures = 0;
    for idx in seed_designs(plain) {
        let p = plain.simulate(&idx, SimMode::PexWorstCase);
        let b = btf.simulate(&idx, SimMode::PexWorstCase);
        let ok = specs_close(&p, &b);
        let verdict = if ok { "ok" } else { "DIVERGED" };
        println!("{name:<8} mesh={depth} idx={idx:?}: btf-vs-plain={ok} [{verdict}]");
        if !ok {
            eprintln!("  plain: {p:?}\n  btf: {b:?}");
            failures += 1;
        }
    }
    failures
}

/// Thread gate: on three seed designs per topology, a cold
/// `PexWorstCase` evaluation with the tile scheduler forced to four
/// lanes must be **bitwise-identical** to the `Parallelism::Off`
/// reference — the threaded frequency sweeps, noise analyses, and BTF
/// block factoring reorder no arithmetic under any schedule. Run at
/// depth 0 (small systems: forced lanes on tiny tile counts, ragged
/// tails) and at the fill-heavy extracted mesh.
fn check_threaded(
    name: &str,
    depth: usize,
    serial: &dyn SizingProblem,
    threaded: &dyn SizingProblem,
) -> usize {
    let mut failures = 0;
    let seeds: Vec<Vec<usize>> = seed_designs(serial).into_iter().step_by(2).collect();
    for idx in seeds {
        let s = serial.simulate(&idx, SimMode::PexWorstCase);
        let t = threaded.simulate(&idx, SimMode::PexWorstCase);
        let ok = match (&s, &t) {
            (Ok(a), Ok(b)) => a == b,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        let verdict = if ok { "ok" } else { "DIVERGED" };
        println!("{name:<8} mesh={depth} idx={idx:?}: threaded-vs-serial={ok} [{verdict}]");
        if !ok {
            eprintln!("  serial: {s:?}\n  threaded: {t:?}");
            failures += 1;
        }
    }
    failures
}

fn main() {
    let mut failures = 0;
    // Warm-vs-cold gate at stock extraction and at a dense mesh, where
    // the warm corner kernels switch to base-plus-Woodbury correction.
    for depth in [0usize, 4] {
        let mesh = |base: &PexConfig| PexConfig {
            mesh_depth: depth,
            ..base.clone()
        };
        let tia = Tia::default();
        let tia = Tia::default().with_pex_config(mesh(tia.pex_config()));
        failures += check_warm_vs_cold(
            "tia",
            depth,
            &tia,
            &[
                ("noise", spec_index::NOISE),
                ("settling", spec_index::SETTLING),
            ],
        );
        let op = OpAmp2::default();
        let op = OpAmp2::default().with_pex_config(mesh(op.pex_config()));
        failures += check_warm_vs_cold("opamp2", depth, &op, &[]);
        let ng = NegGmOta::default();
        let ng = NegGmOta::default().with_pex_config(mesh(ng.pex_config()));
        failures += check_warm_vs_cold("neggm", depth, &ng, &[]);
    }
    // Dense-vs-sparse backend gate at a mesh depth with real fill-in.
    {
        let depth = 4usize;
        let mesh = |base: &PexConfig| PexConfig {
            mesh_depth: depth,
            ..base.clone()
        };
        let tia = Tia::default();
        let tia_pex = mesh(tia.pex_config());
        failures += check_sparse_backend(
            "tia",
            depth,
            &Tia::default()
                .with_pex_config(tia_pex.clone())
                .with_solver_config(SolverConfig::dense()),
            &Tia::default()
                .with_pex_config(tia_pex)
                .with_solver_config(SolverConfig::sparse()),
        );
        let op = OpAmp2::default();
        let op_pex = mesh(op.pex_config());
        failures += check_sparse_backend(
            "opamp2",
            depth,
            &OpAmp2::default()
                .with_pex_config(op_pex.clone())
                .with_solver_config(SolverConfig::dense()),
            &OpAmp2::default()
                .with_pex_config(op_pex)
                .with_solver_config(SolverConfig::sparse()),
        );
        let ng = NegGmOta::default();
        let ng_pex = mesh(ng.pex_config());
        failures += check_sparse_backend(
            "neggm",
            depth,
            &NegGmOta::default()
                .with_pex_config(ng_pex.clone())
                .with_solver_config(SolverConfig::dense()),
            &NegGmOta::default()
                .with_pex_config(ng_pex)
                .with_solver_config(SolverConfig::sparse()),
        );
    }
    // BTF-vs-plain sparse gate: both depth 0 (degenerate single-block
    // territory) and the fill-heavy extracted mesh.
    for depth in [0usize, 4] {
        let mesh = |base: &PexConfig| PexConfig {
            mesh_depth: depth,
            ..base.clone()
        };
        let tia = Tia::default();
        let tia_pex = mesh(tia.pex_config());
        failures += check_btf_mode(
            "tia",
            depth,
            &Tia::default()
                .with_pex_config(tia_pex.clone())
                .with_solver_config(SolverConfig::sparse().with_btf(false)),
            &Tia::default()
                .with_pex_config(tia_pex)
                .with_solver_config(SolverConfig::sparse().with_btf(true)),
        );
        let op = OpAmp2::default();
        let op_pex = mesh(op.pex_config());
        failures += check_btf_mode(
            "opamp2",
            depth,
            &OpAmp2::default()
                .with_pex_config(op_pex.clone())
                .with_solver_config(SolverConfig::sparse().with_btf(false)),
            &OpAmp2::default()
                .with_pex_config(op_pex)
                .with_solver_config(SolverConfig::sparse().with_btf(true)),
        );
        let ng = NegGmOta::default();
        let ng_pex = mesh(ng.pex_config());
        failures += check_btf_mode(
            "neggm",
            depth,
            &NegGmOta::default()
                .with_pex_config(ng_pex.clone())
                .with_solver_config(SolverConfig::sparse().with_btf(false)),
            &NegGmOta::default()
                .with_pex_config(ng_pex)
                .with_solver_config(SolverConfig::sparse().with_btf(true)),
        );
    }
    // Threaded-vs-serial gate: forced four-lane tile schedules must be
    // bitwise-identical to the serial walks, stock and dense mesh.
    for depth in [0usize, 4] {
        let mesh = |base: &PexConfig| PexConfig {
            mesh_depth: depth,
            ..base.clone()
        };
        let serial_cfg = SolverConfig::default().with_parallelism(Parallelism::Off);
        let threaded_cfg = SolverConfig::default().with_parallelism(Parallelism::Threads(4));
        let tia = Tia::default();
        let tia_pex = mesh(tia.pex_config());
        failures += check_threaded(
            "tia",
            depth,
            &Tia::default()
                .with_pex_config(tia_pex.clone())
                .with_solver_config(serial_cfg),
            &Tia::default()
                .with_pex_config(tia_pex)
                .with_solver_config(threaded_cfg),
        );
        let op = OpAmp2::default();
        let op_pex = mesh(op.pex_config());
        failures += check_threaded(
            "opamp2",
            depth,
            &OpAmp2::default()
                .with_pex_config(op_pex.clone())
                .with_solver_config(serial_cfg),
            &OpAmp2::default()
                .with_pex_config(op_pex)
                .with_solver_config(threaded_cfg),
        );
        let ng = NegGmOta::default();
        let ng_pex = mesh(ng.pex_config());
        failures += check_threaded(
            "neggm",
            depth,
            &NegGmOta::default()
                .with_pex_config(ng_pex.clone())
                .with_solver_config(serial_cfg),
            &NegGmOta::default()
                .with_pex_config(ng_pex)
                .with_solver_config(threaded_cfg),
        );
    }
    if failures > 0 {
        eprintln!("corner_smoke: {failures} divergence(s)");
        std::process::exit(1);
    }
    println!("corner_smoke: all seed designs agree (warm within tolerance, threads bitwise)");
}
