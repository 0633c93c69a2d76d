//! CI smoke for the corner evaluation engine: on a fixed set of seed
//! designs, a warm-started `PexWorstCase` session walk — which routes the
//! sweep, the TIA's noise analysis and its settling records through the
//! corner kernels (shared base factor plus Woodbury correction at dense
//! dims) — must agree with cold per-corner evaluation within solver
//! tolerance, for all three topologies at stock and dense-mesh
//! extraction. The TIA's noise and settling specs are additionally
//! printed on their own, so a divergence in either pipeline is visible as
//! such instead of hiding inside the full-vector comparison.
//!
//! Exits nonzero on any divergence, failing the workflow.
//!
//! Run: `cargo run --release -p autockt_bench --bin corner_smoke`

use autockt_circuits::tia::spec_index;
use autockt_circuits::{NegGmOta, OpAmp2, SimMode, SizingProblem, Tia};
use autockt_sim::dc::WarmState;
use autockt_sim::pex::PexConfig;
use autockt_sim::SimError;

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
    if failures > 0 {
        eprintln!("corner_smoke: {failures} divergence(s)");
        std::process::exit(1);
    }
    println!("corner_smoke: all seed designs agree (warm within tolerance)");
}
