//! Property: warm-started and cold DC solves converge to the same
//! operating point — the measured specs agree within solver tolerance —
//! across random parameter-grid walks for all three topologies. The walk
//! moves each parameter at most one grid notch per step, exactly like the
//! RL environment, so the warm state threads realistic previous-step
//! operating points into every solve.
//!
//! The `PexWorstCase` walks also pin the corner engine's two paths to
//! each other: warm evaluations run the corner kernels (shared base
//! factorization plus Woodbury correction at dense-mesh dims), cold ones
//! the scalar per-corner reference. A deterministic gate checks the same
//! on fixed seed designs of every topology at stock and dense-mesh
//! extraction.

use autockt_circuits::prelude::*;
use autockt_sim::dc::WarmState;
use autockt_sim::pex::PexConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// Relative spec tolerance: warm and cold Newton both stop at an update
/// norm of 1e-9, and the measurement layer (crossing interpolation,
/// settling-grid snapping) amplifies the operating-point difference by a
/// few orders of magnitude at most.
const REL_TOL: f64 = 5e-3;

fn specs_close(w: &[f64], c: &[f64]) -> bool {
    w.len() == c.len()
        && w.iter()
            .zip(c)
            .all(|(a, b)| (a - b).abs() <= REL_TOL * (1.0 + a.abs().max(b.abs())))
}

/// Walks the grid from a fractional starting point, evaluating every
/// visited point at fidelity `mode` both warm (session-threaded) and cold
/// (stateless), and reports the first divergence.
fn check_walk(
    problem: &dyn SizingProblem,
    mode: SimMode,
    fracs: &[f64],
    moves: &[usize],
) -> Result<(), String> {
    let cards = problem.cardinalities();
    let mut idx: Vec<usize> = cards
        .iter()
        .zip(fracs.iter().cycle())
        .map(|(k, f)| (((*k as f64 - 1.0) * f) as usize).min(k - 1))
        .collect();
    let mut state = WarmState::new();
    for step in moves.chunks(cards.len()) {
        for ((i, k), m) in idx.iter_mut().zip(&cards).zip(step.iter().cycle()) {
            let delta = *m as i64 - 1;
            *i = (*i as i64 + delta).clamp(0, *k as i64 - 1) as usize;
        }
        let warm = problem.simulate_warm(&idx, mode, &mut state);
        let cold = problem.simulate(&idx, mode);
        match (warm, cold) {
            (Ok(w), Ok(c)) => {
                if !specs_close(&w, &c) {
                    return Err(format!(
                        "specs diverge at {idx:?}: warm {w:?} vs cold {c:?}"
                    ));
                }
            }
            (Err(_), Err(_)) => {}
            (w, c) => {
                return Err(format!(
                    "outcome diverges at {idx:?}: warm {w:?} vs cold {c:?}"
                ))
            }
        }
    }
    Ok(())
}

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

/// Warm-vs-cold `PexWorstCase` gate on the seed designs of all three
/// topologies, at stock extraction and at mesh depth 4, where the warm
/// corner kernels switch to base-plus-Woodbury correction (the TIA's
/// noise and settling stages included). One warm state threads through
/// each topology's seed designs.
#[test]
fn seed_designs_pex_worst_case_warm_matches_cold() {
    let mut failures = Vec::new();
    for depth in [0usize, 4] {
        let mesh = |base: &PexConfig| PexConfig {
            mesh_depth: depth,
            ..base.clone()
        };
        let tia = Tia::default();
        let tia = Tia::default().with_pex_config(mesh(tia.pex_config()));
        let op = OpAmp2::default();
        let op = OpAmp2::default().with_pex_config(mesh(op.pex_config()));
        let ng = NegGmOta::default();
        let ng = NegGmOta::default().with_pex_config(mesh(ng.pex_config()));
        let problems: [&dyn SizingProblem; 3] = [&tia, &op, &ng];
        for problem in problems {
            let mut warm = WarmState::new();
            for idx in seed_designs(problem) {
                let c = problem.simulate(&idx, SimMode::PexWorstCase);
                let w = problem.simulate_warm(&idx, SimMode::PexWorstCase, &mut warm);
                let ok = match (&w, &c) {
                    (Ok(w), Ok(c)) => specs_close(w, c),
                    (Err(_), Err(_)) => true,
                    _ => false,
                };
                if !ok {
                    failures.push(format!(
                        "{} mesh={depth} {idx:?}: warm {w:?} vs cold {c:?}",
                        problem.name()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

proptest! {
    #[test]
    fn tia_warm_matches_cold(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        moves in prop::collection::vec(0usize..3, 24),
    ) {
        let r = check_walk(&Tia::default(), SimMode::Schematic, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn opamp2_warm_matches_cold(
        fracs in prop::collection::vec(0.0..1.0f64, 7),
        moves in prop::collection::vec(0usize..3, 28),
    ) {
        let r = check_walk(&OpAmp2::default(), SimMode::Schematic, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn neggm_warm_matches_cold(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        moves in prop::collection::vec(0usize..3, 24),
    ) {
        let r = check_walk(&NegGmOta::default(), SimMode::Schematic, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn tia_pex_worst_case_warm_matches_cold(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        moves in prop::collection::vec(0usize..3, 12),
    ) {
        let r = check_walk(&Tia::default(), SimMode::PexWorstCase, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn opamp2_pex_worst_case_warm_matches_cold(
        fracs in prop::collection::vec(0.0..1.0f64, 7),
        moves in prop::collection::vec(0usize..3, 14),
    ) {
        let r = check_walk(&OpAmp2::default(), SimMode::PexWorstCase, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn neggm_pex_worst_case_warm_matches_cold(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        moves in prop::collection::vec(0usize..3, 12),
    ) {
        let r = check_walk(&NegGmOta::default(), SimMode::PexWorstCase, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn meshed_tia_pex_worst_case_warm_matches_cold(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        depth in 2usize..5,
        moves in prop::collection::vec(0usize..3, 6),
    ) {
        // Dense-mesh warm walks route the sweep and the noise analysis
        // through the base-plus-Woodbury corrected paths
        // (`ac_sweep_corners` / `noise_analysis_corners`); the cold side
        // is the scalar per-corner reference.
        let tia = Tia::default().with_pex_config(PexConfig {
            mesh_depth: depth,
            ..PexConfig::default()
        });
        let r = check_walk(&tia, SimMode::PexWorstCase, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn session_memo_replay_is_exact(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        moves in prop::collection::vec(0usize..3, 18),
    ) {
        // Evaluating the same walk twice through one session must return
        // bit-identical spec vectors: the memo serves the second pass.
        let tia = Arc::new(Tia::default());
        let cards = tia.cardinalities();
        let mut session = EvalSession::new(tia, SimMode::Schematic);
        let mut idx: Vec<usize> = cards
            .iter()
            .zip(&fracs)
            .map(|(k, f)| (((*k as f64 - 1.0) * f) as usize).min(k - 1))
            .collect();
        let mut visited = Vec::new();
        for step in moves.chunks(cards.len()) {
            for ((i, k), m) in idx.iter_mut().zip(&cards).zip(step) {
                let delta = *m as i64 - 1;
                *i = (*i as i64 + delta).clamp(0, *k as i64 - 1) as usize;
            }
            visited.push(idx.clone());
        }
        let first: Vec<_> = visited.iter().map(|v| session.evaluate(v).ok()).collect();
        let solves_after_first = session.solve_count();
        session.reset_warm();
        let second: Vec<_> = visited.iter().map(|v| session.evaluate(v).ok()).collect();
        prop_assert!(first == second, "memo replay diverged");
        prop_assert!(session.solve_count() == solves_after_first, "replay re-solved");
    }
}
