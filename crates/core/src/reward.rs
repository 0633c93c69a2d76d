//! The paper's reward (Eq. 1) and its normalization.
//!
//! Each measured spec `o` is compared with its target `o*` through the
//! relative difference `n = (o - o*)/(o + o*)`. Every spec contributes its
//! shortfall `min(n, 0)` in its constraint direction and nothing when
//! satisfied (see [`spec_contribution`] for why the minimized-objective
//! term follows the released implementation rather than Eq. 1 as printed).
//! An episode succeeds when the total is within 0.01 of zero, at which
//! point a +10 terminal bonus is granted (the two-case form of Eq. 1's
//! `R`).

use autockt_circuits::{SpecDef, SpecKind};

/// Reward threshold for declaring the goal met (paper: `r >= -0.01`).
pub const SUCCESS_THRESHOLD: f64 = -0.01;

/// Terminal bonus granted on success (paper: `R = 10 + r`).
pub const SUCCESS_BONUS: f64 = 10.0;

/// Reward issued when the simulator cannot even produce an operating
/// point (far below any reachable Eq. 1 value).
pub const SIM_FAIL_REWARD: f64 = -5.0;

/// The paper's relative normalization `(o - t)/(o + t)`, guarded against a
/// vanishing denominator with absolute values (specs here are positive
/// quantities; the guard only matters for degenerate fail values).
pub fn normalize(o: f64, t: f64) -> f64 {
    (o - t) / (o.abs() + t.abs() + 1e-30)
}

/// Contribution of one spec to the reward `r`.
///
/// Note on fidelity: Eq. 1 as printed adds `-n` for minimized specs, which
/// would let a large power *under*-run mask a hard-constraint miss and
/// declare success on an unmet design. The paper's released implementation
/// instead accumulates only shortfalls for every spec (a minimized spec
/// over its target is a shortfall; under it contributes zero), which is
/// what we reproduce: success genuinely requires all specifications met.
pub fn spec_contribution(kind: SpecKind, o: f64, t: f64) -> f64 {
    match kind {
        // Must exceed the target: penalize shortfall only.
        SpecKind::HardMin => normalize(o, t).min(0.0),
        // Must stay below the target: penalize excess only.
        SpecKind::HardMax | SpecKind::Minimize => normalize(t, o).min(0.0),
    }
}

/// The per-step reward `r` of Eq. 1 for measured specs `o` against targets
/// `t`.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn reward(specs: &[SpecDef], o: &[f64], t: &[f64]) -> f64 {
    assert_eq!(specs.len(), o.len());
    assert_eq!(specs.len(), t.len());
    specs
        .iter()
        .zip(o.iter().zip(t))
        .map(|(s, (oo, tt))| spec_contribution(s.kind, *oo, *tt))
        .sum()
}

/// Whether a reward value counts as reaching the goal.
pub fn is_success(r: f64) -> bool {
    r >= SUCCESS_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::SpecKind;

    fn defs() -> Vec<SpecDef> {
        vec![
            SpecDef {
                name: "gain",
                unit: "V/V",
                kind: SpecKind::HardMin,
                lo: 100.0,
                hi: 400.0,
                fail_value: 0.0,
            },
            SpecDef {
                name: "power",
                unit: "A",
                kind: SpecKind::Minimize,
                lo: 1e-3,
                hi: 1e-2,
                fail_value: 1.0,
            },
        ]
    }

    #[test]
    fn meeting_all_specs_gives_nonnegative_reward() {
        let d = defs();
        // Gain above target, power below target.
        let r = reward(&d, &[300.0, 1e-3], &[200.0, 2e-3]);
        assert!(r >= 0.0, "r = {r}");
        assert!(is_success(r));
    }

    #[test]
    fn missing_hard_spec_is_negative() {
        let d = defs();
        let r = reward(&d, &[100.0, 1e-3], &[200.0, 2e-3]);
        assert!(r < SUCCESS_THRESHOLD);
        assert!(!is_success(r));
    }

    #[test]
    fn hard_min_overshoot_gives_no_bonus() {
        // Exceeding a hard-min target contributes exactly zero.
        assert_eq!(spec_contribution(SpecKind::HardMin, 500.0, 200.0), 0.0);
        assert!(spec_contribution(SpecKind::HardMin, 100.0, 200.0) < 0.0);
    }

    #[test]
    fn hard_max_direction() {
        // Settling faster than required: no penalty.
        assert_eq!(spec_contribution(SpecKind::HardMax, 1e-10, 1e-9), 0.0);
        // Settling slower than required: penalty.
        assert!(spec_contribution(SpecKind::HardMax, 1e-8, 1e-9) < 0.0);
    }

    #[test]
    fn minimize_penalizes_exceeding_target_only() {
        let under = spec_contribution(SpecKind::Minimize, 1e-3, 2e-3);
        let over = spec_contribution(SpecKind::Minimize, 4e-3, 2e-3);
        assert_eq!(under, 0.0, "under-budget power earns no masking bonus");
        assert!(over < 0.0);
    }

    #[test]
    fn power_underrun_cannot_mask_hard_spec_miss() {
        // This is the deviation from Eq. 1 as printed: with the released
        // implementation's shortfall-only accumulation, a design far under
        // its power budget but missing gain must NOT count as a success.
        let d = defs();
        let r = reward(&d, &[100.0, 1e-6], &[200.0, 1e-2]);
        assert!(!is_success(r), "r = {r}");
    }

    #[test]
    fn reward_monotone_in_each_hard_spec() {
        let d = defs();
        let t = [200.0, 2e-3];
        let mut prev = f64::NEG_INFINITY;
        for gain in [50.0, 100.0, 150.0, 200.0, 250.0] {
            let r = reward(&d, &[gain, 2e-3], &t);
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn normalization_bounded() {
        for (o, t) in [(1.0, 1e9), (1e9, 1.0), (5.0, 5.0), (0.0, 1.0)] {
            let n = normalize(o, t);
            assert!((-1.0..=1.0).contains(&n), "n({o},{t}) = {n}");
        }
    }
}
