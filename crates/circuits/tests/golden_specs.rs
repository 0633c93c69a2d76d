//! Golden spec vectors: the exact bits (`f64::to_bits`) of every measured
//! spec for a fixed set of evaluations, compared against
//! `tests/golden_specs.txt`.
//!
//! The evaluations cover the three topologies in `Schematic`, `Pex` and
//! `PexWorstCase` (the TIA also at extraction mesh depth 8, where the MNA
//! system has 60 unknowns), each as cold evaluations at fixed grid points
//! plus a short seeded warm walk of one-notch moves. Every linear solve of
//! the simulator feeds these numbers, so a kernel change that is meant to
//! be bit-identical — a faster factorization, a different loop order that
//! performs the same arithmetic — must leave this file untouched; a change
//! that legitimately moves the numbers regenerates it and says why.
//!
//! On a mismatch the test writes the full actual output next to the test
//! binary's scratch directory (`CARGO_TARGET_TMPDIR`) and reports the
//! first differing line plus, per case label (topology, mode, mesh), the
//! largest relative deviation of any spec from its golden value — the
//! number a change that moves results reports. The comparison itself
//! stays exact.

use autockt_circuits::prelude::*;
use autockt_sim::dc::WarmState;
use autockt_sim::pex::PexConfig;

const GOLDEN: &str = include_str!("golden_specs.txt");

/// One evaluation set: a topology in one mode, its cold grid points and
/// the length of its warm walk.
struct Case {
    label: String,
    problem: Box<dyn SizingProblem>,
    mode: SimMode,
    /// Grid positions of the cold evaluations, as fractions of each
    /// parameter's range.
    cold: &'static [f64],
    /// Steps of the seeded warm walk.
    walk: usize,
}

/// The TIA at extraction mesh depth `mesh_depth` (0 is the stock lumped
/// extraction).
fn tia(mesh_depth: usize) -> Tia {
    let t = Tia::default();
    let pex = PexConfig {
        mesh_depth,
        ..t.pex_config().clone()
    };
    t.with_pex_config(pex)
}

fn cases() -> Vec<Case> {
    const COLD: &[f64] = &[0.2, 0.5, 0.8];
    let mut out = Vec::new();
    for mode in [SimMode::Schematic, SimMode::PexWorstCase] {
        out.push(Case {
            label: format!("opamp2 {mode:?}"),
            problem: Box::new(OpAmp2::default()),
            mode,
            cold: COLD,
            walk: 6,
        });
        out.push(Case {
            label: format!("neggm {mode:?}"),
            problem: Box::new(NegGmOta::default()),
            mode,
            cold: COLD,
            walk: 6,
        });
        out.push(Case {
            label: format!("tia {mode:?} mesh0"),
            problem: Box::new(tia(0)),
            mode,
            cold: COLD,
            walk: 6,
        });
    }
    // Dim 60: the largest dense system any benchmark workload factors.
    out.push(Case {
        label: "tia PexWorstCase mesh8".to_string(),
        problem: Box::new(tia(8)),
        mode: SimMode::PexWorstCase,
        cold: &[0.3, 0.7],
        walk: 4,
    });
    // Appended after the cases above so their walk seeds (the case index)
    // and lines stay put.
    out.push(Case {
        label: "opamp2 Pex".to_string(),
        problem: Box::new(OpAmp2::default()),
        mode: SimMode::Pex,
        cold: COLD,
        walk: 6,
    });
    out.push(Case {
        label: "neggm Pex".to_string(),
        problem: Box::new(NegGmOta::default()),
        mode: SimMode::Pex,
        cold: COLD,
        walk: 6,
    });
    out.push(Case {
        label: "tia Pex mesh0".to_string(),
        problem: Box::new(tia(0)),
        mode: SimMode::Pex,
        cold: COLD,
        walk: 6,
    });
    out
}

/// SplitMix64: a fixed, dependency-free move generator for the walks.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn grid_point(cards: &[usize], frac: f64) -> Vec<usize> {
    cards
        .iter()
        .map(|&k| (((k - 1) as f64) * frac).round() as usize)
        .collect()
}

fn render(
    label: &str,
    kind: &str,
    idx: &[usize],
    r: Result<Vec<f64>, autockt_sim::SimError>,
) -> String {
    let body = match r {
        Ok(specs) => specs
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(" "),
        Err(e) => format!("err {e:?}"),
    };
    format!("{label} {kind} {idx:?}: {body}")
}

fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (ci, case) in cases().into_iter().enumerate() {
        let p = case.problem.as_ref();
        let cards = p.cardinalities();
        for &f in case.cold {
            let idx = grid_point(&cards, f);
            lines.push(render(
                &case.label,
                "cold",
                &idx,
                p.simulate(&idx, case.mode),
            ));
        }
        let mut idx = grid_point(&cards, 0.5);
        let mut state = WarmState::new();
        let mut rng = 0x5EED_0000 + ci as u64;
        for _ in 0..case.walk {
            for (i, &k) in idx.iter_mut().zip(&cards) {
                let delta = (splitmix(&mut rng) % 3) as i64 - 1;
                *i = (*i as i64 + delta).clamp(0, k as i64 - 1) as usize;
            }
            let r = p.simulate_warm(&idx, case.mode, &mut state);
            lines.push(render(&case.label, "warm", &idx, r));
        }
    }
    lines
}

/// Splits a rendered line into its case label (everything before the
/// ` cold `/` warm ` marker) and its spec values (`None` for an error
/// line).
fn parse_line(line: &str) -> Option<(&str, Option<Vec<f64>>)> {
    let (head, body) = line.split_once(": ")?;
    let label = head
        .find(" cold ")
        .or_else(|| head.find(" warm "))
        .map_or(head, |i| &head[..i]);
    let specs = body
        .split(' ')
        .map(|t| u64::from_str_radix(t, 16).ok().map(f64::from_bits))
        .collect();
    Some((label, specs))
}

/// Per case label, the largest relative deviation `|a - g| / |g|` of any
/// actual spec from its golden value, and how many lines differ. A line
/// whose shape changed (an error on one side, a different spec count, a
/// different label or index) counts as an infinite deviation.
fn deviation_report(golden: &[&str], actual: &[String]) -> String {
    let mut rows: Vec<(String, f64, usize)> = Vec::new();
    for i in 0..golden.len().max(actual.len()) {
        let g = golden.get(i).copied();
        let a = actual.get(i).map(String::as_str);
        let label = g.or(a).and_then(parse_line).map_or("?", |(l, _)| l);
        let dev = match (g, a) {
            (Some(g), Some(a)) if g == a => 0.0,
            (Some(g), Some(a)) => match (parse_line(g), parse_line(a)) {
                (Some((gl, Some(gs))), Some((al, Some(as_))))
                    if gl == al
                        && gs.len() == as_.len()
                        && g.split(':').next() == a.split(':').next() =>
                {
                    gs.iter()
                        .zip(&as_)
                        .map(|(g, a)| {
                            if g.to_bits() == a.to_bits() {
                                0.0
                            } else {
                                (a - g).abs() / g.abs()
                            }
                        })
                        .fold(0.0, f64::max)
                }
                _ => f64::INFINITY,
            },
            _ => f64::INFINITY,
        };
        let differs = usize::from(g != a);
        match rows.iter_mut().find(|(l, _, _)| l == label) {
            Some(row) => {
                row.1 = row.1.max(dev);
                row.2 += differs;
            }
            None => rows.push((label.to_string(), dev, differs)),
        }
    }
    rows.iter()
        .map(|(l, dev, k)| {
            format!("  {l}: max relative spec deviation {dev:.3e} ({k} lines differ)")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn spec_bits_match_golden() {
    let actual = actual_lines();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let first_diff = (0..actual.len().max(golden.len()))
        .find(|&i| golden.get(i).copied() != actual.get(i).map(String::as_str));
    if let Some(i) = first_diff {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_specs.actual.txt");
        let mut text = actual.join("\n");
        text.push('\n');
        std::fs::write(&path, text).expect("write actual spec bits");
        panic!(
            "spec bits differ from tests/golden_specs.txt at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             per case label:\n{}\nfull actual output: {}",
            i + 1,
            golden.get(i),
            actual.get(i),
            deviation_report(&golden, &actual),
            path.display()
        );
    }
}
