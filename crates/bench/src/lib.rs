//! # autockt_bench — experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and figure
//! of the AutoCkt paper (see DESIGN.md for the per-experiment index), plus
//! Criterion micro-benchmarks of the simulation and learning kernels.
//!
//! Each experiment binary prints a paper-vs-measured comparison to stdout
//! and writes raw series as CSV under `results/`.

pub mod exp;

use autockt_circuits::{OpAmp2, SizingProblem, Tia};
use autockt_sim::ac::{ac_sweep, AcSolver};
use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::device::{Pvt, Technology};
use autockt_sim::netlist::{Circuit, Node};
use autockt_sim::pex::{extract, PexConfig};
use autockt_sim::SimError;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One AC-kernel workload: the MNA dimension, angular frequency,
/// `(row, col, g, c)` stamp pattern, and source right-hand side of a
/// linearized system — the input of the criterion `ac_point_dense_*`
/// benches (stamp + refactor + solve through the dense LU).
pub struct AcKernelCase {
    /// Label for bench names.
    pub name: String,
    /// MNA dimension.
    pub n: usize,
    /// Angular frequency `2*pi*f` of the stamped point.
    pub w: f64,
    /// `(row, col, g, c)` stamp pattern; the system entry is
    /// `g + j*w*c`.
    pub pattern: Vec<(usize, usize, f64, f64)>,
    /// Source-driven right-hand side.
    pub rhs: Vec<Complex>,
}

/// The real center-design MNA systems: the TIA (dim 4) and the two-stage
/// op-amp (dim 11, the ROADMAP's per-point reference).
///
/// # Errors
///
/// Returns the solver failure if a center design's operating point does
/// not solve — these are the bench's fixed reference circuits, so any
/// error is a setup bug the caller should surface loudly.
pub fn ac_kernel_cases() -> Result<Vec<AcKernelCase>, SimError> {
    let tech = Technology::ptm45();
    let tia = Tia::default();
    let tidx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
    let (tia_ckt, _) = tia.build(&tidx, &tech);
    let opamp = OpAmp2::default();
    let oidx: Vec<usize> = opamp.cardinalities().iter().map(|k| k / 2).collect();
    let (op_ckt, _, _) = opamp.build(&oidx, &tech);
    Ok(vec![
        ac_kernel_case("tia", &tia_ckt, 0.5)?,
        ac_kernel_case("opamp2", &op_ckt, 0.6)?,
    ])
}

fn ac_kernel_case(name: &str, ckt: &Circuit, initial_v: f64) -> Result<AcKernelCase, SimError> {
    let op = dc_operating_point(
        ckt,
        &DcOptions {
            initial_v,
            ..DcOptions::default()
        },
    )?;
    let solver = AcSolver::new(ckt, &op);
    let n = solver.dim();
    let freq = 1e9;
    let w = 2.0 * std::f64::consts::PI * freq;
    // Recover the stamp pattern from the dense system matrix so the bench
    // loops re-assemble per point exactly like the Woodbury corner rows do
    // (entry = g + j*w*c, so c = im / w).
    let y = solver.system_matrix(freq);
    let mut pattern = Vec::new();
    for r in 0..n {
        for c in 0..n {
            let v = y[(r, c)];
            if v != Complex::ZERO {
                pattern.push((r, c, v.re, v.im / w));
            }
        }
    }
    Ok(AcKernelCase {
        name: name.to_string(),
        n,
        w,
        pattern,
        rhs: solver.source_rhs().to_vec(),
    })
}

/// The TIA center design extracted at `mesh_depth`, as an AC-kernel
/// workload: the real PEX-mesh MNA system (dim 4 + 7·depth: 4 at the
/// lumped extraction, 32 at depth 4, 116 at depth 16) the dense per-point
/// bench rows factor.
///
/// # Errors
///
/// Returns the solver failure if the extracted center design does not
/// solve — it is a fixed bench reference, so that is a setup bug.
pub fn tia_mesh_kernel_case(mesh_depth: usize) -> Result<AcKernelCase, SimError> {
    let tia = Tia::default();
    let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
    let (ckt, _) = tia.build(&idx, &Technology::ptm45());
    let ex = extract(
        &ckt,
        &PexConfig {
            mesh_depth,
            ..tia.pex_config().clone()
        },
    );
    ac_kernel_case(&format!("tia_mesh{mesh_depth}"), &ex, 0.5)
}

/// One corner-batched noise workload: the TIA center design extracted at
/// one mesh depth across the full PVT corner set, with cold operating
/// points already solved — the criterion `noise_corners_*` and
/// `ac_corners_*` benches' corner set and grid.
pub struct NoiseCornerCase {
    /// Extracted corner circuits.
    pub ckts: Vec<Circuit>,
    /// Per-corner cold operating points.
    pub ops: Vec<OpPoint>,
    /// Output node (shared — corner sets share structure).
    pub out: Node,
    /// Per-corner temperatures (K).
    pub temps: Vec<f64>,
    /// The TIA noise integration grid.
    pub freqs: Vec<f64>,
}

/// Builds the TIA noise-corner workload at `mesh_depth` (see
/// [`NoiseCornerCase`]).
///
/// # Errors
///
/// Returns the solver failure if a corner's operating point does not
/// solve — these are the bench's fixed reference circuits, so that is a
/// setup bug the caller should surface loudly.
pub fn tia_noise_corner_case(mesh_depth: usize) -> Result<NoiseCornerCase, SimError> {
    let tia = Tia::default();
    let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
    let pex = PexConfig {
        mesh_depth,
        ..tia.pex_config().clone()
    };
    let mut ckts = Vec::new();
    let mut ops = Vec::new();
    let mut temps = Vec::new();
    let mut out = None;
    for pvt in Pvt::corner_set() {
        let tech = Technology::ptm45().at_corner(pvt);
        let (ckt, o) = tia.build(&idx, &tech);
        let ex = extract(&ckt, &pex);
        let op = dc_operating_point(
            &ex,
            &DcOptions {
                initial_v: tech.vdd / 2.0,
                ..DcOptions::default()
            },
        )?;
        out = Some(o);
        ckts.push(ex);
        ops.push(op);
        temps.push(pvt.temp_kelvin());
    }
    let out = out.ok_or(SimError::InvalidOptions {
        what: "empty PVT corner set",
    })?;
    Ok(NoiseCornerCase {
        ckts,
        ops,
        out,
        temps,
        freqs: Tia::noise_freqs(),
    })
}

/// One corner-batched settling workload: the TIA center design extracted
/// at one mesh depth across the full PVT corner set, with cold operating
/// points solved and the shared integration window already derived from
/// the corner cutoffs — the criterion `settle_corners_*` benches' corner
/// set and time grid.
pub struct SettleCornerCase {
    /// Extracted corner circuits.
    pub ckts: Vec<Circuit>,
    /// Per-corner cold operating points.
    pub ops: Vec<OpPoint>,
    /// Output node (shared — corner sets share structure).
    pub out: Node,
    /// Shared integration window `8 / min corner cutoff`, matching the
    /// engine's settle stage.
    pub t_stop: f64,
    /// Trapezoidal steps per record (the TIA's production 2048).
    pub steps: usize,
}

/// Builds the TIA settling-corner workload at `mesh_depth` (see
/// [`SettleCornerCase`]): the noise workload's corner set, plus the
/// shared settling window from each corner's -3 dB cutoff.
///
/// # Errors
///
/// Returns the solver failure if a corner does not solve or no corner
/// has a valid cutoff — these are the bench's fixed reference circuits,
/// so that is a setup bug the caller should surface loudly.
pub fn tia_settle_corner_case(mesh_depth: usize) -> Result<SettleCornerCase, SimError> {
    let nc = tia_noise_corner_case(mesh_depth)?;
    let freqs = autockt_sim::ac::log_freqs(1e5, 1e12, 10);
    let mut min_cutoff = f64::INFINITY;
    for (ckt, op) in nc.ckts.iter().zip(&nc.ops) {
        let resp = ac_sweep(ckt, op, &freqs, nc.out)?;
        if let Ok(c) = resp.f_3db() {
            if c > 0.0 {
                min_cutoff = min_cutoff.min(c);
            }
        }
    }
    if !min_cutoff.is_finite() {
        return Err(SimError::MeasureFailed {
            what: "no TIA corner has a valid cutoff",
        });
    }
    Ok(SettleCornerCase {
        ckts: nc.ckts,
        ops: nc.ops,
        out: nc.out,
        t_stop: 8.0 / min_cutoff,
        steps: 2048,
    })
}

/// Returns the `results/` directory at the workspace root, creating it if
/// needed.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    // lint:allow(panic) — experiment harness I/O: the binaries want loud
    // failures, and there is no sensible recovery from an unwritable
    // results directory.
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    // lint:allow(panic) — a compile-time path invariant of the workspace
    // layout, not a runtime condition.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Writes a CSV file into `results/` with a header row and data rows.
///
/// # Panics
///
/// Panics on I/O failure — experiment binaries want loud failures.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<f64>]) -> PathBuf {
    let path = results_dir().join(name);
    // lint:allow(panic) — experiment harness I/O: a result file that
    // cannot be written should abort the run loudly, not be skipped.
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.6e}")).collect();
        // lint:allow(panic) — same loud-failure contract as above.
        writeln!(f, "{}", line.join(",")).expect("write row");
    }
    path
}

/// Pretty-prints a paper-vs-measured comparison table row by row.
pub fn print_comparison(title: &str, rows: &[(&str, String, String)]) {
    println!("\n=== {title} ===");
    println!("{:<42} {:>16} {:>16}", "metric", "paper", "measured");
    for (metric, paper, measured) in rows {
        println!("{metric:<42} {paper:>16} {measured:>16}");
    }
}

/// Parses `--flag value` style overrides from `std::env::args`, returning
/// the value for `flag` if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when `--full` was passed (paper-scale budgets instead of
/// laptop-scale defaults).
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn csv_roundtrip() {
        let p = write_csv(
            "test_roundtrip.csv",
            &["a", "b"],
            &[vec![1.0, 2.0], vec![3.0, 4.0]],
        );
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with("a,b\n"));
        assert_eq!(text.lines().count(), 3);
        std::fs::remove_file(p).ok();
    }
}
