//! # autockt_bench — experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and figure
//! of the AutoCkt paper, plus Criterion micro-benchmarks of the simulation
//! and learning kernels (`benches/sim_kernels.rs`, `benches/rl_kernels.rs`;
//! end-to-end timings are the ledger's). There is one binary per experiment in
//! `src/bin/` (`table1` … `table4`, `fig5` … `fig14`, the ablations); each
//! binary's module doc names the paper result it reproduces and how to
//! run it, and README's "Running things" section lists the commands.
//!
//! Each experiment binary prints a paper-vs-measured comparison to stdout
//! and writes raw series as CSV under `results/`. Tables I–III run one
//! flow, [`exp::run_table`] (train, deploy, random agent, GA sweep,
//! comparison, CSV); their binaries hold only the table's constants.
//! Figs. 5/7/11 share [`exp::report_curve`], and every deployment CSV
//! takes its rows from [`exp::outcome_rows`]. Numeric overrides go
//! through [`flag_or`]: a value that does not parse ends the run with an
//! error naming the flag.

pub mod exp;

use autockt_circuits::{SizingProblem, Tia};
use autockt_sim::ac::{ac_sweep, AcSolver};
use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, OpPoint};
use autockt_sim::device::{Pvt, Technology};
use autockt_sim::netlist::{Circuit, Node};
use autockt_sim::pex::{extract, PexConfig};
use autockt_sim::SimError;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// One AC-kernel workload: the MNA dimension, angular frequency,
/// `(row, col, g, c)` stamp pattern, and source right-hand side of a
/// linearized system — the input of the criterion `ac_point_dense_*`
/// benches (stamp + refactor + solve through the dense LU).
pub struct AcKernelCase {
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

/// The TIA center design extracted at `mesh_depth`, as an AC-kernel
/// workload at 1 GHz: the real PEX-mesh MNA system (dim 4 + 7·depth: 32
/// at depth 4, 60 at depth 8, the `deploy_tia_pexwc_mesh8` system whose
/// Woodbury base factor is this per-point LU).
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
    let op = dc_operating_point(&ex, &tia.dc_opts())?;
    let solver = AcSolver::new(&ex, &op);
    let n = solver.dim();
    // The stamps as the evaluator's pattern keeps them: every entry where
    // `g` or `c` is nonzero.
    let (g, c) = solver.stamps();
    let mut pattern = Vec::new();
    for r in 0..n {
        for col in 0..n {
            let (gg, cc) = (g[(r, col)], c[(r, col)]);
            // lint:allow(float-eq) — exact-zero sparsity guard: the
            // pattern keeps every bitwise-nonzero stamp.
            if gg != 0.0 || cc != 0.0 {
                pattern.push((r, col, gg, cc));
            }
        }
    }
    Ok(AcKernelCase {
        n,
        w: 2.0 * std::f64::consts::PI * 1e9,
        pattern,
        rhs: solver.source_rhs().to_vec(),
    })
}

/// One corner-batched workload: the TIA center design extracted at one
/// mesh depth across the full PVT corner set, with cold operating points
/// solved and the settle window derived from the corner cutoffs — the
/// criterion `noise_corners_*`, `ac_corners_*` and `settle_corners_*`
/// benches' corner set. Their grids and step count are the TIA's own
/// (`Tia::noise_freqs`, `Tia::ac_freqs`, `Tia::SETTLE`).
pub struct TiaCornerCase {
    /// Extracted corner circuits.
    pub ckts: Vec<Circuit>,
    /// Per-corner cold operating points.
    pub ops: Vec<OpPoint>,
    /// Output node (shared — corner sets share structure).
    pub out: Node,
    /// Per-corner temperatures (K).
    pub temps: Vec<f64>,
    /// Shared settling window `Tia::SETTLE.window / min corner cutoff`,
    /// as the engine's settle stage picks it.
    pub t_stop: f64,
}

/// Builds the TIA corner workload at `mesh_depth` (see
/// [`TiaCornerCase`]).
///
/// # Errors
///
/// Returns the solver failure if a corner does not solve or no corner
/// has a valid cutoff — these are the bench's fixed reference circuits,
/// so that is a setup bug the caller should surface loudly.
pub fn tia_corner_case(mesh_depth: usize) -> Result<TiaCornerCase, SimError> {
    let tia = Tia::default();
    let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
    let pex = PexConfig {
        mesh_depth,
        ..tia.pex_config().clone()
    };
    let freqs = Tia::ac_freqs();
    let (mut ckts, mut ops, mut temps) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = None;
    let mut min_cutoff = f64::INFINITY;
    for pvt in Pvt::corner_set() {
        let (ckt, o) = tia.build(&idx, &Technology::ptm45().at_corner(pvt));
        let ex = extract(&ckt, &pex);
        let op = dc_operating_point(&ex, &tia.dc_opts())?;
        if let Ok(c) = ac_sweep(&ex, &op, &freqs, o)?.f_3db() {
            if c > 0.0 {
                min_cutoff = min_cutoff.min(c);
            }
        }
        out = Some(o);
        ckts.push(ex);
        ops.push(op);
        temps.push(pvt.temp_kelvin());
    }
    let out = out.ok_or(SimError::InvalidOptions {
        what: "empty PVT corner set",
    })?;
    if !min_cutoff.is_finite() {
        return Err(SimError::MeasureFailed {
            what: "no TIA corner has a valid cutoff",
        });
    }
    Ok(TiaCornerCase {
        ckts,
        ops,
        out,
        temps,
        t_stop: Tia::SETTLE.window / min_cutoff,
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
    print!("{}", comparison_table(title, rows));
}

/// The text [`print_comparison`] prints: each column as wide as its
/// widest cell, header included, and two spaces between columns, so no
/// cell runs into its neighbour.
fn comparison_table(title: &str, rows: &[(&str, String, String)]) -> String {
    let header = ["metric", "paper", "measured"];
    let cells = rows.iter().map(|(m, p, v)| [*m, p.as_str(), v.as_str()]);
    let lines: Vec<[&str; 3]> = std::iter::once(header).chain(cells).collect();
    let mut widths = [0; 3];
    for line in &lines {
        for (w, cell) in widths.iter_mut().zip(line) {
            *w = cell.chars().count().max(*w);
        }
    }
    let [wm, wp, wv] = widths;
    let mut out = format!("\n=== {title} ===\n");
    for [metric, paper, measured] in lines {
        out += &format!("{metric:<wm$}  {paper:>wp$}  {measured:>wv$}\n");
    }
    out
}

/// Parses `--flag value` style overrides from `std::env::args`, returning
/// the value for `flag` if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The `--flag value` override of a numeric setting: `default` when
/// `flag` is absent, its parsed value otherwise.
///
/// # Errors
///
/// A message naming `flag` when its value does not parse, so a mistyped
/// override stops the run instead of running at the default.
pub fn flag_or<T: FromStr>(flag: &str, default: T) -> Result<T, String> {
    parse_flag(flag, arg_value(flag), default)
}

fn parse_flag<T: FromStr>(flag: &str, value: Option<String>, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid {flag} value: {v}")),
    }
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
    fn flag_parses_or_names_itself() {
        assert_eq!(parse_flag("--deploy", None, 150usize), Ok(150));
        assert_eq!(parse_flag("--deploy", Some("20".into()), 150usize), Ok(20));
        let err = parse_flag("--deploy", Some("x".into()), 150usize).unwrap_err();
        assert!(err.contains("--deploy"), "{err}");
    }

    #[test]
    fn comparison_columns_never_touch() {
        let long = "37 (5/5 reached) abc".to_string();
        assert_eq!(long.chars().count(), 20);
        let rows = [
            (
                "Genetic Alg.+ML [7] SE (sims)",
                "220".to_string(),
                long.clone(),
            ),
            (
                "AutoCkt PEX SE",
                "23 (40/40)".to_string(),
                "none reached".into(),
            ),
        ];
        let text = comparison_table("T", &rows);
        let lines: Vec<&str> = text.lines().skip(2).collect();
        assert_eq!(lines.len(), 3);
        // Columns line up, and every paper cell stands two spaces clear of
        // both neighbours.
        let len = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == len), "{text}");
        assert!(lines[1].ends_with(&format!("220  {long}")), "{text}");
        assert!(lines[1].contains("(sims)  "), "{text}");
        assert!(
            lines[2].contains("23 (40/40)          none reached"),
            "{text}"
        );
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
