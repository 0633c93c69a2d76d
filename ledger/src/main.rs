//! The repository benchmark: seeded, fixed-size versions of the AutoCkt
//! paper's experiments, run through the public APIs.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload for `--seconds` and reports the
//! end-to-end metrics. `--trace 1` runs an untraced phase for half the
//! time, then the same rounds again with spans recorded around every
//! layer boundary, and reports the per-layer metrics; the spans are
//! written to `<target dir>/ledger-trace/<workload>.jsonl`. The last line
//! of standard output is the JSON result; the exit code is non-zero when
//! a correctness check fails. See `README.md` for the metrics.

mod deploy;
mod ga;
mod metrics;
mod phase;
mod trace;
mod train;

use deploy::Deploy;
use metrics::Metric;
use phase::{quantile, Budget, Phase};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy)]
enum Workload {
    Train,
    Deploy(Deploy),
    Ga,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "train_opamp2" => Workload::Train,
            "deploy_tia_pexwc" => Workload::Deploy(Deploy {
                mesh_depth: 0,
                targets_per_round: 20,
                check_points: 8,
            }),
            "deploy_tia_pexwc_mesh8" => Workload::Deploy(Deploy {
                mesh_depth: 8,
                targets_per_round: 2,
                check_points: 2,
            }),
            "ga_opamp2" => Workload::Ga,
            _ => return None,
        })
    }

    /// Rollout workers stepping environments concurrently.
    fn workers(self) -> usize {
        match self {
            Workload::Train => train::WORKERS,
            Workload::Deploy(_) => 1,
            Workload::Ga => 0,
        }
    }

    fn e2e(self, seed: u64, budget: Budget) -> Phase {
        match self {
            Workload::Train => train::e2e(seed, budget),
            Workload::Deploy(d) => d.e2e(seed, budget),
            Workload::Ga => ga::run(seed, budget),
        }
    }

    /// The untraced run the traced one is compared with.
    fn untraced(self, seed: u64, budget: Budget) -> Phase {
        match self {
            Workload::Train => train::public(seed, budget),
            _ => self.e2e(seed, budget),
        }
    }

    /// The same rounds as an untraced run, spans recorded.
    fn traced(self, seed: u64, rounds: usize) -> Phase {
        trace::enable();
        match self {
            Workload::Train => train::public(seed, Budget::Rounds(rounds)),
            Workload::Deploy(d) => d.traced(seed, rounds),
            Workload::Ga => ga::run(seed, Budget::Rounds(rounds)),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn trace_path(workload: &str) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("ledger/target"), PathBuf::from)
        .join("ledger-trace")
        .join(format!("{workload}.jsonl"))
}

/// Traced-phase count reconciliation: the wrapper saw every solve the
/// sessions ran, through the entry point their config selects, and every
/// evaluation the environments requested.
fn reconcile(w: Workload, b: &Phase, errors: &mut Vec<String>) {
    let count = |name: &str| b.spans.iter().filter(|s| s.name == name).count() as u64;
    let simulate: u64 = trace::SIMULATE.iter().map(|n| count(n)).sum();
    match w {
        Workload::Ga => {
            if count(trace::SIMULATE[0]) != simulate || simulate > b.ga_sims {
                errors.push(format!(
                    "reconcile: {simulate} simulate calls ({} cold) for {} GA sims",
                    count(trace::SIMULATE[0]),
                    b.ga_sims
                ));
            }
        }
        _ => {
            // Environments warm-start without a solver override, so every
            // solve must arrive through `simulate_warm`.
            if simulate != b.solves || count(trace::SIMULATE[1]) != b.solves {
                errors.push(format!(
                    "reconcile: {simulate} simulate calls ({} warm) vs {} session solves",
                    count(trace::SIMULATE[1]),
                    b.solves
                ));
            }
            let env_calls = count(trace::ENV_STEP) + count(trace::ENV_RESET);
            if env_calls != b.evals {
                errors.push(format!(
                    "reconcile: {env_calls} env calls vs {} evaluations",
                    b.evals
                ));
            }
        }
    }
}

/// Relative difference of the count metrics between the untraced and the
/// traced phase. Single-threaded seeded workloads must repeat exactly.
fn repeatability(w: Workload, a: &Phase, b: &Phase, errors: &mut Vec<String>) -> f64 {
    let pairs = [
        (a.evals, b.evals),
        (a.solves, b.solves),
        (a.memo_hits, b.memo_hits),
        (a.failed, b.failed),
    ];
    let diff = pairs
        .iter()
        .map(|&(x, y)| x.abs_diff(y) as f64 / x.max(1) as f64)
        .fold(0.0, f64::max);
    let exact = !matches!(w, Workload::Train);
    if exact && (diff != 0.0 || a.fingerprint != b.fingerprint) {
        errors.push(format!(
            "repeat: traced rerun diverged (evals/solves/hits/failed {pairs:?}, outcomes equal: {})",
            a.fingerprint == b.fingerprint
        ));
    }
    diff
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                m.value + 0.0
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ledger: refusing to measure a debug build; pass --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("ledger: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    autockt_sim::par::set_thread_budget(available);
    println!(
        "header {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {available}, \"thread_budget\": {}, \"rollout_workers\": {}, \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        autockt_sim::par::thread_budget(),
        w.workers(),
        git_commit()
    );

    let mut errors = Vec::new();
    let (ph, metrics) = if args.trace {
        let a = w.untraced(args.seed, Budget::Seconds(args.seconds / 2.0));
        let b = w.traced(args.seed, a.rounds);
        reconcile(w, &b, &mut errors);
        let diff = repeatability(w, &a, &b, &mut errors);
        let path = trace_path(&args.workload);
        if let Err(e) = trace::write_jsonl(&path, &b.spans) {
            errors.push(format!("trace: writing {}: {e}", path.display()));
        }
        errors.extend(a.errors.iter().cloned());
        let ms = metrics::per_layer(&a, &b, diff);
        (b, ms)
    } else {
        let ph = w.e2e(args.seed, Budget::Seconds(args.seconds));
        let rss = peak_rss_mib().unwrap_or(f64::NAN);
        let ms = metrics::end_to_end(&ph, rss);
        (ph, ms)
    };
    errors.extend(ph.errors.iter().cloned());

    let n = ph.unit_s.len();
    let ref_unit_s = ph.ref_unit_s();
    println!(
        "info {{\"units\": {n}, \"rounds\": {}, \"unit_s_p90\": {}, \"wall_unit_s_p50\": {:?}, \"probe_s_p50\": {:?}, \"failed_frac\": {:?}, \"reached\": {}, \"targets\": {}, \"ga_sims\": {}}}",
        ph.rounds,
        if n >= 100 {
            format!("{:?}", quantile(&ref_unit_s, 0.9))
        } else {
            "null".to_string()
        },
        quantile(&ph.unit_s, 0.5),
        quantile(&ph.unit_probe_s, 0.5),
        ph.failed as f64 / ph.evals.max(1) as f64,
        ph.reached,
        ph.targets,
        ph.ga_sims
    );
    for e in &errors {
        eprintln!("ledger: check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        ph.evals,
        ph.failed,
        json_metrics(&metrics)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
