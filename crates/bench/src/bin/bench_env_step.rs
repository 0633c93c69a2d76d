//! Steps/sec benchmark of the environment evaluation pipeline, the number
//! the ROADMAP's perf trajectory tracks. Two workloads are driven through
//! three pipeline configurations each:
//!
//! Workloads (episodes restart from the grid center every `--episode`
//! steps, as in training):
//!
//! - **revisit** — all-keep actions, the workload of the original
//!   `env_step` criterion bench: every step re-evaluates the current grid
//!   point. This is where the memo cache pays outright (a converged policy
//!   holding position, replayed trajectories on the fixed training-target
//!   set, GA duplicate genomes).
//! - **explore** — a uniform random one-notch walk, the worst case for
//!   memoization (exact revisits of a 6–7-dimensional index vector are
//!   rare); this isolates the warm-start + workspace win on fresh solves.
//!
//! Configurations:
//!
//! - **cold** — every step runs the stateless [`SizingProblem::simulate`]
//!   path, re-solving DC from the `vdd/2` guess (the seed behaviour);
//! - **warm** — the previous step's operating point seeds Newton and all
//!   matrix/LU buffers are reused across steps;
//! - **warm+memo** — additionally, exact grid revisits are served from the
//!   session memo cache without any solve.
//!
//! Three further sections extend the trajectory:
//!
//! - **shared-memo** — `W` workers (1 vs 8 vs 32) drive *identical*
//!   lockstep walks concurrently, once with per-env private memos and
//!   once pooled through one concurrent sharded [`SharedMemo`]: with
//!   pooling, the first worker to reach a grid point solves it and every
//!   sibling's revisit is a cross-worker cache hit. Pooled rows record
//!   the memo's contended-lock count (probes/inserts that found their
//!   shard held), the contention signal the ROADMAP flagged as
//!   unmeasured past 8 workers.
//! - **noise-corner** — one full TIA noise analysis of the PVT corner
//!   set (6 corners x the noise grid), run serial per corner
//!   (`noise_analysis_ws`, the cold path) and corner-corrected
//!   (`noise_analysis_corners`, one base factor and a few adjoint solves
//!   per point, each corner's adjoint recovered by a transposed Woodbury
//!   correction — the warm fast path), at stock and dense mesh dims.
//! - **settle-corner** — one full TIA corner-set settling integration
//!   (2048 trapezoidal steps per corner on a shared time window), run
//!   serial per corner (`step_response`) and through
//!   `step_response_corners`, at mesh depths 0, 4, 8 and 16. Both columns
//!   run the same per-corner propagator; the corner column pins that the
//!   corner entry point adds nothing.
//!
//! Prints a comparison table and writes `results/BENCH_env_step.json`
//! (schema `autockt/bench_env_step/v11`) so CI can archive the trajectory.
//!
//! Run: `cargo run --release -p autockt_bench --bin bench_env_step`
//! (`--steps N`, `--episode H`, `--seed S` to override).

use autockt_bench::{
    arg_value, results_dir, tia_noise_corner_case, tia_settle_corner_case, NoiseCornerCase,
    SettleCornerCase,
};
use autockt_circuits::{NegGmOta, OpAmp2, SharedMemo, SimMode, SizingProblem, Tia};
use autockt_core::{EnvConfig, SizingEnv, TargetMode};
use autockt_rl::env::Env;
use autockt_sim::ac::{AcBatchWorkspace, AcSolver, AcWorkspace};
use autockt_sim::dc::OpPoint;
use autockt_sim::noise::{noise_analysis_corners, noise_analysis_ws};
use autockt_sim::tran::step_response_corners;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Walk {
    Revisit,
    Explore,
}

struct RunStats {
    steps_per_sec: f64,
    solves: u64,
    memo_hits: u64,
}

/// Drives `steps` environment steps of a fixed action schedule, resetting
/// every `episode` steps, and reports throughput plus session counters.
#[allow(clippy::too_many_arguments)]
fn run_walk(
    problem: &Arc<dyn SizingProblem>,
    mode: SimMode,
    walk: Walk,
    warm_start: bool,
    memoize: bool,
    steps: usize,
    episode: usize,
    seed: u64,
) -> RunStats {
    let mut env = SizingEnv::new(
        Arc::clone(problem),
        EnvConfig {
            horizon: usize::MAX / 2, // episode boundaries are driven below
            mode,
            target_mode: TargetMode::Uniform,
            warm_start,
            memoize,
            ..EnvConfig::default()
        },
    );
    let n_params = env.action_dims().len();
    let mut action_rng = StdRng::seed_from_u64(seed ^ 0xACC5);
    let actions: Vec<Vec<usize>> = (0..steps)
        .map(|_| match walk {
            Walk::Revisit => vec![1; n_params],
            Walk::Explore => (0..n_params)
                .map(|_| action_rng.random_range(0..3))
                .collect(),
        })
        .collect();
    let mut reset_rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    env.reset(&mut reset_rng);
    for (i, a) in actions.iter().enumerate() {
        if i > 0 && i % episode == 0 {
            env.reset(&mut reset_rng);
        }
        env.step(a);
    }
    let dt = t0.elapsed().as_secs_f64();
    RunStats {
        steps_per_sec: steps as f64 / dt,
        solves: env.solve_count(),
        memo_hits: env.memo_hits(),
    }
}

struct MultiStats {
    agg_steps_per_sec: f64,
    solves: u64,
    cross_hits: u64,
}

/// Drives `workers` environments through *identical* lockstep walks
/// concurrently (same action schedule, same reset targets), either each
/// with a private memo or all pooled through `shared`. Identical
/// trajectories are the pooling best case the training workers approach:
/// every grid point any worker needs has usually been solved by a sibling.
fn run_multi(
    problem: &Arc<dyn SizingProblem>,
    walk: Walk,
    workers: usize,
    shared: Option<&Arc<SharedMemo>>,
    steps: usize,
    episode: usize,
    seed: u64,
) -> MultiStats {
    let mk_env = || {
        SizingEnv::new(
            Arc::clone(problem),
            EnvConfig {
                horizon: usize::MAX / 2,
                mode: SimMode::Schematic,
                target_mode: TargetMode::Uniform,
                shared_memo: shared.map(Arc::clone),
                ..EnvConfig::default()
            },
        )
    };
    let mut envs: Vec<SizingEnv> = (0..workers).map(|_| mk_env()).collect();
    let n_params = envs[0].action_dims().len();
    let mut action_rng = StdRng::seed_from_u64(seed ^ 0xACC5);
    let actions: Vec<Vec<usize>> = (0..steps)
        .map(|_| match walk {
            Walk::Revisit => vec![1; n_params],
            Walk::Explore => (0..n_params)
                .map(|_| action_rng.random_range(0..3))
                .collect(),
        })
        .collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for env in envs.iter_mut() {
            let actions = &actions;
            scope.spawn(move || {
                let mut reset_rng = StdRng::seed_from_u64(seed);
                env.reset(&mut reset_rng);
                for (i, a) in actions.iter().enumerate() {
                    if i > 0 && i % episode == 0 {
                        env.reset(&mut reset_rng);
                    }
                    env.step(a);
                }
            });
        }
    });
    let dt = t0.elapsed().as_secs_f64();
    MultiStats {
        agg_steps_per_sec: (workers * steps) as f64 / dt,
        solves: envs.iter().map(SizingEnv::solve_count).sum(),
        cross_hits: envs.iter().map(SizingEnv::cross_memo_hits).sum(),
    }
}

struct NoiseCornerStats {
    serial_us: f64,
    corrected_us: f64,
}

/// One full corner-set noise analysis per iteration through the two
/// paths — serial per corner and base-plus-Woodbury corrected — over the shared [`NoiseCornerCase`] workload (the
/// criterion `noise_corners_*` benches drive the identical cases).
fn time_noise_corner_paths(case: &NoiseCornerCase, iters: u32) -> NoiseCornerStats {
    let solvers: Vec<AcSolver<'_>> = case
        .ckts
        .iter()
        .zip(&case.ops)
        .map(|(c, op)| AcSolver::new(c, op))
        .collect();
    let op_refs: Vec<&OpPoint> = case.ops.iter().collect();
    let outs = vec![case.out; solvers.len()];

    let mut sws = AcWorkspace::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        for ((ckt, op), &t) in case.ckts.iter().zip(&case.ops).zip(&case.temps) {
            let r = noise_analysis_ws(ckt, op, case.out, &case.freqs, t, &mut sws);
            black_box(r.expect("corner analysis solves").out_vrms);
        }
    }
    let serial_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let mut ws = AcBatchWorkspace::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        let r =
            noise_analysis_corners(&solvers, &op_refs, &outs, &case.freqs, &case.temps, &mut ws);
        black_box(r.len());
    }
    let corrected_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    NoiseCornerStats {
        serial_us,
        corrected_us,
    }
}

struct SettleCornerStats {
    serial_us: f64,
    corners_us: f64,
}

/// One full corner-set settling integration per iteration through the
/// two entry points — serial per corner (`step_response`) and
/// `step_response_corners` (the same propagator per corner) — over the
/// shared
/// [`SettleCornerCase`] workload (the criterion `settle_corners_*`
/// benches drive the identical cases).
fn time_settle_corner_paths(case: &SettleCornerCase, iters: u32) -> SettleCornerStats {
    let solvers: Vec<AcSolver<'_>> = case
        .ckts
        .iter()
        .zip(&case.ops)
        .map(|(c, op)| AcSolver::new(c, op))
        .collect();
    let refs: Vec<&AcSolver<'_>> = solvers.iter().collect();
    let outs = vec![case.out; solvers.len()];

    let t0 = Instant::now();
    for _ in 0..iters {
        for s in &solvers {
            let r = s.step_response(case.out, case.t_stop, case.steps);
            black_box(r.expect("corner settles").1.last().copied());
        }
    }
    let serial_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        let r = step_response_corners(&refs, &outs, case.t_stop, case.steps);
        black_box(r.len());
    }
    let corners_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    SettleCornerStats {
        serial_us,
        corners_us,
    }
}

fn main() {
    let steps: usize = arg_value("--steps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let episode: usize = arg_value("--episode")
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let seed: u64 = arg_value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(17);

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = autockt_sim::par::thread_budget();
    println!("host: available_parallelism={available}, thread budget={budget}");

    let topologies: Vec<(&str, Arc<dyn SizingProblem>)> = vec![
        ("tia", Arc::new(Tia::default())),
        ("opamp2", Arc::new(OpAmp2::default())),
        ("neggm", Arc::new(NegGmOta::default())),
    ];

    println!(
        "{:<8} {:<8} {:>12} {:>12} {:>14} {:>8} {:>11} {:>9}",
        "problem",
        "walk",
        "cold st/s",
        "warm st/s",
        "warm+memo st/s",
        "warm x",
        "warm+memo x",
        "hit rate"
    );
    let mut rows = Vec::new();
    for (name, problem) in &topologies {
        for (walk, walk_name) in [(Walk::Revisit, "revisit"), (Walk::Explore, "explore")] {
            let mode = SimMode::Schematic;
            let cold = run_walk(problem, mode, walk, false, false, steps, episode, seed);
            let warm = run_walk(problem, mode, walk, true, false, steps, episode, seed);
            let memo = run_walk(problem, mode, walk, true, true, steps, episode, seed);
            let warm_speedup = warm.steps_per_sec / cold.steps_per_sec;
            let memo_speedup = memo.steps_per_sec / cold.steps_per_sec;
            let hit_rate = memo.memo_hits as f64 / (memo.memo_hits + memo.solves).max(1) as f64;
            println!(
                "{:<8} {:<8} {:>12.0} {:>12.0} {:>14.0} {:>7.2}x {:>10.2}x {:>8.1}%",
                name,
                walk_name,
                cold.steps_per_sec,
                warm.steps_per_sec,
                memo.steps_per_sec,
                warm_speedup,
                memo_speedup,
                100.0 * hit_rate
            );
            rows.push(format!(
                concat!(
                    "    {{\n",
                    "      \"problem\": \"{}\",\n",
                    "      \"walk\": \"{}\",\n",
                    "      \"mode\": \"schematic\",\n",
                    "      \"cold_steps_per_sec\": {:.1},\n",
                    "      \"warm_steps_per_sec\": {:.1},\n",
                    "      \"warm_memo_steps_per_sec\": {:.1},\n",
                    "      \"warm_speedup\": {:.3},\n",
                    "      \"warm_memo_speedup\": {:.3},\n",
                    "      \"memo_hit_rate\": {:.4}\n",
                    "    }}"
                ),
                name,
                walk_name,
                cold.steps_per_sec,
                warm.steps_per_sec,
                memo.steps_per_sec,
                warm_speedup,
                memo_speedup,
                hit_rate
            ));
        }
    }

    // Shared-memo multi-worker workloads: identical lockstep walks at 1,
    // 8, and 32 workers, per-env private memos vs one pooled concurrent
    // map, with the pooled map's lock-contention counters recorded.
    println!(
        "\n{:<8} {:<8} {:>3} {:>15} {:>14} {:>8} {:>11} {:>12} {:>10}",
        "problem",
        "walk",
        "W",
        "per-env st/s",
        "pooled st/s",
        "pool x",
        "cross hits",
        "solves p/e",
        "contended"
    );
    let mut memo_rows = Vec::new();
    for (name, problem) in &topologies {
        for (walk, walk_name) in [(Walk::Revisit, "revisit"), (Walk::Explore, "explore")] {
            for workers in [1usize, 8, 32] {
                let per_env = run_multi(problem, walk, workers, None, steps, episode, seed);
                let memo = Arc::new(SharedMemo::with_default_capacity());
                let pooled = run_multi(problem, walk, workers, Some(&memo), steps, episode, seed);
                let speedup = pooled.agg_steps_per_sec / per_env.agg_steps_per_sec;
                let contended = memo.contended_locks();
                let locks = memo.lock_acquisitions();
                let hot_shard = memo.shard_contention().into_iter().max().unwrap_or(0);
                println!(
                    "{:<8} {:<8} {:>3} {:>15.0} {:>14.0} {:>7.2}x {:>11} {:>5}/{:<6} {:>10}",
                    name,
                    walk_name,
                    workers,
                    per_env.agg_steps_per_sec,
                    pooled.agg_steps_per_sec,
                    speedup,
                    pooled.cross_hits,
                    pooled.solves,
                    per_env.solves,
                    contended,
                );
                memo_rows.push(format!(
                    concat!(
                        "    {{\n",
                        "      \"problem\": \"{}\",\n",
                        "      \"walk\": \"{}\",\n",
                        "      \"workers\": {},\n",
                        "      \"per_env_steps_per_sec\": {:.1},\n",
                        "      \"pooled_steps_per_sec\": {:.1},\n",
                        "      \"pooled_speedup\": {:.3},\n",
                        "      \"cross_worker_hits\": {},\n",
                        "      \"pooled_solves\": {},\n",
                        "      \"per_env_solves\": {},\n",
                        "      \"pooled_lock_acquisitions\": {},\n",
                        "      \"pooled_contended_locks\": {},\n",
                        "      \"pooled_hottest_shard_contention\": {},\n",
                        "      \"memo_shards\": {}\n",
                        "    }}"
                    ),
                    name,
                    walk_name,
                    workers,
                    per_env.agg_steps_per_sec,
                    pooled.agg_steps_per_sec,
                    speedup,
                    pooled.cross_hits,
                    pooled.solves,
                    per_env.solves,
                    locks,
                    contended,
                    hot_shard,
                    memo.num_shards(),
                ));
            }
        }
    }

    // Noise-corner paths: one full TIA corner-set noise analysis through
    // the serial and corrected (Woodbury) pipelines, at stock and dense
    // mesh dims.
    println!(
        "\n{:<8} {:>5} {:>4} {:>12} {:>13} {:>8}",
        "problem", "mesh", "dim", "serial us", "corrected us", "corr x"
    );
    let mut noise_rows = Vec::new();
    for depth in [0usize, 4] {
        let case = tia_noise_corner_case(depth).expect("TIA corner workload builds");
        let iters = if depth == 0 { 400 } else { 60 };
        let st = time_noise_corner_paths(&case, iters);
        let corr_x = st.serial_us / st.corrected_us;
        println!(
            "{:<8} {:>5} {:>4} {:>12.1} {:>13.1} {:>7.2}x",
            "tia", depth, case.dim, st.serial_us, st.corrected_us, corr_x
        );
        noise_rows.push(format!(
            concat!(
                "    {{\n",
                "      \"problem\": \"tia\",\n",
                "      \"mesh_depth\": {},\n",
                "      \"mna_dim\": {},\n",
                "      \"corners\": {},\n",
                "      \"noise_points\": {},\n",
                "      \"serial_us_per_eval\": {:.2},\n",
                "      \"corrected_us_per_eval\": {:.2},\n",
                "      \"corrected_speedup\": {:.3}\n",
                "    }}"
            ),
            depth,
            case.dim,
            case.ckts.len(),
            case.freqs.len(),
            st.serial_us,
            st.corrected_us,
            corr_x
        ));
    }

    // Settle-corner paths: one full TIA corner-set settling integration
    // through the serial loop and the corner entry point, at mesh depths
    // 0, 4, 8 and 16.
    println!(
        "\n{:<8} {:>5} {:>4} {:>12} {:>13} {:>8}",
        "problem", "mesh", "dim", "serial us", "corners us", "corners x"
    );
    let mut settle_rows = Vec::new();
    for (depth, iters) in [(0usize, 40u32), (4, 20), (8, 10), (16, 6)] {
        let case = tia_settle_corner_case(depth).expect("TIA settle corner workload builds");
        let st = time_settle_corner_paths(&case, iters);
        let corners_x = st.serial_us / st.corners_us;
        println!(
            "{:<8} {:>5} {:>4} {:>12.1} {:>13.1} {:>7.2}x",
            "tia", depth, case.dim, st.serial_us, st.corners_us, corners_x
        );
        settle_rows.push(format!(
            concat!(
                "    {{\n",
                "      \"problem\": \"tia\",\n",
                "      \"mesh_depth\": {},\n",
                "      \"mna_dim\": {},\n",
                "      \"corners\": {},\n",
                "      \"settle_steps\": {},\n",
                "      \"serial_us_per_set\": {:.2},\n",
                "      \"corners_us_per_set\": {:.2},\n",
                "      \"corners_speedup\": {:.3}\n",
                "    }}"
            ),
            depth,
            case.dim,
            case.ckts.len(),
            case.steps,
            st.serial_us,
            st.corners_us,
            corners_x
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"autockt/bench_env_step/v11\",\n",
            "  \"command\": \"cargo run --release -p autockt_bench --bin bench_env_step ",
            "-- --steps {} --episode {} --seed {}\",\n",
            "  \"steps_per_config\": {},\n",
            "  \"episode_len\": {},\n",
            "  \"seed\": {},\n",
            "  \"available_parallelism\": {},\n",
            "  \"thread_budget\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"shared_memo\": [\n{}\n  ],\n",
            "  \"noise_corner\": [\n{}\n  ],\n",
            "  \"settle_corner\": [\n{}\n  ]\n",
            "}}\n"
        ),
        steps,
        episode,
        seed,
        steps,
        episode,
        seed,
        available,
        budget,
        rows.join(",\n"),
        memo_rows.join(",\n"),
        noise_rows.join(",\n"),
        settle_rows.join(",\n"),
    );
    let path = results_dir().join("BENCH_env_step.json");
    let mut f = std::fs::File::create(&path).expect("create bench json");
    f.write_all(json.as_bytes()).expect("write bench json");
    println!("\nwrote {}", path.display());
}
