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
//!   (`noise_analysis_corners`, base factor + Woodbury with shared
//!   per-source base solves — the warm fast path), at stock and dense
//!   mesh dims.
//! - **settle-corner** — one full TIA corner-set settling integration
//!   (2048 trapezoidal steps per corner on a shared time window), run
//!   serial per corner (`step_response`, the cold path) and
//!   corner-batched (`step_response_corners`: a precomputed affine
//!   propagator per corner at dense dims, one base companion factor +
//!   per-corner Woodbury corrections at sparse dims), at the stock/dense
//!   mesh dims and at the sparse-backend mesh dims.
//! - **sparse-solver** — the dense refactor+solve path versus the
//!   CSC sparse-LU refactor path (symbolic analysis reused, values
//!   rewritten per point) on the TIA's extracted mesh systems from the
//!   lumped dim up past 190, locating the backend crossover dim that
//!   `SolverConfig`'s Auto dispatch encodes; plus full `PexWorstCase`
//!   environment stepping at deep meshes, forced-dense vs Auto.
//! - **btf** — the plain whole-matrix sparse LU versus the
//!   block-triangular-form (`BtfLu`) mode on the same TIA mesh systems:
//!   per-AC-point refactor+solve time and factor fill
//!   (`factor_nnz`) for both, plus the Dulmage–Mendelsohn block count,
//!   quantifying what the BTF decomposition buys (or costs) on MNA
//!   patterns whose feedback loops merge most of the matrix into one
//!   strongly connected block.
//! - **machine-saturation** — the tile scheduler's forced-lane rows:
//!   dense-mesh TIA `PexWorstCase` stepping at `Parallelism::Off` vs
//!   `Threads(n)` (steps/sec vs total threads), and threaded BTF block
//!   factoring on the dim-116+ extracted meshes. The host's
//!   `available_parallelism` and the scheduler's configured budget are
//!   recorded in the header; on a saturated or single-core host these
//!   rows are *losses*, and they are recorded exactly as measured —
//!   the point of the section is the honest crossover, not a best case.
//!
//! Prints a comparison table and writes `results/BENCH_env_step.json`
//! (schema `autockt/bench_env_step/v10`) so CI can archive the trajectory.
//!
//! Run: `cargo run --release -p autockt_bench --bin bench_env_step`
//! (`--steps N`, `--episode H`, `--seed S` to override).

use autockt_bench::{
    arg_value, results_dir, tia_mesh_kernel_case, tia_noise_corner_case, tia_settle_corner_case,
    AcKernelCase, NoiseCornerCase, SettleCornerCase,
};
use autockt_circuits::{NegGmOta, OpAmp2, SharedMemo, SimMode, SizingProblem, Tia};
use autockt_core::{EnvConfig, SizingEnv, TargetMode};
use autockt_rl::env::Env;
use autockt_sim::ac::{AcBatchWorkspace, AcSolver, AcWorkspace};
use autockt_sim::complex::Complex;
use autockt_sim::dc::OpPoint;
use autockt_sim::linalg::sparse::{CscMatrix, SparseLu, TripletList};
use autockt_sim::linalg::structure::BtfLu;
use autockt_sim::linalg::LuFactors;
use autockt_sim::noise::{noise_analysis_corners, noise_analysis_ws};
use autockt_sim::pex::PexConfig;
use autockt_sim::tran::step_response_corners;
use autockt_sim::{Parallelism, SolverConfig};
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
    corrected_us: f64,
}

/// One full corner-set settling integration per iteration through the
/// two paths — serial per corner (`step_response`) and corner-batched
/// (`step_response_corners`: propagator at dense dims, Woodbury at
/// sparse dims) — over the shared
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
    let corrected_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    SettleCornerStats {
        serial_us,
        corrected_us,
    }
}

struct SparseKernelStats {
    dim: usize,
    nnz: usize,
    dense_us: f64,
    sparse_us: f64,
}

/// One AC frequency point per iteration through the production dense path
/// (stamp + refactor + solve, buffers reused) versus the production sparse
/// path (CSC value rewrite + `SparseLu::refactor` reusing the symbolic
/// analysis + solve) — the same per-point work `ac_sweep` does on either
/// side of the backend crossover. The CSC base values encode `(g, c)` as
/// `Complex::new(g, c)` and are rescaled to `g + j*w*c` each iteration,
/// exactly like `AcSolver::factor_at_ws`.
fn time_sparse_kernels(case: &AcKernelCase, iters: u32) -> SparseKernelStats {
    let AcKernelCase {
        n, w, pattern, rhs, ..
    } = case;
    let (n, w) = (*n, *w);

    let mut lu = LuFactors::<Complex>::empty();
    let mut xd = Vec::new();
    let stamp = |lu: &mut LuFactors<Complex>| {
        lu.refactor_with(n, 1e-300, |m| {
            for &(r, c, gg, cc) in pattern {
                m[(r, c)] = Complex::new(gg, w * cc);
            }
        })
        .expect("nonsingular")
    };
    stamp(&mut lu);
    let t0 = Instant::now();
    for _ in 0..iters {
        stamp(black_box(&mut lu));
        lu.solve_into(rhs, &mut xd);
        black_box(xd.last());
    }
    let dense_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let mut trip: TripletList<Complex> = TripletList::new(n);
    for &(r, c, gg, cc) in pattern {
        trip.push(r, c, Complex::new(gg, cc));
    }
    let mut csc = CscMatrix::empty();
    trip.compress_into(&mut csc);
    let base: Vec<Complex> = csc.values().to_vec();
    let rescale = |csc: &mut CscMatrix<Complex>| {
        for (v, b) in csc.values_mut().iter_mut().zip(&base) {
            *v = Complex::new(b.re, w * b.im);
        }
    };
    rescale(&mut csc);
    let mut slu = SparseLu::factor(&csc, 1e-300).expect("nonsingular");
    let mut xs = Vec::new();
    slu.solve_into(rhs, &mut xs);
    // Sanity gate: both backends must agree before we time them.
    for (d, s) in xd.iter().zip(&xs) {
        let diff = (*d - *s).norm();
        assert!(
            diff <= 1e-6 * (1.0 + d.norm()),
            "dense/sparse kernels diverge at dim {n}: {diff}"
        );
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        rescale(black_box(&mut csc));
        slu.refactor(&csc, 1e-300).expect("nonsingular");
        slu.solve_into(rhs, &mut xs);
        black_box(xs.last());
    }
    let sparse_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    SparseKernelStats {
        dim: n,
        nnz: csc.nnz(),
        dense_us,
        sparse_us,
    }
}

struct BtfKernelStats {
    dim: usize,
    nnz: usize,
    nblocks: usize,
    plain_us: f64,
    btf_us: f64,
    plain_fill: usize,
    btf_fill: usize,
}

/// One AC frequency point per iteration through the plain whole-matrix
/// `SparseLu` versus the BTF `BtfLu` mode, both on the warm path (value
/// rewrite + refactor reusing the symbolic analysis + solve). Fill is the
/// structural nonzero count of the computed factors — for BTF the block
/// factors plus the raw off-diagonal entries.
fn time_btf_kernels(case: &AcKernelCase, iters: u32) -> BtfKernelStats {
    let AcKernelCase {
        n, w, pattern, rhs, ..
    } = case;
    let (n, w) = (*n, *w);
    let mut trip: TripletList<Complex> = TripletList::new(n);
    for &(r, c, gg, cc) in pattern {
        trip.push(r, c, Complex::new(gg, cc));
    }
    let mut csc = CscMatrix::empty();
    trip.compress_into(&mut csc);
    let base: Vec<Complex> = csc.values().to_vec();
    let rescale = |csc: &mut CscMatrix<Complex>| {
        for (v, b) in csc.values_mut().iter_mut().zip(&base) {
            *v = Complex::new(b.re, w * b.im);
        }
    };
    rescale(&mut csc);

    let mut plain = SparseLu::factor(&csc, 1e-300).expect("nonsingular");
    let mut xp = Vec::new();
    plain.solve_into(rhs, &mut xp);
    let mut btf = BtfLu::empty();
    btf.refactor(&csc, 1e-300).expect("nonsingular");
    let mut xb = Vec::new();
    btf.solve_into(rhs, &mut xb);
    // Sanity gate: both modes must agree before we time them.
    for (p, b) in xp.iter().zip(&xb) {
        let diff = (*p - *b).norm();
        assert!(
            diff <= 1e-6 * (1.0 + p.norm()),
            "plain/btf sparse modes diverge at dim {n}: {diff}"
        );
    }

    let t0 = Instant::now();
    for _ in 0..iters {
        rescale(black_box(&mut csc));
        plain.refactor(&csc, 1e-300).expect("nonsingular");
        plain.solve_into(rhs, &mut xp);
        black_box(xp.last());
    }
    let plain_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        rescale(black_box(&mut csc));
        btf.refactor(&csc, 1e-300).expect("nonsingular");
        btf.solve_into(rhs, &mut xb);
        black_box(xb.last());
    }
    let btf_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    BtfKernelStats {
        dim: n,
        nnz: csc.nnz(),
        nblocks: btf.nblocks(),
        plain_us,
        btf_us,
        plain_fill: plain.factor_nnz(),
        btf_fill: btf.factor_nnz(),
    }
}

struct BtfThreadStats {
    dim: usize,
    nblocks: usize,
    serial_us: f64,
    threaded_us: f64,
}

/// One AC frequency point per iteration through `BtfLu` with the tile
/// scheduler off versus forced to `threads` lanes over the BTF blocks
/// (value rewrite + refactor + solve both ways). The two modes are
/// bitwise-identical by contract — asserted before timing — so these
/// rows measure pure scheduling overhead vs block-level concurrency.
fn time_btf_threads(case: &AcKernelCase, iters: u32, threads: usize) -> BtfThreadStats {
    let AcKernelCase {
        n, w, pattern, rhs, ..
    } = case;
    let (n, w) = (*n, *w);
    let mut trip: TripletList<Complex> = TripletList::new(n);
    for &(r, c, gg, cc) in pattern {
        trip.push(r, c, Complex::new(gg, cc));
    }
    let mut csc = CscMatrix::empty();
    trip.compress_into(&mut csc);
    let base: Vec<Complex> = csc.values().to_vec();
    let rescale = |csc: &mut CscMatrix<Complex>| {
        for (v, b) in csc.values_mut().iter_mut().zip(&base) {
            *v = Complex::new(b.re, w * b.im);
        }
    };
    rescale(&mut csc);

    let mut serial = BtfLu::empty();
    serial.set_parallelism(Parallelism::Off);
    serial.refactor(&csc, 1e-300).expect("nonsingular");
    let mut xs = Vec::new();
    serial.solve_into(rhs, &mut xs);
    let mut btf = BtfLu::empty();
    btf.set_parallelism(Parallelism::Threads(threads));
    btf.refactor(&csc, 1e-300).expect("nonsingular");
    let mut xt = Vec::new();
    btf.solve_into(rhs, &mut xt);
    assert_eq!(
        xs, xt,
        "threaded BTF diverged from serial at dim {n} with {threads} lanes"
    );

    let t0 = Instant::now();
    for _ in 0..iters {
        rescale(black_box(&mut csc));
        serial.refactor(&csc, 1e-300).expect("nonsingular");
        serial.solve_into(rhs, &mut xs);
        black_box(xs.last());
    }
    let serial_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        rescale(black_box(&mut csc));
        btf.refactor(&csc, 1e-300).expect("nonsingular");
        btf.solve_into(rhs, &mut xt);
        black_box(xt.last());
    }
    let threaded_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    BtfThreadStats {
        dim: n,
        nblocks: btf.nblocks(),
        serial_us,
        threaded_us,
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
    println!("host: available_parallelism={available}, tile-scheduler thread budget={budget}");

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
    // through the serial and corner-batched pipelines, at the dense dims
    // (mesh 0/4) and sparse dims (mesh 8/16). The serial column is the
    // cold engine path; the corrected column is the warm fast path.
    println!(
        "\n{:<8} {:>5} {:>4} {:>12} {:>13} {:>8}",
        "problem", "mesh", "dim", "serial us", "corrected us", "corr x"
    );
    let mut settle_rows = Vec::new();
    for (depth, iters) in [(0usize, 40u32), (4, 20), (8, 10), (16, 6)] {
        let case = tia_settle_corner_case(depth).expect("TIA settle corner workload builds");
        let st = time_settle_corner_paths(&case, iters);
        let corr_x = st.serial_us / st.corrected_us;
        println!(
            "{:<8} {:>5} {:>4} {:>12.1} {:>13.1} {:>7.2}x",
            "tia", depth, case.dim, st.serial_us, st.corrected_us, corr_x
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
                "      \"corrected_us_per_set\": {:.2},\n",
                "      \"corrected_speedup\": {:.3}\n",
                "    }}"
            ),
            depth,
            case.dim,
            case.ckts.len(),
            case.steps,
            st.serial_us,
            st.corrected_us,
            corr_x
        ));
    }

    // Sparse-solver kernels: the dense path vs the CSC refactor path,
    // per AC point, on the TIA's extracted mesh systems from the lumped
    // dim (where dense wins outright) up past dim 190 (where the dense
    // O(n^3) refactorization stops being viable). The crossover dim these
    // rows locate is what `SolverConfig`'s Auto backend encodes.
    println!(
        "\n{:<10} {:>4} {:>6} {:>13} {:>13} {:>9}",
        "system", "dim", "nnz", "dense us/pt", "sparse us/pt", "sparse x"
    );
    let mut sparse_kernel_rows = Vec::new();
    for (depth, iters) in [
        (0usize, 50_000u32),
        (4, 8_000),
        (8, 2_000),
        (16, 400),
        (24, 150),
    ] {
        let case = tia_mesh_kernel_case(depth).expect("TIA mesh workload builds");
        let st = time_sparse_kernels(&case, iters);
        let speedup = st.dense_us / st.sparse_us;
        println!(
            "{:<10} {:>4} {:>6} {:>13.2} {:>13.2} {:>8.2}x",
            case.name, st.dim, st.nnz, st.dense_us, st.sparse_us, speedup
        );
        sparse_kernel_rows.push(format!(
            concat!(
                "    {{\n",
                "      \"system\": \"{}\",\n",
                "      \"mesh_depth\": {},\n",
                "      \"dim\": {},\n",
                "      \"nnz\": {},\n",
                "      \"dense_us_per_point\": {:.3},\n",
                "      \"sparse_us_per_point\": {:.3},\n",
                "      \"sparse_speedup\": {:.3}\n",
                "    }}"
            ),
            case.name, depth, st.dim, st.nnz, st.dense_us, st.sparse_us, speedup
        ));
    }

    // BTF-vs-plain sparse modes: per-AC-point refactor+solve and factor
    // fill on the same TIA mesh systems, plus the block count the
    // Dulmage–Mendelsohn decomposition finds. MNA patterns with global
    // feedback (the TIA's gm stamps) tend to merge into few blocks, so
    // these rows keep the decomposition's real payoff honest.
    println!(
        "\n{:<10} {:>4} {:>6} {:>7} {:>13} {:>11} {:>10} {:>9} {:>7}",
        "system",
        "dim",
        "nnz",
        "blocks",
        "plain us/pt",
        "btf us/pt",
        "plain nnz",
        "btf nnz",
        "btf x"
    );
    let mut btf_rows = Vec::new();
    for (depth, iters) in [
        (0usize, 50_000u32),
        (4, 8_000),
        (8, 2_000),
        (16, 400),
        (24, 150),
    ] {
        let case = tia_mesh_kernel_case(depth).expect("TIA mesh workload builds");
        let st = time_btf_kernels(&case, iters);
        let speedup = st.plain_us / st.btf_us;
        println!(
            "{:<10} {:>4} {:>6} {:>7} {:>13.2} {:>11.2} {:>10} {:>9} {:>6.2}x",
            case.name,
            st.dim,
            st.nnz,
            st.nblocks,
            st.plain_us,
            st.btf_us,
            st.plain_fill,
            st.btf_fill,
            speedup
        );
        btf_rows.push(format!(
            concat!(
                "    {{\n",
                "      \"system\": \"{}\",\n",
                "      \"mesh_depth\": {},\n",
                "      \"dim\": {},\n",
                "      \"nnz\": {},\n",
                "      \"nblocks\": {},\n",
                "      \"plain_us_per_point\": {:.3},\n",
                "      \"btf_us_per_point\": {:.3},\n",
                "      \"plain_factor_nnz\": {},\n",
                "      \"btf_factor_nnz\": {},\n",
                "      \"btf_speedup\": {:.3}\n",
                "    }}"
            ),
            case.name,
            depth,
            st.dim,
            st.nnz,
            st.nblocks,
            st.plain_us,
            st.btf_us,
            st.plain_fill,
            st.btf_fill,
            speedup
        ));
    }

    // Sparse worst-case stepping: full TIA PexWorstCase environment steps
    // at deep-mesh extractions, forced through the dense backend vs the
    // default Auto config (which crosses to sparse past the crossover
    // dim). Warm-started, memo off — every step is a fresh 6-corner eval.
    println!(
        "\n{:<8} {:>5} {:>4} {:>13} {:>13} {:>9}",
        "problem", "mesh", "dim", "dense st/s", "auto st/s", "sparse x"
    );
    let wc_steps = (steps / 40).max(8);
    let mut sparse_env_rows = Vec::new();
    for depth in [8usize, 16] {
        let pex = PexConfig {
            mesh_depth: depth,
            ..Tia::default().pex_config().clone()
        };
        let dim =
            autockt_bench::extracted_center_dim("tia", &pex).expect("known benchmark topology");
        let dense_p: Arc<dyn SizingProblem> = Arc::new(
            Tia::default()
                .with_pex_config(pex.clone())
                .with_solver_config(SolverConfig::dense()),
        );
        let auto_p: Arc<dyn SizingProblem> = Arc::new(Tia::default().with_pex_config(pex));
        let dense = run_walk(
            &dense_p,
            SimMode::PexWorstCase,
            Walk::Explore,
            true,
            false,
            wc_steps,
            episode,
            seed,
        );
        let auto = run_walk(
            &auto_p,
            SimMode::PexWorstCase,
            Walk::Explore,
            true,
            false,
            wc_steps,
            episode,
            seed,
        );
        let speedup = auto.steps_per_sec / dense.steps_per_sec;
        println!(
            "{:<8} {:>5} {:>4} {:>13.2} {:>13.2} {:>8.2}x",
            "tia", depth, dim, dense.steps_per_sec, auto.steps_per_sec, speedup
        );
        sparse_env_rows.push(format!(
            concat!(
                "    {{\n",
                "      \"problem\": \"tia\",\n",
                "      \"mesh_depth\": {},\n",
                "      \"mna_dim\": {},\n",
                "      \"steps\": {},\n",
                "      \"dense_steps_per_sec\": {:.3},\n",
                "      \"auto_steps_per_sec\": {:.3},\n",
                "      \"sparse_speedup\": {:.3}\n",
                "    }}"
            ),
            depth, dim, wc_steps, dense.steps_per_sec, auto.steps_per_sec, speedup
        ));
    }

    // Machine saturation: the tile scheduler's forced-lane rows. Dense-
    // mesh TIA PexWorstCase stepping at Off vs Threads(n): steps/sec vs
    // total threads. On a host with headroom the Threads rows win; on a
    // saturated or single-core host they are scheduling-overhead losses
    // — either way the measured number is recorded.
    println!(
        "\n{:<8} {:>5} {:>4} {:>8} {:>14} {:>10}",
        "problem", "mesh", "dim", "threads", "st/s", "vs serial"
    );
    let sat_steps = (steps / 40).max(8);
    let mut sat_env_rows = Vec::new();
    {
        let depth = 4usize;
        let pex = PexConfig {
            mesh_depth: depth,
            ..Tia::default().pex_config().clone()
        };
        let dim =
            autockt_bench::extracted_center_dim("tia", &pex).expect("known benchmark topology");
        let mut serial_sps = 0.0f64;
        for threads in [1usize, 2, 4] {
            let par = if threads == 1 {
                Parallelism::Off
            } else {
                Parallelism::Threads(threads)
            };
            let p: Arc<dyn SizingProblem> = Arc::new(
                Tia::default()
                    .with_pex_config(pex.clone())
                    .with_solver_config(SolverConfig::default().with_parallelism(par)),
            );
            let st = run_walk(
                &p,
                SimMode::PexWorstCase,
                Walk::Explore,
                true,
                false,
                sat_steps,
                episode,
                seed,
            );
            if threads == 1 {
                serial_sps = st.steps_per_sec;
            }
            let speedup = st.steps_per_sec / serial_sps;
            println!(
                "{:<8} {:>5} {:>4} {:>8} {:>14.2} {:>9.2}x",
                "tia", depth, dim, threads, st.steps_per_sec, speedup
            );
            sat_env_rows.push(format!(
                concat!(
                    "      {{\n",
                    "        \"problem\": \"tia\",\n",
                    "        \"mesh_depth\": {},\n",
                    "        \"mna_dim\": {},\n",
                    "        \"threads_total\": {},\n",
                    "        \"steps\": {},\n",
                    "        \"steps_per_sec\": {:.3},\n",
                    "        \"speedup_vs_serial\": {:.3}\n",
                    "      }}"
                ),
                depth, dim, threads, sat_steps, st.steps_per_sec, speedup
            ));
        }
    }

    // Threaded BTF block factoring on the extracted meshes past dim 116:
    // forced lanes over the Dulmage–Mendelsohn blocks vs the serial
    // block walk, bitwise-asserted before timing.
    println!(
        "\n{:<10} {:>4} {:>7} {:>8} {:>13} {:>13} {:>9}",
        "system", "dim", "blocks", "threads", "serial us/pt", "thread us/pt", "thread x"
    );
    let mut sat_btf_rows = Vec::new();
    for (depth, iters) in [(8usize, 2_000u32), (16, 400)] {
        let case = tia_mesh_kernel_case(depth).expect("TIA mesh workload builds");
        for threads in [2usize, 4] {
            let st = time_btf_threads(&case, iters, threads);
            let speedup = st.serial_us / st.threaded_us;
            println!(
                "{:<10} {:>4} {:>7} {:>8} {:>13.2} {:>13.2} {:>8.2}x",
                case.name, st.dim, st.nblocks, threads, st.serial_us, st.threaded_us, speedup
            );
            sat_btf_rows.push(format!(
                concat!(
                    "      {{\n",
                    "        \"system\": \"{}\",\n",
                    "        \"mesh_depth\": {},\n",
                    "        \"dim\": {},\n",
                    "        \"nblocks\": {},\n",
                    "        \"threads\": {},\n",
                    "        \"serial_us_per_point\": {:.3},\n",
                    "        \"threaded_us_per_point\": {:.3},\n",
                    "        \"threaded_speedup\": {:.3}\n",
                    "      }}"
                ),
                case.name,
                depth,
                st.dim,
                st.nblocks,
                threads,
                st.serial_us,
                st.threaded_us,
                speedup
            ));
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"autockt/bench_env_step/v10\",\n",
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
            "  \"settle_corner\": [\n{}\n  ],\n",
            "  \"sparse_solver\": {{\n",
            "    \"crossover_dim\": {},\n",
            "    \"kernels\": [\n{}\n    ],\n",
            "    \"pex_worst_case\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"btf\": [\n{}\n  ],\n",
            "  \"machine_saturation\": {{\n",
            "    \"env_step\": [\n{}\n    ],\n",
            "    \"btf_blocks\": [\n{}\n    ]\n",
            "  }}\n",
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
        SolverConfig::default().crossover,
        sparse_kernel_rows.join(",\n"),
        sparse_env_rows.join(",\n"),
        btf_rows.join(",\n"),
        sat_env_rows.join(",\n"),
        sat_btf_rows.join(",\n")
    );
    let path = results_dir().join("BENCH_env_step.json");
    let mut f = std::fs::File::create(&path).expect("create bench json");
    f.write_all(json.as_bytes()).expect("write bench json");
    println!("\nwrote {}", path.display());
}
