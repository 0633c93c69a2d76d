//! Property of the pooled evaluation memo: concurrent multi-worker
//! rollouts through one `SharedMemo` must be indistinguishable from
//! per-env memo runs within solver tolerance.
//!
//! Every env warm-starts, so a pooled hit may serve specs solved from a
//! sibling's warm trajectory; those agree with the private run within
//! solver tolerance (the `simulate_warm` contract), while warm *state*
//! itself stays private per worker.

use autockt_circuits::{SharedMemo, Tia};
use autockt_core::{EnvConfig, SizingEnv, TargetMode};
use autockt_rl::env::Env;
use proptest::prelude::*;
use std::sync::Arc;

const WORKERS: usize = 3;
const N_PARAMS: usize = 6;

/// Per-worker fixed episode: a target in the spec box and an action walk.
struct Plan {
    target: Vec<f64>,
    actions: Vec<Vec<usize>>,
}

fn plans(problem: &Tia, target_u: &[f64], moves: &[usize]) -> Vec<Plan> {
    use autockt_circuits::SizingProblem;
    let steps = moves.len() / (WORKERS * N_PARAMS);
    (0..WORKERS)
        .map(|w| {
            let target = problem
                .specs()
                .iter()
                .enumerate()
                .map(|(i, d)| d.lo + target_u[(w + i) % target_u.len()] * (d.hi - d.lo))
                .collect();
            let base = w * steps * N_PARAMS;
            let actions = (0..steps)
                .map(|s| moves[base + s * N_PARAMS..base + (s + 1) * N_PARAMS].to_vec())
                .collect();
            Plan { target, actions }
        })
        .collect()
}

/// Runs one worker's episode, recording the measured specs after the
/// reset and after every step.
fn run_plan(env: &mut SizingEnv, plan: &Plan) -> Vec<Vec<f64>> {
    let mut specs = Vec::with_capacity(plan.actions.len() + 1);
    env.reset_with_target(plan.target.clone());
    specs.push(env.last_specs().to_vec());
    for a in &plan.actions {
        env.step(a);
        specs.push(env.last_specs().to_vec());
    }
    specs
}

fn env(shared: Option<&Arc<SharedMemo>>) -> SizingEnv {
    SizingEnv::new(
        Arc::new(Tia::default()),
        EnvConfig {
            horizon: 100,
            target_mode: TargetMode::Uniform,
            shared_memo: shared.map(Arc::clone),
            ..EnvConfig::default()
        },
    )
}

proptest! {
    #[test]
    fn pooled_rollouts_with_warm_start_match_within_tolerance(
        target_u in prop::collection::vec(0.0..1.0f64, 4),
        moves in prop::collection::vec(0usize..3, WORKERS * 4 * N_PARAMS),
    ) {
        let tia = Tia::default();
        let plans = plans(&tia, &target_u, &moves);

        // Reference: each worker with its own private memo, run serially.
        let mut ref_specs = Vec::new();
        let mut ref_solves = 0;
        for plan in &plans {
            let mut e = env(None);
            ref_specs.push(run_plan(&mut e, plan));
            ref_solves += e.solve_count();
        }

        // Pooled: all workers share one memo and run *concurrently*.
        let memo = Arc::new(SharedMemo::new(1 << 16));
        let mut envs: Vec<SizingEnv> =
            (0..WORKERS).map(|_| env(Some(&memo))).collect();
        let pooled: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = envs
                .iter_mut()
                .zip(&plans)
                .map(|(e, plan)| scope.spawn(move || run_plan(e, plan)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        for (r, p) in ref_specs.iter().zip(&pooled) {
            for (rs, ps) in r.iter().zip(p) {
                for (a, b) in rs.iter().zip(ps) {
                    prop_assert!(
                        (a - b).abs() <= 5e-3 * (1.0 + a.abs().max(b.abs())),
                        "warm pooled spec diverged: {a} vs {b}"
                    );
                }
            }
        }
        // Pooling can only remove solves, never add them: each worker's
        // own insertions already serve its own revisits.
        let pooled_solves: u64 = envs.iter().map(SizingEnv::solve_count).sum();
        prop_assert!(
            pooled_solves <= ref_solves,
            "pooled {pooled_solves} > per-env {ref_solves}"
        );
        prop_assert!(!memo.is_empty());
    }
}
