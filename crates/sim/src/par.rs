//! The process-wide thread budget.
//!
//! The simulator itself runs on the calling thread: every analysis is a
//! serial walk over frequency points, time steps or Newton iterations.
//! Threads are spawned one level up, by the rollout collector (one scoped
//! thread per environment in `autockt_rl::rollout`) and by the PPO
//! update's second network lane. The budget (default:
//! `std::thread::available_parallelism`) decides only the second lane:
//! the update steps the value network beside the policy when the budget
//! is at least 2, and on the calling thread otherwise. Collection and the
//! update never overlap, so nothing is reserved or returned.
//!
//! The budget lives here because `rl` does not depend on this crate: the
//! update reads it through a function pointer registered across the
//! crate boundary (see `autockt_rl::rollout::register_thread_budget`,
//! wired up by `autockt_core`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Explicit budget override; `0` means "unset, use
/// `available_parallelism`".
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// The process-wide thread budget: the total number of threads (including
/// the calling thread) a nested parallel step may use. Defaults to
/// `std::thread::available_parallelism`, floored at 1.
pub fn thread_budget() -> usize {
    let b = BUDGET.load(Ordering::Relaxed);
    if b != 0 {
        return b;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Overrides the process-wide thread budget (floored at 1): a budget of 1
/// keeps the PPO update on the calling thread.
pub fn set_thread_budget(n: usize) {
    BUDGET.store(n.max(1), Ordering::Relaxed);
}
