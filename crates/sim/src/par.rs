//! The process-wide thread budget.
//!
//! The simulator itself runs on the calling thread: every analysis is a
//! serial walk over frequency points, time steps or Newton iterations.
//! Threads are spawned one level up, by the rollout collector (one scoped
//! thread per environment in `autockt_rl::rollout`) and by the PPO
//! update's second network lane. Those callers share one budget (default:
//! `std::thread::available_parallelism`) so that nested parallelism never
//! oversubscribes the machine: whoever reserves first gets the threads,
//! and a later request degrades to serial when the budget is spent.
//!
//! The budget lives here because `rl` does not depend on this crate: the
//! rollout collector reserves through an accountant registered across
//! the crate boundary (see `autockt_rl::rollout::register_thread_accountant`,
//! wired up by `autockt_core`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Explicit budget override; `0` means "unset, use
/// `available_parallelism`".
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Threads currently reserved, excluding the implicit primary thread.
static RESERVED: AtomicUsize = AtomicUsize::new(0);

/// The process-wide thread budget: the total number of threads (including
/// the calling thread) the reserving callers will aim for. Defaults to
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

/// Overrides the process-wide thread budget (floored at 1). Benches use
/// this to measure saturation at fixed thread counts.
pub fn set_thread_budget(n: usize) {
    BUDGET.store(n.max(1), Ordering::Relaxed);
}

/// Threads currently reserved against the budget. The primary thread is
/// implicit and not counted.
pub fn reserved_threads() -> usize {
    RESERVED.load(Ordering::Relaxed)
}

/// Reserves up to `want` extra threads against the budget, returning how
/// many were granted: `min(want, budget - 1 - reserved)`, atomically.
/// Pair every grant with [`release_threads`]. This is the accountant the
/// rollout collector and the PPO update's second lane register across the
/// crate boundary.
pub fn reserve_threads(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let budget = thread_budget();
    let mut cur = RESERVED.load(Ordering::Relaxed);
    loop {
        let headroom = budget.saturating_sub(1).saturating_sub(cur);
        let take = want.min(headroom);
        if take == 0 {
            return 0;
        }
        match RESERVED.compare_exchange_weak(cur, cur + take, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return take,
            Err(now) => cur = now,
        }
    }
}

/// Returns `n` previously reserved threads to the budget (saturating, so
/// an unbalanced release cannot wrap the counter).
pub fn release_threads(n: usize) {
    if n == 0 {
        return;
    }
    let mut cur = RESERVED.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(n);
        match RESERVED.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests asserting on the process-wide budget counters serialize
    /// through this lock so concurrent test threads can't interleave.
    fn budget_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn reserve_release_saturate() {
        let _guard = budget_lock();
        set_thread_budget(4);
        let before = reserved_threads();
        let got = reserve_threads(64);
        assert!(got <= 3);
        release_threads(got);
        // Saturating release cannot wrap the counter toward usize::MAX;
        // concurrent sibling tests may hold small transient reservations,
        // so only the no-wrap property is asserted exactly.
        release_threads(1_000_000);
        assert!(reserved_threads() <= before + 64);
        set_thread_budget(1);
        assert_eq!(reserve_threads(8), 0);
        // Restore the default-derived budget for sibling tests.
        BUDGET.store(0, Ordering::Relaxed);
    }

    #[test]
    fn auto_degrades_to_serial_when_workers_hold_the_budget() {
        let _guard = budget_lock();
        set_thread_budget(4);
        // An outer level (rollout workers) holds every extra thread.
        let held = reserve_threads(3);
        assert_eq!(held, 3);
        // A nested request gets nothing, so its caller runs serially.
        assert_eq!(reserve_threads(1), 0);
        assert_eq!(reserve_threads(64), 0);
        // A thread handed back goes to the next request, and no more.
        release_threads(1);
        assert_eq!(reserve_threads(8), 1);
        release_threads(held);
        assert_eq!(reserved_threads(), 0);
        BUDGET.store(0, Ordering::Relaxed);
    }
}
