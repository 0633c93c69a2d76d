//! Scoped-thread tile scheduler with per-thread workspaces and a
//! process-wide thread budget.
//!
//! Every parallel walk in the evaluation stack — AC frequency points,
//! noise points, corner-sweep frequency rows, BTF diagonal blocks — runs
//! through this one substrate: the work is split into contiguous chunks
//! of *tiles*, each tile owns a preallocated result slot, and each lane
//! (thread) factors and solves through its own workspace checked out of a
//! [`WorkspacePool`]. Because every kernel underneath is history-free
//! (same-pattern refactors re-run pivot selection and are bitwise-equal
//! to fresh factorizations), a tile's result depends only on its own
//! inputs — so threaded output is **bitwise-identical to serial
//! regardless of schedule**, and the dispatch between serial and threaded
//! execution is pure performance policy.
//!
//! ## The thread budget
//!
//! Parallelism nests: rollout workers (one scoped thread per environment
//! in `autockt_rl::rollout`) each evaluate circuits whose sweeps would
//! themselves like threads. Oversubscribing a machine with
//! `workers × lanes` threads loses to either level alone, so the process
//! shares one budget (default: `std::thread::available_parallelism`).
//! Outer levels win: whoever reserves first gets the threads, and inner
//! [`Parallelism::Auto`] requests degrade to serial when the budget is
//! spent. The rollout collector reserves through the same accountant (see
//! `autockt_rl::rollout::register_thread_accountant`, wired up by
//! `autockt_core`), so `workers × inner lanes ≤ budget` holds across the
//! crate boundary without `rl` depending on this crate.
//!
//! [`Parallelism::Threads`] is the explicit override: it spawns the
//! requested lanes even on a spent budget (tests and benches need to
//! exercise real thread schedules on any machine), while still recording
//! them so nested `Auto` requests back off.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many lanes a tiled walk should use — the knob threaded through
/// [`crate::linalg::sparse::SolverConfig`] into every sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Strictly serial: never spawn, never consult the budget. The
    /// reference schedule every threaded path is bitwise-equal to.
    Off,
    /// Thread when it pays: lanes are granted from the process-wide
    /// budget (so nested parallelism degrades to serial instead of
    /// oversubscribing), and call sites keep small problems serial where
    /// threading measures as a loss.
    #[default]
    Auto,
    /// Exactly this many lanes (clamped to the tile count), bypassing the
    /// budget *limit* but still counted against it so nested [`Auto`]
    /// walks back off. `Threads(0)` and `Threads(1)` are serial.
    ///
    /// [`Auto`]: Parallelism::Auto
    Threads(usize),
}

/// Explicit budget override; `0` means "unset, use
/// `available_parallelism`".
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Threads currently reserved (extra lanes + rollout workers), excluding
/// the implicit primary thread.
static RESERVED: AtomicUsize = AtomicUsize::new(0);

/// The process-wide thread budget: the total number of evaluation threads
/// (including the calling thread) the scheduler will aim for. Defaults to
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

/// Threads currently reserved against the budget (extra scheduler lanes
/// plus registered outer-level workers). The primary thread is implicit
/// and not counted.
pub fn reserved_threads() -> usize {
    RESERVED.load(Ordering::Relaxed)
}

/// Reserves up to `want` extra threads against the budget, returning how
/// many were granted: `min(want, budget - 1 - reserved)`, atomically.
/// Pair every grant with [`release_threads`]. This is the accountant the
/// rollout collector registers across the crate boundary, which is what
/// makes "outer level wins" hold: workers reserved before a sweep starts
/// leave the sweep's [`Parallelism::Auto`] request no headroom.
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

/// Whether a tiled walk over `tiles` tiles would actually run more than
/// one lane under `par` right now — the cheap dispatch check call sites
/// use before committing to the threaded code path. Advisory for `Auto`
/// (the actual grant happens at spawn time and may be smaller), exact for
/// `Off`/`Threads`.
pub fn would_parallelize(par: Parallelism, tiles: usize) -> bool {
    match par {
        Parallelism::Off => false,
        Parallelism::Threads(n) => n > 1 && tiles > 1,
        Parallelism::Auto => {
            tiles > 1
                && thread_budget()
                    .saturating_sub(1)
                    .saturating_sub(reserved_threads())
                    > 0
        }
    }
}

/// RAII budget reservation for one tiled walk.
struct Lease {
    extra: usize,
}

impl Lease {
    fn acquire(par: Parallelism, tiles: usize) -> Lease {
        let extra = match par {
            Parallelism::Off => 0,
            Parallelism::Auto => {
                let want = tiles.min(thread_budget()).saturating_sub(1);
                reserve_threads(want)
            }
            Parallelism::Threads(n) => {
                let want = n.max(1).min(tiles).saturating_sub(1);
                // Forced lanes bypass the budget limit but are still
                // recorded so nested Auto walks see them and back off.
                RESERVED.fetch_add(want, Ordering::AcqRel);
                want
            }
        };
        Lease { extra }
    }

    fn lanes(&self) -> usize {
        self.extra + 1
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        release_threads(self.extra);
    }
}

/// A pool of reusable per-lane workspaces.
///
/// Lanes check a workspace out at chunk start (constructing one only when
/// the pool is dry) and return it at chunk end, so repeated sweeps reuse
/// the same allocations across calls — the threaded analogue of the
/// serial paths' caller-held workspace. The pool holds at most as many
/// workspaces as the widest schedule that ever ran through it.
#[derive(Debug, Default)]
pub struct WorkspacePool<W> {
    free: Mutex<Vec<W>>,
}

impl<W> WorkspacePool<W> {
    /// An empty pool (const, so pools can be `static`).
    pub const fn new() -> Self {
        WorkspacePool {
            free: Mutex::new(Vec::new()),
        }
    }

    fn free(&self) -> std::sync::MutexGuard<'_, Vec<W>> {
        // A poisoned pool only means a lane panicked mid-checkout; the
        // Vec of idle workspaces is still structurally sound.
        self.free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Checks a workspace out, constructing one with `make` when the pool
    /// is dry.
    pub fn checkout_or(&self, make: impl FnOnce() -> W) -> W {
        let reused = self.free().pop();
        reused.unwrap_or_else(make)
    }

    /// Returns a workspace to the pool for the next checkout.
    pub fn restore(&self, w: W) {
        self.free().push(w);
    }

    /// Number of idle workspaces currently pooled.
    pub fn idle(&self) -> usize {
        self.free().len()
    }
}

/// Runs `chunk_fn` over `slots` split into contiguous, balanced chunks —
/// one chunk per lane, each lane with its own pooled workspace.
///
/// `chunk_fn(offset, chunk, ws)` receives the chunk's global offset into
/// `slots` (so tile `k` of the chunk is global tile `offset + k`), the
/// mutable chunk of result slots, and the lane's workspace. It is called
/// exactly once per lane; per-lane setup (preparing the workspace for a
/// solver, walking a corner boundary) belongs at its top.
///
/// Serial execution (`lanes == 1` after budget resolution) calls
/// `chunk_fn(0, slots, ws)` on the calling thread with a pooled
/// workspace — the exact arithmetic of the threaded schedule, which is
/// what makes the two bitwise-interchangeable: a tile's result may depend
/// only on the tile index and the workspace contents `chunk_fn` itself
/// establishes, never on which lane ran it.
///
/// Lane panics propagate to the caller when the scope joins.
pub fn run_chunks<T, W, M, F>(
    par: Parallelism,
    slots: &mut [T],
    pool: &WorkspacePool<W>,
    make: M,
    chunk_fn: F,
) where
    T: Send,
    W: Send,
    M: Fn() -> W + Sync,
    F: Fn(usize, &mut [T], &mut W) + Sync,
{
    let n = slots.len();
    if n == 0 {
        return;
    }
    let lease = Lease::acquire(par, n);
    let lanes = lease.lanes();
    if lanes <= 1 {
        let mut ws = pool.checkout_or(&make);
        chunk_fn(0, slots, &mut ws);
        pool.restore(ws);
        return;
    }
    let base = n / lanes;
    let extra = n % lanes;
    std::thread::scope(|scope| {
        let mut rest = slots;
        let mut offset = 0usize;
        let mut own: Option<(usize, &mut [T])> = None;
        for lane in 0..lanes {
            let len = base + usize::from(lane < extra);
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            if lane == 0 {
                // The calling thread is lane 0; run it after the spawns
                // so the other lanes start immediately.
                own = Some((offset, chunk));
            } else {
                let (chunk_fn, make) = (&chunk_fn, &make);
                scope.spawn(move || {
                    let mut ws = pool.checkout_or(make);
                    chunk_fn(offset, chunk, &mut ws);
                    pool.restore(ws);
                });
            }
            offset += len;
        }
        if let Some((offset, chunk)) = own {
            let mut ws = pool.checkout_or(&make);
            chunk_fn(offset, chunk, &mut ws);
            pool.restore(ws);
        }
    });
}

/// [`run_chunks`] for walks whose lanes need no workspace (the BTF block
/// refactor: each tile carries its own factorization buffers).
pub fn run_chunks_unit<T, F>(par: Parallelism, slots: &mut [T], chunk_fn: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    static UNIT_POOL: WorkspacePool<()> = WorkspacePool::new();
    run_chunks(
        par,
        slots,
        &UNIT_POOL,
        || (),
        |off, chunk, ()| {
            chunk_fn(off, chunk);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests asserting on the process-wide budget counters serialize
    /// through this lock so concurrent test threads can't interleave.
    fn budget_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn off_is_single_lane() {
        let mut slots = vec![0usize; 16];
        let pool = WorkspacePool::new();
        run_chunks(
            Parallelism::Off,
            &mut slots,
            &pool,
            || 0usize,
            |off, c, _| {
                assert_eq!(off, 0);
                assert_eq!(c.len(), 16);
                for (k, s) in c.iter_mut().enumerate() {
                    *s = k;
                }
            },
        );
        assert!(slots.iter().enumerate().all(|(k, &s)| s == k));
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn forced_lanes_cover_every_tile_exactly_once() {
        for lanes in [1usize, 2, 4, 7] {
            for n in [1usize, 2, 7, 29] {
                let mut slots = vec![usize::MAX; n];
                let pool = WorkspacePool::new();
                run_chunks(
                    Parallelism::Threads(lanes),
                    &mut slots,
                    &pool,
                    || (),
                    |off, chunk, ()| {
                        for (k, s) in chunk.iter_mut().enumerate() {
                            *s = off + k;
                        }
                    },
                );
                assert!(
                    slots.iter().enumerate().all(|(k, &s)| s == k),
                    "lanes={lanes} n={n}: every global tile index written once"
                );
                // Each lane restored its workspace.
                assert!(pool.idle() >= 1 && pool.idle() <= lanes.min(n));
            }
        }
    }

    #[test]
    fn pool_reuses_workspaces_across_calls() {
        let pool: WorkspacePool<Vec<u8>> = WorkspacePool::new();
        let mut slots = vec![0u8; 8];
        for _ in 0..3 {
            run_chunks(
                Parallelism::Threads(2),
                &mut slots,
                &pool,
                || Vec::with_capacity(64),
                |_, chunk, ws| {
                    ws.push(1);
                    for s in chunk.iter_mut() {
                        *s += 1;
                    }
                },
            );
        }
        // Two lanes, three calls: never more than two workspaces built.
        assert!(pool.idle() <= 2);
        assert!(slots.iter().all(|&s| s == 3));
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
        // Simulate an outer level (rollout workers) holding everything.
        let budget = thread_budget();
        let held = {
            RESERVED.fetch_add(budget, Ordering::AcqRel);
            budget
        };
        assert!(!would_parallelize(Parallelism::Auto, 1024));
        let mut slots = vec![0usize; 32];
        let pool = WorkspacePool::new();
        run_chunks(
            Parallelism::Auto,
            &mut slots,
            &pool,
            || (),
            |off, c, ()| {
                // One lane: the whole slot range in one chunk.
                assert_eq!(off, 0);
                assert_eq!(c.len(), 32);
            },
        );
        release_threads(held);
    }
}
