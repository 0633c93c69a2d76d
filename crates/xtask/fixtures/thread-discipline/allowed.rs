//! Fixture: raw thread sites carrying justification comments do not
//! fire. Not compiled — read by the lint's unit tests.

pub fn justified() {
    // lint:allow(thread-discipline) — one-shot watchdog outside the
    // evaluation path; never competes with the rollout workers' budget.
    let h = std::thread::spawn(|| ());
    let _ = h.join();
    // lint:allow(thread-discipline) — structured teardown helper, joins
    // before returning and holds no workspace.
    std::thread::scope(|_s| {});
}
