//! Fixture: nothing here may fire — prose about thread::spawn is a
//! comment, a string literal is not code, `thread_budget` is not the
//! `thread` module, and test modules may thread freely. Not compiled —
//! read by the lint's unit tests.

/// Callers wanting parallelism go through the rollout collector, never
/// `thread::spawn` — see the module docs.
pub fn describe() -> &'static str {
    "we never call thread::scope(|s| ...) here"
}

pub fn thread_budget() -> usize {
    let thread = 4;
    thread + thread_count()
}

fn thread_count() -> usize {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        let h = std::thread::spawn(|| 3);
        assert_eq!(h.join().ok(), Some(3));
        std::thread::scope(|_s| {});
    }
}
