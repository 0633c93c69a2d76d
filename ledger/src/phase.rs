//! What one timed phase of a workload leaves behind, and the helpers the
//! workload drivers share.

use crate::trace::Span;
use autockt_circuits::SharedMemo;
use autockt_core::SizingEnv;
use std::time::{Duration, Instant};

/// How long a phase runs: whole rounds until a deadline, or a fixed
/// number of rounds (a traced phase repeats its untraced twin's rounds).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start rounds until this much wall-clock has passed.
    Seconds(f64),
    /// Run exactly this many rounds.
    Rounds(usize),
}

impl Budget {
    /// Whether another round should start.
    pub fn more(self, rounds_done: usize, started: Instant) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed() < Duration::from_secs_f64(s),
            Budget::Rounds(n) => rounds_done < n,
        }
    }
}

/// Counters and timings of one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Rounds run (a round is one set-up followed by a fixed list of units).
    pub rounds: usize,
    /// Wall-clock of every set-up timed (see [`Phase::setup`]).
    pub setup_s: Vec<f64>,
    /// Host-speed probe taken after each set-up, aligned with `setup_s`.
    pub setup_probe_s: Vec<f64>,
    /// Wall-clock of every unit: PPO iteration, deployed target, GA target.
    pub unit_s: Vec<f64>,
    /// Evaluations requested by every unit, aligned with `unit_s`.
    pub unit_evals: Vec<u64>,
    /// Host speed during every unit: the mean of the probes taken just
    /// before and just after it, aligned with `unit_s`.
    pub unit_probe_s: Vec<f64>,
    last_probe_s: f64,
    /// Simulator evaluations requested (memo-served ones included).
    pub evals: u64,
    /// Evaluations that returned a `SimError`.
    pub failed: u64,
    /// Evaluations that ran the simulator (memo misses).
    pub solves: u64,
    /// Evaluations served from a memo.
    pub memo_hits: u64,
    /// Shared-memo hits on an entry another worker solved.
    pub cross_memo_hits: u64,
    /// Shared-memo lock acquisitions.
    pub memo_locks: u64,
    /// Shared-memo lock acquisitions that had to wait.
    pub memo_contended: u64,
    /// Shared-memo insertions.
    pub memo_inserts: u64,
    /// Shared-memo FIFO evictions.
    pub memo_evictions: u64,
    /// Samples processed by `Ppo::update` (batch size x epochs).
    pub update_samples: u64,
    /// Nominal floating-point operations of those updates.
    pub update_flops: f64,
    /// Deployed or GA targets reached, out of `targets`.
    pub reached: usize,
    /// Deployed or GA targets attempted.
    pub targets: usize,
    /// Sum of `GaOutcome::sims`.
    pub ga_sims: u64,
    /// Per-unit counts that a seeded single-threaded rerun must repeat.
    pub fingerprint: Vec<u64>,
    /// Spans recorded (traced phases only).
    pub spans: Vec<Span>,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
}

impl Phase {
    /// Builds a round with `build(seed)`, timing it, after timing
    /// [`EXTRA_SETUPS`] throwaway builds from other seeds: set-up is short,
    /// so it is sampled every round to spread the samples over the run.
    pub fn setup<T>(&mut self, seed: u64, build: impl Fn(u64) -> T) -> T {
        for r in 0..EXTRA_SETUPS {
            let (x, secs) = time(|| build(mix(seed, r as u64)));
            drop(std::hint::black_box(x));
            self.setup_s.push(secs);
        }
        let (x, secs) = time(|| build(seed));
        self.setup_s.push(secs);
        self.last_probe_s = probe();
        self.setup_probe_s
            .resize(self.setup_s.len(), self.last_probe_s);
        x
    }

    /// Records one unit's wall-clock and evaluation count, and probes the
    /// host speed.
    pub fn unit(&mut self, secs: f64, evals: u64) {
        let after = probe();
        let before = if self.last_probe_s > 0.0 {
            self.last_probe_s
        } else {
            after
        };
        self.unit_s.push(secs);
        self.unit_evals.push(evals);
        self.unit_probe_s.push((before + after) / 2.0);
        self.last_probe_s = after;
    }

    /// Set-up times at reference host speed.
    pub fn ref_setup_s(&self) -> Vec<f64> {
        at_ref(&self.setup_s, &self.setup_probe_s)
    }

    /// Unit times at reference host speed.
    pub fn ref_unit_s(&self) -> Vec<f64> {
        at_ref(&self.unit_s, &self.unit_probe_s)
    }

    /// Median over units of evaluations per second at reference host
    /// speed.
    pub fn evals_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .ref_unit_s()
            .iter()
            .zip(&self.unit_evals)
            .map(|(s, e)| *e as f64 / s)
            .collect();
        quantile(&rates, 0.5)
    }

    /// Adds an environment's session counters.
    pub fn add_env(&mut self, env: &SizingEnv) {
        self.evals += env.sim_count();
        self.solves += env.solve_count();
        self.memo_hits += env.memo_hits();
        self.cross_memo_hits += env.cross_memo_hits();
    }

    /// Adds a shared memo's counters.
    pub fn add_memo(&mut self, memo: &SharedMemo) {
        self.memo_locks += memo.lock_acquisitions();
        self.memo_contended += memo.contended_locks();
        self.memo_inserts += memo.inserts();
        self.memo_evictions += memo.evictions();
    }
}

/// What [`probe`] takes on the reference host (2 vCPUs) when nothing else
/// slows it down.
pub const PROBE_REF_S: f64 = 1.0e-4;

/// Scales wall-clock `secs[i]`, measured while the probe took
/// `probe_s[i]`, to the reference host speed.
///
/// The reference host is shared, and its speed changes by up to 40% over
/// seconds to minutes, for all code alike. Timing the probe next to every
/// sample and scaling by `PROBE_REF_S / probe` takes that out, so runs
/// made minutes apart agree within a few percent; the raw wall-clock is
/// reported next to it.
fn at_ref(secs: &[f64], probe_s: &[f64]) -> Vec<f64> {
    secs.iter()
        .zip(probe_s)
        .map(|(s, p)| s * PROBE_REF_S / p)
        .collect()
}

/// Seconds taken by a fixed kernel that shares no code with the program
/// (20 LU factorisations of a 32 x 32 dense matrix, about 0.1 ms): how
/// fast the host runs right now.
pub fn probe() -> f64 {
    // One untimed pass first, so that the cache state the program left
    // behind does not count.
    lu_kernel(1);
    time(|| lu_kernel(20)).1
}

fn lu_kernel(reps: usize) {
    const N: usize = 32;
    for rep in 0..reps {
        let seed = std::hint::black_box(rep as f64);
        let mut a = [[0.0f64; N]; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = 1.0 / (1.0 + i.abs_diff(j) as f64 + seed);
            }
            row[i] += N as f64;
        }
        for k in 0..N {
            let (top, rest) = a.split_at_mut(k + 1);
            let pivot = &top[k];
            for row in rest {
                let f = row[k] / pivot[k];
                for (x, p) in row[k..].iter_mut().zip(&pivot[k..]) {
                    *x -= f * p;
                }
            }
        }
        std::hint::black_box(&a);
    }
}

/// Throwaway set-ups timed per round besides the round's own.
pub const EXTRA_SETUPS: usize = 4;

/// Derives an independent stream seed from the workload seed (SplitMix64
/// finalizer over `seed` and `stream`).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times `f` once, in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Whether two spec values agree within the env tests' warm-start
/// tolerance, `1e-6 * (1 + |x|)`.
pub fn within_warm_tol(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs())
}

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics); `NaN` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
