//! In-memory spans recorded from outside the program.
//!
//! The program under test carries no clocks; the benchmark times calls
//! into each layer's public functions from here instead:
//!
//! - [`TracedProblem`] wraps a `SizingProblem` (the `circuits.problem`
//!   layer) and delegates every trait method, timing the four `simulate*`
//!   entry points under distinct span names;
//! - [`TracedEnv`] wraps a `SizingEnv` (the `core.env` layer) and times
//!   `Env::step`, `Env::reset` and `SizingEnv::reset_with_target`;
//! - the workload drivers open spans around `collect_parallel`,
//!   `Ppo::update`, trajectories and `ga_solve`.
//!
//! Every span has a name, start, end, parent and run id. Spans land in a
//! per-thread buffer; [`TracedEnv`] moves its thread's spans into its own
//! buffer after every call, so spans recorded on short-lived rollout
//! threads survive them. Recording is off until [`enable`] is called, and
//! then every hook costs two clock reads and one push.

use autockt_circuits::{ParamSpec, SimMode, SizingProblem, SpecDef};
use autockt_core::SizingEnv;
use autockt_rl::env::{Env, StepResult};
use autockt_sim::dc::WarmState;
use autockt_sim::{SimError, SolverConfig};
use rand::rngs::StdRng;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Span names of the four `SizingProblem::simulate*` entry points.
pub const SIMULATE: [&str; 4] = [
    "circuits.simulate",
    "circuits.simulate_warm",
    "circuits.simulate_cfg",
    "circuits.simulate_warm_cfg",
];
/// Span name of `Env::step` on a [`TracedEnv`].
pub const ENV_STEP: &str = "core.env.step";
/// Span name of `Env::reset` / `SizingEnv::reset_with_target`.
pub const ENV_RESET: &str = "core.env.reset";

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 at the root.
    pub parent: u64,
    /// Unit of work the span belongs to (iteration, trajectory, GA run).
    pub run: u64,
    /// Layer-qualified name.
    pub name: &'static str,
    /// Start, in nanoseconds since the first clock read of the process.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Recording thread (small integer, in first-use order).
    pub thread: u64,
    /// The `SimError` variant of a failed simulate call.
    pub tag: Option<&'static str>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Clone, Copy)]
struct Ctx {
    parent: u64,
    run: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static CTX: Cell<Ctx> = const { Cell::new(Ctx { parent: 0, run: 0 }) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sets the run id that spans opened on this thread inherit.
pub fn set_run(run: u64) {
    CTX.with(|c| c.set(Ctx { parent: 0, run }));
}

/// A span that has started and not yet ended; spans opened on this thread
/// meanwhile become its children.
pub struct Open {
    id: u64,
    saved: Ctx,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The `(parent, run)` context that children on *other* threads
    /// should record under (see [`TracedEnv::context`]).
    pub fn context(&self) -> (u64, u64) {
        (self.id, self.saved.run)
    }
}

/// Opens a span, or returns `None` while recording is off.
pub fn open(name: &'static str) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let saved = CTX.with(Cell::get);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    CTX.with(|c| {
        c.set(Ctx {
            parent: id,
            run: saved.run,
        })
    });
    Some(Open {
        id,
        saved,
        name,
        start_ns: now_ns(),
    })
}

/// Ends a span opened by [`open`] and files it in this thread's buffer.
pub fn close(open: Option<Open>, tag: Option<&'static str>) {
    let Some(o) = open else { return };
    let end_ns = now_ns();
    CTX.with(|c| c.set(o.saved));
    let span = Span {
        id: o.id,
        parent: o.saved.parent,
        run: o.saved.run,
        name: o.name,
        start_ns: o.start_ns,
        end_ns,
        thread: THREAD.with(|t| *t),
        tag,
    };
    LOCAL.with(|l| l.borrow_mut().push(span));
}

/// Times `f` as one span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let o = open(name);
    let out = f();
    close(o, None);
    out
}

/// Runs `f` with this thread's span context set to `ctx`.
fn within<T>(ctx: Option<(u64, u64)>, f: impl FnOnce() -> T) -> T {
    let Some((parent, run)) = ctx else {
        return f();
    };
    let saved = CTX.with(|c| c.replace(Ctx { parent, run }));
    let out = f();
    CTX.with(|c| c.set(saved));
    out
}

/// Takes every span recorded on this thread so far.
pub fn drain() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// The `SimError` variant name of `e`.
fn variant(e: &SimError) -> &'static str {
    match e {
        SimError::SingularMatrix { .. } => "SingularMatrix",
        SimError::SingularSparse { .. } => "SingularSparse",
        SimError::StructurallySingular { .. } => "StructurallySingular",
        SimError::DcNoConvergence { .. } => "DcNoConvergence",
        SimError::TranNoConvergence { .. } => "TranNoConvergence",
        SimError::MeasureFailed { .. } => "MeasureFailed",
        SimError::InvalidOptions { .. } => "InvalidOptions",
        SimError::BadNetlist { .. } => "BadNetlist",
    }
}

/// Every `SimError` variant name, in declaration order.
pub const SIM_ERROR_VARIANTS: [&str; 8] = [
    "SingularMatrix",
    "SingularSparse",
    "StructurallySingular",
    "DcNoConvergence",
    "TranNoConvergence",
    "MeasureFailed",
    "InvalidOptions",
    "BadNetlist",
];

/// A `SizingProblem` that delegates every trait method to `inner`, counts
/// the `simulate*` calls that return a `SimError`, and, while recording is
/// on, times them.
///
/// Every method is forwarded, defaulted ones included: a missing
/// `simulate_warm*` forward would route warm sessions through the trait's
/// cold default, which the benchmark's reconciliation detects as
/// `circuits.simulate` spans where `circuits.simulate_warm` ones belong.
pub struct TracedProblem {
    inner: Arc<dyn SizingProblem>,
    failures: AtomicU64,
}

impl TracedProblem {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn SizingProblem>) -> Self {
        TracedProblem {
            inner,
            failures: AtomicU64::new(0),
        }
    }

    /// `simulate*` calls so far that returned a `SimError`.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    fn timed(
        &self,
        name: &'static str,
        f: impl FnOnce() -> Result<Vec<f64>, SimError>,
    ) -> Result<Vec<f64>, SimError> {
        let o = open(name);
        let out = f();
        if out.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        close(o, out.as_ref().err().map(variant));
        out
    }
}

impl SizingProblem for TracedProblem {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn params(&self) -> &[ParamSpec] {
        self.inner.params()
    }

    fn specs(&self) -> &[SpecDef] {
        self.inner.specs()
    }

    fn simulate(&self, idx: &[usize], mode: SimMode) -> Result<Vec<f64>, SimError> {
        self.timed(SIMULATE[0], || self.inner.simulate(idx, mode))
    }

    fn simulate_warm(
        &self,
        idx: &[usize],
        mode: SimMode,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        self.timed(SIMULATE[1], || self.inner.simulate_warm(idx, mode, state))
    }

    fn solver_config(&self) -> SolverConfig {
        self.inner.solver_config()
    }

    fn simulate_cfg(
        &self,
        idx: &[usize],
        mode: SimMode,
        cfg: SolverConfig,
    ) -> Result<Vec<f64>, SimError> {
        self.timed(SIMULATE[2], || self.inner.simulate_cfg(idx, mode, cfg))
    }

    fn simulate_warm_cfg(
        &self,
        idx: &[usize],
        mode: SimMode,
        cfg: SolverConfig,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        self.timed(SIMULATE[3], || {
            self.inner.simulate_warm_cfg(idx, mode, cfg, state)
        })
    }

    fn cardinalities(&self) -> Vec<usize> {
        self.inner.cardinalities()
    }

    fn value(&self, p: usize, i: usize) -> f64 {
        self.inner.value(p, i)
    }

    fn log10_space_size(&self) -> f64 {
        self.inner.log10_space_size()
    }
}

/// An environment that times every call into the `SizingEnv` it wraps.
pub struct TracedEnv {
    /// The wrapped environment.
    pub inner: SizingEnv,
    /// `(parent, run)` for spans recorded on threads that did not open
    /// the parent span themselves (rollout workers); `None` inherits the
    /// calling thread's context.
    pub context: Option<(u64, u64)>,
    /// Spans recorded by this env's calls, children included.
    pub spans: Vec<Span>,
}

impl TracedEnv {
    /// Wraps `inner`.
    pub fn new(inner: SizingEnv) -> Self {
        TracedEnv {
            inner,
            context: None,
            spans: Vec::new(),
        }
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SizingEnv) -> T) -> T {
        let inner = &mut self.inner;
        let out = within(self.context, || {
            let o = open(name);
            let out = f(inner);
            close(o, None);
            out
        });
        if self.context.is_some() {
            self.spans.append(&mut drain());
        }
        out
    }

    /// Timed `SizingEnv::reset_with_target`.
    pub fn reset_with_target(&mut self, target: Vec<f64>) -> Vec<f64> {
        self.call(ENV_RESET, |e| e.reset_with_target(target))
    }
}

impl Env for TracedEnv {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_dims(&self) -> Vec<usize> {
        self.inner.action_dims()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.call(ENV_RESET, |e| e.reset(rng))
    }

    fn step(&mut self, action: &[usize]) -> StepResult {
        self.call(ENV_STEP, |e| e.step(action))
    }
}

/// Self time of every span with children: its duration minus the part of
/// its interval that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = kids.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"tag\":{}}}",
            s.id,
            s.parent,
            s.run,
            s.name,
            s.start_ns,
            s.end_ns,
            s.thread,
            s.tag.map_or("null".to_string(), |t| format!("\"{t}\""))
        )?;
    }
    w.flush()
}
