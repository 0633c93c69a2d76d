//! The sizing-problem abstraction: what AutoCkt needs to know about a
//! circuit in order to size it.
//!
//! A [`SizingProblem`] is the boundary between the learning framework and
//! the simulation environment in Fig. 1 of the paper: a discretized
//! parameter grid, a list of design specifications with their target
//! sampling ranges, and a black-box `parameters -> measured specs`
//! evaluation (schematic or post-layout).

use autockt_sim::ac::{ac_sweep_corners, AcResponse, AcSolver, AcWorkspace, StopLevel};
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint, WarmState};
use autockt_sim::device::Pvt;
use autockt_sim::netlist::{Circuit, Node};
use autockt_sim::noise::{noise_analysis_corners, NoiseResult};
use autockt_sim::pex::{extract, PexConfig};
use autockt_sim::{SimError, SolverConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One tunable circuit parameter with its discrete grid of physical values
/// (the paper's `[start, end, increment]` notation expanded).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name (e.g. `"w_in"`, `"cc"`).
    pub name: &'static str,
    /// The grid of physical values (SI units), strictly increasing.
    pub values: Vec<f64>,
}

impl ParamSpec {
    /// Builds a grid from `[start, end, increment]` inclusive, times a
    /// `scale` factor (matching the array notation used in the paper).
    ///
    /// # Panics
    ///
    /// Panics unless `start <= end` and `increment > 0`.
    pub fn swept(name: &'static str, start: f64, end: f64, increment: f64, scale: f64) -> Self {
        assert!(start <= end && increment > 0.0, "bad sweep for {name}");
        // Generate by integer index: repeated `v += increment` accumulates
        // rounding error, so long sweeps could gain or lose a grid point
        // relative to the paper's `[start, end, increment]` notation.
        let steps = ((end - start) / increment + 1e-6).floor() as usize;
        let values = (0..=steps)
            .map(|i| (start + i as f64 * increment) * scale)
            .collect();
        ParamSpec { name, values }
    }

    /// Number of grid points `K`.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }
}

/// How a design specification enters the objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// Hard constraint: measured value must be >= target (gain, bandwidth,
    /// phase margin).
    HardMin,
    /// Hard constraint: measured value must be <= target (settling time,
    /// noise).
    HardMax,
    /// Soft objective minimized subject to the hard constraints (the
    /// paper's `o_th`; bias current / power).
    Minimize,
}

/// One design specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecDef {
    /// Specification name (e.g. `"gain"`).
    pub name: &'static str,
    /// Unit for display (e.g. `"V/V"`, `"Hz"`).
    pub unit: &'static str,
    /// Constraint direction.
    pub kind: SpecKind,
    /// Lower bound of the target sampling range.
    pub lo: f64,
    /// Upper bound of the target sampling range.
    pub hi: f64,
    /// Value reported when the measurement fails outright (e.g. no
    /// unity-gain crossing): maximally pessimistic for the constraint
    /// direction.
    pub fail_value: f64,
}

/// Simulation fidelity requested from [`SizingProblem::simulate`]. Every
/// fidelity is one corner list evaluated by the [`CornerEvaluator`] (see
/// [`CornerEvaluator::for_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Schematic-level simulation at the nominal PVT corner.
    #[default]
    Schematic,
    /// Post-layout-extracted simulation at the nominal corner.
    Pex,
    /// Post-layout-extracted simulation, worst case across the PVT corner
    /// set (the configuration used for Table IV).
    PexWorstCase,
}

/// Configuration of the engine-run settling stage
/// ([`CornerEvaluator::with_settling`]): how many trapezoidal steps each
/// corner integrates, how the shared time window scales with the corner
/// set's bandwidth, and the band the settling time is measured in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettleSpec {
    /// Trapezoidal integration steps per corner (the TIA uses 2048).
    pub steps: usize,
    /// Time window as a multiple of the slowest valid corner's cutoff
    /// period: `t_stop = window / min corner cutoff`, shared by the whole
    /// corner set.
    pub window: f64,
    /// Settling band as a fraction of the step's transition (the TIA
    /// uses 0.02), as [`autockt_sim::measure::settling_time`] reads it.
    pub band: f64,
}

/// One corner's result from the engine's settle stage: the settling
/// time of its linear step response, or the error that corner hit —
/// a solver error ([`SimError::InvalidOptions`],
/// [`SimError::SingularMatrix`]) from the integration, or the
/// [`SimError::MeasureFailed`] of a response that is non-finite, has no
/// transition or has not settled in the window.
pub type SettleRecord = Result<f64, SimError>;

/// One corner's concrete evaluation inputs, produced by a topology's
/// builder closure: the netlist plus whatever the measurement needs to
/// interpret it.
#[derive(Debug, Clone)]
pub struct CornerCase {
    /// The netlist evaluated at this corner. The builder returns the
    /// schematic; an engine with an extraction config replaces it with
    /// its PEX extraction before any stage runs.
    pub ckt: Circuit,
    /// Output node driven and measured by the AC sweep.
    pub out: Node,
}

/// The one evaluation engine behind every [`SimMode`]: owns the corner
/// list, the extraction decision and the per-corner warm-start slots, so a
/// topology contributes only its circuit-builder closure and its
/// per-corner spec measurement (the worst-case fold runs on the
/// topology's spec definitions). `Schematic` and `Pex` are one corner at
/// [`Pvt::nominal`]; `PexWorstCase` is the PVT corner set (see
/// [`CornerEvaluator::for_mode`]).
///
/// An evaluation runs stage-major: every corner is built (and extracted),
/// then every corner's operating point is solved, then the AC sweeps, the
/// optional noise and settling stages, and finally the per-corner
/// measurements.
///
/// The AC and noise stages each run one loop of corner-kernel calls
/// ([`ac_sweep_corners`], [`noise_analysis_corners`]) over groups of
/// corners; warm or cold only picks the groups. A warm evaluation hands
/// the kernels the whole corner list at once: at dense-mesh dims they run
/// one shared adjoint row per frequency point (one base factorization
/// across the corner set, each corner's adjoint `A_b⁻ᵀ e_out` recovered
/// by a small Woodbury correction), and the scalar kernel per corner
/// where that cannot pay. A cold evaluation hands them one corner per
/// call, which always takes the scalar kernel — the reference path.
/// Settling runs [`AcSolver::step_settling_time`] per corner either way,
/// which measures inside the blocked propagator and keeps no `(t, y)`
/// record. When
/// several corners fail, the reported `SimError` is the lowest-slot
/// failure of the first stage that surfaced one.
#[derive(Debug, Clone)]
pub struct CornerEvaluator {
    corners: Vec<Pvt>,
    pex: Option<PexConfig>,
    dc_opts: DcOptions,
    freqs: Vec<f64>,
    stop: StopLevel,
    noise_freqs: Option<Vec<f64>>,
    settle: Option<SettleSpec>,
}

impl CornerEvaluator {
    /// Creates an engine over `corners`, in slot order (warm-start slots
    /// are keyed by the index), solving operating points with `dc_opts`
    /// and sweeping `freqs` at every corner up to the first downward
    /// crossing of `stop`, the level the topology's AC specs read (see
    /// [`StopLevel`]). The builder's netlists are evaluated as built (no
    /// extraction).
    pub fn new(corners: Vec<Pvt>, dc_opts: DcOptions, freqs: Vec<f64>, stop: StopLevel) -> Self {
        CornerEvaluator {
            corners,
            pex: None,
            dc_opts,
            freqs,
            stop,
            noise_freqs: None,
            settle: None,
        }
    }

    /// The engine of fidelity `mode` — the one place a [`SimMode`] is
    /// mapped to a corner list and an extraction step: `Schematic`
    /// evaluates the schematic at the nominal corner ([`Pvt::nominal`]),
    /// `Pex` its `pex` extraction at the nominal corner, and
    /// `PexWorstCase` the extraction at every corner of
    /// [`Pvt::corner_set`], the paper's Table IV configuration.
    pub fn for_mode(
        mode: SimMode,
        pex: &PexConfig,
        dc_opts: DcOptions,
        freqs: Vec<f64>,
        stop: StopLevel,
    ) -> Self {
        let (corners, pex) = match mode {
            SimMode::Schematic => (vec![Pvt::nominal()], None),
            SimMode::Pex => (vec![Pvt::nominal()], Some(pex.clone())),
            SimMode::PexWorstCase => (Pvt::corner_set(), Some(pex.clone())),
        };
        CornerEvaluator {
            pex,
            ..CornerEvaluator::new(corners, dc_opts, freqs, stop)
        }
    }

    /// Enables a per-corner noise analysis over `freqs`, measured at each
    /// corner's output node and temperature, and hands the result to the
    /// measure closure. Running noise *inside* the engine (instead of in
    /// the closure) is what lets warm evaluations share work across the
    /// corner set: [`noise_analysis_corners`] over the whole list runs, at
    /// dense-mesh dims, the adjoint row [`ac_sweep_corners`] runs — the
    /// base corner factored once per point, one adjoint vector per corner
    /// Woodbury-corrected from the base's adjoint solves — and reads every
    /// corner's gain and PSD off it. Cold evaluations and stock dims run
    /// the scalar kernel per corner.
    pub fn with_noise(mut self, freqs: Vec<f64>) -> Self {
        self.noise_freqs = Some(freqs);
        self
    }

    /// Enables a per-corner linear step-response settling stage and hands
    /// each corner's [`SettleRecord`] (its settling time within
    /// `spec.band`) to the measure closure. The engine first sweeps every
    /// corner, then integrates all valid corners (those with a positive
    /// -3 dB cutoff) over **one shared time window**
    /// `spec.window / min cutoff`; corners without a valid cutoff receive
    /// `None` (topologies map that to the spec's fail value). With one
    /// corner the window is that corner's own `spec.window / cutoff`.
    ///
    /// Every corner runs [`AcSolver::step_settling_time`]: the blocked
    /// propagator of [`AcSolver::step_response`], measured block by block
    /// without building the record, bitwise the settling time of that
    /// record.
    pub fn with_settling(mut self, spec: SettleSpec) -> Self {
        self.settle = Some(spec);
        self
    }

    /// Runs the settling stage over the solved corner set: picks the
    /// shared time window from the slowest valid corner cutoff, then
    /// measures every valid corner's settling time. Returns `None` when
    /// no settle stage is configured; per-corner `None` marks an invalid
    /// cutoff (no settling result).
    fn settle_stage(
        &self,
        solvers: &[AcSolver<'_>],
        outs: &[Node],
        resps: &[AcResponse],
    ) -> Option<Vec<Option<SettleRecord>>> {
        let spec = self.settle?;
        let mut slots: Vec<Option<SettleRecord>> = (0..solvers.len()).map(|_| None).collect();
        let mut live = Vec::new();
        let mut min_cutoff = f64::INFINITY;
        for (i, r) in resps.iter().enumerate() {
            if let Ok(c) = r.f_3db() {
                if c > 0.0 {
                    min_cutoff = min_cutoff.min(c);
                    live.push(i);
                }
            }
        }
        if live.is_empty() {
            return Some(slots);
        }
        let t_stop = spec.window / min_cutoff;
        for i in live {
            slots[i] = Some(solvers[i].step_settling_time(outs[i], t_stop, spec.steps, spec.band));
        }
        Some(slots)
    }

    /// Evaluates every corner and reduces the per-corner spec rows to
    /// the worst case in each spec's constraint direction (one corner
    /// returns its row unchanged).
    ///
    /// `build(slot, pvt)` produces corner `slot`'s schematic netlist at
    /// `pvt`, which the engine extracts when it carries an extraction
    /// config. `measure(slot, case, op, resp, noise, settle)` turns corner
    /// `slot`'s case, operating point, swept response and — when
    /// [`CornerEvaluator::with_noise`] / [`CornerEvaluator::with_settling`]
    /// are set, `None` otherwise — noise analysis and settling result into
    /// a spec row. The swept response is the solved prefix of the grid,
    /// through the point that completes the first downward crossing of
    /// the engine's [`StopLevel`] (the whole grid if it never crosses):
    /// every spec reads only that prefix, so the points after it are not
    /// solved, and a point that would fail there cannot fail the corner.
    /// A noise failure is handed to the closure rather than
    /// aborting the corner, so topologies can map it to a spec's fail
    /// value; likewise a settling result's `Err` lets the closure decide,
    /// and a corner without a valid cutoff gets no result. `state` carries
    /// the per-corner warm slots; `None` evaluates cold.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOptions`] on an empty corner list; otherwise
    /// the first corner failure (unsolvable operating point, singular
    /// sweep, or measurement error) — same contract as
    /// `SizingProblem::simulate`.
    pub fn evaluate<B, M>(
        &self,
        specs: &[SpecDef],
        mut build: B,
        mut measure: M,
        mut state: Option<&mut WarmState>,
    ) -> Result<Vec<f64>, SimError>
    where
        B: FnMut(usize, &Pvt) -> CornerCase,
        M: FnMut(
            usize,
            &CornerCase,
            &OpPoint,
            &AcResponse,
            Option<&Result<NoiseResult, SimError>>,
            Option<&SettleRecord>,
        ) -> Result<Vec<f64>, SimError>,
    {
        if self.corners.is_empty() {
            return Err(SimError::InvalidOptions {
                what: "empty corner plan",
            });
        }
        let cases: Vec<CornerCase> = self
            .corners
            .iter()
            .enumerate()
            .map(|(slot, pvt)| {
                let mut case = build(slot, pvt);
                if let Some(pex) = &self.pex {
                    case.ckt = extract(&case.ckt, pex);
                }
                case
            })
            .collect();
        // Every corner solves before any failure surfaces, so each warm
        // slot is refreshed (or cleared) whatever its siblings did.
        let op_results: Vec<Result<OpPoint, SimError>> = cases
            .iter()
            .enumerate()
            .map(|(slot, c)| match state.as_deref_mut() {
                Some(st) => st.solve(slot, &c.ckt, &self.dc_opts),
                None => dc_operating_point(&c.ckt, &self.dc_opts),
            })
            .collect();
        let ops = op_results.into_iter().collect::<Result<Vec<_>, _>>()?;
        let solvers: Vec<AcSolver<'_>> = cases
            .iter()
            .zip(&ops)
            .map(|(c, op)| AcSolver::new(&c.ckt, op))
            .collect();
        let outs: Vec<Node> = cases.iter().map(|c| c.out).collect();
        // Each stage is one loop of corner-kernel calls over groups of
        // `group` corners: the whole list at once when warm; one corner
        // per call when cold, which keeps every corner on the scalar
        // kernel, the reference bits.
        let group = if state.is_some() { cases.len() } else { 1 };
        let mut cold_ws = AcWorkspace::new();
        let ws = state.map_or(&mut cold_ws, WarmState::ac_workspace);
        // The lowest-slot sweep failure ends the evaluation; a cold one
        // sweeps no corner after it.
        let resps: Vec<AcResponse> = solvers
            .chunks(group)
            .zip(outs.chunks(group))
            .flat_map(|(s, o)| ac_sweep_corners(s, &self.freqs, o, Some(self.stop), ws))
            .collect::<Result<_, _>>()?;
        // Per-corner noise failures stay in the row: the measure closure
        // decides whether one is fatal.
        let noises: Option<Vec<Result<NoiseResult, SimError>>> =
            self.noise_freqs.as_ref().map(|nf| {
                let op_refs: Vec<&OpPoint> = ops.iter().collect();
                let temps: Vec<f64> = self.corners.iter().map(Pvt::temp_kelvin).collect();
                solvers
                    .chunks(group)
                    .zip(op_refs.chunks(group))
                    .zip(outs.chunks(group).zip(temps.chunks(group)))
                    .flat_map(|((s, op), (o, t))| noise_analysis_corners(s, op, o, nf, t, ws))
                    .collect()
            });
        let settles = self.settle_stage(&solvers, &outs, &resps);
        let mut rows = Vec::with_capacity(cases.len());
        for (slot, ((case, op), resp)) in cases.iter().zip(&ops).zip(&resps).enumerate() {
            rows.push(measure(
                slot,
                case,
                op,
                resp,
                noises.as_ref().map(|v| &v[slot]),
                settles.as_ref().and_then(|v| v[slot].as_ref()),
            )?);
        }
        Ok(worst_case(specs, &rows))
    }
}

/// The unity-crossing specs of an amplifier's corner row: `ugbw` and the
/// phase margin at it, from one crossing search, each replaced by its
/// fail value when the response has no unity crossing.
pub(crate) fn unity_specs(resp: &AcResponse, ugbw_fail: f64, pm_fail: f64) -> (f64, f64) {
    match resp.ugbw() {
        Ok(fu) => (fu, resp.phase_margin_at(fu).unwrap_or(pm_fail)),
        Err(_) => (ugbw_fail, pm_fail),
    }
}

/// Reduces per-corner spec rows to the worst case in each spec's
/// constraint direction (paper: "taking the worst performing metric as
/// the specification") — the fold every topology's `PexWorstCase`
/// evaluation shares.
///
/// A NaN entry counts as that spec's `fail_value`, in every row and on a
/// one-row plan too: `f64::min`/`max` return the other operand for a NaN,
/// so a diverged corner would otherwise read as the best of its siblings.
///
/// # Panics
///
/// Panics on an empty corner set.
pub fn worst_case(specs: &[SpecDef], per_corner: &[Vec<f64>]) -> Vec<f64> {
    assert!(!per_corner.is_empty());
    let value = |i: usize, v: f64| if v.is_nan() { specs[i].fail_value } else { v };
    let mut out: Vec<f64> = per_corner[0]
        .iter()
        .enumerate()
        .map(|(i, &v)| value(i, v))
        .collect();
    for row in &per_corner[1..] {
        for (i, &v) in row.iter().enumerate() {
            let v = value(i, v);
            out[i] = match specs[i].kind {
                SpecKind::HardMin => out[i].min(v),
                SpecKind::HardMax | SpecKind::Minimize => out[i].max(v),
            };
        }
    }
    out
}

/// A parameterised circuit topology that AutoCkt can size.
///
/// Implementations must be pure: the same parameter indices and mode always
/// produce the same spec vector. All stochastic aspects of the framework
/// (target sampling, policy sampling) live elsewhere.
pub trait SizingProblem: Send + Sync {
    /// Human-readable topology name.
    fn name(&self) -> &'static str;

    /// The discrete parameter grids.
    fn params(&self) -> &[ParamSpec];

    /// The design specifications, in the order `simulate` reports them.
    fn specs(&self) -> &[SpecDef];

    /// Evaluates the circuit at grid indices `idx` (one per parameter).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the operating point cannot be solved at
    /// all; per-measurement failures are reported through each spec's
    /// `fail_value` instead so a partially-working design still produces an
    /// informative observation.
    fn simulate(&self, idx: &[usize], mode: SimMode) -> Result<Vec<f64>, SimError>;

    /// Like [`SizingProblem::simulate`], threading warm-start state through
    /// the DC solve(s): the previous operating point seeds the Newton
    /// iteration, with the usual cold start + gmin homotopy as fallback.
    ///
    /// The default implementation ignores `state` and evaluates cold.
    /// Overrides must converge to the same measured specs as `simulate`
    /// up to solver tolerance (the warm path changes the iteration
    /// trajectory, not the fixed point), and must key `state` slots per
    /// circuit variant (e.g. one per PVT corner).
    ///
    /// # Errors
    ///
    /// Same contract as [`SizingProblem::simulate`].
    fn simulate_warm(
        &self,
        idx: &[usize],
        mode: SimMode,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        let _ = state;
        self.simulate(idx, mode)
    }

    /// The solver configuration of this problem's evaluations. The
    /// simulator has no solver settings left, so [`SolverConfig`] is
    /// field-less; this method and the two `*_cfg` methods below are kept
    /// only so that external implementors and wrappers of this trait keep
    /// compiling. Nothing in this workspace calls them.
    fn solver_config(&self) -> SolverConfig {
        SolverConfig
    }

    /// [`SizingProblem::simulate`] under a solver configuration, which is
    /// ignored (see [`SizingProblem::solver_config`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`SizingProblem::simulate`].
    fn simulate_cfg(
        &self,
        idx: &[usize],
        mode: SimMode,
        cfg: SolverConfig,
    ) -> Result<Vec<f64>, SimError> {
        let _ = cfg;
        self.simulate(idx, mode)
    }

    /// [`SizingProblem::simulate_warm`] under a solver configuration,
    /// which is ignored (see [`SizingProblem::solver_config`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`SizingProblem::simulate`].
    fn simulate_warm_cfg(
        &self,
        idx: &[usize],
        mode: SimMode,
        cfg: SolverConfig,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        let _ = cfg;
        self.simulate_warm(idx, mode, state)
    }

    /// Grid cardinalities `K_i`, convenience over [`SizingProblem::params`].
    fn cardinalities(&self) -> Vec<usize> {
        self.params().iter().map(ParamSpec::cardinality).collect()
    }

    /// Physical value of parameter `p` at grid index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `i` is out of range.
    fn value(&self, p: usize, i: usize) -> f64 {
        self.params()[p].values[i]
    }

    /// log10 of the total design-space size (the paper quotes 1e14 for the
    /// two-stage op-amp and 1e11 for the negative-gm OTA).
    fn log10_space_size(&self) -> f64 {
        self.params()
            .iter()
            .map(|p| (p.cardinality() as f64).log10())
            .sum()
    }
}

/// One memoized evaluation: the measured specs plus the warm-start slots
/// as of the solve, restored on hits so that a later miss still
/// warm-starts from the operating point of the *adjacent* grid point just
/// revisited (never from one arbitrarily many notches back), and the id of
/// the worker that inserted it (for cross-worker hit accounting).
struct SharedEntry {
    specs: Result<Vec<f64>, SimError>,
    warm: Vec<Option<Vec<f64>>>,
    owner: u64,
}

/// Unwraps the memo lock, recovering from poisoning instead of cascading
/// the panic: a poisoned lock means some *other* worker panicked while
/// holding it, and every mutation (probe, insert) leaves the map valid
/// between statements, with entries immutable once inserted. Evaluation
/// must keep running on the surviving workers.
fn recover<'m, T>(
    lock: Result<
        std::sync::MutexGuard<'m, T>,
        std::sync::PoisonError<std::sync::MutexGuard<'m, T>>,
    >,
) -> std::sync::MutexGuard<'m, T> {
    match lock {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The evaluation memo: one map from the discrete parameter index vector
/// to the measured specs, behind one mutex. Every [`EvalSession`] owns
/// one; training hands the same memo to all of its rollout workers
/// ([`EvalSession::with_shared_memo`]), so a grid point solved by *any*
/// worker serves every sibling's revisit (episodes all restart from the
/// grid center, so cross-worker overlap is heavy).
///
/// The lock is held only for the microseconds of a map probe or insert,
/// never across a solve. At capacity the memo stops inserting: existing
/// entries keep serving hits, new results are no longer cached, and
/// nothing is ever evicted. Explore-heavy workloads, where exact revisits
/// are rare and nearly every step would insert a never-reused entry,
/// cannot grow memory linearly with training length, and since episodes
/// restart from the grid center the earliest entries are also the
/// likeliest to be revisited. When two workers solve the same point
/// concurrently, the first insertion wins, so every later hit serves one
/// value.
///
/// Warm-start state stays private per worker: the memo stores warm
/// *snapshots* (restored on hits so a later miss still warm-starts from an
/// adjacent grid point), but each session keeps its own [`WarmState`].
/// With warm-starting disabled, pooled results are bitwise-identical to
/// per-env memo runs (solves are pure); with it enabled, a hit may serve
/// specs solved from another worker's warm trajectory, which agree within
/// solver tolerance (the same contract as `simulate_warm` itself).
///
/// # Examples
///
/// ```
/// use autockt_circuits::prelude::*;
/// use autockt_circuits::problem::{EvalSession, SharedMemo};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let tia = Tia::default();
/// let memo = Arc::new(SharedMemo::new(1 << 16));
/// let mut a = EvalSession::borrowed(&tia, SimMode::Schematic)
///     .with_shared_memo(Arc::clone(&memo));
/// let mut b = EvalSession::borrowed(&tia, SimMode::Schematic)
///     .with_shared_memo(Arc::clone(&memo));
/// let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
/// let first = a.evaluate(&idx)?; // solved by session a
/// let pooled = b.evaluate(&idx)?; // served from the shared memo
/// assert_eq!(first, pooled);
/// assert_eq!(b.solve_count(), 0);
/// assert_eq!(b.cross_memo_hits(), 1);
/// # Ok(())
/// # }
/// ```
pub struct SharedMemo {
    /// Entries are boxed so that the table holds only a key and a
    /// pointer per slot: growing the table then copies a third of the
    /// bytes it would with the entries inline, which keeps the peak
    /// memory of the copy (old and new table both live) small.
    map: Mutex<HashMap<Vec<usize>, Box<SharedEntry>>>,
    capacity: usize,
    /// Lock acquisitions that found the lock already held (`try_lock`
    /// miss → blocking wait): the direct contention signal.
    contended: AtomicU64,
    /// Total hot-path lock acquisitions (probes, inserts, contains) —
    /// the denominator for the contention ratio. Counted at the lock
    /// itself, so a get-miss followed by an insert counts as two.
    acquisitions: AtomicU64,
    hits: AtomicU64,
    cross_hits: AtomicU64,
    inserts: AtomicU64,
    next_worker: AtomicU64,
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("cross_hits", &self.cross_hits())
            .field("contended_locks", &self.contended_locks())
            .finish()
    }
}

impl SharedMemo {
    /// Default bound on memoized grid points: ~50 MB at the largest
    /// topology's entry size, far above any revisit-relevant working set.
    pub const DEFAULT_CAPACITY: usize = 1 << 18;

    /// Creates an empty memo holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SharedMemo {
            map: Mutex::new(HashMap::new()),
            capacity,
            contended: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            cross_hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            next_worker: AtomicU64::new(0),
        }
    }

    /// A memo of [`SharedMemo::DEFAULT_CAPACITY`] entries.
    pub fn with_default_capacity() -> Self {
        SharedMemo::new(SharedMemo::DEFAULT_CAPACITY)
    }

    /// Registers a new worker, returning its id (used to distinguish
    /// cross-worker hits from a worker re-reading its own insertions).
    fn register_worker(&self) -> u64 {
        self.next_worker.fetch_add(1, Ordering::Relaxed)
    }

    /// Locks the map, counting the acquisition as contended when another
    /// worker already holds it (the hot paths all come through here, so
    /// [`SharedMemo::contended_locks`] reflects real probe/insert
    /// contention, not maintenance reads).
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<usize>, Box<SharedEntry>>> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.map.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                recover(self.map.lock())
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }

    /// Looks up `idx`, cloning the specs out (the lock is never held
    /// across a solve) and, when `warm` is given, restoring into it the
    /// warm snapshot taken at the original solve. Returns the specs and
    /// whether the entry was inserted by a *different* worker than
    /// `worker`.
    fn get(
        &self,
        idx: &[usize],
        worker: u64,
        warm: Option<&mut WarmState>,
    ) -> Option<(Result<Vec<f64>, SimError>, bool)> {
        let map = self.lock();
        let e = map.get(idx)?;
        let cross = e.owner != worker;
        self.hits.fetch_add(1, Ordering::Relaxed);
        if cross {
            self.cross_hits.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(w) = warm {
            w.restore(&e.warm);
        }
        Some((e.specs.clone(), cross))
    }

    /// Whether `idx` is currently memoized.
    pub fn contains(&self, idx: &[usize]) -> bool {
        self.lock().contains_key(idx)
    }

    /// Caches `idx`'s result unless the memo is full or already holds
    /// `idx` (a sibling solved the same point concurrently: the first
    /// insertion stays, so every later hit serves one consistent value).
    fn insert(
        &self,
        idx: &[usize],
        specs: Result<Vec<f64>, SimError>,
        warm: Vec<Option<Vec<f64>>>,
        worker: u64,
    ) {
        // Allocate before taking the lock, so that it is held only for
        // the probe and the insert.
        let key = idx.to_vec();
        let entry = Box::new(SharedEntry {
            specs,
            warm,
            owner: worker,
        });
        let mut map = self.lock();
        if map.len() >= self.capacity {
            return;
        }
        if let Entry::Vacant(slot) = map.entry(key) {
            slot.insert(entry);
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Distinct grid points currently memoized.
    pub fn len(&self) -> usize {
        recover(self.map.lock()).len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookup hits across all workers.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Hits served to a worker other than the one that solved the entry —
    /// the pooling win that a per-env memo cannot provide.
    pub fn cross_hits(&self) -> u64 {
        self.cross_hits.load(Ordering::Relaxed)
    }

    /// Total insertions (solves that were cached).
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Entries evicted: always 0, because the memo never evicts (at
    /// capacity it stops inserting instead).
    pub fn evictions(&self) -> u64 {
        0
    }

    /// Total hot-path lock acquisitions (every probe, insert, and
    /// containment check) — the denominator for the contention ratio.
    pub fn lock_acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Contended lock acquisitions: probes or inserts that found the lock
    /// held by another worker and had to wait. The pooling design bets
    /// this stays negligible relative to [`SharedMemo::lock_acquisitions`].
    pub fn contended_locks(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

/// How an [`EvalSession`] holds its problem.
#[derive(Clone)]
enum ProblemRef<'p> {
    Borrowed(&'p dyn SizingProblem),
    Shared(Arc<dyn SizingProblem>),
}

impl<'p> ProblemRef<'p> {
    fn get(&self) -> &dyn SizingProblem {
        match self {
            ProblemRef::Borrowed(p) => *p,
            ProblemRef::Shared(p) => p.as_ref(),
        }
    }
}

/// A stateful evaluation pipeline bound to one problem and fidelity: a
/// memo of exact parameter-grid revisits consulted before any solve
/// (simulation is deterministic, so revisits are free), plus warm-start
/// state threaded through consecutive DC solves.
///
/// One session per environment/optimizer instance: the RL envs, the GA
/// baselines, and the random agent all evaluate through this type, so
/// they share the same warm+memo pipeline. Warm-started solves converge
/// to the same specs as cold ones up to solver tolerance; memoization
/// makes revisits *exactly* reproducible within a session.
///
/// Each session owns a [`SharedMemo`] of
/// [`SharedMemo::DEFAULT_CAPACITY`] entries unless
/// [`EvalSession::with_shared_memo`] hands it a pooled one. A cloned
/// session shares its original's memo (and worker id) but keeps its own
/// warm state and counters.
///
/// # Examples
///
/// ```
/// use autockt_circuits::prelude::*;
/// use autockt_circuits::problem::EvalSession;
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let tia = Tia::default();
/// let mut session = EvalSession::borrowed(&tia, SimMode::Schematic);
/// let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
/// let first = session.evaluate(&idx)?;
/// let replay = session.evaluate(&idx)?; // memo hit: identical, no solve
/// assert_eq!(first, replay);
/// assert_eq!(session.solve_count(), 1);
/// assert_eq!(session.memo_hits(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct EvalSession<'p> {
    problem: ProblemRef<'p>,
    mode: SimMode,
    warm_start: bool,
    warm: WarmState,
    memo: Arc<SharedMemo>,
    worker_id: u64,
    solves: u64,
    memo_hits: u64,
    cross_hits: u64,
}

impl std::fmt::Debug for EvalSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSession")
            .field("problem", &self.problem.get().name())
            .field("mode", &self.mode)
            .field("warm_start", &self.warm_start)
            .field("memo_len", &self.memo.len())
            .field("solves", &self.solves)
            .field("memo_hits", &self.memo_hits)
            .field("cross_hits", &self.cross_hits)
            .finish()
    }
}

impl<'p> EvalSession<'p> {
    fn with(problem: ProblemRef<'p>, mode: SimMode) -> Self {
        let memo = Arc::new(SharedMemo::with_default_capacity());
        EvalSession {
            problem,
            mode,
            warm_start: true,
            warm: WarmState::new(),
            worker_id: memo.register_worker(),
            memo,
            solves: 0,
            memo_hits: 0,
            cross_hits: 0,
        }
    }

    /// Creates a session borrowing the problem (optimizer-style callers).
    pub fn borrowed(problem: &'p dyn SizingProblem, mode: SimMode) -> Self {
        EvalSession::with(ProblemRef::Borrowed(problem), mode)
    }

    /// Creates a session sharing ownership of the problem (environments
    /// that must be `'static` and `Clone`).
    pub fn shared(problem: Arc<dyn SizingProblem>, mode: SimMode) -> EvalSession<'static> {
        EvalSession::with(ProblemRef::Shared(problem), mode)
    }

    /// Disables or enables warm-starting (on by default); the cold path is
    /// exactly [`SizingProblem::simulate`].
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Replaces this session's own memo with `memo`, pooled across
    /// sessions: grid points solved by *any* attached worker serve every
    /// other worker's revisits. Warm-start state remains private to this
    /// session (hits restore the entry's warm snapshot). The session
    /// registers itself as a distinct worker for
    /// [`EvalSession::cross_memo_hits`] accounting.
    pub fn with_shared_memo(mut self, memo: Arc<SharedMemo>) -> Self {
        self.worker_id = memo.register_worker();
        self.memo = memo;
        self
    }

    /// The problem being evaluated.
    pub fn problem(&self) -> &dyn SizingProblem {
        self.problem.get()
    }

    /// The simulation fidelity of every evaluation in this session.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Evaluates grid indices `idx`, serving exact revisits from the memo
    /// and warm-starting the solver otherwise.
    ///
    /// # Errors
    ///
    /// Same contract as [`SizingProblem::simulate`]; errors are memoized
    /// too (an unsolvable grid point stays unsolvable).
    pub fn evaluate(&mut self, idx: &[usize]) -> Result<Vec<f64>, SimError> {
        // A hit re-arms the warm state as of this grid point's solve: the
        // next miss is one notch from *here*, not from wherever the last
        // fresh solve happened.
        let warm = self.warm_start.then_some(&mut self.warm);
        if let Some((specs, cross)) = self.memo.get(idx, self.worker_id, warm) {
            self.memo_hits += 1;
            if cross {
                self.cross_hits += 1;
            }
            return specs;
        }
        self.solves += 1;
        let res = if self.warm_start {
            self.problem
                .get()
                .simulate_warm(idx, self.mode, &mut self.warm)
        } else {
            self.problem.get().simulate(idx, self.mode)
        };
        let warm = if self.warm_start {
            self.warm.snapshot()
        } else {
            Vec::new()
        };
        self.memo.insert(idx, res.clone(), warm, self.worker_id);
        res
    }

    /// Clears warm-start state (episode reset), keeping the memo — the
    /// grid is the same circuit family across episodes.
    pub fn reset_warm(&mut self) {
        self.warm.reset();
    }

    /// Evaluations that actually ran the simulator.
    pub fn solve_count(&self) -> u64 {
        self.solves
    }

    /// Evaluations served from the memo.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Memo hits served from an entry solved by a *different* worker —
    /// always 0 without [`EvalSession::with_shared_memo`].
    pub fn cross_memo_hits(&self) -> u64 {
        self.cross_hits
    }

    /// Distinct grid points memoized so far (across all workers when the
    /// memo is pooled).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_folds_nan_as_fail_value() {
        let spec = |kind, fail_value| SpecDef {
            name: "s",
            unit: "",
            kind,
            lo: 0.0,
            hi: 1.0,
            fail_value,
        };
        let specs = [
            spec(SpecKind::HardMin, -1.0),
            spec(SpecKind::HardMax, 50.0),
            spec(SpecKind::Minimize, 40.0),
        ];
        let healthy = vec![
            vec![3.0, 5.0, 4.0],
            vec![2.0, 6.0, 7.0],
            vec![4.0, 4.0, 6.0],
        ];
        assert_eq!(worst_case(&specs, &healthy), vec![2.0, 6.0, 7.0]);
        let fails = [-1.0, 50.0, 40.0];
        for spec_i in 0..specs.len() {
            // A NaN in row 0 and in a middle row both fold as the fail
            // value, never as the best sibling.
            for row in [0, 1] {
                let mut rows = healthy.clone();
                rows[row][spec_i] = f64::NAN;
                let out = worst_case(&specs, &rows);
                assert_eq!(
                    out[spec_i], fails[spec_i],
                    "spec {spec_i}, NaN in row {row}"
                );
            }
            // A one-row plan folds nothing, and still maps NaN.
            let mut one = vec![healthy[0].clone()];
            one[0][spec_i] = f64::NAN;
            assert_eq!(worst_case(&specs, &one)[spec_i], fails[spec_i]);
        }
    }

    #[test]
    fn swept_grid_matches_paper_notation() {
        // Width [2, 10, 2] * 1 um => 2, 4, 6, 8, 10 um.
        let p = ParamSpec::swept("w", 2.0, 10.0, 2.0, 1e-6);
        assert_eq!(p.cardinality(), 5);
        assert!((p.values[0] - 2e-6).abs() < 1e-18);
        assert!((p.values[4] - 10e-6).abs() < 1e-18);
    }

    #[test]
    fn swept_handles_fractional_increments() {
        // Cc [0.1, 10.0, 0.1] * 1 pF: 100 points.
        let p = ParamSpec::swept("cc", 0.1, 10.0, 0.1, 1e-12);
        assert_eq!(p.cardinality(), 100);
    }

    #[test]
    #[should_panic(expected = "bad sweep")]
    fn swept_rejects_zero_increment() {
        let _ = ParamSpec::swept("x", 1.0, 2.0, 0.0, 1.0);
    }

    #[test]
    fn swept_long_sweep_keeps_endpoint_despite_float_error() {
        // increment tiny relative to the values: accumulation `v += inc`
        // drifts past the old `end + 1e-9 * inc` guard and drops the final
        // grid point; index-based generation keeps it.
        let p = ParamSpec::swept("x", 1000.0, 1000.1, 0.001, 1.0);
        assert_eq!(p.cardinality(), 101);
        assert!((p.values[100] - 1000.1).abs() < 1e-9);
    }

    #[test]
    fn swept_values_are_exact_multiples_of_the_increment() {
        let p = ParamSpec::swept("cc", 0.1, 10.0, 0.1, 1e-12);
        assert_eq!(p.cardinality(), 100);
        for (i, v) in p.values.iter().enumerate() {
            let expect = (0.1 + i as f64 * 0.1) * 1e-12;
            assert!((v - expect).abs() < 1e-24, "index {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn session_memo_serves_exact_revisits() {
        let tia = crate::Tia::default();
        let mut s = EvalSession::borrowed(&tia, SimMode::Schematic);
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let a = s.evaluate(&idx).unwrap();
        let b = s.evaluate(&idx).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.solve_count(), 1);
        assert_eq!(s.memo_hits(), 1);
        assert_eq!(s.memo_len(), 1);
    }

    #[test]
    fn session_reset_warm_keeps_memo() {
        let tia = crate::Tia::default();
        let mut s = EvalSession::borrowed(&tia, SimMode::Schematic);
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        s.evaluate(&idx).unwrap();
        s.reset_warm();
        assert_eq!(s.memo_len(), 1);
        s.evaluate(&idx).unwrap();
        assert_eq!(s.solve_count(), 1, "revisit after reset must be a hit");
    }

    #[test]
    fn session_memo_capacity_bounds_insertions() {
        let tia = crate::Tia::default();
        let mut s = EvalSession::borrowed(&tia, SimMode::Schematic)
            .with_shared_memo(Arc::new(SharedMemo::new(2)));
        let cards = tia.cardinalities();
        let point = |i: usize| -> Vec<usize> { cards.iter().map(|k| i % k).collect() };
        for i in 0..4 {
            let _ = s.evaluate(&point(i));
        }
        assert_eq!(s.memo_len(), 2, "insertions stop at capacity");
        // Entries admitted below capacity still serve hits.
        let solves = s.solve_count();
        let _ = s.evaluate(&point(0));
        assert_eq!(s.solve_count(), solves);
        assert!(s.memo_hits() >= 1);
    }

    /// At capacity the memo stops inserting and never evicts; a
    /// duplicate insertion keeps the first value.
    #[test]
    fn shared_memo_stops_inserting_at_capacity() {
        let memo = SharedMemo::new(2);
        assert!(memo.is_empty());
        memo.insert(&[0], Ok(vec![0.0]), Vec::new(), 0);
        memo.insert(&[1], Ok(vec![1.0]), Vec::new(), 0);
        assert_eq!(memo.len(), 2);
        memo.insert(&[2], Ok(vec![2.0]), Vec::new(), 0);
        assert_eq!(memo.len(), 2, "capacity bound holds");
        assert_eq!(memo.inserts(), 2);
        assert_eq!(memo.evictions(), 0);
        assert!(memo.contains(&[0]) && memo.contains(&[1]));
        assert!(!memo.contains(&[2]), "insertions stop at capacity");
        // Duplicate insertion keeps the first value (first-solve-wins).
        memo.insert(&[1], Ok(vec![9.0]), Vec::new(), 1);
        let (specs, cross) = memo.get(&[1], 1, None).unwrap();
        assert_eq!(specs.unwrap(), vec![1.0]);
        assert!(cross, "the entry still belongs to its first inserter");
    }

    #[test]
    fn shared_memo_tracks_lock_contention() {
        let memo = Arc::new(SharedMemo::new(1024));
        assert_eq!(memo.contended_locks(), 0);
        // Hammer the lock from several threads: every probe and
        // insert routes through the counting lock path (how much
        // contention actually materializes depends on scheduling, so
        // only the counter invariants are asserted).
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let memo = Arc::clone(&memo);
                scope.spawn(move || {
                    for i in 0..2000usize {
                        memo.insert(&[t as usize, i], Ok(vec![i as f64]), Vec::new(), t);
                        let _ = memo.get(&[t as usize, i], t, None);
                    }
                });
            }
        });
        // Every insert and get takes the lock once.
        assert_eq!(memo.lock_acquisitions(), 4 * 2000 * 2);
        assert!(memo.contended_locks() <= memo.lock_acquisitions());
        // Uncontended single-threaded access never counts.
        let quiet = SharedMemo::new(64);
        quiet.insert(&[1], Ok(vec![1.0]), Vec::new(), 0);
        let _ = quiet.get(&[1], 0, None);
        assert_eq!(quiet.contended_locks(), 0);
    }

    #[test]
    fn shared_memo_pools_across_sessions() {
        let tia = crate::Tia::default();
        let memo = Arc::new(SharedMemo::new(1024));
        let mut a =
            EvalSession::borrowed(&tia, SimMode::Schematic).with_shared_memo(Arc::clone(&memo));
        let mut b =
            EvalSession::borrowed(&tia, SimMode::Schematic).with_shared_memo(Arc::clone(&memo));
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let x = a.evaluate(&idx).unwrap();
        let y = b.evaluate(&idx).unwrap();
        assert_eq!(x, y);
        assert_eq!(a.solve_count(), 1);
        assert_eq!(b.solve_count(), 0, "pooled revisit must not solve");
        assert_eq!(b.memo_hits(), 1);
        assert_eq!(b.cross_memo_hits(), 1);
        // A worker re-reading its own insertion is a hit, not a cross hit.
        a.evaluate(&idx).unwrap();
        assert_eq!(a.memo_hits(), 1);
        assert_eq!(a.cross_memo_hits(), 0);
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.cross_hits(), 1);
        assert!(memo.contains(&idx));
        assert_eq!(a.memo_len(), 1);
    }

    /// A little two-spec engine over hand-built RC "corners" — the
    /// engine is topology-agnostic, so the tests drive it directly.
    fn rc_engine(corners: Vec<Pvt>) -> (CornerEvaluator, Vec<SpecDef>) {
        let engine = CornerEvaluator::new(
            corners,
            autockt_sim::dc::DcOptions::default(),
            autockt_sim::ac::log_freqs(1e3, 1e8, 4),
            StopLevel::RelativeToFirst(std::f64::consts::FRAC_1_SQRT_2),
        );
        let specs = vec![
            SpecDef {
                name: "gain",
                unit: "",
                kind: SpecKind::HardMin,
                lo: 0.0,
                hi: 1.0,
                fail_value: 0.0,
            },
            SpecDef {
                name: "mag_hi",
                unit: "",
                kind: SpecKind::HardMax,
                lo: 0.0,
                hi: 1.0,
                fail_value: 9.0,
            },
        ];
        (engine, specs)
    }

    fn rc_case(slot: usize, defective: Option<usize>) -> CornerCase {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        if defective == Some(slot) {
            // Inconsistent netlist: two sources in parallel leave a
            // branch-current column unmatched, so this corner is
            // structurally singular and cannot solve.
            ckt.vsource(i, GND, 1.0, 0.0);
            ckt.vsource(i, GND, 2.0, 0.0);
            ckt.resistor(i, o, 1.0e3);
        } else {
            ckt.vsource(i, GND, 0.0, 1.0);
            ckt.resistor(i, o, 1.0e3 * (slot + 1) as f64);
            ckt.capacitor(o, GND, 1e-9);
        }
        CornerCase { ckt, out: o }
    }

    use autockt_sim::netlist::GND;

    fn run_rc_engine(
        defective: Option<usize>,
        warm: Option<&mut WarmState>,
    ) -> Result<Vec<f64>, SimError> {
        let (engine, specs) = rc_engine(Pvt::corner_set());
        engine.evaluate(
            &specs,
            |slot, _pvt| rc_case(slot, defective),
            |_slot, _case, _op, resp, _noise, _settle| {
                Ok(vec![resp.h[0].norm(), resp.h.last().unwrap().norm()])
            },
            warm,
        )
    }

    /// Engine-level noise wiring: with `with_noise`, cold and warm runs
    /// both hand the measure closure a per-corner noise result, and they
    /// agree within solver tolerance (linear circuits at a stock dim: the
    /// corner kernel runs the scalar arithmetic, so this is tight).
    #[test]
    fn corner_engine_noise_warm_matches_cold() {
        let nfreqs = autockt_sim::ac::log_freqs(1e3, 1e8, 4);
        let run = |warm: Option<&mut WarmState>| {
            let (engine, specs) = rc_engine(Pvt::corner_set());
            let engine = engine.with_noise(nfreqs.clone());
            engine.evaluate(
                &specs,
                |slot, _pvt| rc_case(slot, None),
                |_slot, _case, _op, resp, noise, _settle| {
                    let nr = noise
                        .expect("engine must run noise")
                        .as_ref()
                        .expect("rc corners are noisy and solvable");
                    Ok(vec![resp.h[0].norm(), nr.out_vrms])
                },
                warm,
            )
        };
        let cold = run(None).unwrap();
        assert!(cold[1] > 0.0, "noisy resistors must produce output noise");
        let mut state = WarmState::new();
        for _ in 0..2 {
            let warm = run(Some(&mut state)).unwrap();
            for (x, y) in cold.iter().zip(&warm) {
                assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{x} vs {y}");
            }
        }
    }

    /// Engine-level settle wiring: with `with_settling`, cold and warm
    /// runs both hand the measure closure a per-corner settling time
    /// over one shared time window, and they agree bitwise (the rest of
    /// the row within solver tolerance).
    #[test]
    fn corner_engine_settle_warm_matches_cold() {
        let run = |warm: Option<&mut WarmState>| {
            let (engine, specs) = rc_engine(Pvt::corner_set());
            let engine = engine.with_settling(SettleSpec {
                steps: 256,
                window: 8.0,
                band: 0.02,
            });
            let mut times = Vec::new();
            let row = engine.evaluate(
                &specs,
                |slot, _pvt| rc_case(slot, None),
                |_slot, case, op, resp, _noise, settle| {
                    let ts = *settle
                        .expect("rc corners have a valid cutoff")
                        .as_ref()
                        .expect("rc corners settle");
                    assert!(ts > 0.0, "shared window must be positive");
                    // The RC corners settle toward the driven DC level, so
                    // the record they settle on ends at a real voltage, not
                    // a zero placeholder.
                    let window = 8.0 / resp.f_3db().expect("rc cutoff");
                    let (_, y) = AcSolver::new(&case.ckt, op)
                        .step_response(case.out, window, 256)
                        .expect("rc step integrates");
                    let (end, dc) = (*y.last().unwrap(), resp.h[0].norm());
                    assert!((end - dc).abs() <= 0.02 * dc, "end {end} vs dc {dc}");
                    times.push(ts.to_bits());
                    Ok(vec![dc, end])
                },
                warm,
            );
            (row.unwrap(), times)
        };
        let (cold, cold_times) = run(None);
        assert!(cold[1].abs() > 0.0);
        let mut state = WarmState::new();
        let (warm, warm_times) = run(Some(&mut state));
        assert_eq!(warm_times, cold_times, "settling times bitwise");
        for (x, y) in cold.iter().zip(&warm) {
            assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn corner_engine_warm_matches_cold() {
        let cold = run_rc_engine(None, None).unwrap();
        // Warm-stated runs reuse the same slots; on a linear circuit the
        // warm fixed point is the cold one, bit for bit.
        let mut state = WarmState::new();
        for _ in 0..2 {
            let warm = run_rc_engine(None, Some(&mut state)).unwrap();
            assert_eq!(warm, cold, "linear circuit: warm fixed point identical");
        }
    }

    #[test]
    fn corner_engine_defective_corner_fails_without_stalling_siblings() {
        // A deliberately unsolvable corner: cold and warm runs both
        // report the failure, wherever the defect sits in the plan.
        let last = Pvt::corner_set().len() - 1;
        for slot in [1, last] {
            let cold = run_rc_engine(Some(slot), None);
            assert!(
                matches!(cold, Err(SimError::StructurallySingular { .. })),
                "{cold:?}"
            );
            let mut state = WarmState::new();
            let warm = run_rc_engine(Some(slot), Some(&mut state));
            assert!(
                matches!(warm, Err(SimError::StructurallySingular { .. })),
                "{warm:?}"
            );
            // Every sibling still solved, so its warm slot is armed.
            assert!(state.is_warm());
        }
    }

    #[test]
    fn corner_engine_empty_plan_is_invalid_options() {
        let (engine, specs) = rc_engine(Vec::new());
        let mut built = 0;
        let res = engine.evaluate(
            &specs,
            |slot, _pvt| {
                built += 1;
                rc_case(slot, None)
            },
            |_slot, _case, _op, _resp, _noise, _settle| Ok(vec![0.0, 0.0]),
            None,
        );
        assert_eq!(
            res,
            Err(SimError::InvalidOptions {
                what: "empty corner plan"
            })
        );
        assert_eq!(built, 0, "no stage runs on an empty plan");
    }
}
