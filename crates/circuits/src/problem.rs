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
use autockt_sim::noise::{noise_analysis_corners, noise_analysis_ws, NoiseResult};
use autockt_sim::pex::{extract, PexConfig};
use autockt_sim::{SimError, SolverConfig};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
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
/// fidelity is one [`CornerPlan`] evaluated by the [`CornerEvaluator`]
/// (see [`CornerEvaluator::for_mode`]).
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
/// record integrates and how the shared time window scales with the
/// corner set's bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettleSpec {
    /// Trapezoidal integration steps per record (the TIA uses 2048).
    pub steps: usize,
    /// Time window as a multiple of the slowest valid corner's cutoff
    /// period: `t_stop = window / min corner cutoff`, shared by the whole
    /// corner set.
    pub window: f64,
}

/// One corner's settling record from the engine's settle stage: the
/// `(t, y)` step-response samples, or the solver error that corner's
/// integration hit.
pub type SettleRecord = Result<(Vec<f64>, Vec<f64>), SimError>;

/// The corner list of an evaluation: which PVT points every design is
/// checked at.
#[derive(Debug, Clone)]
pub struct CornerPlan {
    corners: Vec<Pvt>,
}

impl CornerPlan {
    /// The single nominal corner ([`Pvt::nominal`]) of `SimMode::Schematic`
    /// and `SimMode::Pex`.
    pub fn nominal() -> Self {
        CornerPlan {
            corners: vec![Pvt::nominal()],
        }
    }

    /// The canonical worst-case PVT plan ([`Pvt::corner_set`]) used by
    /// `SimMode::PexWorstCase` — the paper's Table IV configuration.
    pub fn pvt_worst_case() -> Self {
        CornerPlan {
            corners: Pvt::corner_set(),
        }
    }

    /// A plan over an explicit corner list.
    pub fn from_corners(corners: Vec<Pvt>) -> Self {
        CornerPlan { corners }
    }

    /// The corners, in slot order (warm-start slots are keyed by this
    /// index).
    pub fn corners(&self) -> &[Pvt] {
        &self.corners
    }

    /// Number of corners.
    pub fn len(&self) -> usize {
        self.corners.len()
    }

    /// Whether the plan holds no corners.
    pub fn is_empty(&self) -> bool {
        self.corners.is_empty()
    }
}

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
    /// Corner temperature (K), for noise analyses.
    pub temp_k: f64,
    /// Index of the supply voltage source, for bias-current measurement.
    pub vdd_src: usize,
}

/// The one evaluation engine behind every [`SimMode`]: owns the corner
/// set, the extraction decision and the per-corner warm-start slots, so a
/// topology contributes only its circuit-builder closure and its
/// per-corner spec measurement (the worst-case fold runs on the
/// topology's spec definitions). `Schematic` and `Pex` are one-corner
/// plans at [`Pvt::nominal`]; `PexWorstCase` is the PVT corner set (see
/// [`CornerEvaluator::for_mode`]).
///
/// An evaluation runs stage-major: every corner is built (and extracted),
/// then every corner's operating point is solved, then the AC sweeps, the
/// optional noise and settling stages, and finally the per-corner
/// measurements.
/// The only choice a stage makes is warm or cold. Warm evaluations run
/// the corner kernels ([`ac_sweep_corners`], [`noise_analysis_corners`]);
/// at dense-mesh dims they run one shared adjoint row per frequency point
/// (one base factorization across the corner set, each corner's adjoint
/// `A_b⁻ᵀ e_out` recovered by a small Woodbury correction) and fall back
/// to the scalar kernel per corner where that cannot pay. Cold
/// evaluations run the scalar kernels per corner — the reference path.
/// Settling runs [`AcSolver::step_response`] per corner either way. When
/// several corners fail, the reported `SimError` is the lowest-slot
/// failure of the first stage that surfaced one.
#[derive(Debug, Clone)]
pub struct CornerEvaluator {
    plan: CornerPlan,
    pex: Option<PexConfig>,
    dc_opts: DcOptions,
    freqs: Vec<f64>,
    stop: StopLevel,
    noise_freqs: Option<Vec<f64>>,
    settle: Option<SettleSpec>,
}

impl CornerEvaluator {
    /// Creates an engine over `plan`, solving operating points with
    /// `dc_opts` and sweeping `freqs` at every corner up to the first
    /// downward crossing of `stop`, the level the topology's AC specs
    /// read (see [`StopLevel`]). The builder's netlists are evaluated as
    /// built (no extraction).
    pub fn new(plan: CornerPlan, dc_opts: DcOptions, freqs: Vec<f64>, stop: StopLevel) -> Self {
        CornerEvaluator {
            plan,
            pex: None,
            dc_opts,
            freqs,
            stop,
            noise_freqs: None,
            settle: None,
        }
    }

    /// The engine of fidelity `mode` — the one place a [`SimMode`] is
    /// mapped to a corner plan and an extraction step: `Schematic`
    /// evaluates the schematic at the nominal corner, `Pex` its `pex`
    /// extraction at the nominal corner, and `PexWorstCase` the extraction
    /// at every corner of [`CornerPlan::pvt_worst_case`].
    pub fn for_mode(
        mode: SimMode,
        pex: &PexConfig,
        dc_opts: DcOptions,
        freqs: Vec<f64>,
        stop: StopLevel,
    ) -> Self {
        let (plan, pex) = match mode {
            SimMode::Schematic => (CornerPlan::nominal(), None),
            SimMode::Pex => (CornerPlan::nominal(), Some(pex.clone())),
            SimMode::PexWorstCase => (CornerPlan::pvt_worst_case(), Some(pex.clone())),
        };
        CornerEvaluator {
            pex,
            ..CornerEvaluator::new(plan, dc_opts, freqs, stop)
        }
    }

    /// Enables a per-corner noise analysis over `freqs`, measured at each
    /// corner's output node and temperature, and hands the result to the
    /// measure closure. Running noise *inside* the engine (instead of in
    /// the closure) is what lets warm evaluations share work across the
    /// corner set: cold corners run the scalar [`noise_analysis_ws`],
    /// and warm evaluations run [`noise_analysis_corners`], which at
    /// dense-mesh dims runs the adjoint row [`ac_sweep_corners`] runs —
    /// the base corner factored once per point, one adjoint vector per
    /// corner Woodbury-corrected from the base's adjoint solves — and
    /// reads every corner's gain and PSD off it, and runs the scalar
    /// kernel per corner at stock dims.
    pub fn with_noise(mut self, freqs: Vec<f64>) -> Self {
        self.noise_freqs = Some(freqs);
        self
    }

    /// Enables a per-corner linear step-response settling stage and hands
    /// each corner's `(t, y)` record to the measure closure. The engine
    /// first sweeps every corner, then integrates all valid corners (those
    /// with a positive -3 dB cutoff) over **one shared time window**
    /// `spec.window / min cutoff`; corners without a valid cutoff receive
    /// `None` (topologies map that to the spec's fail value). On a
    /// one-corner plan the window is that corner's own `spec.window /
    /// cutoff`.
    ///
    /// Every corner integrates through [`AcSolver::step_response`], whose
    /// blocked propagator makes every output sample one length-`n` dot
    /// product.
    pub fn with_settling(mut self, spec: SettleSpec) -> Self {
        self.settle = Some(spec);
        self
    }

    /// The corner plan.
    pub fn plan(&self) -> &CornerPlan {
        &self.plan
    }

    /// Runs the settling stage over the solved corner set: picks the
    /// shared time window from the slowest valid corner cutoff, then
    /// integrates every valid corner. Returns `None` when no
    /// settle stage is configured; per-corner `None` marks an invalid
    /// cutoff (no settling record).
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
            slots[i] = Some(solvers[i].step_response(outs[i], t_stop, spec.steps));
        }
        Some(slots)
    }

    /// Evaluates every corner and reduces the per-corner spec rows to
    /// the worst case in each spec's constraint direction (a one-corner
    /// plan returns its row unchanged).
    ///
    /// `build(slot, pvt)` produces corner `slot`'s schematic netlist at
    /// `pvt`, which the engine extracts when it carries an extraction
    /// config. `measure(slot, case, op, resp, noise, settle)` turns corner
    /// `slot`'s case, operating point, swept response and — when
    /// [`CornerEvaluator::with_noise`] / [`CornerEvaluator::with_settling`]
    /// are set, `None` otherwise — noise analysis and settling record into
    /// a spec row. The swept response is the solved prefix of the grid,
    /// through the point that completes the first downward crossing of
    /// the engine's [`StopLevel`] (the whole grid if it never crosses):
    /// every spec reads only that prefix, so the points after it are not
    /// solved, and a point that would fail there cannot fail the corner.
    /// A noise failure is handed to the closure rather than
    /// aborting the corner, so topologies can map it to a spec's fail
    /// value; likewise a settling record's `Err` lets the closure decide,
    /// and a corner without a valid cutoff gets no record. `state` carries
    /// the per-corner warm slots; `None` evaluates cold.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOptions`] on an empty corner plan; otherwise
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
        if self.plan.is_empty() {
            return Err(SimError::InvalidOptions {
                what: "empty corner plan",
            });
        }
        let cases: Vec<CornerCase> = self
            .plan
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
        // One workspace serves every cold corner's sweep and noise
        // analysis; each call re-prepares it for its own corner.
        let mut cold_ws = AcWorkspace::new();
        let resps: Vec<AcResponse> = match state.as_deref_mut() {
            Some(st) => ac_sweep_corners(
                &solvers,
                &self.freqs,
                &outs,
                Some(self.stop),
                st.ac_batch_workspace(),
            )
            .into_iter()
            .collect::<Result<_, _>>()?,
            None => solvers
                .iter()
                .zip(&outs)
                .map(|(s, &o)| {
                    let h =
                        s.solve_sources_batch_ws(&self.freqs, o, Some(self.stop), &mut cold_ws)?;
                    Ok(AcResponse {
                        freqs: self.freqs[..h.len()].to_vec(),
                        h,
                    })
                })
                .collect::<Result<_, SimError>>()?,
        };
        // Per-corner noise failures stay in the row: the measure closure
        // decides whether one is fatal.
        let noises: Option<Vec<Result<NoiseResult, SimError>>> =
            self.noise_freqs.as_ref().map(|nf| match state {
                Some(st) => {
                    let op_refs: Vec<&OpPoint> = ops.iter().collect();
                    let temps: Vec<f64> = cases.iter().map(|c| c.temp_k).collect();
                    noise_analysis_corners(
                        &solvers,
                        &op_refs,
                        &outs,
                        nf,
                        &temps,
                        st.ac_batch_workspace(),
                    )
                }
                None => cases
                    .iter()
                    .zip(&ops)
                    .map(|(c, op)| noise_analysis_ws(&c.ckt, op, c.out, nf, c.temp_k, &mut cold_ws))
                    .collect(),
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
/// as of the solve, restored on cache hits so that a later cache miss
/// still warm-starts from the operating point of the *adjacent* grid
/// point just revisited (never from one arbitrarily many notches back).
#[derive(Clone)]
struct MemoEntry {
    specs: Result<Vec<f64>, SimError>,
    warm: Vec<Option<Vec<f64>>>,
}

/// One entry of a [`SharedMemo`]: like the per-session `MemoEntry`, plus
/// the id of the worker that inserted it (for cross-worker hit accounting).
#[derive(Clone)]
struct SharedEntry {
    specs: Result<Vec<f64>, SimError>,
    warm: Vec<Option<Vec<f64>>>,
    owner: u64,
}

/// One mutex-guarded shard of a [`SharedMemo`]: the key -> entry map plus
/// an insertion-order queue driving FIFO eviction at capacity.
#[derive(Default)]
struct MemoShard {
    map: HashMap<Vec<usize>, SharedEntry>,
    order: VecDeque<Vec<usize>>,
}

/// Unwraps a shard lock, recovering from poisoning instead of cascading
/// the panic: a poisoned shard means some *other* worker panicked while
/// holding the lock, and every shard mutation (probe, insert, evict,
/// clear) leaves the map/queue pair valid between statements — worst
/// case, FIFO order drifts for a cache whose entries are immutable once
/// inserted. Evaluation must keep running on the surviving workers.
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

/// A concurrent evaluation memo shared by every rollout worker of a
/// training run: `N` mutex-guarded shards keyed by the discrete parameter
/// index vector, so the 8 training environments pool their grid revisits
/// instead of each re-solving points a sibling already evaluated (episodes
/// all restart from the grid center, so cross-worker overlap is heavy).
///
/// Sharding keeps contention negligible — a key's shard is chosen by hash,
/// and a lock is held only for the microseconds of a map probe or insert,
/// never across a solve. Each shard is capacity-bounded like the per-env
/// memo; at capacity the *oldest* entry in the shard is evicted FIFO (the
/// shared map outlives episodes and workers, so unlike the per-session
/// cache it cannot simply stop inserting without eventually pinning a
/// stale working set).
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
/// let memo = Arc::new(SharedMemo::new(8, 1 << 16));
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
    shards: Vec<Mutex<MemoShard>>,
    /// Lock acquisitions that found their shard already held (`try_lock`
    /// miss → blocking wait): the direct contention signal for sizing the
    /// shard count as worker counts grow.
    contended: AtomicU64,
    /// Total hot-path lock acquisitions (probes, inserts, contains) —
    /// the denominator for the contention ratio. Counted at the lock
    /// itself, so a get-miss followed by an insert counts as two.
    acquisitions: AtomicU64,
    per_shard_capacity: usize,
    hits: AtomicU64,
    cross_hits: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    next_worker: AtomicU64,
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("cross_hits", &self.cross_hits())
            .field("evictions", &self.evictions())
            .field("contended_locks", &self.contended_locks())
            .finish()
    }
}

impl SharedMemo {
    /// Default shard count: comfortably above the 8 training workers, so
    /// two workers probing simultaneously almost never contend.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a memo with `shards` shards (rounded up to a power of two,
    /// minimum 1) bounding `capacity` total entries across all shards.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        SharedMemo {
            shards: (0..shards)
                .map(|_| Mutex::new(MemoShard::default()))
                .collect(),
            contended: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            per_shard_capacity: capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            cross_hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            next_worker: AtomicU64::new(0),
        }
    }

    /// A memo sized like the per-session default
    /// ([`EvalSession::DEFAULT_MEMO_CAPACITY`]) over
    /// [`SharedMemo::DEFAULT_SHARDS`] shards.
    pub fn with_default_capacity() -> Self {
        SharedMemo::new(
            SharedMemo::DEFAULT_SHARDS,
            EvalSession::DEFAULT_MEMO_CAPACITY,
        )
    }

    /// Registers a new worker, returning its id (used to distinguish
    /// cross-worker hits from a worker re-reading its own insertions).
    pub fn register_worker(&self) -> u64 {
        self.next_worker.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_index(&self, idx: &[usize]) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        idx.hash(&mut h);
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    /// Locks the shard holding `idx`, counting the acquisition as
    /// contended when another worker already holds it (the hot paths all
    /// come through here, so [`SharedMemo::contended_locks`] reflects
    /// real probe/insert contention, not maintenance scans).
    fn lock_shard(&self, idx: &[usize]) -> std::sync::MutexGuard<'_, MemoShard> {
        let s = self.shard_index(idx);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.shards[s].try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                recover(self.shards[s].lock())
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }

    /// Looks up `idx`, cloning the entry out (the lock is never held
    /// across a solve). Returns the specs, the warm snapshot taken at the
    /// original solve, and whether the entry was inserted by a *different*
    /// worker than `worker`.
    #[allow(clippy::type_complexity)]
    fn get(
        &self,
        idx: &[usize],
        worker: u64,
    ) -> Option<(Result<Vec<f64>, SimError>, Vec<Option<Vec<f64>>>, bool)> {
        let shard = self.lock_shard(idx);
        let e = shard.map.get(idx)?;
        let cross = e.owner != worker;
        self.hits.fetch_add(1, Ordering::Relaxed);
        if cross {
            self.cross_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some((e.specs.clone(), e.warm.clone(), cross))
    }

    /// Whether `idx` is currently memoized.
    pub fn contains(&self, idx: &[usize]) -> bool {
        self.lock_shard(idx).map.contains_key(idx)
    }

    fn insert(
        &self,
        idx: &[usize],
        specs: Result<Vec<f64>, SimError>,
        warm: Vec<Option<Vec<f64>>>,
        worker: u64,
    ) {
        let mut shard = self.lock_shard(idx);
        if shard.map.contains_key(idx) {
            // A sibling solved the same point concurrently; keep the
            // first insertion so every later hit serves one consistent
            // value.
            return;
        }
        if shard.map.len() >= self.per_shard_capacity {
            if let Some(oldest) = shard.order.pop_front() {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.order.push_back(idx.to_vec());
        shard.map.insert(
            idx.to_vec(),
            SharedEntry {
                specs,
                warm,
                owner: worker,
            },
        );
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Distinct grid points currently memoized across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| recover(s.lock()).map.len())
            .sum()
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

    /// Entries evicted FIFO at shard capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total hot-path lock acquisitions across all shards (every probe,
    /// insert, and containment check) — the denominator for the
    /// contention ratio.
    pub fn lock_acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Total contended lock acquisitions across all shards: probes or
    /// inserts that found their shard held by another worker and had to
    /// wait. The pooling design bets this stays negligible relative to
    /// [`SharedMemo::lock_acquisitions`].
    pub fn contended_locks(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Number of shards (always a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total entry capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Drops every entry, keeping counters (useful between benchmark
    /// configurations sharing one memo allocation).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = recover(s.lock());
            s.map.clear();
            s.order.clear();
        }
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
/// memo cache of exact parameter-grid revisits consulted before any solve
/// (simulation is deterministic, so revisits are free), plus warm-start
/// state threaded through consecutive DC solves.
///
/// One session per environment/optimizer instance: the RL envs, the GA
/// baselines, and the random agent all evaluate through this type, so
/// they share the same warm+memo pipeline. Warm-started solves converge
/// to the same specs as cold ones up to solver tolerance; memoization
/// makes revisits *exactly* reproducible within a session.
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
    memoize: bool,
    memo_capacity: usize,
    warm: WarmState,
    memo: HashMap<Vec<usize>, MemoEntry>,
    shared: Option<Arc<SharedMemo>>,
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
            .field("memoize", &self.memoize)
            .field("shared", &self.shared.is_some())
            .field("memo_len", &self.memo.len())
            .field("solves", &self.solves)
            .field("memo_hits", &self.memo_hits)
            .field("cross_hits", &self.cross_hits)
            .finish()
    }
}

impl<'p> EvalSession<'p> {
    fn with(problem: ProblemRef<'p>, mode: SimMode) -> Self {
        EvalSession {
            problem,
            mode,
            warm_start: true,
            memoize: true,
            memo_capacity: EvalSession::DEFAULT_MEMO_CAPACITY,
            warm: WarmState::new(),
            memo: HashMap::new(),
            shared: None,
            worker_id: 0,
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

    /// Disables or enables the memo cache (on by default).
    pub fn with_memo(mut self, on: bool) -> Self {
        self.memoize = on;
        self
    }

    /// Attaches a [`SharedMemo`] pooled across sessions: lookups and
    /// insertions go to the concurrent sharded map instead of this
    /// session's private cache, so grid points solved by *any* attached
    /// worker serve every other worker's revisits. Implies memoization;
    /// warm-start state remains private to this session (hits restore the
    /// entry's warm snapshot exactly as the private memo does). The
    /// session registers itself as a distinct worker for
    /// [`EvalSession::cross_memo_hits`] accounting.
    pub fn with_shared_memo(mut self, memo: Arc<SharedMemo>) -> Self {
        self.worker_id = memo.register_worker();
        self.shared = Some(memo);
        self.memoize = true;
        self
    }

    /// Default bound on memoized grid points (see
    /// [`EvalSession::with_memo_capacity`]): ~50 MB per session at the
    /// largest topology's entry size, far above any revisit-relevant
    /// working set.
    pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 18;

    /// Bounds the memo cache to `cap` distinct grid points. At capacity,
    /// evaluations still run (and existing entries keep serving hits) but
    /// new results are no longer cached, so explore-heavy workloads —
    /// where exact revisits are rare and nearly every step would insert a
    /// never-reused entry — cannot grow memory linearly with training
    /// length. Episodes restart from the grid center, so the earliest
    /// entries are also the likeliest to be revisited.
    pub fn with_memo_capacity(mut self, cap: usize) -> Self {
        self.memo_capacity = cap;
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
    /// cache and warm-starting the solver otherwise.
    ///
    /// # Errors
    ///
    /// Same contract as [`SizingProblem::simulate`]; errors are memoized
    /// too (an unsolvable grid point stays unsolvable).
    pub fn evaluate(&mut self, idx: &[usize]) -> Result<Vec<f64>, SimError> {
        if self.memoize {
            if let Some(shared) = &self.shared {
                if let Some((specs, warm, cross)) = shared.get(idx, self.worker_id) {
                    self.memo_hits += 1;
                    if cross {
                        self.cross_hits += 1;
                    }
                    if self.warm_start {
                        self.warm.restore(&warm);
                    }
                    return specs;
                }
            } else if let Some(hit) = self.memo.get(idx) {
                self.memo_hits += 1;
                if self.warm_start {
                    // Re-arm the warm state as of this grid point's solve:
                    // the next cache miss is one notch from *here*, not
                    // from wherever the last fresh solve happened.
                    self.warm.restore(&hit.warm);
                }
                return hit.specs.clone();
            }
        }
        self.solves += 1;
        let res = if self.warm_start {
            self.problem
                .get()
                .simulate_warm(idx, self.mode, &mut self.warm)
        } else {
            self.problem.get().simulate(idx, self.mode)
        };
        if self.memoize {
            let warm = if self.warm_start {
                self.warm.snapshot()
            } else {
                Vec::new()
            };
            if let Some(shared) = &self.shared {
                shared.insert(idx, res.clone(), warm, self.worker_id);
            } else if self.memo.len() < self.memo_capacity {
                self.memo.insert(
                    idx.to_vec(),
                    MemoEntry {
                        specs: res.clone(),
                        warm,
                    },
                );
            }
        }
        res
    }

    /// Whether `idx` is already memoized (no solve would be spent on it).
    pub fn is_memoized(&self, idx: &[usize]) -> bool {
        self.memoize
            && match &self.shared {
                Some(shared) => shared.contains(idx),
                None => self.memo.contains_key(idx),
            }
    }

    /// Clears warm-start state (episode reset), keeping the memo cache —
    /// the grid is the same circuit family across episodes.
    pub fn reset_warm(&mut self) {
        self.warm.reset();
    }

    /// Clears warm state *and* this session's private memo cache and
    /// counters. An attached [`SharedMemo`] is left untouched — it belongs
    /// to every worker, not this session; clear it via
    /// [`SharedMemo::clear`] if that is really intended.
    pub fn clear(&mut self) {
        self.warm.reset();
        self.memo.clear();
        self.solves = 0;
        self.memo_hits = 0;
        self.cross_hits = 0;
    }

    /// Evaluations that actually ran the simulator.
    pub fn solve_count(&self) -> u64 {
        self.solves
    }

    /// Evaluations served from the memo cache (private or shared).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Shared-memo hits served from an entry solved by a *different*
    /// worker — always 0 without [`EvalSession::with_shared_memo`].
    pub fn cross_memo_hits(&self) -> u64 {
        self.cross_hits
    }

    /// The attached shared memo, if any.
    pub fn shared_memo(&self) -> Option<&Arc<SharedMemo>> {
        self.shared.as_ref()
    }

    /// Distinct grid points memoized so far (across all workers when a
    /// shared memo is attached).
    pub fn memo_len(&self) -> usize {
        match &self.shared {
            Some(shared) => shared.len(),
            None => self.memo.len(),
        }
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
        assert!(s.is_memoized(&idx));
    }

    #[test]
    fn session_reset_warm_keeps_memo() {
        let tia = crate::Tia::default();
        let mut s = EvalSession::borrowed(&tia, SimMode::Schematic);
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        s.evaluate(&idx).unwrap();
        s.reset_warm();
        assert!(s.is_memoized(&idx));
        s.evaluate(&idx).unwrap();
        assert_eq!(s.solve_count(), 1, "revisit after reset must be a hit");
        s.clear();
        assert!(!s.is_memoized(&idx));
    }

    #[test]
    fn session_memo_capacity_bounds_insertions() {
        let tia = crate::Tia::default();
        let mut s = EvalSession::borrowed(&tia, SimMode::Schematic).with_memo_capacity(2);
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

    #[test]
    fn shared_memo_shard_capacity_evicts_fifo() {
        let memo = SharedMemo::new(1, 2); // single shard bounding 2 entries
        memo.insert(&[0], Ok(vec![0.0]), Vec::new(), 0);
        memo.insert(&[1], Ok(vec![1.0]), Vec::new(), 0);
        assert_eq!(memo.len(), 2);
        memo.insert(&[2], Ok(vec![2.0]), Vec::new(), 0);
        assert_eq!(memo.len(), 2, "capacity bound holds");
        assert_eq!(memo.evictions(), 1);
        assert!(!memo.contains(&[0]), "oldest entry evicted first");
        assert!(memo.contains(&[1]) && memo.contains(&[2]));
        // Duplicate insertion keeps the first value (first-solve-wins).
        memo.insert(&[2], Ok(vec![9.0]), Vec::new(), 1);
        let (specs, _, _) = memo.get(&[2], 0).unwrap();
        assert_eq!(specs.unwrap(), vec![2.0]);
    }

    #[test]
    fn shared_memo_rounds_shards_to_power_of_two() {
        let memo = SharedMemo::new(5, 100);
        assert_eq!(memo.num_shards(), 8);
        assert!(memo.capacity() >= 100);
        assert!(memo.is_empty());
    }

    #[test]
    fn shared_memo_tracks_lock_contention() {
        let memo = Arc::new(SharedMemo::new(1, 1024)); // one shard: all keys collide
        assert_eq!(memo.contended_locks(), 0);
        // Hammer the single shard from several threads: every probe and
        // insert routes through the counting lock path (how much
        // contention actually materializes depends on scheduling, so
        // only the counter invariants are asserted).
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let memo = Arc::clone(&memo);
                scope.spawn(move || {
                    for i in 0..2000usize {
                        memo.insert(&[t as usize, i], Ok(vec![i as f64]), Vec::new(), t);
                        let _ = memo.get(&[t as usize, i], t);
                    }
                });
            }
        });
        // Every insert and get takes the lock once.
        assert_eq!(memo.lock_acquisitions(), 4 * 2000 * 2);
        assert!(memo.contended_locks() <= memo.lock_acquisitions());
        // Uncontended single-threaded access never counts.
        let quiet = SharedMemo::new(4, 64);
        quiet.insert(&[1], Ok(vec![1.0]), Vec::new(), 0);
        let _ = quiet.get(&[1], 0);
        assert_eq!(quiet.contended_locks(), 0);
    }

    #[test]
    fn shared_memo_pools_across_sessions() {
        let tia = crate::Tia::default();
        let memo = Arc::new(SharedMemo::new(4, 1024));
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
        assert!(a.is_memoized(&idx));
        assert_eq!(a.memo_len(), 1);
        // Session clear leaves the pooled entries alone.
        a.clear();
        assert!(a.is_memoized(&idx));
        memo.clear();
        assert!(!a.is_memoized(&idx));
    }

    /// A little two-spec engine over hand-built RC "corners" — the
    /// engine is topology-agnostic, so the tests drive it directly.
    fn rc_engine(plan: CornerPlan) -> (CornerEvaluator, Vec<SpecDef>) {
        let engine = CornerEvaluator::new(
            plan,
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
        CornerCase {
            ckt,
            out: o,
            temp_k: 300.0,
            vdd_src: 0,
        }
    }

    use autockt_sim::netlist::GND;

    fn run_rc_engine(
        defective: Option<usize>,
        warm: Option<&mut WarmState>,
    ) -> Result<Vec<f64>, SimError> {
        let (engine, specs) = rc_engine(CornerPlan::pvt_worst_case());
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
            let (engine, specs) = rc_engine(CornerPlan::pvt_worst_case());
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
    /// runs both hand the measure closure a per-corner `(t, y)` settling
    /// record over one shared time window, and they agree within solver
    /// tolerance.
    #[test]
    fn corner_engine_settle_warm_matches_cold() {
        let run = |warm: Option<&mut WarmState>| {
            let (engine, specs) = rc_engine(CornerPlan::pvt_worst_case());
            let engine = engine.with_settling(SettleSpec {
                steps: 256,
                window: 8.0,
            });
            engine.evaluate(
                &specs,
                |slot, _pvt| rc_case(slot, None),
                |_slot, _case, _op, resp, _noise, settle| {
                    let (t, y) = settle
                        .expect("rc corners have a valid cutoff")
                        .as_ref()
                        .expect("rc settling integrates");
                    assert_eq!(t.len(), 257, "steps + 1 samples per record");
                    assert!(t[t.len() - 1] > 0.0, "shared window must be positive");
                    Ok(vec![resp.h[0].norm(), *y.last().unwrap()])
                },
                warm,
            )
        };
        let cold = run(None).unwrap();
        // The RC corners settle toward the driven DC level, so the record
        // end is a real voltage, not a zero placeholder.
        assert!(cold[1].abs() > 0.0);
        let mut state = WarmState::new();
        let warm = run(Some(&mut state)).unwrap();
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
        let last = CornerPlan::pvt_worst_case().len() - 1;
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
        let (engine, specs) = rc_engine(CornerPlan::from_corners(Vec::new()));
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

    #[test]
    fn session_without_memo_always_solves() {
        let tia = crate::Tia::default();
        let mut s = EvalSession::borrowed(&tia, SimMode::Schematic).with_memo(false);
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let a = s.evaluate(&idx).unwrap();
        let b = s.evaluate(&idx).unwrap();
        assert_eq!(s.solve_count(), 2);
        assert_eq!(s.memo_hits(), 0);
        // Revisiting the identical grid point warm-started must reproduce
        // the same fixed point to solver tolerance.
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-6 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }
}
