//! Turning phases into the reported metrics.

use crate::phase::{quantile, Phase, PROBE_REF_S};
use crate::trace::{self, Span};
use std::collections::HashMap;

/// One reported metric.
pub struct Metric {
    /// Layer-qualified name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(ph: &Phase, peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        m("setup_s", quantile(&ph.ref_setup_s(), 0.5), "s"),
        m("evals_per_s", ph.evals_per_s(), "1/s"),
        m("unit_s_p50", quantile(&ph.ref_unit_s(), 0.5), "s"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// Span durations at reference host speed: each span is scaled by the
/// host-speed probe of the unit it belongs to (its run id).
struct Durations<'a> {
    unit_probe_s: &'a [f64],
}

impl Durations<'_> {
    fn scale(&self, s: &Span) -> f64 {
        let probe = self.unit_probe_s.get(s.run as usize).copied();
        PROBE_REF_S / probe.unwrap_or(PROBE_REF_S)
    }

    fn secs(&self, s: &Span) -> f64 {
        s.secs() * self.scale(s)
    }

    fn total<'s>(&self, spans: impl Iterator<Item = &'s Span>) -> f64 {
        spans.map(|s| self.secs(s)).sum()
    }

    fn micros(&self, spans: &[&Span], q: f64) -> f64 {
        let d: Vec<f64> = spans.iter().map(|s| self.secs(s) * 1e6).collect();
        if d.is_empty() {
            0.0
        } else {
            quantile(&d, q)
        }
    }

    /// Rollout-worker time outside `env.step`/`env.reset` and collection
    /// imbalance, summed over every `rl.collect` span.
    ///
    /// A worker's active interval runs from the start of its first env
    /// call to the end of its last; its policy time is that interval minus
    /// its env calls. The imbalance of a collection is its wall-clock
    /// minus the longest active interval, the slowest worker setting the
    /// pace.
    fn rollout_split(&self, spans: &[Span]) -> (f64, f64) {
        let mut by_collect: HashMap<u64, HashMap<u64, (u64, u64, u64)>> = HashMap::new();
        for s in spans
            .iter()
            .filter(|s| s.name == trace::ENV_STEP || s.name == trace::ENV_RESET)
        {
            let w = by_collect
                .entry(s.parent)
                .or_default()
                .entry(s.thread)
                .or_insert((u64::MAX, 0, 0));
            w.0 = w.0.min(s.start_ns);
            w.1 = w.1.max(s.end_ns);
            w.2 += s.end_ns - s.start_ns;
        }
        let (mut policy, mut imbalance) = (0.0, 0.0);
        for c in named(spans, "rl.collect") {
            let Some(workers) = by_collect.get(&c.id) else {
                continue;
            };
            let mut longest = 0;
            for &(first, last, busy) in workers.values() {
                policy += (last - first).saturating_sub(busy) as f64 * 1e-9 * self.scale(c);
                longest = longest.max(last - first);
            }
            imbalance +=
                (c.end_ns - c.start_ns).saturating_sub(longest) as f64 * 1e-9 * self.scale(c);
        }
        (policy, imbalance)
    }
}

fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// The per-layer metrics of a traced phase `b`, with `a` its untraced
/// twin (same rounds, same seeds).
pub fn per_layer(a: &Phase, b: &Phase, count_rel_diff: f64) -> Vec<Metric> {
    let spans = &b.spans;
    let d = Durations {
        unit_probe_s: &b.unit_probe_s,
    };
    let update_s = d.total(named(spans, "rl.update"));
    let iteration_s = d.total(named(spans, "rl.iteration"));
    let (policy_s, imbalance_s) = d.rollout_split(spans);
    let steps: Vec<&Span> = named(spans, trace::ENV_STEP).collect();
    let sims: Vec<&Span> = spans
        .iter()
        .filter(|s| trace::SIMULATE.contains(&s.name))
        .collect();
    let simulate_s = d.total(sims.iter().copied());
    let ga_s = d.total(named(spans, "baselines.ga"));
    let selves = trace::self_times(spans);
    let ga_self_s: f64 = named(spans, "baselines.ga")
        .map(|s| selves[&s.id] as f64 * 1e-9 * d.scale(s))
        .sum();
    let ga_solves = if ga_s > 0.0 { sims.len() } else { 0 };
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out = vec![
        m("rl.update_s", update_s, "s"),
        m("rl.update_samples", b.update_samples as f64, "count"),
        m(
            "rl.update_us_per_sample",
            per(update_s * 1e6, b.update_samples as f64),
            "us",
        ),
        m(
            "rl.update_gflops",
            per(b.update_flops * 1e-9, update_s),
            "GFLOP/s",
        ),
        m("rl.update_share", per(update_s, iteration_s), "frac"),
        m("rl.collect_s", d.total(named(spans, "rl.collect")), "s"),
        m("rl.policy_s", policy_s, "s"),
        m("rl.collect_imbalance_s", imbalance_s, "s"),
        m("core.env_steps", steps.len() as f64, "count"),
        m(
            "core.env_resets",
            named(spans, trace::ENV_RESET).count() as f64,
            "count",
        ),
        m("core.env_step_s", d.total(steps.iter().copied()), "s"),
        m("core.env_step_us_p50", d.micros(&steps, 0.5), "us"),
        m(
            "core.trajectory_s",
            d.total(named(spans, "core.trajectory")),
            "s",
        ),
        m(
            "core.trajectory_steps",
            if named(spans, "core.trajectory").next().is_some() {
                steps.len() as f64
            } else {
                0.0
            },
            "count",
        ),
        m("circuits.evals", b.evals as f64, "count"),
        m("circuits.solves", b.solves as f64, "count"),
        m("circuits.memo_hits", b.memo_hits as f64, "count"),
        m(
            "circuits.cross_memo_hits",
            b.cross_memo_hits as f64,
            "count",
        ),
        m(
            "circuits.memo_hit_frac",
            per(b.memo_hits as f64, b.evals as f64),
            "frac",
        ),
        m(
            "circuits.memo_lock_acquisitions",
            b.memo_locks as f64,
            "count",
        ),
        m(
            "circuits.memo_contended_locks",
            b.memo_contended as f64,
            "count",
        ),
        m("circuits.memo_inserts", b.memo_inserts as f64, "count"),
        m("circuits.memo_evictions", b.memo_evictions as f64, "count"),
        m("circuits.simulate_calls", sims.len() as f64, "count"),
        m("circuits.simulate_s", simulate_s, "s"),
        m("circuits.simulate_us_p50", d.micros(&sims, 0.5), "us"),
        m("circuits.simulate_us_p90", d.micros(&sims, 0.9), "us"),
        m(
            "circuits.sim_errors",
            sims.iter().filter(|s| s.tag.is_some()).count() as f64,
            "count",
        ),
    ];
    for v in trace::SIM_ERROR_VARIANTS {
        let n = sims.iter().filter(|s| s.tag == Some(v)).count();
        out.push(m(&format!("circuits.sim_errors.{v}"), n as f64, "count"));
    }
    let total = |ph: &Phase| ph.ref_unit_s().iter().sum::<f64>();
    let (untraced_s, traced_s) = (total(a), total(b));
    out.extend([
        m("baselines.ga_s", ga_s, "s"),
        m("baselines.ga_sims", b.ga_sims as f64, "count"),
        m("baselines.ga_unique_solves", ga_solves as f64, "count"),
        m("baselines.ga_self_s", ga_self_s, "s"),
        m("trace.spans", spans.len() as f64, "count"),
        m("trace.untraced_s", untraced_s, "s"),
        m("trace.traced_s", traced_s, "s"),
        m(
            "trace.overhead_frac",
            per(traced_s - untraced_s, untraced_s),
            "frac",
        ),
        m("repeat.count_rel_diff", count_rel_diff, "frac"),
    ]);
    out
}
