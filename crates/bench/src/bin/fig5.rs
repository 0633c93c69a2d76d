//! Fig. 5 — mean episode reward during TIA training: the curve climbs from
//! a negative floor to above zero as the agent learns to reach its target
//! set.
//!
//! Run: `cargo run --release -p autockt_bench --bin fig5`

use autockt_bench::exp::{report_curve, train_agent};
use autockt_circuits::Tia;
use std::sync::Arc;

fn main() {
    let res = train_agent(Arc::new(Tia::default()), 40, 30, 5);
    let last = res.curve.last().map_or(f64::NAN, |s| s.mean_episode_reward);
    report_curve(
        &res,
        "Fig. 5 — TIA mean episode reward vs training iteration",
        "fig5_tia_reward_curve.csv",
        Some(&format!(
            "paper shape: reward rises to >= 0 after training completes — measured final {last:.2}"
        )),
    );
}
