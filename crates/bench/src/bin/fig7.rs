//! Fig. 7 — mean reward over environment steps for the two-stage op-amp.
//! The paper notes ~1e4 steps to reach mean reward 0 and a 1.3 h wall
//! clock on 8 cores; this binary also reports our wall clock.
//!
//! Run: `cargo run --release -p autockt_bench --bin fig7`

use autockt_bench::exp::{report_curve, train_agent};
use autockt_circuits::OpAmp2;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let res = train_agent(Arc::new(OpAmp2::default()), 60, 30, 31);
    let wall = t0.elapsed().as_secs_f64();
    report_curve(
        &res,
        "Fig. 7 — op-amp mean reward vs environment steps",
        "fig7_opamp_reward_curve.csv",
        Some(&format!(
            "paper: ~1e4 steps to mean reward 0, 1.3 h on 8 cores; measured: {} steps, {wall:.1} s",
            res.env_steps()
        )),
    );
}
