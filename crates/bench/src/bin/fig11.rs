//! Fig. 11 — mean episode reward over environment steps for the
//! negative-gm OTA.
//!
//! Run: `cargo run --release -p autockt_bench --bin fig11`

use autockt_bench::exp::{report_curve, train_agent};
use autockt_circuits::NegGmOta;
use std::sync::Arc;

fn main() {
    let res = train_agent(Arc::new(NegGmOta::default()), 60, 30, 47);
    report_curve(
        &res,
        "Fig. 11 — negative-gm OTA mean episode reward curve",
        "fig11_neggm_reward_curve.csv",
        None,
    );
}
