//! The batched PPO update against the per-sample update it replaced.
//!
//! - The batched policy and value gradients equal, bit for bit, a copy of
//!   the per-sample loops ([`reference`]) over random network shapes and
//!   batch sizes, ragged final tiles included, with the reference running
//!   the networks' own [`tanh`].
//! - The reference run with libm's `tanh` instead gives the same
//!   gradients to within [`LIBM_GRAD_TOL`] per layer.
//! - `Ppo::update` gives the same bits with the value network stepped on a
//!   second lane as with both networks on the calling thread.
//! - A golden run pins the update's arithmetic to recorded constants.

use autockt_rl::mlp::{tanh, LayerView, Mlp};
use autockt_rl::policy::{GradBuffers, PolicyNet, ValueNet};
use autockt_rl::ppo::{Ppo, PpoConfig};
use autockt_rl::rollout::{compute_gae, register_thread_budget, Batch, Transition};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The per-sample forward/backward and loss heads, as the update ran them
/// before batching: one sample at a time, gradients accumulated into
/// buffers of the network's shape.
mod reference {
    use super::*;
    use autockt_rl::mlp::{log_sum_exp, softmax};

    /// Accumulated gradients, one `(gw, gb)` per layer.
    pub struct Grads(pub Vec<(Vec<f64>, Vec<f64>)>);

    impl Grads {
        pub fn zeros(net: &Mlp) -> Self {
            Grads(
                net.layers()
                    .map(|l| (vec![0.0; l.w.len()], vec![0.0; l.b.len()]))
                    .collect(),
            )
        }
    }

    /// Post-activation values per layer (`act` hidden, linear output);
    /// `acts[0]` is the input.
    fn forward(layers: &[LayerView], x: &[f64], act: fn(f64) -> f64) -> Vec<Vec<f64>> {
        let mut acts = vec![x.to_vec()];
        let last = layers.len() - 1;
        for (li, l) in layers.iter().enumerate() {
            let input = &acts[li];
            let mut out = Vec::new();
            for o in 0..l.n_out {
                let row = &l.w[o * l.n_in..(o + 1) * l.n_in];
                let mut acc = l.b[o];
                for (wi, xi) in row.iter().zip(input) {
                    acc += wi * xi;
                }
                out.push(acc);
            }
            acts.push(if li == last {
                out
            } else {
                out.into_iter().map(act).collect()
            });
        }
        acts
    }

    fn backward(layers: &[LayerView], acts: &[Vec<f64>], dout: &[f64], g: &mut Grads) {
        // The output layer is linear: its derivative is 1.
        let mut dy: Vec<f64> = dout.to_vec();
        for li in (0..layers.len()).rev() {
            let l = &layers[li];
            let x = &acts[li];
            let (gw, gb) = &mut g.0[li];
            let mut dx = vec![0.0; l.n_in];
            for (o, &go) in dy.iter().enumerate() {
                gb[o] += go;
                let row = &l.w[o * l.n_in..(o + 1) * l.n_in];
                let grow = &mut gw[o * l.n_in..(o + 1) * l.n_in];
                for i in 0..l.n_in {
                    grow[i] += go * x[i];
                    dx[i] += go * row[i];
                }
            }
            if li > 0 {
                dy = dx
                    .iter()
                    .zip(&acts[li])
                    .map(|(g, y)| g * (1.0 - y * y))
                    .collect();
            }
        }
    }

    /// One sample's PPO-clip gradient through a network whose hidden
    /// activation is `act` (a tanh); returns `(logp_new, entropy)`.
    pub fn ppo_grad(
        net: &Mlp,
        act: fn(f64) -> f64,
        action_dims: &[usize],
        t: &Transition,
        clip: f64,
        ent_coef: f64,
        g: &mut Grads,
    ) -> (f64, f64) {
        let layers: Vec<LayerView> = net.layers().collect();
        let acts = forward(&layers, &t.obs, act);
        let out = &acts[layers.len()];
        let mut dlogits = vec![0.0; out.len()];
        let mut logp_new = 0.0;
        let mut entropy = 0.0;
        let mut off = 0;
        for (&d, &a) in action_dims.iter().zip(&t.actions) {
            let z = &out[off..off + d];
            logp_new += z[a] - log_sum_exp(z);
            off += d;
        }
        let ratio = (logp_new - t.logp).exp();
        let unclipped_active = if t.advantage >= 0.0 {
            ratio < 1.0 + clip
        } else {
            ratio > 1.0 - clip
        };
        let dlogp = if unclipped_active {
            -t.advantage * ratio
        } else {
            0.0
        };
        let mut off = 0;
        for (&d, &a) in action_dims.iter().zip(&t.actions) {
            let z = &out[off..off + d];
            let p = softmax(z);
            let h: f64 = -p
                .iter()
                .map(|&pi| if pi > 0.0 { pi * pi.ln() } else { 0.0 })
                .sum::<f64>();
            entropy += h;
            for j in 0..d {
                let dlp = (if j == a { 1.0 } else { 0.0 }) - p[j];
                let dh = -p[j] * (p[j].max(1e-12).ln() + h);
                dlogits[off + j] += dlogp * dlp - ent_coef * dh;
            }
            off += d;
        }
        backward(&layers, &acts, &dlogits, g);
        (logp_new, entropy)
    }

    /// One sample's value-regression gradient through a network whose
    /// hidden activation is `act` (a tanh).
    pub fn mse_grad(net: &Mlp, act: fn(f64) -> f64, t: &Transition, coef: f64, g: &mut Grads) {
        let layers: Vec<LayerView> = net.layers().collect();
        let acts = forward(&layers, &t.obs, act);
        let v = acts[layers.len()][0];
        backward(&layers, &acts, &[coef * (v - t.ret)], g);
    }
}

/// Asserts that `net`'s accumulated gradients equal `want` bitwise.
fn assert_grads_eq(net: &Mlp, want: &reference::Grads) {
    for (li, (l, (gw, gb))) in net.layers().zip(&want.0).enumerate() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(l.gw), bits(gw), "layer {li} weight gradient");
        assert_eq!(bits(l.gb), bits(gb), "layer {li} bias gradient");
    }
}

/// `n` transitions for a policy with the given action factors. Behaviour
/// log-probabilities sit near the current policy's, so some samples fall
/// inside the clip range and some outside.
fn transitions(policy: &PolicyNet, obs_dim: usize, n: usize, rng: &mut StdRng) -> Vec<Transition> {
    (0..n)
        .map(|_| {
            let obs: Vec<f64> = (0..obs_dim).map(|_| rng.random_range(-1.0..1.0)).collect();
            let actions: Vec<usize> = policy
                .action_dims()
                .iter()
                .map(|&d| rng.random_range(0..d))
                .collect();
            let (logp, _) = policy.logp_entropy(&obs, &actions);
            Transition {
                logp: logp + rng.random_range(-0.5..0.5),
                advantage: rng.random_range(-2.0..2.0),
                ret: rng.random_range(-3.0..3.0),
                reward: rng.random_range(-1.0..1.0),
                value: 0.0,
                obs,
                actions,
            }
        })
        .collect()
}

/// A collected batch: [`transitions`] with GAE over 30-step episodes.
fn batch(
    policy: &PolicyNet,
    value: &ValueNet,
    obs_dim: usize,
    n: usize,
    rng: &mut StdRng,
) -> Batch {
    let mut transitions = transitions(policy, obs_dim, n, rng);
    for t in &mut transitions {
        t.value = value.value(&t.obs);
    }
    let dones: Vec<bool> = (0..n).map(|i| i % 30 == 29).collect();
    compute_gae(&mut transitions, &dones, 0.0, 0.99, 0.95);
    Batch {
        transitions,
        ..Batch::default()
    }
}

static TWO_LANES: AtomicBool = AtomicBool::new(false);
static BUDGET_READS: AtomicUsize = AtomicUsize::new(0);
static LANE_SWITCH: Mutex<()> = Mutex::new(());

fn budget() -> usize {
    BUDGET_READS.fetch_add(1, Ordering::SeqCst);
    if TWO_LANES.load(Ordering::SeqCst) {
        2
    } else {
        1
    }
}

/// Runs `f` with a thread budget of 2 (the update's second lane runs) or
/// 1 (it does not), and checks that `f` consulted the budget.
fn with_lanes<T>(two: bool, f: impl FnOnce() -> T) -> T {
    let _switch = LANE_SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
    register_thread_budget(budget);
    TWO_LANES.store(two, Ordering::SeqCst);
    let before = BUDGET_READS.load(Ordering::SeqCst);
    let out = f();
    let reads = BUDGET_READS.load(Ordering::SeqCst) - before;
    assert!(reads > 0, "the update never read the thread budget");
    out
}

/// Bound on [`libm_gap`] between the reference gradients with libm's
/// `tanh` and with the networks' own. The activations differ by at most
/// 2 ulp; the worst gap seen over 1024 cases was 4.9e-15.
const LIBM_GRAD_TOL: f64 = 1e-12;

/// The largest per-layer gap between two gradient sets, each layer's
/// max-norm gap over the max-norm of `libm`'s gradient for that layer.
fn libm_gap(libm: &reference::Grads, own: &reference::Grads) -> f64 {
    let mut worst: f64 = 0.0;
    for ((lw, lb), (ow, ob)) in libm.0.iter().zip(&own.0) {
        let (l, o) = (lw.iter().chain(lb), ow.iter().chain(ob));
        let scale = l.clone().fold(0.0, |m: f64, v| m.max(v.abs()));
        let gap = l.zip(o).fold(0.0, |m: f64, (a, b)| m.max((a - b).abs()));
        worst = worst.max(if scale > 0.0 { gap / scale } else { gap });
    }
    worst
}

fn param_bits(net: &Mlp) -> Vec<u64> {
    net.layers()
        .flat_map(|l| l.w.iter().chain(l.b))
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    /// Batched policy gradients and per-sample `(logp_new, entropy)` equal
    /// the per-sample loop's bitwise.
    #[test]
    fn batched_policy_grad_matches_per_sample(
        seed in 0u64..u64::MAX,
        hidden in prop::collection::vec(1usize..65, 0..4),
        obs_dim in 1usize..21,
        action_dims in prop::collection::vec(1usize..6, 1..9),
        n in 1usize..301,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut policy = PolicyNet::new(obs_dim, &action_dims, &hidden, &mut rng);
        let ts = transitions(&policy, obs_dim, n, &mut rng);
        let (clip, ent_coef) = (0.2, 5e-3);

        let mut want = reference::Grads::zeros(policy.net());
        let want_stats: Vec<(u64, u64)> = ts
            .iter()
            .map(|t| {
                reference::ppo_grad(policy.net(), tanh, &action_dims, t, clip, ent_coef, &mut want)
            })
            .map(|(l, e)| (l.to_bits(), e.to_bits()))
            .collect();

        let mut bufs = GradBuffers::new(policy.net());
        let idx: Vec<usize> = (0..n).collect();
        let mut stats = Vec::new();
        policy.ppo_grad(&mut bufs, &ts, &idx, clip, ent_coef, |_, l, e| {
            stats.push((l.to_bits(), e.to_bits()));
        });
        assert_grads_eq(policy.net(), &want);
        prop_assert_eq!(stats, want_stats);
    }

    /// Batched value gradients equal the per-sample loop's bitwise.
    #[test]
    fn batched_value_grad_matches_per_sample(
        seed in 0u64..u64::MAX,
        hidden in prop::collection::vec(1usize..65, 0..4),
        obs_dim in 1usize..21,
        n in 1usize..301,
        coef in 0.1..2.0f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = PolicyNet::new(obs_dim, &[3], &[4], &mut rng);
        let mut value = ValueNet::new(obs_dim, &hidden, &mut rng);
        let ts = transitions(&policy, obs_dim, n, &mut rng);

        let mut want = reference::Grads::zeros(value.net());
        for t in &ts {
            reference::mse_grad(value.net(), tanh, t, coef, &mut want);
        }
        let mut bufs = GradBuffers::new(value.net());
        let idx: Vec<usize> = (0..n).collect();
        value.mse_grad(&mut bufs, &ts, &idx, coef);
        assert_grads_eq(value.net(), &want);
    }

    /// The per-sample policy and value gradients with libm's `tanh` agree
    /// with those with the networks' own to within [`LIBM_GRAD_TOL`] per
    /// layer.
    #[test]
    fn own_tanh_grads_match_libm(
        seed in 0u64..u64::MAX,
        hidden in prop::collection::vec(1usize..65, 0..4),
        obs_dim in 1usize..21,
        action_dims in prop::collection::vec(1usize..6, 1..9),
        n in 1usize..301,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = PolicyNet::new(obs_dim, &action_dims, &hidden, &mut rng);
        let value = ValueNet::new(obs_dim, &hidden, &mut rng);
        let ts = transitions(&policy, obs_dim, n, &mut rng);
        let grads = |act: fn(f64) -> f64| {
            let mut pg = reference::Grads::zeros(policy.net());
            let mut vg = reference::Grads::zeros(value.net());
            for t in &ts {
                reference::ppo_grad(policy.net(), act, &action_dims, t, 0.2, 5e-3, &mut pg);
                reference::mse_grad(value.net(), act, t, 0.5, &mut vg);
            }
            (pg, vg)
        };
        let (libm, own) = (grads(f64::tanh), grads(tanh));
        let gap = libm_gap(&libm.0, &own.0).max(libm_gap(&libm.1, &own.1));
        prop_assert!(gap <= LIBM_GRAD_TOL, "per-layer relative gap {gap:e}");
    }

    /// One lane or two, `Ppo::update` trains the same networks and reports
    /// the same `(entropy, kl)`, ragged minibatches included.
    #[test]
    fn update_is_lane_invariant(
        seed in 0u64..u64::MAX,
        hidden in prop::collection::vec(1usize..33, 0..3),
        obs_dim in 1usize..21,
        action_dims in prop::collection::vec(1usize..6, 1..9),
        n in 1usize..301,
        minibatch in 1usize..301,
        epochs in 1usize..4,
    ) {
        let cfg = PpoConfig { hidden, minibatch, epochs, ..PpoConfig::default() };
        let mut one = Ppo::new(obs_dim, &action_dims, cfg, seed);
        let mut two = one.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let data = batch(&one.policy, &one.value, obs_dim, n, &mut rng);
        let s1 = with_lanes(false, || one.update(&mut data.clone()));
        let s2 = with_lanes(true, || two.update(&mut data.clone()));
        prop_assert_eq!((s1.0.to_bits(), s1.1.to_bits()), (s2.0.to_bits(), s2.1.to_bits()));
        prop_assert_eq!(param_bits(one.policy.net()), param_bits(two.policy.net()));
        prop_assert_eq!(param_bits(one.value.net()), param_bits(two.value.net()));
    }
}

/// `(entropy, kl)` of the two golden updates, as `f64` bits. Recorded
/// with the networks' own `tanh`; against the constants recorded with
/// libm's, 24 of these 26 values moved, by at most 1.1e-14 relative.
const GOLDEN_STATS: [(u64, u64); 2] = [
    (0x401d9e3d00c99659, 0x3f8b1b456cf19e8c),
    (0x401d7a006d66a6fb, 0x3fa2e76cf68b6c73),
];

/// The trained policy's logits at the probe observation, as `f64` bits.
const GOLDEN_LOGITS: [u64; 21] = [
    0x3fdf3e0a1684706b,
    0x3fa02f431f6323b9,
    0xbfd25cd2d3a81a5a,
    0x3fe9b67df023b9ca,
    0x3fbd64d11c6387cf,
    0xbfcd730cd187b142,
    0x3fe1fe656b299dd6,
    0x3fc4fdb221adc723,
    0xbfe03ad5cfcebd16,
    0x3fbf1c89e94eb29f,
    0x3fb230bb310ecce7,
    0xbfe49cdb942848f1,
    0xbfc2606fa67bab66,
    0x3fdb358339de9a49,
    0xbfa8a6d5bb7d1dfb,
    0xbfe9723563c8a482,
    0x3fea347b1d306d6d,
    0x3fe3ff43cfbdece1,
    0x3fb5a11b8707e345,
    0x3fe0e82011329f4c,
    0x3fd748ab491bbe14,
];

/// The trained value network's output at the probe observation.
const GOLDEN_VALUE: u64 = 0xbfd923d918bed376;

/// Two paper-default updates (2048 transitions, 8 epochs x 256) in the
/// op-amp's shape: 15 observations, 7 three-way action factors.
fn golden_run() -> (Vec<(u64, u64)>, Vec<u64>, u64) {
    let mut agent = Ppo::new(15, &[3; 7], PpoConfig::default(), 2020);
    let mut rng = StdRng::seed_from_u64(14);
    let stats = (0..2)
        .map(|_| {
            let mut transitions: Vec<Transition> = (0..2048)
                .map(|_| {
                    let obs: Vec<f64> = (0..15).map(|_| rng.random_range(-1.0..1.0)).collect();
                    let actions: Vec<usize> = (0..7).map(|_| rng.random_range(0..3)).collect();
                    let (logp, _) = agent.policy.logp_entropy(&obs, &actions);
                    Transition {
                        logp: logp + rng.random_range(-0.3..0.3),
                        value: agent.value.value(&obs),
                        reward: rng.random_range(-1.0..1.0),
                        obs,
                        actions,
                        advantage: 0.0,
                        ret: 0.0,
                    }
                })
                .collect();
            let dones: Vec<bool> = (0..2048).map(|i| i % 30 == 29).collect();
            compute_gae(&mut transitions, &dones, 0.0, 0.99, 0.95);
            let (e, k) = agent.update(&mut Batch {
                transitions,
                ..Batch::default()
            });
            (e.to_bits(), k.to_bits())
        })
        .collect();
    let probe: Vec<f64> = (0..15).map(|i| (i as f64 * 0.37).sin() * 0.8).collect();
    let logits = agent
        .policy
        .logits(&probe)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (stats, logits, agent.value.value(&probe).to_bits())
}

/// The update reproduces the golden bit for bit, on one lane and on two.
#[test]
fn update_matches_per_sample_golden() {
    for two in [false, true] {
        let (stats, logits, value) = with_lanes(two, golden_run);
        assert_eq!(stats, GOLDEN_STATS, "two lanes: {two}");
        assert_eq!(logits, GOLDEN_LOGITS, "two lanes: {two}");
        assert_eq!(value, GOLDEN_VALUE, "two lanes: {two}");
    }
}
