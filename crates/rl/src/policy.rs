//! Factorized-categorical policy and value networks.
//!
//! Matching the paper, the policy trunk is a 3-layer, 50-neuron MLP; its
//! output layer emits one logit group per action factor (one factor per
//! circuit parameter, each a 3-way decrement/keep/increment categorical).
//! The value function is a separate network of the same shape.
//!
//! Both networks' training losses, the PPO-clip objective with its
//! entropy bonus ([`PolicyNet::ppo_grad`]) and the value regression
//! ([`ValueNet::mse_grad`]), run over a minibatch one [`TILE`] of samples
//! at a time through the batched passes of [`crate::mlp`].

use crate::mlp::{softmax_lse, Mlp, Tape, TILE};
use crate::rollout::Transition;
use rand::rngs::StdRng;
use rand::Rng;

/// Buffers the batched gradients reuse from tile to tile: the network's
/// [`Tape`] and the loss gradient w.r.t. its output.
#[derive(Debug, Clone)]
pub struct GradBuffers {
    tape: Tape,
    dout: Vec<f64>,
}

impl GradBuffers {
    /// Allocates buffers for `net`'s layer widths.
    pub fn new(net: &Mlp) -> Self {
        GradBuffers {
            tape: Tape::new(net),
            dout: Vec::with_capacity(net.n_out() * TILE),
        }
    }
}

/// A stochastic policy over a factorized discrete action space.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyNet {
    net: Mlp,
    action_dims: Vec<usize>,
}

/// Outcome of sampling the policy at one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sampled {
    /// One choice index per action factor.
    pub actions: Vec<usize>,
    /// Joint log-probability of the sampled action.
    pub logp: f64,
}

impl PolicyNet {
    /// Builds a policy for `obs_dim` inputs and the given action factors,
    /// with `hidden` fully-connected tanh layers (the paper uses
    /// `&[50, 50, 50]`).
    ///
    /// # Panics
    ///
    /// Panics if an action factor has no choices.
    pub fn new(obs_dim: usize, action_dims: &[usize], hidden: &[usize], rng: &mut StdRng) -> Self {
        assert!(
            action_dims.iter().all(|&d| d >= 1),
            "every action factor needs at least one choice"
        );
        let n_logits: usize = action_dims.iter().sum();
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(obs_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(n_logits);
        PolicyNet {
            net: Mlp::new(&sizes, rng),
            action_dims: action_dims.to_vec(),
        }
    }

    /// The action factor cardinalities this policy emits.
    pub fn action_dims(&self) -> &[usize] {
        &self.action_dims
    }

    /// Raw logits for an observation, concatenated across factors.
    pub fn logits(&self, obs: &[f64]) -> Vec<f64> {
        self.net.forward(obs)
    }

    /// Samples an action from the policy.
    pub fn act(&self, obs: &[f64], rng: &mut StdRng) -> Sampled {
        let logits = self.logits(obs);
        let mut actions = Vec::with_capacity(self.action_dims.len());
        let mut logp = 0.0;
        let mut off = 0;
        let mut p = Vec::new();
        for &d in &self.action_dims {
            let z = &logits[off..off + d];
            p.resize(d, 0.0);
            let lse = softmax_lse(z, &mut p);
            let u: f64 = rng.random::<f64>();
            let mut acc = 0.0;
            let mut choice = d - 1;
            for (i, pi) in p.iter().enumerate() {
                acc += pi;
                if u < acc {
                    choice = i;
                    break;
                }
            }
            logp += z[choice] - lse;
            actions.push(choice);
            off += d;
        }
        Sampled { actions, logp }
    }

    /// Greedy (argmax) action, used at deployment for reproducibility.
    pub fn act_greedy(&self, obs: &[f64]) -> Vec<usize> {
        let logits = self.logits(obs);
        let mut actions = Vec::with_capacity(self.action_dims.len());
        let mut off = 0;
        for &d in &self.action_dims {
            let z = &logits[off..off + d];
            // `total_cmp` orders NaN logits deterministically instead of
            // panicking mid-deployment. `new` rejects zero-width factors,
            // so `z` is never empty.
            let best = z
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            actions.push(best);
            off += d;
        }
        actions
    }

    /// Joint log-probability and total entropy of `actions` under the
    /// current policy at `obs` (no gradient bookkeeping).
    pub fn logp_entropy(&self, obs: &[f64], actions: &[usize]) -> (f64, f64) {
        let logits = self.logits(obs);
        let mut logp = 0.0;
        let mut ent = 0.0;
        let mut off = 0;
        let mut p = Vec::new();
        for (&d, &a) in self.action_dims.iter().zip(actions) {
            let z = &logits[off..off + d];
            p.resize(d, 0.0);
            logp += z[a] - softmax_lse(z, &mut p);
            ent -= p
                .iter()
                .map(|&pi| if pi > 0.0 { pi * pi.ln() } else { 0.0 })
                .sum::<f64>();
            off += d;
        }
        (logp, ent)
    }

    /// Accumulates the PPO-clip gradient `d(-L_clip - ent_coef * H)/d(theta)`
    /// of the transitions `transitions[i]`, `i` in `idx`, into the
    /// network's gradient buffers, a tile at a time in `idx` order. Calls
    /// `seen(t, logp_new, entropy)` for each sample, in the same order.
    pub fn ppo_grad(
        &mut self,
        bufs: &mut GradBuffers,
        transitions: &[Transition],
        idx: &[usize],
        clip: f64,
        ent_coef: f64,
        mut seen: impl FnMut(&Transition, f64, f64),
    ) {
        let n_logits = self.net.n_out();
        let (mut z, mut dz) = (Vec::new(), vec![0.0; n_logits]);
        let (mut p, mut ln_p) = (vec![0.0; n_logits], Vec::new());
        for tile in idx.chunks(TILE) {
            let len = tile.len();
            bufs.tape
                .load(tile.iter().map(|&i| transitions[i].obs.as_slice()));
            let logits = self.net.forward_tile(&mut bufs.tape);
            bufs.dout.resize(n_logits * len, 0.0);
            for (s, &i) in tile.iter().enumerate() {
                let t = &transitions[i];
                z.clear();
                z.extend((0..n_logits).map(|k| logits[k * len + s]));
                dz.fill(0.0);
                let (logp_new, entropy) =
                    self.ppo_head(&z, t, clip, ent_coef, (&mut p, &mut ln_p), &mut dz);
                for (k, &g) in dz.iter().enumerate() {
                    bufs.dout[k * len + s] = g;
                }
                seen(t, logp_new, entropy);
            }
            self.net.backward_tile(&mut bufs.tape, &bufs.dout);
        }
    }

    /// The PPO-clip head of one sample with logits `z`: adds
    /// `d(-L_clip - ent_coef * H)/dz` to `dz` and returns
    /// `(logp_new, entropy)`. `p` (one entry per logit) and `ln_p` are
    /// reused work buffers.
    ///
    /// Each factor's exponentials and each probability's logarithm are
    /// taken once and read by every term that needs them; every term is
    /// bitwise what computing it on its own gives.
    fn ppo_head(
        &self,
        z: &[f64],
        t: &Transition,
        clip: f64,
        ent_coef: f64,
        (p, ln_p): (&mut [f64], &mut Vec<f64>),
        dz: &mut [f64],
    ) -> (f64, f64) {
        let mut logp_new = 0.0;
        let mut entropy = 0.0;

        // First pass: compute logp_new to decide clipping, and keep each
        // factor's softmax for the second.
        let mut off = 0;
        for (&d, &a) in self.action_dims.iter().zip(&t.actions) {
            let zf = &z[off..off + d];
            logp_new += zf[a] - softmax_lse(zf, &mut p[off..off + d]);
            off += d;
        }
        let ratio = (logp_new - t.logp).exp();
        // Clipped-surrogate gradient gate: gradient flows through the ratio
        // only when the unclipped term is the active minimum.
        let unclipped_active = if t.advantage >= 0.0 {
            ratio < 1.0 + clip
        } else {
            ratio > 1.0 - clip
        };
        let dlogp = if unclipped_active {
            -t.advantage * ratio // d(-ratio*A)/dlogp_new
        } else {
            0.0
        };

        let mut off = 0;
        for (&d, &a) in self.action_dims.iter().zip(&t.actions) {
            let p = &p[off..off + d];
            ln_p.clear();
            ln_p.extend(p.iter().map(|pi| pi.ln()));
            let h: f64 = -p
                .iter()
                .zip(ln_p.iter())
                .map(|(&pi, &l)| if pi > 0.0 { pi * l } else { 0.0 })
                .sum::<f64>();
            entropy += h;
            for j in 0..d {
                // d logp(a) / dz_j = [j == a] - p_j
                let dlp = (if j == a { 1.0 } else { 0.0 }) - p[j];
                // dH/dz_j = -p_j (ln max(p_j, 1e-12) + H)
                let ln_floored = if p[j] >= 1e-12 {
                    ln_p[j]
                } else {
                    1e-12f64.ln()
                };
                let dh = -p[j] * (ln_floored + h);
                dz[off + j] += dlogp * dlp - ent_coef * dh;
            }
            off += d;
        }
        (logp_new, entropy)
    }

    /// Access to the underlying network for optimizer bookkeeping.
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Read-only access to the underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }
}

/// A state-value network (same trunk shape as the policy).
#[derive(Debug, Clone, PartialEq)]
pub struct ValueNet {
    net: Mlp,
}

impl ValueNet {
    /// Builds a value network for `obs_dim` inputs.
    pub fn new(obs_dim: usize, hidden: &[usize], rng: &mut StdRng) -> Self {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(obs_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        ValueNet {
            net: Mlp::new(&sizes, rng),
        }
    }

    /// Predicted value of an observation.
    pub fn value(&self, obs: &[f64]) -> f64 {
        self.net.forward(obs)[0]
    }

    /// Accumulates the gradient of `coef * 0.5 * (v(obs) - ret)^2` of the
    /// transitions `transitions[i]`, `i` in `idx`, into the network's
    /// gradient buffers, a tile at a time in `idx` order.
    pub fn mse_grad(
        &mut self,
        bufs: &mut GradBuffers,
        transitions: &[Transition],
        idx: &[usize],
        coef: f64,
    ) {
        for tile in idx.chunks(TILE) {
            bufs.tape
                .load(tile.iter().map(|&i| transitions[i].obs.as_slice()));
            let v = self.net.forward_tile(&mut bufs.tape);
            bufs.dout.clear();
            bufs.dout.extend(
                tile.iter()
                    .zip(v)
                    .map(|(&i, &v)| coef * (v - transitions[i].ret)),
            );
            self.net.backward_tile(&mut bufs.tape, &bufs.dout);
        }
    }

    /// Read-only access to the underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Access to the underlying network for optimizer bookkeeping.
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn sample(obs: &[f64], actions: &[usize], logp: f64, advantage: f64, ret: f64) -> Transition {
        Transition {
            obs: obs.to_vec(),
            actions: actions.to_vec(),
            logp,
            reward: 0.0,
            value: 0.0,
            advantage,
            ret,
        }
    }

    #[test]
    fn sampled_actions_in_range() {
        let mut r = rng();
        let p = PolicyNet::new(4, &[3, 3, 5], &[16], &mut r);
        for _ in 0..100 {
            let s = p.act(&[0.1, 0.2, -0.1, 0.0], &mut r);
            assert_eq!(s.actions.len(), 3);
            assert!(s.actions[0] < 3 && s.actions[1] < 3 && s.actions[2] < 5);
            assert!(s.logp <= 0.0);
        }
    }

    #[test]
    fn logp_matches_sampling_probabilities() {
        // Empirical frequency of an action should be close to exp(logp).
        let mut r = rng();
        let p = PolicyNet::new(2, &[3], &[8], &mut r);
        let obs = [0.3, -0.3];
        let (logp0, _) = p.logp_entropy(&obs, &[0]);
        let n = 20000;
        let mut count = 0;
        for _ in 0..n {
            if p.act(&obs, &mut r).actions[0] == 0 {
                count += 1;
            }
        }
        let freq = count as f64 / n as f64;
        assert!(
            (freq - logp0.exp()).abs() < 0.02,
            "freq {freq} vs p {}",
            logp0.exp()
        );
    }

    #[test]
    fn entropy_max_for_uniform_logits() {
        // A fresh network with zero bias has near-uniform outputs only by
        // chance; instead check entropy is within the valid bound.
        let mut r = rng();
        let p = PolicyNet::new(2, &[3, 3], &[8], &mut r);
        let (_, ent) = p.logp_entropy(&[0.0, 0.0], &[0, 0]);
        let max_ent = 2.0 * 3f64.ln();
        assert!(ent > 0.0 && ent <= max_ent + 1e-9);
    }

    #[test]
    fn greedy_is_deterministic() {
        let mut r = rng();
        let p = PolicyNet::new(3, &[3, 3], &[16], &mut r);
        let obs = [0.5, -0.5, 0.1];
        assert_eq!(p.act_greedy(&obs), p.act_greedy(&obs));
    }

    #[test]
    fn ppo_grad_moves_policy_toward_advantaged_action() {
        // Repeatedly reinforcing action 2 with positive advantage must
        // raise its probability.
        let mut r = rng();
        let mut p = PolicyNet::new(2, &[3], &[8], &mut r);
        let obs = [0.2, 0.8];
        let (logp_before, _) = p.logp_entropy(&obs, &[2]);
        let mut bufs = GradBuffers::new(p.net());
        for _ in 0..50 {
            let (logp_old, _) = p.logp_entropy(&obs, &[2]);
            p.net_mut().zero_grad();
            let t = sample(&obs, &[2], logp_old, 1.0, 0.0);
            p.ppo_grad(&mut bufs, &[t], &[0], 0.2, 0.0, |_, _, _| {});
            p.net_mut().adam_step(1e-2);
        }
        let (logp_after, _) = p.logp_entropy(&obs, &[2]);
        assert!(
            logp_after > logp_before,
            "{logp_before} -> {logp_after} should increase"
        );
    }

    #[test]
    fn clipping_gates_gradient() {
        // With a ratio far outside the clip range and positive advantage,
        // the gradient must be zero.
        let mut r = rng();
        let mut p = PolicyNet::new(2, &[3], &[8], &mut r);
        let obs = [0.1, 0.1];
        let (logp_now, _) = p.logp_entropy(&obs, &[1]);
        // Pretend old policy had much lower prob: ratio >> 1 + clip.
        let logp_old = logp_now - 2.0;
        p.net_mut().zero_grad();
        let t = sample(&obs, &[1], logp_old, 1.0, 0.0);
        p.ppo_grad(
            &mut GradBuffers::new(p.net()),
            &[t],
            &[0],
            0.2,
            0.0,
            |_, _, _| {},
        );
        assert!(p.net().grad_norm() < 1e-12, "clipped sample must not move");
    }

    #[test]
    #[should_panic(expected = "every action factor needs at least one choice")]
    fn zero_width_action_factor_is_rejected_at_construction() {
        PolicyNet::new(2, &[3, 0], &[8], &mut rng());
    }

    #[test]
    fn value_net_fits_constant() {
        let mut r = rng();
        let mut v = ValueNet::new(3, &[16], &mut r);
        let obs = [0.4, -0.2, 0.9];
        let t = [sample(&obs, &[], 0.0, 0.0, 3.5)];
        let mut bufs = GradBuffers::new(v.net());
        for _ in 0..500 {
            v.net_mut().zero_grad();
            v.mse_grad(&mut bufs, &t, &[0], 1.0);
            v.net_mut().adam_step(3e-3);
        }
        assert!((v.value(&obs) - 3.5).abs() < 0.05);
    }
}
