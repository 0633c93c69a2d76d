//! Criterion micro-benchmarks of the learning stack: the hidden-layer
//! activation over one tile, forward/backward passes of the paper's 3x50
//! network and a full PPO update on a synthetic batch.

use autockt_rl::mlp::{tanh, Mlp, Tape, TILE};
use autockt_rl::policy::PolicyNet;
use autockt_rl::ppo::{Ppo, PpoConfig};
use autockt_rl::rollout::{compute_gae, Batch, Transition};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One hidden layer's activations over a full tile (50 units x 64
/// samples), with the network's own `tanh` and with libm's.
fn bench_tanh(c: &mut Criterion) {
    let x: Vec<f64> = (0..50 * TILE)
        .map(|i| (i as f64 * 0.37).sin() * 3.0)
        .collect();
    let mut y = vec![0.0; x.len()];
    c.bench_function("tanh_tile_50x64", |b| {
        b.iter(|| {
            for (o, &v) in y.iter_mut().zip(black_box(&x)) {
                *o = tanh(v);
            }
            black_box(&mut y);
        })
    });
    c.bench_function("tanh_tile_50x64_libm", |b| {
        b.iter(|| {
            for (o, &v) in y.iter_mut().zip(black_box(&x)) {
                *o = v.tanh();
            }
            black_box(&mut y);
        })
    });
}

fn bench_mlp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let net = Mlp::new(&[13, 50, 50, 50, 21], &mut rng);
    let x: Vec<f64> = (0..13).map(|i| (i as f64 * 0.1).sin()).collect();
    c.bench_function("mlp_forward_3x50", |b| {
        b.iter(|| net.forward(black_box(&x)))
    });
    // One 256-sample minibatch, a tile at a time; the loss gradient is
    // the output itself.
    let mut net2 = net.clone();
    let mut tape = Tape::new(&net2);
    let mut dout = Vec::with_capacity(21 * TILE);
    let rows: Vec<Vec<f64>> = (0..256)
        .map(|s| (0..13).map(|i| ((s * 13 + i) as f64 * 0.1).sin()).collect())
        .collect();
    c.bench_function("mlp_forward_backward_3x50_batch256", |b| {
        b.iter(|| {
            for tile in black_box(&rows).chunks(TILE) {
                tape.load(tile.iter().map(Vec::as_slice));
                dout.clear();
                dout.extend_from_slice(net2.forward_tile(&mut tape));
                net2.backward_tile(&mut tape, &dout);
            }
        })
    });
}

fn bench_policy_act(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let p = PolicyNet::new(13, &[3; 7], &[50, 50, 50], &mut rng);
    let obs: Vec<f64> = (0..13).map(|i| (i as f64 * 0.3).cos()).collect();
    c.bench_function("policy_sample_7x3", |b| {
        b.iter(|| p.act(black_box(&obs), &mut rng))
    });
}

fn synthetic_batch(n: usize, obs_dim: usize, factors: usize, rng: &mut StdRng) -> Batch {
    let mut transitions: Vec<Transition> = (0..n)
        .map(|_| Transition {
            obs: (0..obs_dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
            actions: (0..factors).map(|_| rng.random_range(0..3)).collect(),
            logp: -1.1,
            reward: rng.random_range(-1.0..1.0),
            value: 0.0,
            advantage: 0.0,
            ret: 0.0,
        })
        .collect();
    let dones: Vec<bool> = (0..n).map(|i| i % 16 == 15).collect();
    compute_gae(&mut transitions, &dones, 0.0, 0.99, 0.95);
    Batch {
        transitions,
        episode_returns: vec![0.0],
        episode_lens: vec![16],
        episode_successes: vec![false],
    }
}

fn bench_ppo_update(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = PpoConfig {
        steps_per_iter: 256,
        minibatch: 128,
        epochs: 2,
        ..PpoConfig::default()
    };
    let mut agent = Ppo::new(13, &[3; 7], cfg, 4);
    c.bench_function("ppo_update_256x2epochs", |b| {
        b.iter_batched(
            || synthetic_batch(256, 13, 7, &mut rng),
            |mut batch| agent.update(black_box(&mut batch)),
            criterion::BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_tanh,
    bench_mlp,
    bench_policy_act,
    bench_ppo_update
);
criterion_main!(benches);
