//! End-to-end integration: train a small agent on the TIA and verify the
//! full pipeline (target sampling -> env -> PPO -> deployment) improves
//! over a random policy.

use autockt::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

#[test]
fn train_then_deploy_beats_random_policy() {
    let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
    // Small but real training budget (runs in debug within seconds because
    // the TIA simulation is milliseconds).
    let cfg = TrainConfig {
        ppo: PpoConfig {
            steps_per_iter: 512,
            minibatch: 128,
            epochs: 4,
            ..PpoConfig::default()
        },
        num_workers: 4,
        horizon: 20,
        max_iters: 12,
        target_mean_reward: 5.0,
        seed: 1234,
        ..TrainConfig::default()
    };
    let result = train(Arc::clone(&problem), &cfg);
    assert!(!result.curve.is_empty());
    // The curve should improve from start to best.
    let first = result
        .curve
        .first()
        .expect("has iterations")
        .mean_episode_reward;
    let best = result
        .curve
        .iter()
        .map(|s| s.mean_episode_reward)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best > first,
        "training should improve the mean episode reward: {first} -> {best}"
    );

    // Deploy on fresh targets and compare with the random baseline.
    let mut rng = StdRng::seed_from_u64(4321);
    let targets: Vec<Vec<f64>> = (0..20)
        .map(|_| sample_uniform(problem.as_ref(), &mut rng))
        .collect();
    let dcfg = DeployConfig {
        horizon: 20,
        ..DeployConfig::default()
    };
    let trained = deploy(&result.agent.policy, Arc::clone(&problem), &targets, &dcfg);
    let random = autockt::baselines::random_agent_deploy(
        Arc::clone(&problem),
        &targets,
        20,
        SimMode::Schematic,
        55,
    );
    assert!(
        trained.reached() > random.reached(),
        "trained {} vs random {}",
        trained.reached(),
        random.reached()
    );
}

/// With `pool_memo` off, every worker evaluates through its own memo, so
/// nothing a worker sees depends on the thread schedule: two runs from
/// one seed agree bit for bit, every iteration statistic and both
/// networks alike.
#[test]
fn unpooled_training_is_bitwise_reproducible() {
    use autockt::rl::mlp::Mlp;
    use autockt::rl::IterStats;
    let problem: Arc<dyn SizingProblem> = Arc::new(Tia::default());
    let cfg = TrainConfig {
        ppo: PpoConfig {
            steps_per_iter: 128,
            minibatch: 64,
            epochs: 2,
            ..PpoConfig::default()
        },
        num_workers: 2,
        horizon: 10,
        max_iters: 2,
        target_mean_reward: f64::INFINITY,
        pool_memo: false,
        seed: 777,
        ..TrainConfig::default()
    };
    let a = train(Arc::clone(&problem), &cfg);
    let b = train(Arc::clone(&problem), &cfg);
    assert_eq!(a.targets, b.targets, "target sets must match");
    let stats_bits = |s: &IterStats| {
        let IterStats {
            mean_episode_reward,
            episodes,
            success_rate,
            mean_episode_len,
            entropy,
            approx_kl,
            total_env_steps,
        } = *s;
        [
            mean_episode_reward.to_bits(),
            episodes as u64,
            success_rate.to_bits(),
            mean_episode_len.to_bits(),
            entropy.to_bits(),
            approx_kl.to_bits(),
            total_env_steps as u64,
        ]
    };
    assert_eq!(a.curve.len(), cfg.max_iters);
    assert_eq!(b.curve.len(), cfg.max_iters);
    for (i, (x, y)) in a.curve.iter().zip(&b.curve).enumerate() {
        assert_eq!(stats_bits(x), stats_bits(y), "iteration {i}");
    }
    let net_bits = |net: &Mlp| -> Vec<u64> {
        net.layers()
            .flat_map(|l| l.w.iter().chain(l.b))
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(
        net_bits(a.agent.policy.net()),
        net_bits(b.agent.policy.net()),
        "policy network"
    );
    assert_eq!(
        net_bits(a.agent.value.net()),
        net_bits(b.agent.value.net()),
        "value network"
    );
}
