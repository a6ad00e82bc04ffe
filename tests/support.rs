//! Shared helpers for the cross-crate integration tests.

use gpu_msg::{QosClass, ReshardPolicy, TenancyConfig, TenantSpec};
use msg_match::{Envelope, RecvRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible random batch of envelopes and (wildcard-free) matching
/// requests with a controllable collision density.
pub fn random_batch(
    n: usize,
    peers: u32,
    tags: u32,
    seed: u64,
) -> (Vec<Envelope>, Vec<RecvRequest>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let msgs: Vec<Envelope> = (0..n)
        .map(|_| Envelope::new(rng.gen_range(0..peers), rng.gen_range(0..tags), 0))
        .collect();
    let mut reqs: Vec<RecvRequest> = msgs
        .iter()
        .map(|m| RecvRequest::exact(m.src, m.tag, 0))
        .collect();
    // Shuffle the posting order.
    for i in (1..reqs.len()).rev() {
        let j = rng.gen_range(0..=i);
        reqs.swap(i, j);
    }
    (msgs, reqs)
}

/// Convert a device assignment to the reference `Option<usize>` form.
pub fn as_usize(assignment: &[Option<u32>]) -> Vec<Option<usize>> {
    assignment.iter().map(|a| a.map(|v| v as usize)).collect()
}

/// A two-shard skew with live resharding armed: a hot guaranteed tenant
/// confined to shard 0 overloads it while a cold one idles on shard 1,
/// and the planner may move slots. Both tenants are guaranteed-class,
/// so any loss at all is a guaranteed-class loss.
pub fn hot_cold_tenancy() -> TenancyConfig {
    TenancyConfig {
        reshard: Some(ReshardPolicy {
            tick: 5.0e-5,
            min_imbalance: 32,
            max_migrations: 2,
        }),
        ..TenancyConfig::new(vec![
            TenantSpec {
                streams: 2,
                shard_set: vec![0],
                ..TenantSpec::new("hot", QosClass::Guaranteed, 0.875)
            },
            TenantSpec {
                shard_set: vec![1],
                ..TenantSpec::new("cold", QosClass::Guaranteed, 0.125)
            },
        ])
    }
}
