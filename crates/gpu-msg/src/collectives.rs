//! Collective operations layered on the send/recv runtime.
//!
//! The paper closes by asking which paradigm — "send/recv, collectives,
//! put/get, (partitioned) global address spaces" — suits GPU-resident
//! communication best. This module provides the classic collectives
//! *composed from* the matching runtime, so their cost inherits the
//! matching rates the paper measures: every collective step is a real
//! send matched by a real receive on the simulated device.
//!
//! All collectives are **tagged**: the caller reserves a tag namespace
//! (`tag_base`) so collective traffic cannot collide with point-to-point
//! traffic — mandatory under the no-ordering relaxation, where tags are
//! the only disambiguator.
//!
//! Each function is called by *every* rank (from its own thread), like
//! the MPI collectives they mirror.

use bytes::Bytes;
use msg_match::{RecvRequest, Tag};

use crate::domain::Domain;

/// Ring all-reduce (sum) of one `f64` per rank. Returns the global sum.
/// Costs `ranks − 1` steps of one send + one receive per rank.
///
/// # Errors
/// Propagates runtime errors (tag-space violations, deadlocked receives).
pub fn ring_allreduce_sum(
    domain: &Domain,
    rank: u32,
    value: f64,
    tag_base: Tag,
) -> Result<f64, String> {
    let n = domain.ranks();
    if n == 1 {
        return Ok(value);
    }
    let next = (rank + 1) % n;
    let prev = (rank + n - 1) % n;
    let mut acc = value;
    let mut carry = value;
    for step in 0..n - 1 {
        let tag = tag_base + step;
        domain.send(
            rank,
            next,
            tag,
            0,
            Bytes::from(carry.to_le_bytes().to_vec()),
        );
        let m = domain.recv_blocking(rank, RecvRequest::exact(prev, tag, 0))?;
        carry = f64::from_le_bytes(m.payload[..8].try_into().expect("8 bytes"));
        acc += carry;
    }
    Ok(acc)
}

/// Binomial-tree broadcast of a payload from `root`. Every rank returns
/// the payload; non-roots receive it from their tree parent and forward
/// it down. Costs ⌈log₂ ranks⌉ rounds.
///
/// # Errors
/// Propagates runtime errors.
pub fn broadcast(
    domain: &Domain,
    rank: u32,
    root: u32,
    payload: Option<Bytes>,
    tag_base: Tag,
) -> Result<Bytes, String> {
    let n = domain.ranks();
    // Rotate so the root is virtual rank 0.
    let vrank = (rank + n - root) % n;
    let mut data = if vrank == 0 {
        payload.ok_or("root must supply the payload")?
    } else {
        // Receive from the parent: clear the lowest set bit of vrank.
        let parent_v = vrank & (vrank - 1);
        let parent = (parent_v + root) % n;
        // The tag encodes the receiver's virtual rank: unique tuples.
        let m = domain.recv_blocking(rank, RecvRequest::exact(parent, tag_base + vrank, 0))?;
        m.payload
    };
    // Forward to children: set bits above the lowest set bit of vrank.
    let lowbit = if vrank == 0 {
        n.next_power_of_two()
    } else {
        vrank & vrank.wrapping_neg()
    };
    let mut bit = 1u32;
    while bit < lowbit && bit < n.next_power_of_two() {
        let child_v = vrank | bit;
        if child_v != vrank && child_v < n {
            let child = (child_v + root) % n;
            domain.send(rank, child, tag_base + child_v, 0, data.clone());
        }
        bit <<= 1;
    }
    // `data` is shared (Bytes is cheaply cloneable); return it.
    let out = data.clone();
    data.clear();
    Ok(out)
}

/// Dissemination barrier: ⌈log₂ ranks⌉ rounds of paired notifications.
/// Returns once every rank has entered the barrier.
///
/// # Errors
/// Propagates runtime errors.
pub fn barrier(domain: &Domain, rank: u32, tag_base: Tag) -> Result<(), String> {
    let n = domain.ranks();
    let mut round = 0u32;
    let mut dist = 1u32;
    while dist < n {
        let to = (rank + dist) % n;
        let from = (rank + n - dist) % n;
        domain.send(rank, to, tag_base + round, 0, Bytes::new());
        domain.recv_blocking(rank, RecvRequest::exact(from, tag_base + round, 0))?;
        dist <<= 1;
        round += 1;
    }
    Ok(())
}

/// All-gather of one `u64` per rank via the ring algorithm. Returns the
/// vector indexed by rank.
///
/// # Errors
/// Propagates runtime errors.
pub fn ring_allgather_u64(
    domain: &Domain,
    rank: u32,
    value: u64,
    tag_base: Tag,
) -> Result<Vec<u64>, String> {
    let n = domain.ranks();
    let mut out = vec![0u64; n as usize];
    out[rank as usize] = value;
    if n == 1 {
        return Ok(out);
    }
    let next = (rank + 1) % n;
    let prev = (rank + n - 1) % n;
    let mut carry_idx = rank;
    for step in 0..n - 1 {
        let tag = tag_base + step;
        let carry = out[carry_idx as usize];
        domain.send(
            rank,
            next,
            tag,
            0,
            Bytes::from(carry.to_le_bytes().to_vec()),
        );
        let m = domain.recv_blocking(rank, RecvRequest::exact(prev, tag, 0))?;
        carry_idx = (carry_idx + n - 1) % n;
        out[carry_idx as usize] = u64::from_le_bytes(m.payload[..8].try_into().expect("8 bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainConfig, MatcherKind};
    use crate::transport::TransportConfig;
    use msg_match::RelaxationConfig;
    use simt_sim::GpuGeneration;

    #[test]
    fn allreduce_sums_across_matchers() {
        for (kind, relax) in [
            (MatcherKind::Matrix, RelaxationConfig::FULL_MPI),
            (MatcherKind::Hash, RelaxationConfig::UNORDERED),
        ] {
            let d = Domain::new(5, GpuGeneration::PascalGtx1080, kind, relax);
            d.run_ranks(|rank, d| {
                let got = ring_allreduce_sum(d, rank, (rank + 1) as f64, 1000).unwrap();
                assert_eq!(got, 15.0, "{kind:?} rank {rank}");
            });
            assert!(d.quiescent());
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        let d = Domain::full_mpi(6, GpuGeneration::PascalGtx1080);
        for root in [0u32, 2, 5] {
            d.run_ranks(|rank, d| {
                let payload = if rank == root {
                    Some(Bytes::from(vec![root as u8; 9]))
                } else {
                    None
                };
                let got = broadcast(d, rank, root, payload, 2000).unwrap();
                assert_eq!(
                    &got[..],
                    &vec![root as u8; 9][..],
                    "root {root} rank {rank}"
                );
            });
            assert!(d.quiescent(), "root {root}");
        }
    }

    #[test]
    fn barrier_completes_on_non_power_of_two() {
        let d = Domain::full_mpi(7, GpuGeneration::MaxwellM40);
        d.run_ranks(|rank, d| {
            for round in 0..3u32 {
                barrier(d, rank, 3000 + round * 16).unwrap();
            }
        });
        assert!(d.quiescent());
    }

    #[test]
    fn allgather_collects_everyone() {
        let d = Domain::full_mpi(4, GpuGeneration::PascalGtx1080);
        d.run_ranks(|rank, d| {
            let got = ring_allgather_u64(d, rank, 100 + rank as u64, 4000).unwrap();
            assert_eq!(got, vec![100, 101, 102, 103], "rank {rank}");
        });
    }

    #[test]
    fn collectives_complete_over_a_lossy_reordering_fabric() {
        for seed in 0..8u64 {
            let mut cfg = DomainConfig::new(
                5,
                GpuGeneration::PascalGtx1080,
                MatcherKind::Matrix,
                RelaxationConfig::FULL_MPI,
            );
            cfg.transport = TransportConfig::Fabric(fabric::FabricConfig {
                seed,
                fault: fabric::FaultConfig {
                    drop_prob: 0.10,
                    reorder_prob: 0.30,
                    reorder_skew_ns: 20_000,
                    ..fabric::FaultConfig::NONE
                },
                ..Default::default()
            });
            let d = Domain::with_config(cfg);
            d.run_ranks(|rank, d| {
                let got = ring_allreduce_sum(d, rank, (rank + 1) as f64, 5000).unwrap();
                assert_eq!(got, 15.0, "seed {seed} rank {rank}");
                barrier(d, rank, 6000).unwrap();
            });
            let fs = d.fabric_stats().expect("fabric wire");
            assert!(fs.drops_injected > 0, "seed {seed}: the wire must lose");
        }
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let d = Domain::full_mpi(1, GpuGeneration::KeplerK80);
        assert_eq!(ring_allreduce_sum(&d, 0, 7.0, 0).unwrap(), 7.0);
        assert_eq!(ring_allgather_u64(&d, 0, 9, 0).unwrap(), vec![9]);
        barrier(&d, 0, 0).unwrap();
    }
}
