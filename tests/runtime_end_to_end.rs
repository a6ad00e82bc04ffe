//! End-to-end runtime tests: the GPU messaging domain under every
//! matcher, driven from one thread per rank.

use bytes::Bytes;
use gpu_msg::{BspProgram, Domain, MatcherKind};
use msg_match::{RecvRequest, RelaxationConfig};
use simt_sim::GpuGeneration;

fn payload(step: u32, src: u32, seq: u32) -> Bytes {
    Bytes::from(vec![step as u8, src as u8, seq as u8])
}

/// All-to-all burst with per-pair sequence numbers, verified per matcher.
fn all_to_all(domain: &Domain, msgs_per_pair: u32) {
    let n = domain.ranks();
    domain.run_ranks(|rank, domain| {
        for dst in (0..n).filter(|&d| d != rank) {
            for seq in 0..msgs_per_pair {
                // Tag disambiguates (src implicit in envelope).
                domain.send(rank, dst, seq, 0, payload(0, rank, seq));
            }
        }
        for src in (0..n).filter(|&d| d != rank) {
            for seq in 0..msgs_per_pair {
                let m = domain
                    .recv_blocking(rank, RecvRequest::exact(src, seq, 0))
                    .expect("delivery");
                assert_eq!(m.payload[1], src as u8);
                assert_eq!(m.payload[2], seq as u8);
            }
        }
    });
    assert!(domain.quiescent());
}

#[test]
fn all_to_all_full_mpi() {
    let d = Domain::full_mpi(4, GpuGeneration::PascalGtx1080);
    all_to_all(&d, 6);
}

#[test]
fn all_to_all_partitioned() {
    let d = Domain::new(
        4,
        GpuGeneration::MaxwellM40,
        MatcherKind::Partitioned(4),
        RelaxationConfig::NO_WILDCARDS,
    );
    all_to_all(&d, 6);
}

#[test]
fn all_to_all_hash_unordered() {
    let d = Domain::new(
        4,
        GpuGeneration::KeplerK80,
        MatcherKind::Hash,
        RelaxationConfig::UNORDERED,
    );
    all_to_all(&d, 6);
}

/// Per-pair FIFO must hold through the full-MPI domain even when the
/// receiver uses ANY_SOURCE for every message.
#[test]
fn wildcard_receives_preserve_pair_order() {
    let d = Domain::full_mpi(3, GpuGeneration::PascalGtx1080);
    // Rank 2 receives 20 messages from rank 0 via ANY_SOURCE; rank 1
    // stays silent, so wildcard completion order must equal rank 0's
    // send order.
    for seq in 0..20u8 {
        d.send(0, 2, 5, 0, Bytes::from(vec![seq]));
    }
    for seq in 0..20u8 {
        let m = d.recv_blocking(2, RecvRequest::any_source(5, 0)).unwrap();
        assert_eq!(m.payload[0], seq, "ANY_SOURCE must still be FIFO per pair");
    }
}

/// Unexpected and pre-posted paths mix freely.
#[test]
fn mixed_expected_unexpected_traffic() {
    let d = Domain::full_mpi(2, GpuGeneration::PascalGtx1080);
    // Pre-post half the receives.
    let mut handles = Vec::new();
    for seq in 0..8u32 {
        handles.push(d.post_recv(1, RecvRequest::exact(0, seq, 0)).unwrap());
    }
    for seq in 0..16u32 {
        d.send(0, 1, seq, 0, Bytes::from(vec![seq as u8]));
    }
    d.progress(1).unwrap();
    let first = d.take_completions(1);
    assert_eq!(first.len(), 8, "pre-posted half completes first");
    for seq in 8..16u32 {
        let m = d.recv_blocking(1, RecvRequest::exact(0, seq, 0)).unwrap();
        assert_eq!(m.payload[0], seq as u8);
    }
    assert!(d.quiescent());
}

/// The BSP driver enforces quiescence and supports all matchers.
#[test]
fn bsp_supersteps_across_matchers() {
    for (kind, relax) in [
        (MatcherKind::Matrix, RelaxationConfig::FULL_MPI),
        (MatcherKind::Partitioned(2), RelaxationConfig::NO_WILDCARDS),
        (MatcherKind::Hash, RelaxationConfig::UNORDERED),
    ] {
        let d = Domain::new(4, GpuGeneration::PascalGtx1080, kind, relax);
        let bsp = BspProgram::new(&d);
        for step in 0..2u32 {
            bsp.superstep(|rank, d| {
                let n = d.ranks();
                let next = (rank + 1) % n;
                d.send(rank, next, 3, 0, Bytes::from(vec![step as u8, rank as u8]));
                let prev = (rank + n - 1) % n;
                let m = d.recv_blocking(rank, RecvRequest::exact(prev, 3, 0))?;
                if m.payload != vec![step as u8, prev as u8] {
                    return Err("payload mismatch".into());
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{kind:?} step {step}: {e}"));
        }
        let total: u64 = (0..4).map(|r| d.stats(r).matches).sum();
        assert_eq!(total, 8, "{kind:?}");
    }
}

/// Simulated communication time accumulates and differs by generation.
#[test]
fn kernel_time_scales_with_generation() {
    let mut seconds = Vec::new();
    for generation in [GpuGeneration::KeplerK80, GpuGeneration::PascalGtx1080] {
        let d = Domain::full_mpi(2, generation);
        for seq in 0..64u32 {
            d.send(0, 1, seq, 0, Bytes::new());
        }
        for seq in 0..64u32 {
            d.recv_blocking(1, RecvRequest::exact(0, seq, 0)).unwrap();
        }
        seconds.push(d.stats(1).kernel_seconds);
    }
    assert!(
        seconds[0] > seconds[1],
        "the K80 must be slower in wall time: {seconds:?}"
    );
}
