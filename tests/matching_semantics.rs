//! Cross-engine semantic agreement: every GPU matcher against the golden
//! sequential model, across sizes, wildcard densities and duplicates.

use integration_support::{as_usize, random_batch};
use msg_match::prelude::*;
use msg_match::reference::{verify_mpi_matching, verify_valid_matching};
use proptest::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

#[test]
fn matrix_equals_reference_across_sizes() {
    for n in [1usize, 7, 31, 32, 33, 64, 100, 257, 512, 1000, 1024] {
        let (msgs, reqs) = random_batch(n, 16, 8, n as u64);
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = MatrixMatcher::default().match_batch(&mut gpu, &msgs, &reqs);
        verify_mpi_matching(&msgs, &reqs, &as_usize(&r.assignment))
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

#[test]
fn all_engines_agree_on_cardinality_without_wildcards() {
    for seed in 0..5u64 {
        let (msgs, reqs) = random_batch(256, 12, 6, seed);
        let golden = match_queues(&msgs, &reqs);
        let want = golden.iter().filter(|a| a.is_some()).count() as u64;

        let mut gpu = Gpu::new(GpuGeneration::MaxwellM40);
        let m = MatrixMatcher::default().match_batch(&mut gpu, &msgs, &reqs);
        assert_eq!(m.matches, want, "matrix, seed {seed}");

        let p = PartitionedMatcher::new(4)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(p.matches, want, "partitioned, seed {seed}");

        // The hash matcher relaxes ordering but must still find a
        // maximum matching of the same size (tuple multiset equality).
        let h = HashMatcher::default()
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(h.matches, want, "hash, seed {seed}");
        h.verify_valid(&msgs, &reqs).unwrap();
    }
}

#[test]
fn matrix_honours_wildcards_like_reference() {
    let w = WorkloadSpec {
        len: 300,
        peers: 10,
        tags: 4,
        src_wildcard_pm: 150,
        tag_wildcard_pm: 80,
        seed: 77,
        ..Default::default()
    }
    .generate();
    let mut gpu = Gpu::new(GpuGeneration::KeplerK80);
    let r = MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
    verify_mpi_matching(&w.msgs, &w.reqs, &as_usize(&r.assignment)).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The matrix matcher is bit-equal to MPI semantics on arbitrary
    /// workloads, including wildcards and duplicates.
    #[test]
    fn prop_matrix_is_mpi(
        msgs in proptest::collection::vec((0u32..6, 0u32..4), 1..150),
        wild in proptest::collection::vec(0u8..5, 1..150),
    ) {
        let msgs: Vec<Envelope> = msgs.into_iter().map(|(s, t)| Envelope::new(s, t, 0)).collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .zip(&wild)
            .map(|(m, w)| match w {
                0 => RecvRequest::any_source(m.tag, 0),
                1 => RecvRequest::any_tag(m.src, 0),
                _ => RecvRequest::exact(m.src, m.tag, 0),
            })
            .collect();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = MatrixMatcher::default().match_batch(&mut gpu, &msgs, &reqs);
        prop_assert!(verify_mpi_matching(&msgs, &reqs, &as_usize(&r.assignment)).is_ok());
    }

    /// The hash matcher always produces a *valid maximal* matching.
    #[test]
    fn prop_hash_is_valid_and_maximal(
        msgs in proptest::collection::vec((0u32..5, 0u32..4), 1..120),
        extra_reqs in proptest::collection::vec((0u32..5, 0u32..4), 0..40),
    ) {
        let msgs: Vec<Envelope> = msgs.into_iter().map(|(s, t)| Envelope::new(s, t, 0)).collect();
        let mut reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        reqs.extend(extra_reqs.into_iter().map(|(s, t)| RecvRequest::exact(s, t, 0)));
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = HashMatcher::default().match_batch(&mut gpu, &msgs, &reqs).unwrap();
        prop_assert!(verify_valid_matching(&msgs, &reqs, &as_usize(&r.assignment)).is_ok());
    }

    /// Partitioned matching with any queue count equals MPI semantics on
    /// wildcard-free workloads.
    #[test]
    fn prop_partitioned_is_mpi(
        n in 1usize..200,
        queues in 1usize..9,
        seed in 0u64..1000,
    ) {
        let (msgs, reqs) = random_batch(n, 9, 5, seed);
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = PartitionedMatcher::new(queues).match_batch(&mut gpu, &msgs, &reqs).unwrap();
        prop_assert!(verify_mpi_matching(&msgs, &reqs, &as_usize(&r.assignment)).is_ok());
    }

    /// Partitioned and matrix matchers agree bit-for-bit on wildcard-free
    /// workloads (queue count is an implementation detail, not semantics).
    #[test]
    fn prop_partitioned_equals_matrix(
        n in 1usize..300,
        queues in 2usize..17,
        seed in 0u64..500,
    ) {
        let (msgs, reqs) = random_batch(n, 11, 4, seed);
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let a = MatrixMatcher::default().match_batch(&mut gpu, &msgs, &reqs);
        let b = PartitionedMatcher::new(queues).match_batch(&mut gpu, &msgs, &reqs).unwrap();
        prop_assert_eq!(a.assignment, b.assignment);
    }

    /// Batches spanning several communicators keep MPI semantics: the
    /// communicator is part of every tuple the engine matches on.
    #[test]
    fn prop_multi_communicator_batches_are_mpi(
        n in 1usize..200,
        comms in 1u16..5,
        seed in 0u64..500,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<Envelope> = (0..n)
            .map(|_| Envelope::new(rng.gen_range(0..8), rng.gen_range(0..4), rng.gen_range(0..comms)))
            .collect();
        let mut reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
            .collect();
        for i in (1..reqs.len()).rev() {
            let j = rng.gen_range(0..=i);
            reqs.swap(i, j);
        }
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let (_, r) = MatchEngine::default()
            .match_batch(&mut gpu, RelaxationConfig::FULL_MPI, &msgs, &reqs)
            .unwrap();
        prop_assert_eq!(r.matches as usize, n);
        prop_assert!(verify_mpi_matching(&msgs, &reqs, &as_usize(&r.assignment)).is_ok());
    }

    /// The auto-selecting engine always produces a valid matching with
    /// the same cardinality as the golden model, at every lattice level
    /// the workload satisfies.
    #[test]
    fn prop_engine_choice_never_changes_cardinality(
        n in 1usize..200,
        seed in 0u64..500,
    ) {
        let (msgs, reqs) = random_batch(n, 7, 5, seed);
        let want = match_queues(&msgs, &reqs).iter().filter(|a| a.is_some()).count() as u64;
        let engine = MatchEngine::default();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        for cfg in [
            RelaxationConfig::FULL_MPI,
            RelaxationConfig::NO_WILDCARDS,
            RelaxationConfig::UNORDERED,
        ] {
            let (_, r) = engine.match_batch(&mut gpu, cfg, &msgs, &reqs).unwrap();
            prop_assert_eq!(r.matches, want);
            prop_assert!(verify_valid_matching(&msgs, &reqs, &as_usize(&r.assignment)).is_ok());
        }
    }
}
