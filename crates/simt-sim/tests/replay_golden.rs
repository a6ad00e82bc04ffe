//! Goldens for the launch path: every `TimingReport` field of seeded
//! random grids and the launch reports of the five matching kernels,
//! computed at 4077f51 — before the resident `Gpu` recorded over its
//! previous trace, memoised replays and cached warp issue times — and
//! required to stay bit-identical since.

use msg_match::compaction::compact_queue;
use msg_match::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simt_sim::trace::{CtaTrace, GridTrace, OpKind, WarpTrace};
use simt_sim::{timing, Gpu, GpuGeneration, WARP_SIZE};

/// FNV-1a over a report's `Debug` text: pins every field at once.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn random_op(rng: &mut StdRng) -> OpKind {
    match rng.gen_range(0..9u32) {
        0 => OpKind::IAlu {
            n: rng.gen_range(1..=12u32),
        },
        1 => OpKind::Vote,
        2 => OpKind::Shfl,
        3 => OpKind::LdGlobal {
            transactions: rng.gen_range(1..=32u32),
        },
        4 => OpKind::StGlobal {
            transactions: rng.gen_range(1..=32u32),
        },
        5 => OpKind::LdShared {
            replays: rng.gen_range(1..=32u32),
        },
        6 => OpKind::StShared {
            replays: rng.gen_range(1..=32u32),
        },
        7 => OpKind::AtomGlobal {
            transactions: rng.gen_range(1..=32u32),
        },
        _ => OpKind::AtomShared {
            replays: rng.gen_range(1..=32u32),
        },
    }
}

/// A seeded grid: 1–32 warps per CTA (the last one possibly partial),
/// 1–6 CTAs with up to 40 KB shared each (so some grids exceed
/// residency), every op kind, dependency tokens on earlier ops and 0–3
/// barriers per CTA. Warps may be empty; CTAs never are.
fn random_grid(seed: u64) -> GridTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let warps = rng.gen_range(1..=32usize);
    let ctas = rng.gen_range(1..=6usize);
    let barriers = rng.gen_range(0..=3usize);
    let ctas = (0..ctas)
        .map(|_| {
            let warps = (0..warps)
                .map(|w| {
                    let mut t = WarpTrace::default();
                    let mut tokens = Vec::new();
                    for segment in 0..=barriers {
                        let min = usize::from(w == 0 && segment == 0);
                        for _ in 0..rng.gen_range(min..=24usize) {
                            let kind = random_op(&mut rng);
                            let dep = (!tokens.is_empty() && rng.gen_bool(0.3))
                                .then(|| tokens[rng.gen_range(0..tokens.len())]);
                            tokens.push(t.push_dep(kind, dep));
                        }
                        if segment < barriers {
                            tokens.push(t.push(OpKind::Bar));
                        }
                    }
                    t
                })
                .collect();
            CtaTrace {
                warps,
                shared_bytes: rng.gen_range(0..=40u32) * 1024,
            }
        })
        .collect();
    GridTrace {
        ctas,
        threads_per_cta: (warps * WARP_SIZE - rng.gen_range(0..WARP_SIZE)) as u32,
        registers_per_thread: [16, 32, 64][rng.gen_range(0..3usize)],
    }
}

/// Per grid seed: cycles on (K80, M40, GTX 1080) × (1 SM, 4 SMs), then
/// the FNV of all six `TimingReport`s.
const GRID_GOLDENS: [([u64; 6], u64); 24] = [
    ([8005, 8005, 4339, 4339, 3871, 3871], 5936855222198262737),
    ([2933, 1877, 1279, 1222, 1005, 963], 11043897355786547296),
    ([21259, 8559, 11248, 4675, 9961, 4176], 15657846304872757058),
    ([12190, 3794, 6553, 1957, 5635, 1723], 6453742498536586602),
    (
        [30255, 12944, 15030, 6495, 13088, 5668],
        13384138563976484312,
    ),
    (
        [70988, 27775, 35536, 14324, 30985, 12596],
        5388832296046456230,
    ),
    ([6404, 2464, 2307, 1199, 1844, 891], 6986199594426351345),
    ([8247, 8247, 4177, 4177, 3644, 3644], 17383307620646633599),
    (
        [37116, 12529, 18525, 6455, 16100, 5594],
        13254213925284642011,
    ),
    ([13005, 5000, 5162, 2228, 4470, 1885], 2360851696910025362),
    ([8093, 3186, 4257, 1811, 3742, 1412], 18244187580476475823),
    ([17531, 9473, 8897, 4981, 7772, 4484], 4243057357946157442),
    ([5201, 2273, 2797, 1568, 2515, 1307], 8863810383519453596),
    ([17994, 5255, 8710, 2524, 7419, 2117], 18073166338403898271),
    ([12048, 12048, 6392, 6392, 5665, 5665], 16456835491612692803),
    ([17165, 6947, 8161, 3374, 7166, 2930], 11962599548976953105),
    ([2287, 1379, 1119, 940, 1019, 780], 16626660300793674590),
    ([1619, 1228, 688, 575, 545, 506], 8748003485050769650),
    ([9303, 9303, 4744, 4744, 4157, 4157], 9112129035157282501),
    ([4273, 1761, 2380, 1397, 2163, 1304], 597534208673232129),
    (
        [43411, 14133, 21540, 7038, 18739, 6098],
        8021056664753126489,
    ),
    (
        [26937, 11089, 13077, 5377, 11364, 4629],
        13388076113469888356,
    ),
    ([6046, 6046, 3281, 3281, 2715, 2715], 2212279764824416125),
    ([17080, 9381, 8543, 4910, 7447, 4066], 13744672009945886017),
];

#[test]
fn random_grids_replay_to_their_goldens() {
    let mut observed = Vec::new();
    for seed in 0..GRID_GOLDENS.len() as u64 {
        let grid = random_grid(seed);
        let mut cycles = [0u64; 6];
        let mut text = String::new();
        for (g, gen) in GpuGeneration::ALL.into_iter().enumerate() {
            for (s, sms) in [1u32, 4].into_iter().enumerate() {
                let r = timing::simulate(&grid, &gen.config(), sms);
                assert_eq!(r.stall_cycles.iter().sum::<u64>(), r.cycles);
                cycles[g * 2 + s] = r.cycles;
                text += &format!("{r:?}\n");
            }
        }
        observed.push((cycles, fnv(&text)));
    }
    assert_eq!(
        observed.as_slice(),
        GRID_GOLDENS.as_slice(),
        "observed goldens:\n{observed:?}"
    );
}

/// Per generation (K80, M40, GTX 1080) and kernel run: cycles,
/// instructions and the FNV of the report plus every span the launches
/// recorded. One resident device per generation runs the whole script.
/// The last five runs (partitioning over several CTAs, over several
/// rounds and into one 32-warp queue, the unpipelined matrix, and
/// deduplicated wildcard probes) were computed at c798423.
const KERNEL_GOLDENS: [[(u64, u64, u64); 13]; 3] = [
    [
        (67584, 29966, 12100418345915138506),
        (67584, 29966, 12100418345915138506),
        (197574, 199542, 9500946436703598805),
        (624529, 685566, 15798576450853569014),
        (6178, 439, 4766461005866376640),
        (44358, 38574, 11992266281271516014),
        (3866, 1303, 11066809910527263523),
        (12495, 981, 1124498110912316085),
        (27762, 38156, 12385788207315674699),
        (823070, 1354980, 16550951412123763700),
        (389030, 417440, 15328435051640400170),
        (165391, 109785, 11786282837441363065),
        (79511, 40817, 15840360680986612692),
    ],
    [
        (66133, 29966, 8461965035511724002),
        (66133, 29966, 8461965035511724002),
        (198588, 199542, 10768413613590668064),
        (642393, 685566, 5155828524356951242),
        (5976, 439, 880485056915703553),
        (44244, 38574, 7277176339972411077),
        (2834, 1303, 6952406265117086651),
        (12087, 981, 14454131636941246094),
        (28107, 38156, 14577480824310765939),
        (878422, 1354980, 12875056310377061126),
        (403012, 417440, 11925810551719473170),
        (166462, 109785, 305983059573332982),
        (78050, 40817, 15025129131275316677),
    ],
    [
        (63088, 29966, 10835801159620799461),
        (63088, 29966, 10835801159620799461),
        (186869, 199542, 16988350624362208163),
        (602358, 685566, 14568319129890267788),
        (5723, 439, 3758164350875022026),
        (41892, 38574, 7968444000998095459),
        (2286, 1303, 5117897411415408051),
        (11520, 981, 5521444366813224086),
        (26365, 38156, 9907935299586976166),
        (806078, 1354980, 1084981838754523919),
        (378330, 417440, 5926744837703965891),
        (156679, 109785, 2798077310270009030),
        (74263, 40817, 18271560743620160841),
    ],
];

fn kernel_script(gen: GpuGeneration) -> Vec<(u64, u64, u64)> {
    let mut gpu = Gpu::new(gen);
    let mut out = Vec::new();
    let mut pin = |gpu: &mut Gpu, cycles: u64, instructions: u64, report: String| {
        let rec = gpu.take_recorder().expect("tracing is on for every run");
        let spans: Vec<_> = rec.events().collect();
        out.push((cycles, instructions, fnv(&format!("{report}{spans:?}"))));
        gpu.enable_tracing(0, 4096);
    };
    gpu.enable_tracing(0, 4096);

    let matrix = MatrixMatcher::default();
    let full = WorkloadSpec::fully_matching(256, 1).generate();
    for _ in 0..2 {
        gpu.reset_memory();
        let r = matrix.match_batch(&mut gpu, &full.msgs, &full.reqs);
        pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));
    }
    let partial = WorkloadSpec {
        len: 700,
        match_pct: 70,
        src_wildcard_pm: 50,
        tag_wildcard_pm: 50,
        seed: 2,
        ..Default::default()
    }
    .generate();
    gpu.reset_memory();
    let r = matrix.match_batch(&mut gpu, &partial.msgs, &partial.reqs);
    pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));

    let long = WorkloadSpec::fully_matching(1500, 3).generate();
    gpu.reset_memory();
    let r = matrix.match_iterative(&mut gpu, &long.msgs, &long.reqs);
    pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));

    let small = WorkloadSpec::fully_matching(24, 4).generate();
    gpu.reset_memory();
    let r = matrix.match_batch(&mut gpu, &small.msgs, &small.reqs);
    pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));

    let ranked = WorkloadSpec::fully_matching(512, 5).generate();
    gpu.reset_memory();
    let r = PartitionedMatcher::new(4)
        .match_batch(&mut gpu, &ranked.msgs, &ranked.reqs)
        .expect("no source wildcards");
    pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));

    let unique = WorkloadSpec::unique_tuples(512, 6).generate();
    gpu.reset_memory();
    let r = HashMatcher::default()
        .match_batch(&mut gpu, &unique.msgs, &unique.reqs)
        .expect("no wildcards");
    pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));

    let queue: Vec<u64> = (0..1000u64).map(|i| i * 7 + 1).collect();
    let keep: Vec<u32> = (0..1000u32).map(|i| u32::from(i % 3 != 0)).collect();
    gpu.reset_memory();
    let (kept, launch) = compact_queue(&mut gpu, &queue, &keep);
    assert_eq!(kept.len(), 666);
    assert_eq!(launch.timing.per_sm_cycles, vec![launch.cycles]);
    pin(
        &mut gpu,
        launch.cycles,
        launch.instructions,
        format!("{launch:?}"),
    );

    // Rank partitioning beyond one CTA, over several rounds, and at 32
    // scan warps, where the reduce shares its group's first warp.
    for (queues, len, seed) in [(32usize, 1024usize, 9u64), (2, 3000, 10), (1, 1024, 11)] {
        let ranked = WorkloadSpec::fully_matching(len, seed).generate();
        gpu.reset_memory();
        let r = PartitionedMatcher::new(queues)
            .match_batch(&mut gpu, &ranked.msgs, &ranked.reqs)
            .expect("no source wildcards");
        pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));
    }

    let unpiped = WorkloadSpec::fully_matching(512, 12).generate();
    gpu.reset_memory();
    let r = MatrixMatcher {
        disable_pipelining: true,
        ..Default::default()
    }
    .match_batch(&mut gpu, &unpiped.msgs, &unpiped.reqs);
    pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));

    // Runs of four identical wildcard probes: the scan reuses the ballot.
    let probed = WorkloadSpec {
        len: 300,
        peers: 6,
        tags: 8,
        seed: 13,
        ..Default::default()
    }
    .generate();
    let probes: Vec<RecvRequest> = (0..300u32)
        .map(|j| match (j / 4) % 3 {
            0 => RecvRequest::any_source((j / 12) % 8, 0),
            1 => RecvRequest::any_tag((j / 12) % 6, 0),
            _ => probed.reqs[j as usize],
        })
        .collect();
    gpu.reset_memory();
    let r = matrix.match_batch(&mut gpu, &probed.msgs, &probes);
    assert!(r.probe_dedups > 0);
    pin(&mut gpu, r.cycles, r.instructions, format!("{r:?}"));
    out
}

#[test]
fn matching_kernels_launch_to_their_goldens() {
    let observed: Vec<Vec<_>> = GpuGeneration::ALL.into_iter().map(kernel_script).collect();
    let expected: Vec<Vec<_>> = KERNEL_GOLDENS.iter().map(|g| g.to_vec()).collect();
    assert_eq!(observed, expected, "observed goldens:\n{observed:?}");
}

/// One `Replayer` replays every seeded grid, alternating between the
/// smallest and the largest left (1↔6 CTAs, 1↔32 warps) on each
/// generation and SM count, so each replay runs in buffers a larger or a
/// smaller replay left behind. Every report must equal a fresh
/// `timing::simulate`'s.
#[test]
fn a_resident_replayer_equals_fresh_replays() {
    let mut grids: Vec<GridTrace> = (0..GRID_GOLDENS.len() as u64).map(random_grid).collect();
    grids.sort_by_key(|g| g.ctas.len() * g.ctas[0].warps.len());
    let mut order = Vec::new();
    while !grids.is_empty() {
        order.push(grids.remove(0));
        if let Some(largest) = grids.pop() {
            order.push(largest);
        }
    }
    let mut replayer = timing::Replayer::default();
    let mut report = timing::TimingReport::default();
    for (i, grid) in order.iter().enumerate() {
        for gen in GpuGeneration::ALL {
            for sms in [1u32, 4] {
                let cfg = gen.config();
                replayer.replay(grid, &cfg, sms, &mut report);
                let fresh = timing::simulate(grid, &cfg, sms);
                assert_eq!(
                    format!("{report:?}"),
                    format!("{fresh:?}"),
                    "replay {i} ({} CTAs of {} warps) on {gen:?}, {sms} SMs",
                    grid.ctas.len(),
                    grid.ctas[0].warps.len()
                );
            }
        }
    }
}
