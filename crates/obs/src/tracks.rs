//! Track-id registry: one namespace for every Perfetto `tid` in the
//! workspace.
//!
//! Before this registry each producer picked its own `track: u32`
//! scheme — the service used the shard index, the scheduler used
//! `cfg.shards`, the fabric used `src * ranks + dst` — which collided
//! as soon as two producers exported into one merged document (a
//! 4-shard service and a 4-rank fabric both claimed tid 3). Every
//! producer now allocates from one of the disjoint windows below, so a
//! combined trace (virtual shard tracks + wall-clock tracks + fabric
//! link tracks + flow-demo endpoint tracks) can never alias.
//!
//! Windows (each 2^24 wide, far beyond any realistic track count):
//!
//! | window        | base          | occupant                        |
//! |---------------|---------------|---------------------------------|
//! | shards        | `0x0000_0000` | per-shard virtual-time tracks   |
//! | coordinator   | `0x0100_0000` | the scheduler's epoch timeline  |
//! | wall clock    | `0x0200_0000` | per-shard wall-time tracks      |
//! | fabric links  | `0x0300_0000` | per-directed-link tracks        |
//! | endpoints     | `0x0400_0000` | per-rank domain flow tracks     |

/// The parallel scheduler's coordinator (epoch timeline) track.
pub const COORDINATOR: u32 = 0x0100_0000;

/// Virtual-time track of shard `i`.
#[must_use]
pub fn shard(i: usize) -> u32 {
    i as u32
}

/// Wall-clock track of shard `i` (rendered beside the virtual track).
#[must_use]
pub(crate) fn wall_shard(i: usize) -> u32 {
    0x0200_0000 + i as u32
}

/// Track of the directed fabric link `src → dst`. Supports up to 4096
/// ranks without aliasing; `base` offsets whole fabrics so several
/// traced fabrics can share one document (pass 0 for a single fabric).
#[must_use]
pub fn fabric_link(base: u32, src: u32, dst: u32) -> u32 {
    0x0300_0000 + base + src * 4096 + dst
}

/// Configuration track of a traced fabric: one instant carrying the
/// fabric's knobs as args. Uses the last slot of the instance's link
/// window, which a real link can only reach at 4096 ranks.
#[must_use]
pub fn fabric_config(base: u32) -> u32 {
    0x0300_0000 + base + 0x0000_FFFF
}

/// Flow track of domain endpoint `rank`; `base` offsets whole domains
/// (pass 0 for a single domain).
#[must_use]
pub fn endpoint(base: u32, rank: u32) -> u32 {
    0x0400_0000 + base + rank
}

/// A base offset for the `i`-th traced fabric or domain in a combined
/// document, sized so a 16-rank fabric's links never reach the next
/// slot.
#[must_use]
pub fn instance_base(i: usize) -> u32 {
    (i as u32) * 0x0001_0000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            assert!(seen.insert(shard(i)), "shard {i}");
            assert!(seen.insert(wall_shard(i)), "wall {i}");
        }
        assert!(seen.insert(COORDINATOR));
        for inst in 0..4 {
            let base = instance_base(inst);
            for s in 0..8 {
                assert!(seen.insert(endpoint(base, s)), "endpoint {inst}/{s}");
                for d in 0..8u32 {
                    if s != d {
                        assert!(seen.insert(fabric_link(base, s, d)), "link {inst}/{s}->{d}");
                    }
                }
            }
        }
    }
}
