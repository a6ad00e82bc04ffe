//! Race detection for warp-synchronous kernels — the simulator's
//! `compute-sanitizer` analogue.
//!
//! The executor's correctness contract (see [`crate::exec`]) is that
//! inter-warp communication crosses barriers: within one segment, two
//! different warps must not touch the same memory location unless every
//! touch is a read or an atomic. Because functional execution runs warps
//! *sequentially*, a violating kernel may still compute a plausible
//! result in simulation while being racy on real hardware — exactly the
//! class of bug a sanitizer exists to catch.
//!
//! When a launch runs in sanitized mode, every global/shared access is
//! logged per warp and checked at each barrier; conflicts are reported
//! as [`RaceReport`]s identifying the segment, the memory space, the
//! location and the warps involved.

use serde::Serialize;

/// Memory space of a detected race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Space {
    /// Device global memory (buffer index + element index).
    Global,
    /// CTA shared memory (region index + element index).
    Shared,
}

/// Access flavour, as logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub(crate) enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic read-modify-write (never races with other atomics).
    Atomic,
}

/// One logged access (crate-internal granularity: per lane-touched
/// element).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Access {
    pub(crate) warp: u32,
    pub(crate) kind: AccessKind,
    pub(crate) space: Space,
    pub(crate) buffer: u32,
    pub(crate) index: u32,
}

/// A detected same-segment cross-warp conflict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RaceReport {
    /// CTA in which the race occurred.
    pub(crate) cta: u32,
    /// Barrier segment index (0 = before the first barrier).
    pub(crate) segment: u32,
    /// Memory space.
    pub space: Space,
    /// Buffer/region index within the space.
    pub(crate) buffer: u32,
    /// Element index within the buffer.
    pub index: u32,
    /// The two warps involved.
    pub(crate) warps: (u32, u32),
    /// The conflicting access kinds.
    pub(crate) kinds: (AccessKind, AccessKind),
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "race in CTA {} segment {}: {:?} buffer {} element {} touched by warp {} ({:?}) and warp {} ({:?}) without an intervening barrier",
            self.cta,
            self.segment,
            self.space,
            self.buffer,
            self.index,
            self.warps.0,
            self.kinds.0,
            self.warps.1,
            self.kinds.1,
        )
    }
}

/// Check one segment's access log; appends conflicts to `out`.
pub(crate) fn check_segment(cta: u32, segment: u32, log: &[Access], out: &mut Vec<RaceReport>) {
    use std::collections::HashMap;
    // location → (first writer warp/kind, readers seen)
    #[derive(Default)]
    struct LocState {
        writer: Option<(u32, AccessKind)>,
        touched_by: Vec<(u32, AccessKind)>,
    }
    let mut locs: HashMap<(Space, u32, u32), LocState> = HashMap::new();
    for a in log {
        let st = locs.entry((a.space, a.buffer, a.index)).or_default();
        // Conflict rules: W/W and R/W across warps race; atomics never
        // conflict with atomics, but an atomic racing a plain access does.
        for &(w, k) in &st.touched_by {
            if w == a.warp {
                continue;
            }
            let conflict = !matches!(
                (k, a.kind),
                (AccessKind::Read, AccessKind::Read) | (AccessKind::Atomic, AccessKind::Atomic)
            );
            if conflict {
                // Deduplicate: report each (location, warp pair) once.
                let already = out.iter().any(|r| {
                    r.cta == cta
                        && r.segment == segment
                        && r.space == a.space
                        && r.buffer == a.buffer
                        && r.index == a.index
                        && ((r.warps == (w, a.warp)) || (r.warps == (a.warp, w)))
                });
                if !already {
                    out.push(RaceReport {
                        cta,
                        segment,
                        space: a.space,
                        buffer: a.buffer,
                        index: a.index,
                        warps: (w, a.warp),
                        kinds: (k, a.kind),
                    });
                }
            }
        }
        if !st.touched_by.contains(&(a.warp, a.kind)) {
            st.touched_by.push((a.warp, a.kind));
        }
        if a.kind == AccessKind::Write && st.writer.is_none() {
            st.writer = Some((a.warp, a.kind));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(warp: u32, kind: AccessKind, index: u32) -> Access {
        Access {
            warp,
            kind,
            space: Space::Shared,
            buffer: 0,
            index,
        }
    }

    #[test]
    fn cross_warp_write_write_races() {
        let mut out = Vec::new();
        check_segment(
            0,
            0,
            &[acc(0, AccessKind::Write, 5), acc(1, AccessKind::Write, 5)],
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].warps, (0, 1));
    }

    #[test]
    fn read_read_is_fine() {
        let mut out = Vec::new();
        check_segment(
            0,
            0,
            &[acc(0, AccessKind::Read, 5), acc(1, AccessKind::Read, 5)],
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn atomic_atomic_is_fine_but_atomic_write_races() {
        let mut out = Vec::new();
        check_segment(
            0,
            0,
            &[acc(0, AccessKind::Atomic, 5), acc(1, AccessKind::Atomic, 5)],
            &mut out,
        );
        assert!(out.is_empty());
        check_segment(
            0,
            1,
            &[acc(0, AccessKind::Atomic, 5), acc(1, AccessKind::Write, 5)],
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn same_warp_never_races_with_itself() {
        let mut out = Vec::new();
        check_segment(
            0,
            0,
            &[acc(3, AccessKind::Write, 5), acc(3, AccessKind::Read, 5)],
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn distinct_locations_do_not_race() {
        let mut out = Vec::new();
        check_segment(
            0,
            0,
            &[acc(0, AccessKind::Write, 5), acc(1, AccessKind::Write, 6)],
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_pairs_report_once() {
        let mut out = Vec::new();
        check_segment(
            0,
            0,
            &[
                acc(0, AccessKind::Write, 5),
                acc(1, AccessKind::Write, 5),
                acc(0, AccessKind::Write, 5),
                acc(1, AccessKind::Write, 5),
            ],
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }
}
