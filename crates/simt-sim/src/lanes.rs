//! Warp-wide lane vectors and bit-accurate CUDA warp intrinsics.
//!
//! A [`Lanes<T>`] holds one value per lane of a warp. The free functions in
//! this module implement the CUDA intrinsics the paper's algorithms use —
//! `__ballot`, `__ffs`, `__clz`, `__popc`, `__shfl` and the warp votes —
//! with the exact bit conventions of the hardware: lane 0 occupies the
//! least significant bit of a ballot word and `ffs` is 1-based (returns 0
//! when no bit is set). These functions are *pure*; the recording wrappers
//! on [`crate::exec::WarpCtx`] charge their cost to the timing model.

use crate::config::WARP_SIZE;

/// One value per lane of a warp.
///
/// This is the vector register of the simulated machine: kernels compute on
/// `Lanes<T>` values the way CUDA code computes on per-thread scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes<T>(pub [T; WARP_SIZE]);

impl<T: Copy + Default> Lanes<T> {
    /// All lanes hold `value`.
    pub fn splat(value: T) -> Self {
        Lanes([value; WARP_SIZE])
    }

    /// Lane `i` holds `f(i)`.
    pub fn from_fn(mut f: impl FnMut(usize) -> T) -> Self {
        let mut a = [T::default(); WARP_SIZE];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = f(i);
        }
        Lanes(a)
    }

    /// Apply `f` lane-wise.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Lanes<U> {
        Lanes::from_fn(|i| f(self.0[i]))
    }

    /// Combine two vectors lane-wise.
    pub fn zip<U: Copy + Default, V: Copy + Default>(
        &self,
        other: &Lanes<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> Lanes<V> {
        Lanes::from_fn(|i| f(self.0[i], other.0[i]))
    }

    /// Value held by lane `lane`.
    pub fn get(&self, lane: usize) -> T {
        self.0[lane]
    }

    /// Set the value of lane `lane`.
    pub fn set(&mut self, lane: usize, value: T) {
        self.0[lane] = value;
    }
}

impl<T: Copy + Default> Default for Lanes<T> {
    fn default() -> Self {
        Lanes::splat(T::default())
    }
}

/// A 32-bit active-lane mask, lane 0 at the LSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneMask(pub u32);

impl LaneMask {
    /// All 32 lanes active.
    pub const FULL: LaneMask = LaneMask(u32::MAX);
    /// No lane active.
    pub(crate) const EMPTY: LaneMask = LaneMask(0);

    /// Mask with the first `n` lanes active (`n` clamped to the warp size).
    pub(crate) fn first(n: usize) -> Self {
        if n >= WARP_SIZE {
            LaneMask::FULL
        } else {
            LaneMask((1u32 << n) - 1)
        }
    }

    /// Is lane `lane` active?
    pub fn contains(self, lane: usize) -> bool {
        debug_assert!(lane < WARP_SIZE);
        self.0 & (1 << lane) != 0
    }

    /// Number of active lanes.
    pub(crate) fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Is at most one lane active? (Cheaper than `count() <= 1` where
    /// the target has no popcount instruction.)
    pub(crate) fn at_most_one(self) -> bool {
        self.0 & self.0.wrapping_sub(1) == 0
    }

    /// Iterate over active lane indices, ascending.
    pub(crate) fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (lane < WARP_SIZE).then_some(lane)
        })
    }
}

/// CUDA `__ballot(pred)`: a 32-bit word where bit *i* is set iff lane *i*
/// is active in `mask` and its predicate is true.
///
/// Branch-free, eight lanes per multiply: a `bool` is the byte 0 or 1, so
/// eight of them read as one `u64` with lane *i*'s bit at bit `8i`, and
/// multiplying by `Σ 2^(56 − 7i)` moves that bit to bit `56 + i` without
/// a carry (every partial product lands on a distinct bit).
pub fn ballot(mask: LaneMask, preds: &Lanes<bool>) -> u32 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut word = 0u32;
    for (octet, lanes) in preds.0.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(std::array::from_fn(|i| u8::from(lanes[i])));
        word |= ((bytes.wrapping_mul(GATHER) >> 56) as u32) << (8 * octet);
    }
    word & mask.0
}

/// CUDA `__ffs(x)`: 1-based position of the least significant set bit;
/// 0 if `x == 0`. The reduce phase (Algorithm 2) leans on the 1-based
/// convention: `ffs(bidders) - 1` is the winning thread id.
pub fn ffs(x: u32) -> u32 {
    if x == 0 {
        0
    } else {
        x.trailing_zeros() + 1
    }
}

/// CUDA `__clz(x)`: number of leading zero bits in a 32-bit word.
pub fn clz(x: u32) -> u32 {
    x.leading_zeros()
}

/// CUDA `__popc(x)`: number of set bits.
pub fn popc(x: u32) -> u32 {
    x.count_ones()
}

/// CUDA `__any(pred)`: true iff any active lane's predicate holds.
pub fn any(mask: LaneMask, preds: &Lanes<bool>) -> bool {
    ballot(mask, preds) != 0
}

/// CUDA `__all(pred)`: true iff every active lane's predicate holds.
pub fn all(mask: LaneMask, preds: &Lanes<bool>) -> bool {
    let b = ballot(mask, preds);
    b & mask.0 == mask.0
}

/// CUDA `__shfl(value, src_lane)`: every active lane reads the value held
/// by `src_lane`. Inactive lanes retain their own value (hardware leaves
/// their destination register unspecified; retaining is deterministic).
pub fn shfl<T: Copy + Default>(mask: LaneMask, values: &Lanes<T>, src_lane: usize) -> Lanes<T> {
    debug_assert!(src_lane < WARP_SIZE);
    Lanes::from_fn(|lane| {
        if mask.contains(lane) {
            values.0[src_lane]
        } else {
            values.0[lane]
        }
    })
}

/// CUDA `__shfl_up(value, delta)`: lane *i* reads lane *i - delta*; lanes
/// with *i < delta* retain their own value. Used by the inclusive prefix
/// scan in the compaction kernel.
pub fn shfl_up<T: Copy + Default>(mask: LaneMask, values: &Lanes<T>, delta: usize) -> Lanes<T> {
    Lanes::from_fn(|lane| {
        if mask.contains(lane) && lane >= delta {
            values.0[lane - delta]
        } else {
            values.0[lane]
        }
    })
}

/// CUDA `__shfl_down(value, delta)`: lane *i* reads lane *i + delta*.
pub fn shfl_down<T: Copy + Default>(mask: LaneMask, values: &Lanes<T>, delta: usize) -> Lanes<T> {
    Lanes::from_fn(|lane| {
        if mask.contains(lane) && lane + delta < WARP_SIZE {
            values.0[lane + delta]
        } else {
            values.0[lane]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig};

    #[test]
    fn ballot_lane0_is_lsb() {
        let mut p = Lanes::splat(false);
        p.set(0, true);
        assert_eq!(ballot(LaneMask::FULL, &p), 1);
        p.set(0, false);
        p.set(31, true);
        assert_eq!(ballot(LaneMask::FULL, &p), 1 << 31);
    }

    #[test]
    fn ballot_respects_mask() {
        let p = Lanes::splat(true);
        assert_eq!(ballot(LaneMask::first(4), &p), 0b1111);
        assert_eq!(ballot(LaneMask::EMPTY, &p), 0);
    }

    #[test]
    fn ffs_is_one_based_like_cuda() {
        assert_eq!(ffs(0), 0);
        assert_eq!(ffs(1), 1);
        assert_eq!(ffs(0b1000), 4);
        assert_eq!(ffs(u32::MAX), 1);
        assert_eq!(ffs(1 << 31), 32);
    }

    #[test]
    fn clz_popc_match_hardware() {
        assert_eq!(clz(0), 32);
        assert_eq!(clz(1), 31);
        assert_eq!(clz(u32::MAX), 0);
        assert_eq!(popc(0), 0);
        assert_eq!(popc(0b1011), 3);
    }

    #[test]
    fn votes() {
        let mut p = Lanes::splat(false);
        assert!(!any(LaneMask::FULL, &p));
        assert!(
            all(LaneMask::EMPTY, &p),
            "all() over an empty mask is vacuously true"
        );
        p.set(7, true);
        assert!(any(LaneMask::FULL, &p));
        assert!(!all(LaneMask::FULL, &p));
        let t = Lanes::splat(true);
        assert!(all(LaneMask::FULL, &t));
        assert!(all(LaneMask::first(5), &t));
    }

    #[test]
    fn shfl_broadcast() {
        let v = Lanes::from_fn(|i| i as u32 * 10);
        let b = shfl(LaneMask::FULL, &v, 3);
        for lane in 0..WARP_SIZE {
            assert_eq!(b.get(lane), 30);
        }
    }

    #[test]
    fn shfl_up_down_shift() {
        let v = Lanes::from_fn(|i| i as u32);
        let up = shfl_up(LaneMask::FULL, &v, 1);
        assert_eq!(up.get(0), 0, "lane 0 keeps its own value");
        assert_eq!(up.get(5), 4);
        let down = shfl_down(LaneMask::FULL, &v, 2);
        assert_eq!(down.get(0), 2);
        assert_eq!(down.get(31), 31, "top lanes keep their own value");
    }

    /// The original per-lane ballot: the oracle the packed form must equal.
    fn ballot_by_lanes(mask: LaneMask, preds: &Lanes<bool>) -> u32 {
        let mut word = 0u32;
        for lane in 0..WARP_SIZE {
            if mask.contains(lane) && preds.0[lane] {
                word |= 1 << lane;
            }
        }
        word
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn ballot_equals_the_per_lane_oracle(
            mask in prop_oneof![Just(0u32), Just(u32::MAX), proptest::strategy::any::<u32>()],
            bits in prop_oneof![
                Just(0u32),
                Just(u32::MAX),
                Just(0x8080_8080u32),
                Just(0x0101_0101u32),
                proptest::strategy::any::<u32>(),
            ],
        ) {
            let preds = Lanes::from_fn(|l| bits >> l & 1 == 1);
            prop_assert_eq!(ballot(LaneMask(mask), &preds), ballot_by_lanes(LaneMask(mask), &preds));
            prop_assert_eq!(ballot(LaneMask::FULL, &preds), bits);
        }

        /// The set-bit walk visits exactly the lanes the original
        /// filter over all 32 lanes does, in the same order.
        #[test]
        fn mask_iter_equals_the_lane_filter(
            bits in prop_oneof![
                Just(0u32),
                Just(u32::MAX),
                Just(1u32 << 31),
                proptest::strategy::any::<u32>(),
            ],
        ) {
            let mask = LaneMask(bits);
            let by_filter: Vec<usize> = (0..WARP_SIZE).filter(|&l| mask.contains(l)).collect();
            prop_assert_eq!(mask.iter().collect::<Vec<_>>(), by_filter);
        }
    }

    #[test]
    fn mask_helpers() {
        assert_eq!(LaneMask::first(0).count(), 0);
        assert_eq!(LaneMask::first(32).count(), 32);
        assert_eq!(LaneMask::first(33).count(), 32);
        let m = LaneMask::first(3);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
