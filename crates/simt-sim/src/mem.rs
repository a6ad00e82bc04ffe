//! Device memory: typed global buffers and per-CTA shared memory.
//!
//! Kernels never compute raw byte addresses; they index typed buffers by
//! element. The memory system still models what addresses would do to the
//! hardware: global accesses are grouped into 128-byte transactions
//! (coalescing) and shared accesses are checked for bank conflicts, both
//! feeding the timing model.

use std::marker::PhantomData;

use crate::config::WARP_SIZE;
use crate::lanes::{LaneMask, Lanes};

/// Scalar types storable in device memory. Values are held as `u64` words
/// internally; the trait records the *architectural* width so coalescing
/// and bank-conflict math see the true access size.
pub trait DeviceScalar: Copy + Default + 'static {
    /// Size of the scalar on the device, in bytes.
    const BYTES: u32;
    /// Encode into a storage word.
    fn to_word(self) -> u64;
    /// Decode from a storage word.
    fn from_word(word: u64) -> Self;
}

impl DeviceScalar for u32 {
    const BYTES: u32 = 4;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as u32
    }
}

impl DeviceScalar for u64 {
    const BYTES: u32 = 8;
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

impl DeviceScalar for i32 {
    const BYTES: u32 = 4;
    fn to_word(self) -> u64 {
        self as u32 as u64
    }
    fn from_word(word: u64) -> Self {
        word as u32 as i32
    }
}

/// Typed handle to a global-memory buffer owned by a [`DeviceMemory`].
pub struct BufferId<T> {
    pub(crate) index: usize,
    _ty: PhantomData<fn() -> T>,
}

impl<T> Clone for BufferId<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for BufferId<T> {}

impl<T> std::fmt::Debug for BufferId<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BufferId({})", self.index)
    }
}

struct RawBuffer {
    words: Vec<u64>,
}

/// Global device memory: an arena of typed buffers.
///
/// The arena outlives kernel launches; host code allocates buffers, fills
/// them, launches kernels against them and reads results back — mirroring
/// the `cudaMalloc`/`cudaMemcpy` lifecycle without raw pointers.
#[derive(Default)]
pub struct DeviceMemory {
    buffers: Vec<RawBuffer>,
}

impl DeviceMemory {
    /// Fresh, empty device memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a zero-initialised buffer of `len` elements.
    pub fn alloc<T: DeviceScalar>(&mut self, len: usize) -> BufferId<T> {
        self.buffers.push(RawBuffer {
            words: vec![0u64; len],
        });
        BufferId {
            index: self.buffers.len() - 1,
            _ty: PhantomData,
        }
    }

    /// Allocate a buffer initialised from a slice.
    pub fn alloc_from<T: DeviceScalar>(&mut self, data: &[T]) -> BufferId<T> {
        let id = self.alloc::<T>(data.len());
        self.write_slice(id, 0, data);
        id
    }

    /// Release every buffer, invalidating all outstanding [`BufferId`]s.
    ///
    /// The arena has no per-buffer free (IDs are plain indices); a
    /// device-resident service that launches batch after batch instead
    /// reclaims the whole arena between batches, modelling a steady-state
    /// allocation pool without unbounded growth.
    pub(crate) fn reclaim(&mut self) {
        self.buffers.clear();
    }

    /// Buffers currently allocated (drops to 0 after `reclaim`).
    pub fn allocated_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Number of elements in `buf`.
    pub fn len<T: DeviceScalar>(&self, buf: BufferId<T>) -> usize {
        self.buffers[buf.index].words.len()
    }

    /// Host read of a single element.
    pub fn read<T: DeviceScalar>(&self, buf: BufferId<T>, idx: usize) -> T {
        T::from_word(self.buffers[buf.index].words[idx])
    }

    /// Host write of a single element.
    pub(crate) fn write<T: DeviceScalar>(&mut self, buf: BufferId<T>, idx: usize, value: T) {
        self.buffers[buf.index].words[idx] = value.to_word();
    }

    /// Host read of the whole buffer.
    pub fn read_vec<T: DeviceScalar>(&self, buf: BufferId<T>) -> Vec<T> {
        self.buffers[buf.index]
            .words
            .iter()
            .map(|&w| T::from_word(w))
            .collect()
    }

    /// Host write of a contiguous slice starting at `offset`.
    pub fn write_slice<T: DeviceScalar>(&mut self, buf: BufferId<T>, offset: usize, data: &[T]) {
        let words = &mut self.buffers[buf.index].words;
        assert!(
            offset + data.len() <= words.len(),
            "write_slice out of bounds: {}+{} > {}",
            offset,
            data.len(),
            words.len()
        );
        for (i, v) in data.iter().enumerate() {
            words[offset + i] = v.to_word();
        }
    }

    pub(crate) fn load_lanes<T: DeviceScalar>(
        &self,
        buf: BufferId<T>,
        mask: LaneMask,
        idx: &Lanes<u32>,
    ) -> Lanes<T> {
        let words = &self.buffers[buf.index].words;
        Lanes::from_fn(|lane| {
            if mask.contains(lane) {
                T::from_word(words[idx.get(lane) as usize])
            } else {
                T::default()
            }
        })
    }

    pub(crate) fn load_run<T: DeviceScalar>(
        &self,
        buf: BufferId<T>,
        mask: LaneMask,
        base: u32,
        len: u32,
    ) -> Lanes<T> {
        load_run(&self.buffers[buf.index].words, mask, base, len)
    }

    pub(crate) fn store_lanes<T: DeviceScalar>(
        &mut self,
        buf: BufferId<T>,
        mask: LaneMask,
        idx: &Lanes<u32>,
        values: &Lanes<T>,
    ) {
        let words = &mut self.buffers[buf.index].words;
        // Lanes commit in ascending order; concurrent same-address stores
        // resolve to the highest lane, matching the "one store wins,
        // which one is unspecified" CUDA rule deterministically.
        for lane in mask.iter() {
            words[idx.get(lane) as usize] = values.get(lane).to_word();
        }
    }
}

/// Typed handle to a shared-memory region of a CTA.
pub struct SharedId<T> {
    pub(crate) index: usize,
    _ty: PhantomData<fn() -> T>,
}

impl<T> Clone for SharedId<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedId<T> {}

impl<T> std::fmt::Debug for SharedId<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedId({})", self.index)
    }
}

/// Per-CTA scratch-pad ("shared") memory.
///
/// Regions are allocated by the kernel at CTA start; total usage counts
/// against the SM's shared-memory budget in the occupancy calculation.
/// A device keeps one for all its CTAs: [`SharedMemory::reset`] empties
/// it and keeps the regions' buffers for the next CTA to reuse.
#[derive(Default)]
pub(crate) struct SharedMemory {
    /// The current CTA's regions, then buffers kept from earlier CTAs.
    regions: Vec<RawBuffer>,
    /// Regions the current CTA allocated.
    used: usize,
    bytes_used: u32,
}

impl SharedMemory {
    /// Empty the shared memory for the next CTA.
    pub(crate) fn reset(&mut self) {
        self.used = 0;
        self.bytes_used = 0;
    }

    /// Allocate a zeroed region of `len` elements.
    pub(crate) fn alloc<T: DeviceScalar>(&mut self, len: usize) -> SharedId<T> {
        self.bytes_used += T::BYTES * len as u32;
        if self.used == self.regions.len() {
            self.regions.push(RawBuffer { words: Vec::new() });
        }
        let words = &mut self.regions[self.used].words;
        words.clear();
        words.resize(len, 0);
        self.used += 1;
        SharedId {
            index: self.used - 1,
            _ty: PhantomData,
        }
    }

    /// Total bytes allocated (drives occupancy).
    pub(crate) fn bytes_used(&self) -> u32 {
        self.bytes_used
    }

    pub(crate) fn load_lanes<T: DeviceScalar>(
        &self,
        id: SharedId<T>,
        mask: LaneMask,
        idx: &Lanes<u32>,
    ) -> Lanes<T> {
        let words = &self.regions[..self.used][id.index].words;
        Lanes::from_fn(|lane| {
            if mask.contains(lane) {
                T::from_word(words[idx.get(lane) as usize])
            } else {
                T::default()
            }
        })
    }

    pub(crate) fn load_run<T: DeviceScalar>(
        &self,
        id: SharedId<T>,
        mask: LaneMask,
        base: u32,
        len: u32,
    ) -> Lanes<T> {
        load_run(&self.regions[..self.used][id.index].words, mask, base, len)
    }

    pub(crate) fn store_lanes<T: DeviceScalar>(
        &mut self,
        id: SharedId<T>,
        mask: LaneMask,
        idx: &Lanes<u32>,
        values: &Lanes<T>,
    ) {
        let words = &mut self.regions[..self.used][id.index].words;
        for lane in mask.iter() {
            words[idx.get(lane) as usize] = values.get(lane).to_word();
        }
    }

    /// One lane's store of `value` to element `idx`.
    pub(crate) fn write<T: DeviceScalar>(&mut self, id: SharedId<T>, idx: usize, value: T) {
        self.regions[..self.used][id.index].words[idx] = value.to_word();
    }

    /// Every region the current CTA allocated, as storage words.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<Vec<u64>> {
        self.regions[..self.used]
            .iter()
            .map(|r| r.words.clone())
            .collect()
    }
}

/// The element lane `lane` of a *run* access reads: `base + lane` for the
/// first `len` lanes, `base` for the rest (the dead lanes of a partial
/// chunk re-read its first element). A run is the index vector the
/// `*_run` ops of [`crate::WarpCtx`] stand for.
#[inline]
pub(crate) fn run_index(base: u32, len: u32, lane: usize) -> u32 {
    if (lane as u32) < len {
        base + lane as u32
    } else {
        base
    }
}

/// The elements a run touches under `mask`, as offsets from `base`: bit
/// `o` stands for element `base + o`.
#[inline]
fn run_offsets(mask: LaneMask, len: u32) -> u32 {
    let head = LaneMask::first(len as usize).0;
    mask.0 & head | u32::from(mask.0 & !head != 0)
}

/// [`DeviceMemory::load_lanes`] of a run's index vector.
#[inline]
fn load_run<T: DeviceScalar>(words: &[u64], mask: LaneMask, base: u32, len: u32) -> Lanes<T> {
    if mask == LaneMask::FULL && len as usize >= WARP_SIZE {
        let run = &words[base as usize..base as usize + WARP_SIZE];
        return Lanes::from_fn(|lane| T::from_word(run[lane]));
    }
    Lanes::from_fn(|lane| {
        if mask.contains(lane) {
            T::from_word(words[run_index(base, len, lane) as usize])
        } else {
            T::default()
        }
    })
}

/// [`coalesced_transactions`] of a run, counted from its bounds: each
/// 128-byte segment between the first and the last element touched that
/// holds a touched element (at most `⌈31 · elem_bytes / 128⌉ + 1` of
/// them) is one transaction.
pub(crate) fn run_transactions(mask: LaneMask, base: u32, len: u32, elem_bytes: u32) -> u32 {
    let offsets = run_offsets(mask, len);
    if offsets == 0 {
        return 0;
    }
    let (base, bytes) = (u64::from(base), u64::from(elem_bytes));
    let lo = base + u64::from(offsets.trailing_zeros());
    let hi = base + u64::from(31 - offsets.leading_zeros());
    (lo * bytes / 128..=hi * bytes / 128)
        .filter(|&seg| {
            // The segment's elements, clipped to the run, as offsets.
            let first = (seg * 128).div_ceil(bytes).max(lo) - base;
            let end = ((seg + 1) * 128).div_ceil(bytes).min(hi + 1) - base;
            offsets as u64 & ((1u64 << end) - (1u64 << first)) != 0
        })
        .count() as u32
}

/// [`bank_conflict_degree`] of a run, counted from its bounds: a run
/// spanning at most `banks` words is free; a longer one counts the words
/// of its distinct elements per bank.
///
/// # Panics
/// Panics unless `1 <= banks <= 64`.
pub(crate) fn run_conflict_degree(
    mask: LaneMask,
    base: u32,
    len: u32,
    elem_bytes: u32,
    banks: u32,
) -> u32 {
    check_banks(banks);
    let offsets = run_offsets(mask, len);
    if offsets == 0 {
        return 0;
    }
    let words_per_elem = u64::from((elem_bytes / 4).max(1));
    let lo = offsets.trailing_zeros();
    let span = u64::from(32 - offsets.leading_zeros() - lo) * words_per_elem;
    if span <= u64::from(banks) {
        return 1;
    }
    let elems = LaneMask(offsets).iter().map(|o| u64::from(base) + o as u64);
    per_bank_degree(elems, words_per_elem, u64::from(banks))
}

/// Number of 128-byte global-memory transactions needed to service a
/// warp's access to elements `idx` of size `elem_bytes` under `mask`.
///
/// This is the Fermi+ coalescing rule: the distinct 128-byte segments
/// touched by the active lanes. A lane's element starts in one segment,
/// so one lane is one transaction. Segments already in ascending lane
/// order are counted by their changes, others within 64 of each other in
/// a bitmask, wider spreads (random addresses) by sorting.
pub(crate) fn coalesced_transactions(mask: LaneMask, idx: &Lanes<u32>, elem_bytes: u32) -> u32 {
    if mask.at_most_one() {
        return mask.count();
    }
    let mut segments = [0u64; WARP_SIZE];
    let (mut n, mut lo, mut hi) = (0, u64::MAX, 0);
    let (mut ascending, mut changes) = (true, 0);
    for lane in mask.iter() {
        let seg = idx.get(lane) as u64 * elem_bytes as u64 / 128;
        if n > 0 {
            ascending &= segments[n - 1] <= seg;
            changes += u32::from(segments[n - 1] != seg);
        }
        segments[n] = seg;
        n += 1;
        lo = lo.min(seg);
        hi = hi.max(seg);
    }
    let segments = &mut segments[..n];
    if ascending {
        1 + changes
    } else if hi - lo < 64 {
        segments
            .iter()
            .fold(0u64, |bits, &s| bits | 1 << (s - lo))
            .count_ones()
    } else {
        segments.sort_unstable();
        1 + segments.windows(2).filter(|w| w[0] != w[1]).count() as u32
    }
}

/// Most shared-memory banks [`bank_conflict_degree`] counts on its stack
/// (every generation the paper studies has 32).
const MAX_SHARED_BANKS: usize = 64;

/// Shared-memory bank conflict degree of a warp access: the maximum number
/// of *distinct* 32-bit words that map to the same bank. 1 means conflict
/// free; `k` means the access replays `k` times.
///
/// Fast paths: one lane's element covers `k` consecutive words, at most
/// `⌈k / banks⌉` of them on one bank; lane indices already strictly
/// ascending need no sort, and when they span at most `banks` words
/// every bank holds at most one of them.
///
/// # Panics
/// Panics unless `1 <= banks <= 64`.
#[inline]
pub(crate) fn bank_conflict_degree(
    mask: LaneMask,
    idx: &Lanes<u32>,
    elem_bytes: u32,
    banks: u32,
) -> u32 {
    check_banks(banks);
    if mask == LaneMask::EMPTY {
        0
    } else if !mask.at_most_one() {
        let words_per_elem = (elem_bytes / 4).max(1);
        lanes_conflict_degree(mask, idx, u64::from(words_per_elem), u64::from(banks))
    } else {
        element_conflict_degree(elem_bytes, banks)
    }
}

/// [`bank_conflict_degree`] of one lane: its element covers `k`
/// consecutive words, at most `⌈k / banks⌉` of them on one bank.
#[inline]
pub(crate) fn element_conflict_degree(elem_bytes: u32, banks: u32) -> u32 {
    (elem_bytes / 4).max(1).div_ceil(banks)
}

#[inline]
fn check_banks(banks: u32) {
    assert!(
        (1..=MAX_SHARED_BANKS).contains(&(banks as usize)),
        "{banks} shared banks; 1..={MAX_SHARED_BANKS} supported"
    );
}

/// [`bank_conflict_degree`] of two or more active lanes.
fn lanes_conflict_degree(mask: LaneMask, idx: &Lanes<u32>, words_per_elem: u64, banks: u64) -> u32 {
    // The active lanes' indices, compacted in place (lane `l` moves down
    // to a slot `n <= l` whose own index was already read). Element `e`
    // covers words `e*k .. e*k+k`, so distinct elements touch distinct
    // words: deduplicating the indices deduplicates words.
    let mut elems = idx.0;
    let mut n = WARP_SIZE;
    if mask != LaneMask::FULL {
        n = 0;
        for lane in mask.iter() {
            elems[n] = elems[lane];
            n += 1;
        }
    }
    let elems = &mut elems[..n];
    if elems.windows(2).all(|pair| pair[0] < pair[1]) {
        // In `u64`: a spread of 2^31 eight-byte elements wraps a `u32`.
        let span = (u64::from(elems[n - 1]) - u64::from(elems[0]) + 1) * words_per_elem;
        if span <= banks {
            return 1;
        }
    } else {
        elems.sort_unstable();
    }
    let distinct = elems
        .iter()
        .enumerate()
        .filter(|&(i, &e)| i == 0 || elems[i - 1] != e)
        .map(|(_, &e)| u64::from(e));
    per_bank_degree(distinct, words_per_elem, banks)
}

/// The most words of the distinct elements `elems` on one bank.
fn per_bank_degree(elems: impl Iterator<Item = u64>, words_per_elem: u64, banks: u64) -> u32 {
    let mut per_bank = [0u32; MAX_SHARED_BANKS];
    let mut degree = 1;
    for e in elems {
        for w in 0..words_per_elem {
            let bank = ((e * words_per_elem + w) % banks) as usize;
            per_bank[bank] += 1;
            degree = degree.max(per_bank[bank]);
        }
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn alloc_read_write_round_trip() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc::<u64>(8);
        mem.write(buf, 3, 0xdead_beef_u64);
        assert_eq!(mem.read(buf, 3), 0xdead_beef_u64);
        assert_eq!(mem.read(buf, 0), 0);
        assert_eq!(mem.len(buf), 8);
    }

    #[test]
    fn alloc_from_and_read_vec() {
        let mut mem = DeviceMemory::new();
        let data: Vec<u32> = (0..100).collect();
        let buf = mem.alloc_from(&data);
        assert_eq!(mem.read_vec(buf), data);
    }

    #[test]
    fn lane_load_store_masked() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc::<u32>(WARP_SIZE);
        let idx = Lanes::from_fn(|i| i as u32);
        let vals = Lanes::from_fn(|i| (i * 2) as u32);
        mem.store_lanes(buf, LaneMask::first(4), &idx, &vals);
        assert_eq!(mem.read(buf, 3), 6);
        assert_eq!(mem.read(buf, 4), 0, "inactive lane must not store");
        let loaded = mem.load_lanes(buf, LaneMask::first(4), &idx);
        assert_eq!(loaded.get(2), 4);
        assert_eq!(loaded.get(10), 0, "inactive lanes read default");
    }

    #[test]
    fn coalescing_contiguous_u32_is_one_transaction() {
        let idx = Lanes::from_fn(|i| i as u32);
        assert_eq!(coalesced_transactions(LaneMask::FULL, &idx, 4), 1);
    }

    #[test]
    fn coalescing_contiguous_u64_is_two_transactions() {
        let idx = Lanes::from_fn(|i| i as u32);
        assert_eq!(coalesced_transactions(LaneMask::FULL, &idx, 8), 2);
    }

    #[test]
    fn coalescing_strided_explodes() {
        // Stride of 32 u32 elements: every lane in its own 128-byte segment.
        let idx = Lanes::from_fn(|i| (i * 32) as u32);
        assert_eq!(coalesced_transactions(LaneMask::FULL, &idx, 4), 32);
    }

    #[test]
    fn coalescing_broadcast_is_one() {
        let idx = Lanes::splat(7u32);
        assert_eq!(coalesced_transactions(LaneMask::FULL, &idx, 8), 1);
    }

    #[test]
    fn coalescing_empty_mask_is_zero() {
        let idx = Lanes::splat(0u32);
        assert_eq!(coalesced_transactions(LaneMask::EMPTY, &idx, 4), 0);
    }

    /// The original quadratic implementation: a list of the distinct
    /// segments seen so far. The oracle the counting version must agree
    /// with.
    fn coalesced_transactions_by_scan(mask: LaneMask, idx: &Lanes<u32>, elem_bytes: u32) -> u32 {
        let mut segments: [u64; WARP_SIZE] = [u64::MAX; WARP_SIZE];
        let mut n = 0usize;
        for lane in mask.iter() {
            let byte = idx.get(lane) as u64 * elem_bytes as u64;
            let seg = byte / 128;
            if !segments[..n].contains(&seg) {
                segments[n] = seg;
                n += 1;
            }
        }
        n as u32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn coalescing_equals_the_scan_reference(
            mask in prop_oneof![
                Just(0u32),
                Just(u32::MAX),
                Just(1u32),
                any::<u32>(),
            ],
            base in 0u32..1 << 24,
            spread in prop_oneof![0u32..256, 0u32..1 << 16],
            picks in collection::vec((0u32..8, 0u32..64), WARP_SIZE),
            elem_bytes in prop_oneof![Just(4u32), Just(8u32)],
        ) {
            // Lanes cluster around up to eight points `spread` elements
            // apart, so segments repeat both when they span fewer than 64
            // segments and when they span more.
            let idx = Lanes::from_fn(|l| {
                let (point, offset) = picks[l];
                base + point * spread + offset
            });
            let mask = LaneMask(mask);
            prop_assert_eq!(
                coalesced_transactions(mask, &idx, elem_bytes),
                coalesced_transactions_by_scan(mask, &idx, elem_bytes)
            );
        }
    }

    #[test]
    fn bank_conflicts_unit_stride_is_free() {
        let idx = Lanes::from_fn(|i| i as u32);
        assert_eq!(bank_conflict_degree(LaneMask::FULL, &idx, 4, 32), 1);
    }

    #[test]
    fn bank_conflicts_same_word_broadcast_is_free() {
        // All lanes read the same word: hardware broadcasts, 1 replay.
        let idx = Lanes::splat(5u32);
        assert_eq!(bank_conflict_degree(LaneMask::FULL, &idx, 4, 32), 1);
    }

    #[test]
    fn bank_conflicts_stride_32_is_32_way() {
        let idx = Lanes::from_fn(|i| (i * 32) as u32);
        assert_eq!(bank_conflict_degree(LaneMask::FULL, &idx, 4, 32), 32);
    }

    /// The original allocating implementation: a list of distinct words
    /// per bank. The oracle the stack-array version must agree with.
    fn bank_conflict_degree_by_lists(
        mask: LaneMask,
        idx: &Lanes<u32>,
        elem_bytes: u32,
        banks: u32,
    ) -> u32 {
        if mask == LaneMask::EMPTY {
            return 0;
        }
        let words_per_elem = (elem_bytes / 4).max(1);
        let mut per_bank_words: Vec<Vec<u64>> = vec![Vec::new(); banks as usize];
        for lane in mask.iter() {
            for w in 0..words_per_elem {
                let word_addr = idx.get(lane) as u64 * words_per_elem as u64 + w as u64;
                let bank = (word_addr % banks as u64) as usize;
                if !per_bank_words[bank].contains(&word_addr) {
                    per_bank_words[bank].push(word_addr);
                }
            }
        }
        per_bank_words
            .iter()
            .map(|v| v.len() as u32)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn bank_conflicts_equal_the_list_reference(
            mask in prop_oneof![
                Just(0u32),
                Just(u32::MAX),
                Just(1u32),
                any::<u32>(),
            ],
            shape in 0u32..4,
            base in 0u32..4096,
            stride in 0u32..70,
            random in collection::vec(0u32..2048, 32),
            elem_bytes in prop_oneof![Just(4u32), Just(8u32)],
            banks in prop_oneof![Just(32u32), Just(16u32), 1u32..=64],
        ) {
            // Broadcast, strided (conflict-free, 2-way, 32-way, …) and
            // random index patterns.
            let idx = match shape {
                0 => Lanes::splat(base),
                1 | 2 => Lanes::from_fn(|l| base + l as u32 * stride),
                _ => Lanes::from_fn(|l| random[l]),
            };
            let mask = LaneMask(mask);
            prop_assert_eq!(
                bank_conflict_degree(mask, &idx, elem_bytes, banks),
                bank_conflict_degree_by_lists(mask, &idx, elem_bytes, banks)
            );
        }
    }

    #[test]
    fn bank_conflicts_of_one_lane_count_its_words() {
        // An 8-byte element is two words: on one bank they conflict, on
        // two they do not.
        let idx = Lanes::splat(3u32);
        let one = LaneMask(1 << 5);
        assert_eq!(bank_conflict_degree(one, &idx, 8, 1), 2);
        assert_eq!(bank_conflict_degree(one, &idx, 8, 2), 1);
        assert_eq!(bank_conflict_degree(one, &idx, 4, 1), 1);
        assert_eq!(bank_conflict_degree(one, &idx, 8, 32), 1);
    }

    #[test]
    fn bank_conflicts_of_an_ascending_run_turn_at_banks_words() {
        // 32 four-byte words on 32 banks are free; skipping one index
        // spans 33 words and puts words 0 and 32 on bank 0.
        let exact = Lanes::from_fn(|l| l as u32);
        let one_over = Lanes::from_fn(|l| l as u32 + u32::from(l == 31));
        assert_eq!(bank_conflict_degree(LaneMask::FULL, &exact, 4, 32), 1);
        assert_eq!(bank_conflict_degree(LaneMask::FULL, &one_over, 4, 32), 2);
        // Sixteen eight-byte elements are 32 words; seventeen are 34.
        assert_eq!(bank_conflict_degree(LaneMask::first(16), &exact, 8, 32), 1);
        assert_eq!(bank_conflict_degree(LaneMask::first(17), &exact, 8, 32), 2);
        assert_eq!(bank_conflict_degree(LaneMask::first(16), &exact, 4, 16), 1);
        assert_eq!(bank_conflict_degree(LaneMask::first(17), &exact, 4, 16), 2);
    }

    #[test]
    fn bank_conflict_span_does_not_wrap() {
        // Elements 0 and 2^31 of eight bytes sit 2^32 words apart, on the
        // same two banks; a 32-bit span would wrap to 2 words and call the
        // access free.
        let idx = Lanes::from_fn(|l| if l == 1 { 1 << 31 } else { 0 });
        let two = LaneMask(0b11);
        assert_eq!(bank_conflict_degree(two, &idx, 8, 32), 2);
        assert_eq!(bank_conflict_degree_by_lists(two, &idx, 8, 32), 2);
        let far = Lanes::from_fn(|l| if l == 1 { u32::MAX } else { 0 });
        assert_eq!(
            bank_conflict_degree(two, &far, 8, 32),
            bank_conflict_degree_by_lists(two, &far, 8, 32)
        );
    }

    #[test]
    fn coalescing_of_one_lane_is_one_transaction() {
        let idx = Lanes::splat(u32::MAX);
        assert_eq!(coalesced_transactions(LaneMask(1 << 31), &idx, 8), 1);
        assert_eq!(coalesced_transactions(LaneMask(1), &idx, 4), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// Ascending indices take the fast paths; they must agree with
        /// the references too.
        #[test]
        fn ascending_accesses_equal_the_references(
            mask in prop_oneof![Just(u32::MAX), Just(3u32), any::<u32>()],
            base in prop_oneof![0u32..4096, Just(0xFFE0_0000u32)],
            steps in collection::vec(prop_oneof![Just(0u32), Just(1u32), 0u32..40], WARP_SIZE),
            elem_bytes in prop_oneof![Just(4u32), Just(8u32)],
            banks in prop_oneof![Just(32u32), Just(16u32), 1u32..=64],
        ) {
            let mut at = base;
            let idx = Lanes::from_fn(|l| {
                at += steps[l];
                at
            });
            let mask = LaneMask(mask);
            prop_assert_eq!(
                coalesced_transactions(mask, &idx, elem_bytes),
                coalesced_transactions_by_scan(mask, &idx, elem_bytes)
            );
            prop_assert_eq!(
                bank_conflict_degree(mask, &idx, elem_bytes, banks),
                bank_conflict_degree_by_lists(mask, &idx, elem_bytes, banks)
            );
        }
    }

    #[test]
    fn shared_memory_tracks_bytes() {
        let mut sh = SharedMemory::default();
        sh.alloc::<u32>(256);
        sh.alloc::<u64>(32);
        assert_eq!(sh.bytes_used(), 256 * 4 + 32 * 8);
    }

    #[test]
    fn reset_shared_memory_reuses_regions_zeroed() {
        let mut sh = SharedMemory::default();
        let a = sh.alloc::<u32>(64);
        sh.store_lanes(
            a,
            LaneMask::FULL,
            &Lanes::from_fn(|i| i as u32),
            &Lanes::splat(7),
        );
        sh.reset();
        assert_eq!(sh.bytes_used(), 0);
        let b = sh.alloc::<u64>(96);
        let idx = Lanes::from_fn(|i| i as u32 * 3);
        assert_eq!(sh.load_lanes(b, LaneMask::FULL, &idx), Lanes::splat(0));
        assert_eq!(sh.bytes_used(), 96 * 8);
    }
}
