//! Offline stand-in for the `bytes` crate (API subset).
//!
//! `Bytes` is a `start..end` view into an `Arc<Vec<u8>>` — clones and
//! [`Bytes::slice`]s are cheap and the buffer is immutable, which is the
//! only contract the workspace relies on.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    /// First byte of the view; the [`Buf`] cursor consumes by advancing
    /// it.
    start: usize,
    /// One past the last byte of the view.
    end: usize,
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Buffer over a static byte string.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Buffer copied from a slice.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Remaining (unconsumed) length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// A view of `range` within the remaining bytes, sharing this
    /// buffer's storage (no copy).
    ///
    /// # Panics
    /// Panics when the range is inverted or reaches past [`Self::len`].
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("out of range"),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("out of range"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi,
            "range start must not be greater than end: {lo:?} <= {hi:?}"
        );
        assert!(hi <= len, "range end out of bounds: {hi:?} <= {len:?}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the remaining bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// Make this handle empty; other clones keep the original bytes.
    pub fn clear(&mut self) {
        *self = Bytes::new();
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            start: 0,
            end: v.len(),
            data: Arc::new(v),
        }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        self.start += 1;
        v
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self[..dst.len()]);
        self.start += dst.len();
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer for serialization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte source. All multi-byte accessors are
/// little-endian, matching the subset the workspace serializes.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Read one byte.
    fn get_u8(&mut self) -> u8;

    /// Copy `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn get_u8(&mut self) -> u8 {
        (**self).get_u8()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        (**self).copy_to_slice(dst)
    }
}

/// Write cursor. All multi-byte accessors are little-endian.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_little_endian() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u8(7);
        w.put_u16_le(0xABCD);
        w.put_u32_le(0xDEADBEEF);
        w.put_u64_le(0x0123456789ABCDEF);
        let frozen = w.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.remaining(), 15);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xABCD);
        assert_eq!(r.get_u32_le(), 0xDEADBEEF);
        assert_eq!(r.get_u64_le(), 0x0123456789ABCDEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_clone_shares_storage() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(&b[..], &c[..]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn slice_is_a_view_into_the_same_storage() {
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let mid = b.slice(2..8);
        assert_eq!(&mid[..], &[2, 3, 4, 5, 6, 7]);
        assert_eq!(mid.as_ptr(), b[2..].as_ptr(), "no copy");
        // Nested ranges are relative to the slice, not the buffer.
        let inner = mid.slice(1..=3);
        assert_eq!(&inner[..], &[3, 4, 5]);
        assert_eq!(inner.as_ptr(), b[3..].as_ptr());
        assert_eq!(mid.slice(..2), [2u8, 3][..]);
        assert_eq!(mid.slice(4..), [6u8, 7][..]);
        assert_eq!(b.slice(..), b);
        // Empty slices are legal anywhere up to and including the end.
        assert!(b.slice(10..10).is_empty());
        assert!(mid.slice(3..3).is_empty());
        // The original is untouched, and outlives nothing: a slice keeps
        // the storage alive on its own.
        drop(b);
        assert_eq!(inner.to_vec(), vec![3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "range end out of bounds")]
    fn slice_past_the_end_panics() {
        // 8 is inside the underlying buffer but outside the view.
        let _ = Bytes::from(vec![0u8; 10]).slice(2..6).slice(0..8);
    }

    #[test]
    #[should_panic(expected = "range start must not be greater than end")]
    fn inverted_slice_panics() {
        let (lo, hi) = (3, 2);
        let _ = Bytes::from(vec![0u8; 10]).slice(lo..hi);
    }

    #[test]
    fn cursor_and_value_traits_stop_at_the_slice_end() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let b = Bytes::from(b"..abcd..".to_vec());
        let mut s = b.slice(2..6);
        assert_eq!(format!("{s:?}"), "b\"abcd\"");
        assert_eq!(s, Bytes::from_static(b"abcd"));
        assert_ne!(s, b);
        let hash = |x: &Bytes| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&s), hash(&Bytes::from_static(b"abcd")));

        assert_eq!(s.remaining(), 4);
        assert_eq!(s.get_u8(), b'a');
        assert_eq!(s.get_u16_le(), u16::from_le_bytes(*b"bc"));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.slice(..), Bytes::from_static(b"d"));
        assert_eq!(s.get_u8(), b'd');
        assert_eq!(s.remaining(), 0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic]
    fn cursor_cannot_read_past_the_slice_end() {
        let mut s = Bytes::from(vec![1, 2, 3, 4]).slice(..2);
        let mut two = [0u8; 2];
        s.copy_to_slice(&mut two);
        s.get_u8(); // byte 3 exists in the storage, not in the view
    }
}
