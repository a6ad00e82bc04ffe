//! Structure-of-arrays envelope storage for device-resident queues.
//!
//! The matrix engine's scan loads one packed 64-bit header word per
//! lane; when the host keeps queue entries as an array of structs it
//! must gather and re-pack the whole queue before every launch. Keeping
//! the queue as parallel columns — `srcs`, `tags`, `comms`, and the
//! maintained packed `words` column the kernels actually consume —
//! makes the upload a straight coalesced copy of `words` and turns
//! per-communicator sub-batch gathers into index views over columns.
//!
//! The packed column is maintained on push/remove, so it is always
//! bit-identical to packing the equivalent `Vec<Envelope>` on demand:
//! layout is timing-transparent to the matchers.

use crate::envelope::{Envelope, RecvRequest};

/// A message queue stored as parallel columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvelopeSoa {
    srcs: Vec<u32>,
    tags: Vec<u32>,
    comms: Vec<u16>,
    words: Vec<u64>,
}

impl EnvelopeSoa {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(test)]
    /// Build from an array-of-structs slice.
    pub(crate) fn from_envelopes(msgs: &[Envelope]) -> Self {
        let mut s = Self::new();
        for m in msgs {
            s.push(m);
        }
        s
    }

    /// Append one envelope, maintaining every column.
    pub fn push(&mut self, e: &Envelope) {
        self.srcs.push(e.src);
        self.tags.push(e.tag);
        self.comms.push(e.comm);
        self.words.push(e.pack());
    }

    /// Entry `i` re-assembled as an [`Envelope`].
    pub fn get(&self, i: usize) -> Envelope {
        Envelope {
            src: self.srcs[i],
            tag: self.tags[i],
            comm: self.comms[i],
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// No entries held.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The maintained packed-word column — what a kernel launch uploads.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate entries in queue order as envelopes.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Envelope> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Gather entries by index into an AoS vector (for engines that
    /// take `&[Envelope]`), reusing `out`'s allocation.
    pub fn gather_into(&self, ids: &[u32], out: &mut Vec<Envelope>) {
        out.clear();
        out.extend(ids.iter().map(|&i| self.get(i as usize)));
    }

    /// Gather packed words by index, reusing `out`'s allocation.
    pub fn gather_words_into(&self, ids: &[u32], out: &mut Vec<u64>) {
        out.clear();
        out.extend(ids.iter().map(|&i| self.words[i as usize]));
    }

    /// Queue compaction: keep entry `i` iff `keep[i]`, preserving order
    /// across every column (matched entries leave, survivors keep their
    /// relative FIFO positions).
    ///
    /// # Panics
    /// Panics if `keep.len() != self.len()`.
    pub fn compact(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len(), "keep mask must cover the queue");
        let mut w = 0usize;
        for (r, &keep_it) in keep.iter().enumerate() {
            if keep_it {
                if w != r {
                    self.srcs[w] = self.srcs[r];
                    self.tags[w] = self.tags[r];
                    self.comms[w] = self.comms[r];
                    self.words[w] = self.words[r];
                }
                w += 1;
            }
        }
        self.srcs.truncate(w);
        self.tags.truncate(w);
        self.comms.truncate(w);
        self.words.truncate(w);
    }
}

/// A posted-receive queue stored as its packed-word column. Requests
/// carry wildcard sentinels inside the word, so the single column is the
/// whole matching-relevant state; callers keep handles or descriptors in
/// their own parallel vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestSoa {
    words: Vec<u64>,
}

impl RequestSoa {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(test)]
    /// Build from an AoS slice.
    pub(crate) fn from_requests(reqs: &[RecvRequest]) -> Self {
        RequestSoa {
            words: reqs.iter().map(RecvRequest::pack).collect(),
        }
    }

    /// Append one request.
    pub fn push(&mut self, r: &RecvRequest) {
        self.words.push(r.pack());
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// No entries held.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The packed-word column.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Gather packed words by index, reusing `out`'s allocation.
    pub fn gather_words_into(&self, ids: &[u32], out: &mut Vec<u64>) {
        out.clear();
        out.extend(ids.iter().map(|&i| self.words[i as usize]));
    }

    /// Queue compaction mirroring [`EnvelopeSoa::compact`].
    ///
    /// # Panics
    /// Panics if `keep.len() != self.len()`.
    pub fn compact(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len(), "keep mask must cover the queue");
        let mut w = 0usize;
        for (r, &keep_it) in keep.iter().enumerate() {
            if keep_it {
                self.words[w] = self.words[r];
                w += 1;
            }
        }
        self.words.truncate(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Envelope> {
        (0..20)
            .map(|i| Envelope::new(i, i % 5, (i % 3) as u16))
            .collect()
    }

    #[test]
    fn words_column_equals_on_demand_packing() {
        let msgs = sample();
        let soa = EnvelopeSoa::from_envelopes(&msgs);
        let packed: Vec<u64> = msgs.iter().map(Envelope::pack).collect();
        assert_eq!(soa.words(), &packed[..]);
        assert_eq!(soa.iter().collect::<Vec<_>>(), msgs);
    }

    #[test]
    fn compact_preserves_order_across_columns() {
        let msgs = sample();
        let mut soa = EnvelopeSoa::from_envelopes(&msgs);
        let keep: Vec<bool> = (0..msgs.len()).map(|i| i % 2 == 0).collect();
        soa.compact(&keep);
        let survivors: Vec<Envelope> = msgs
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(m, _)| *m)
            .collect();
        assert_eq!(soa.iter().collect::<Vec<_>>(), survivors);
        let packed: Vec<u64> = survivors.iter().map(Envelope::pack).collect();
        assert_eq!(soa.words(), &packed[..]);
    }

    #[test]
    fn gathers_reuse_allocations() {
        let soa = EnvelopeSoa::from_envelopes(&sample());
        let ids = [3u32, 7, 1];
        let mut envs = Vec::new();
        let mut words = Vec::new();
        soa.gather_into(&ids, &mut envs);
        soa.gather_words_into(&ids, &mut words);
        assert_eq!(envs, vec![soa.get(3), soa.get(7), soa.get(1)]);
        assert_eq!(words, vec![soa.words()[3], soa.words()[7], soa.words()[1]]);
        // Second gather reuses capacity.
        let cap = envs.capacity();
        soa.gather_into(&ids[..2], &mut envs);
        assert_eq!(envs.len(), 2);
        assert_eq!(envs.capacity(), cap);
    }

    #[test]
    fn request_column_round_trips_wildcards() {
        let reqs = vec![
            RecvRequest::exact(1, 2, 0),
            RecvRequest::any_source(3, 1),
            RecvRequest::any_tag(4, 2),
        ];
        let soa = RequestSoa::from_requests(&reqs);
        let packed: Vec<u64> = reqs.iter().map(RecvRequest::pack).collect();
        assert_eq!(soa.words(), &packed[..]);
        let mut soa2 = soa.clone();
        soa2.compact(&[true, false, true]);
        assert_eq!(soa2.words(), &[packed[0], packed[2]]);
    }
}
