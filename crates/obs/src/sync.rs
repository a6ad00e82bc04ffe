//! Thread-safe sharing of a [`SpanRecorder`].
//!
//! The recorder itself is single-writer by design — each shard domain
//! owns its recorder outright while it runs on a worker thread, which
//! is both faster and deterministic. [`SharedSpanRecorder`] exists for
//! the one producer that genuinely spans threads: the parallel
//! scheduler's coordinator track, written from the coordinating thread
//! between epochs while worker threads are quiescent, and read by
//! exporters afterwards. A mutex (not a lock-free structure) is the
//! right tool because every access happens at a synchronization
//! barrier anyway.

use crate::SpanRecorder;
use std::sync::{Arc, Mutex, MutexGuard};

/// A [`SpanRecorder`] behind an `Arc<Mutex<_>>`, cloneable across
/// threads.
#[derive(Debug, Clone)]
pub struct SharedSpanRecorder {
    inner: Arc<Mutex<SpanRecorder>>,
}

impl SharedSpanRecorder {
    /// Shared recorder for `track` holding at most `capacity` events.
    pub fn new(track: u32, capacity: usize) -> Self {
        SharedSpanRecorder {
            inner: Arc::new(Mutex::new(SpanRecorder::new(track, capacity))),
        }
    }

    /// Lock the recorder for a batch of writes or reads.
    ///
    /// # Panics
    /// Panics if a previous holder panicked while holding the lock
    /// (poisoning) — recorder state is then unreliable.
    pub(crate) fn lock(&self) -> MutexGuard<'_, SpanRecorder> {
        self.inner.lock().expect("span recorder lock poisoned")
    }

    /// Run `f` with exclusive access to the recorder.
    pub fn with<R>(&self, f: impl FnOnce(&mut SpanRecorder) -> R) -> R {
        f(&mut self.lock())
    }

    /// Snapshot the recorder (for export without holding the lock).
    pub fn snapshot(&self) -> SpanRecorder {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanCategory;

    #[test]
    fn shared_recorder_accumulates_across_clones() {
        let rec = SharedSpanRecorder::new(9, 8);
        let other = rec.clone();
        rec.with(|r| {
            r.set_now_ns(10);
            r.record_instant(SpanCategory::Epoch, "a", vec![]);
        });
        other.with(|r| {
            r.set_now_ns(20);
            r.record_instant(SpanCategory::Epoch, "b", vec![]);
        });
        let snap = rec.snapshot();
        assert_eq!(snap.track(), 9);
        let names: Vec<&str> = snap.events().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn shared_recorder_is_send_across_threads() {
        let rec = SharedSpanRecorder::new(0, 32);
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let rec = rec.clone();
                s.spawn(move || {
                    rec.with(|r| {
                        r.set_now_ns(i);
                        r.record_instant(SpanCategory::Epoch, "tick", vec![]);
                    });
                });
            }
        });
        assert_eq!(rec.snapshot().len(), 4);
    }
}
