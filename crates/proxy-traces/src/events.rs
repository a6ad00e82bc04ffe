//! Trace events: the communication record the analysis consumes.
//!
//! The DOE Design Forward traces the paper analyses are in the *dumpi*
//! format; this module defines the equivalent information content — sends
//! with their matching envelope, receive posts with their (possibly
//! wildcarded) criteria — in a form the queue reconstructor can replay.

use serde::Serialize;

use msg_match::{Envelope, RecvRequest, SrcSpec, TagSpec};

/// One traced communication event. Timestamps are logical and strictly
/// ordered within a trace; the analyzer replays events in `ts` order,
/// which is exactly how queue reconstruction from dumpi traces works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceEvent {
    /// A point-to-point send (the receiver sees it as an arrival).
    Send {
        /// Logical timestamp (global order).
        ts: u64,
        /// Sending rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Communicator id.
        comm: u16,
        /// Payload size in bytes (not used for matching; kept because
        /// dumpi records it and size histograms are useful).
        bytes: u32,
    },
    /// A receive posted by `rank`.
    PostRecv {
        /// Logical timestamp (global order).
        ts: u64,
        /// Posting rank.
        rank: u32,
        /// Source criterion; `None` encodes `MPI_ANY_SOURCE`.
        src: Option<u32>,
        /// Tag criterion; `None` encodes `MPI_ANY_TAG`.
        tag: Option<u32>,
        /// Communicator id.
        comm: u16,
    },
}

impl TraceEvent {
    /// The event's logical timestamp.
    pub(crate) fn ts(&self) -> u64 {
        match *self {
            TraceEvent::Send { ts, .. } | TraceEvent::PostRecv { ts, .. } => ts,
        }
    }

    /// The envelope an arrival presents to the matcher (sends only).
    pub fn envelope(&self) -> Option<Envelope> {
        match *self {
            TraceEvent::Send { src, tag, comm, .. } => Some(Envelope::new(src, tag, comm)),
            TraceEvent::PostRecv { .. } => None,
        }
    }

    /// The request a post presents to the matcher (posts only).
    pub fn request(&self) -> Option<RecvRequest> {
        match *self {
            TraceEvent::PostRecv { src, tag, comm, .. } => Some(RecvRequest {
                src: match src {
                    Some(s) => SrcSpec::Rank(s),
                    None => SrcSpec::Any,
                },
                tag: match tag {
                    Some(t) => TagSpec::Tag(t),
                    None => TagSpec::Any,
                },
                comm,
            }),
            TraceEvent::Send { .. } => None,
        }
    }
}

/// A complete application trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trace {
    /// Application name (as in Table I).
    pub(crate) app: String,
    /// Number of ranks the run used.
    pub ranks: u32,
    /// Events in logical-time order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Sanity-check invariants: monotone timestamps and in-range ranks.
    pub fn validate(&self) -> Result<(), String> {
        let mut last = 0u64;
        for (i, e) in self.events.iter().enumerate() {
            if e.ts() < last {
                return Err(format!("event {i} goes back in time: {} < {last}", e.ts()));
            }
            last = e.ts();
            let (a, b) = match *e {
                TraceEvent::Send { src, dst, .. } => (src, dst),
                TraceEvent::PostRecv { rank, .. } => (rank, rank),
            };
            if a >= self.ranks || b >= self.ranks {
                return Err(format!("event {i} references rank out of range"));
            }
        }
        Ok(())
    }

    /// Count of send events.
    pub fn send_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { .. }))
            .count()
    }

    /// Count of posted receives.
    #[cfg(test)]
    pub(crate) fn recv_count(&self) -> usize {
        self.events.len() - self.send_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_and_request_extraction() {
        let s = TraceEvent::Send {
            ts: 1,
            src: 2,
            dst: 3,
            tag: 7,
            comm: 0,
            bytes: 64,
        };
        assert_eq!(s.envelope(), Some(Envelope::new(2, 7, 0)));
        assert_eq!(s.request(), None);

        let p = TraceEvent::PostRecv {
            ts: 2,
            rank: 3,
            src: None,
            tag: Some(7),
            comm: 0,
        };
        assert_eq!(p.envelope(), None);
        let r = p.request().unwrap();
        assert_eq!(r.src, SrcSpec::Any);
        assert_eq!(r.tag, TagSpec::Tag(7));
    }

    #[test]
    fn validation_catches_time_travel_and_bad_ranks() {
        let mut t = Trace {
            app: "x".into(),
            ranks: 4,
            events: vec![
                TraceEvent::Send {
                    ts: 5,
                    src: 0,
                    dst: 1,
                    tag: 0,
                    comm: 0,
                    bytes: 0,
                },
                TraceEvent::Send {
                    ts: 3,
                    src: 1,
                    dst: 0,
                    tag: 0,
                    comm: 0,
                    bytes: 0,
                },
            ],
        };
        assert!(t.validate().is_err());
        t.events[1] = TraceEvent::Send {
            ts: 6,
            src: 9,
            dst: 0,
            tag: 0,
            comm: 0,
            bytes: 0,
        };
        assert!(t.validate().is_err());
        t.events[1] = TraceEvent::Send {
            ts: 6,
            src: 1,
            dst: 0,
            tag: 0,
            comm: 0,
            bytes: 0,
        };
        assert!(t.validate().is_ok());
        assert_eq!(t.send_count(), 2);
        assert_eq!(t.recv_count(), 0);
    }
}
