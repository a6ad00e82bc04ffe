//! A compact binary trace format ("SDTF" — SIMT dumpi-like trace format).
//!
//! The DOE traces come as dumpi binary archives; this module provides the
//! equivalent serialisation for the synthetic traces so the pipeline
//! (generate → write → read → analyze) exercises the same stages a
//! dumpi-based analysis would. Layout (little-endian):
//!
//! ```text
//! magic   "SDTF"            4 bytes
//! version u16               (currently 1)
//! ranks   u32
//! name    u16 length + UTF-8 bytes
//! count   u64               number of records
//! records:
//!   kind  u8                0 = Send, 1 = PostRecv
//!   Send:     ts u64, src u32, dst u32, tag u32, comm u16, bytes u32
//!   PostRecv: ts u64, rank u32, src u32 (0xFFFF_FFFF = ANY),
//!             tag u32 (0xFFFF_FFFF = ANY), comm u16
//! ```
//!
//! The reader is the trust boundary: it rejects a rank count above
//! [`MAX_RANKS`], rank fields the rank count does not cover, and tags or
//! communicators wider than the matching header, so whatever it returns
//! the analyzer can replay.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use msg_match::envelope::{MAX_COMM, MAX_TAG};

use crate::events::{Trace, TraceEvent};

/// Format magic bytes.
pub(crate) const MAGIC: &[u8; 4] = b"SDTF";
/// Current format version.
pub(crate) const VERSION: u16 = 1;

const ANY: u32 = u32::MAX;

/// Largest rank count the reader accepts: the analyzer allocates per
/// rank, so the header's word alone must not size that. Three hundred
/// times the largest proxy application.
pub(crate) const MAX_RANKS: u32 = 1 << 16;

/// Encoded size of the smallest record (a `PostRecv` with its kind byte).
const MIN_RECORD_BYTES: usize = 1 + 8 + 4 + 4 + 4 + 2;

/// Serialisation/deserialisation errors.
#[derive(Debug, PartialEq, Eq)]
pub enum FormatError {
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Input ended before the declared record count was read.
    Truncated,
    /// Unknown record kind byte.
    BadRecordKind(u8),
    /// Trace name was not valid UTF-8.
    BadName,
    /// A field holds a value the analyzer cannot replay: more than
    /// [`MAX_RANKS`] ranks, a rank the header's rank count does not
    /// cover, or a tag or communicator wider than the matching header.
    OutOfRange {
        /// Which field.
        field: &'static str,
        /// What it held.
        value: u32,
        /// The smallest value that is too large.
        limit: u32,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not an SDTF trace (bad magic)"),
            FormatError::BadVersion(v) => write!(f, "unsupported SDTF version {v}"),
            FormatError::Truncated => write!(f, "trace file truncated"),
            FormatError::BadRecordKind(k) => write!(f, "unknown record kind {k}"),
            FormatError::BadName => write!(f, "trace name is not UTF-8"),
            FormatError::OutOfRange {
                field,
                value,
                limit,
            } => write!(f, "{field} {value} out of range (must be below {limit})"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Serialise a trace.
pub fn write_trace(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + trace.events.len() * 27);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(trace.ranks);
    buf.put_u16_le(trace.app.len() as u16);
    buf.put_slice(trace.app.as_bytes());
    buf.put_u64_le(trace.events.len() as u64);
    for ev in &trace.events {
        match *ev {
            TraceEvent::Send {
                ts,
                src,
                dst,
                tag,
                comm,
                bytes,
            } => {
                buf.put_u8(0);
                buf.put_u64_le(ts);
                buf.put_u32_le(src);
                buf.put_u32_le(dst);
                buf.put_u32_le(tag);
                buf.put_u16_le(comm);
                buf.put_u32_le(bytes);
            }
            TraceEvent::PostRecv {
                ts,
                rank,
                src,
                tag,
                comm,
            } => {
                buf.put_u8(1);
                buf.put_u64_le(ts);
                buf.put_u32_le(rank);
                buf.put_u32_le(src.unwrap_or(ANY));
                buf.put_u32_le(tag.unwrap_or(ANY));
                buf.put_u16_le(comm);
            }
        }
    }
    buf.freeze()
}

fn below(field: &'static str, value: u32, limit: u32) -> Result<u32, FormatError> {
    if value < limit {
        Ok(value)
    } else {
        Err(FormatError::OutOfRange {
            field,
            value,
            limit,
        })
    }
}

fn comm_below_limit(comm: u16) -> Result<u16, FormatError> {
    below("communicator", u32::from(comm), u32::from(MAX_COMM) + 1).map(|_| comm)
}

fn need(buf: &impl Buf, n: usize) -> Result<(), FormatError> {
    if buf.remaining() < n {
        Err(FormatError::Truncated)
    } else {
        Ok(())
    }
}

/// Deserialise a trace.
pub fn read_trace(mut buf: impl Buf) -> Result<Trace, FormatError> {
    need(&buf, 4)?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(FormatError::BadMagic);
    }
    need(&buf, 2 + 4 + 2)?;
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let ranks = buf.get_u32_le();
    below("rank count", ranks, MAX_RANKS + 1)?;
    let name_len = buf.get_u16_le() as usize;
    need(&buf, name_len + 8)?;
    let mut name = vec![0u8; name_len];
    buf.copy_to_slice(&mut name);
    let app = String::from_utf8(name).map_err(|_| FormatError::BadName)?;
    let count = buf.get_u64_le() as usize;
    // Reserve for what the remaining bytes can hold, not for what the
    // header claims.
    let mut events = Vec::with_capacity(count.min(buf.remaining() / MIN_RECORD_BYTES));
    for _ in 0..count {
        need(&buf, 1)?;
        let kind = buf.get_u8();
        match kind {
            0 => {
                need(&buf, 8 + 4 + 4 + 4 + 2 + 4)?;
                events.push(TraceEvent::Send {
                    ts: buf.get_u64_le(),
                    src: below("send source", buf.get_u32_le(), ranks)?,
                    dst: below("send destination", buf.get_u32_le(), ranks)?,
                    tag: below("send tag", buf.get_u32_le(), MAX_TAG + 1)?,
                    comm: comm_below_limit(buf.get_u16_le())?,
                    bytes: buf.get_u32_le(),
                });
            }
            1 => {
                need(&buf, 8 + 4 + 4 + 4 + 2)?;
                let ts = buf.get_u64_le();
                let rank = below("posting rank", buf.get_u32_le(), ranks)?;
                let src = buf.get_u32_le();
                let tag = buf.get_u32_le();
                let comm = comm_below_limit(buf.get_u16_le())?;
                events.push(TraceEvent::PostRecv {
                    ts,
                    rank,
                    src: if src == ANY {
                        None
                    } else {
                        Some(below("receive source", src, ranks)?)
                    },
                    tag: if tag == ANY {
                        None
                    } else {
                        Some(below("receive tag", tag, MAX_TAG + 1)?)
                    },
                    comm,
                });
            }
            k => return Err(FormatError::BadRecordKind(k)),
        }
    }
    Ok(Trace { app, ranks, events })
}

/// Write a trace to a file on disk.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_trace_file(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, write_trace(trace))
}

/// Read a trace from a file on disk.
///
/// # Errors
/// Propagates I/O failures; format errors map to `InvalidData`.
pub fn read_trace_file(path: &std::path::Path) -> std::io::Result<Trace> {
    let bytes = std::fs::read(path)?;
    read_trace(&bytes[..])
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppModel;
    use crate::generator::{generate, GenOptions};

    #[test]
    fn round_trip_all_apps() {
        for model in AppModel::all() {
            let t = generate(
                &model,
                GenOptions {
                    depth_scale: 0.05,
                    ranks: Some(8),
                    seed: 11,
                    rank0_funnel: 0,
                },
            );
            let bytes = write_trace(&t);
            let back = read_trace(bytes).expect(model.name);
            assert_eq!(t, back, "{}", model.name);
        }
    }

    #[test]
    fn wildcard_sentinels_round_trip() {
        let t = Trace {
            app: "w".into(),
            ranks: 2,
            events: vec![TraceEvent::PostRecv {
                ts: 1,
                rank: 0,
                src: None,
                tag: None,
                comm: 3,
            }],
        };
        let back = read_trace(write_trace(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(read_trace(&b"NOPE\x01\x00"[..]), Err(FormatError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&9u16.to_le_bytes());
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&0u16.to_le_bytes());
        b.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(read_trace(&b[..]), Err(FormatError::BadVersion(9)));
    }

    #[test]
    fn rejects_truncation() {
        let t = Trace {
            app: "t".into(),
            ranks: 2,
            events: vec![TraceEvent::Send {
                ts: 1,
                src: 0,
                dst: 1,
                tag: 0,
                comm: 0,
                bytes: 0,
            }],
        };
        let bytes = write_trace(&t);
        for cut in [3usize, 10, bytes.len() - 1] {
            let r = read_trace(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn file_round_trip() {
        let model = AppModel::by_name("CNS").unwrap();
        let t = generate(
            &model,
            GenOptions {
                depth_scale: 0.05,
                ranks: Some(8),
                seed: 2,
                rank0_funnel: 0,
            },
        );
        let dir = std::env::temp_dir().join("sdtf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cns.sdtf");
        write_trace_file(&t, &path).unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_reader_maps_format_errors() {
        let dir = std::env::temp_dir().join("sdtf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.sdtf");
        std::fs::write(&path, b"not a trace at all").unwrap();
        let err = read_trace_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    proptest::proptest! {
        /// Fuzz: arbitrary bytes, bit-flipped valid traces and valid
        /// prefixes continued by garbage never panic the reader, and
        /// whatever it accepts never panics the analyzer.
        #[test]
        fn reader_and_analyzer_never_panic_on_hostile_input(
            garbage in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
            flips in proptest::collection::vec((proptest::prelude::any::<usize>(), 0u8..8), 1..4),
            splice_at in proptest::prelude::any::<usize>(),
        ) {
            let valid = write_trace(&two_rank_exchange()).to_vec();
            let mut flipped = valid.clone();
            for (at, bit) in flips {
                flipped[at % valid.len()] ^= 1 << bit;
            }
            let mut spliced = valid[..splice_at % valid.len()].to_vec();
            spliced.extend_from_slice(&garbage);
            for input in [garbage, flipped, spliced] {
                if let Ok(trace) = read_trace(&input[..]) {
                    let _ = crate::analyze::analyze(&trace);
                }
            }
        }

        /// Fuzz: truncating a valid trace at any point errors cleanly.
        #[test]
        fn reader_survives_any_truncation(cut in 0usize..2000) {
            let model = AppModel::by_name("LULESH").unwrap();
            let t = generate(&model, GenOptions { depth_scale: 0.05, ranks: Some(4), seed: 3, rank0_funnel: 0 });
            let bytes = write_trace(&t);
            let cut = cut.min(bytes.len().saturating_sub(1));
            let r = read_trace(&bytes[..cut]);
            proptest::prop_assert!(r.is_err());
        }
    }

    /// A small valid trace: rank 0 and rank 1 swap two messages each.
    fn two_rank_exchange() -> Trace {
        let mut events = Vec::new();
        for ts in 0..4u64 {
            let (src, dst) = ((ts % 2) as u32, ((ts + 1) % 2) as u32);
            events.push(TraceEvent::Send {
                ts: 2 * ts,
                src,
                dst,
                tag: ts as u32,
                comm: 0,
                bytes: 64,
            });
            events.push(TraceEvent::PostRecv {
                ts: 2 * ts + 1,
                rank: dst,
                src: (ts < 2).then_some(src),
                tag: Some(ts as u32),
                comm: 0,
            });
        }
        Trace {
            app: "swap".into(),
            ranks: 2,
            events,
        }
    }

    #[test]
    fn rejects_ranks_the_header_does_not_cover() {
        let send_to = |dst| Trace {
            app: "t".into(),
            ranks: 1,
            events: vec![TraceEvent::Send {
                ts: 0,
                src: 0,
                dst,
                tag: 0,
                comm: 0,
                bytes: 0,
            }],
        };
        assert!(read_trace(write_trace(&send_to(0))).is_ok());
        assert_eq!(
            read_trace(write_trace(&send_to(7))),
            Err(FormatError::OutOfRange {
                field: "send destination",
                value: 7,
                limit: 1
            })
        );
        let mut huge = send_to(0);
        huge.ranks = MAX_RANKS + 1;
        assert_eq!(
            read_trace(write_trace(&huge)),
            Err(FormatError::OutOfRange {
                field: "rank count",
                value: MAX_RANKS + 1,
                limit: MAX_RANKS + 1
            })
        );
    }

    #[test]
    fn rejects_unknown_record_kind() {
        let t = Trace {
            app: "t".into(),
            ranks: 1,
            events: vec![],
        };
        let mut bytes = write_trace(&t).to_vec();
        // Bump the count to 1 and append a bogus record.
        let count_off = 4 + 2 + 4 + 2 + 1;
        bytes[count_off] = 1;
        bytes.push(42);
        assert_eq!(read_trace(&bytes[..]), Err(FormatError::BadRecordKind(42)));
    }
}
