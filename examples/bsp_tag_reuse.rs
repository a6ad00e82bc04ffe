//! BSP tag reuse under the *no ordering* relaxation.
//!
//! The paper's final relaxation drops in-order delivery so the two-level
//! hash table can match at ~500 M matches/s. The cost: "the tag has to
//! be used to uniquely identify messages from the same source" — and in
//! a BSP program "tags can be reused after synchronization". This example
//! demonstrates exactly that discipline: within a superstep every message
//! carries a unique (src, tag) tuple; after the barrier the whole tag
//! space is reused. A shifting ring exchange with per-superstep
//! checksums verifies no message is lost or misdelivered even though the
//! matcher is free to reorder.
//!
//! ```text
//! cargo run --release -p examples --bin bsp_tag_reuse
//! ```

use bytes::Bytes;
use gpu_msg::{BspProgram, Domain, MatcherKind};
use msg_match::{RecvRequest, RelaxationConfig};
use simt_sim::GpuGeneration;

const RANKS: u32 = 6;
const SUPERSTEPS: u32 = 4;
const MSGS_PER_PEER: u32 = 8;

fn main() {
    let node = Domain::new(
        RANKS,
        GpuGeneration::PascalGtx1080,
        MatcherKind::Hash,
        RelaxationConfig::UNORDERED,
    );
    let bsp = BspProgram::new(&node);

    for step in 0..SUPERSTEPS {
        bsp.superstep(|rank, node| {
            let n = node.ranks();
            // Each rank scatters MSGS_PER_PEER messages to the next two
            // ranks; the tag encodes (peer slot, sequence) so tuples are
            // unique within the superstep — and identical across
            // supersteps (reuse!).
            for hop in 1..=2u32 {
                let dst = (rank + hop) % n;
                for seq in 0..MSGS_PER_PEER {
                    let tag = hop * 100 + seq;
                    let val = (step * 1000 + rank * 10 + seq) as u64;
                    node.send(rank, dst, tag, 0, Bytes::from(val.to_le_bytes().to_vec()));
                }
            }
            // Receive from the two ranks behind us, in *reverse* tag
            // order — delivery order is irrelevant under the relaxation.
            let mut checksum = 0u64;
            for hop in 1..=2u32 {
                let src = (rank + n - hop) % n;
                for seq in (0..MSGS_PER_PEER).rev() {
                    let tag = hop * 100 + seq;
                    let m = node.recv_blocking(rank, RecvRequest::exact(src, tag, 0))?;
                    let val = u64::from_le_bytes(m.payload[..8].try_into().expect("8 bytes"));
                    let want = (step * 1000 + src * 10 + seq) as u64;
                    if val != want {
                        return Err(format!(
                            "superstep {step}: got {val} from rank {src} tag {tag}, wanted {want}"
                        ));
                    }
                    checksum = checksum.wrapping_add(val);
                }
            }
            let _ = checksum;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("superstep {step}: {e}"));
    }

    let matches: u64 = (0..RANKS).map(|r| node.stats(r).matches).sum();
    println!(
        "{SUPERSTEPS} supersteps × {RANKS} ranks × {} msgs: {matches} matches, all verified \
         out-of-order with reused tags",
        2 * MSGS_PER_PEER
    );
    println!("ok");
}
