//! Quickstart: two GPUs exchanging a message over the simulated global
//! address space, with fully MPI-compliant matching.
//!
//! ```text
//! cargo run -p examples --bin quickstart
//! ```

use bytes::Bytes;
use gpu_msg::Domain;
use msg_match::RecvRequest;
use simt_sim::GpuGeneration;

fn main() {
    // A node with two GPUs; each runs a resident communication kernel
    // using the MPI-compliant matrix matcher.
    let node = Domain::full_mpi(2, GpuGeneration::PascalGtx1080);

    // GPU 0 sends — a remote write into GPU 1's message queue.
    node.send(
        0,
        1,
        /*tag*/ 7,
        /*comm*/ 0,
        Bytes::from_static(b"hello, peer GPU"),
    );

    // GPU 1 receives: posting a matching request and progressing the
    // communication kernel until it completes.
    let msg = node
        .recv_blocking(1, RecvRequest::exact(/*src*/ 0, /*tag*/ 7, /*comm*/ 0))
        .expect("delivery");

    println!(
        "GPU 1 received {:?} from rank {}",
        msg.payload, msg.envelope.src
    );
    let stats = node.stats(1);
    println!(
        "communication kernel: {} matches in {} simulated cycles ({:.2} µs on a GTX 1080)",
        stats.matches,
        stats.kernel_cycles,
        stats.kernel_seconds * 1e6
    );
    assert_eq!(&msg.payload[..], b"hello, peer GPU");
    println!("ok");
}
