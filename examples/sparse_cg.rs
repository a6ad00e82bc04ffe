//! Distributed conjugate-gradient solve (a MiniFE-style workload) on the
//! message-passing runtime under the *no source wildcard* relaxation —
//! the rank-partitioned matcher the paper recommends for exactly this
//! class of applications (Table I shows MiniFE needs only exact-source
//! receives for its halo exchange; the rare ANY_SOURCE it posts is an
//! initialization-phase convenience the CPU can keep).
//!
//! Solves the 1D Poisson system `A x = b` (tridiagonal Laplacian) with
//! the domain split across ranks; each mat-vec exchanges one boundary
//! element with each neighbour. Residual is checked at the end.
//!
//! ```text
//! cargo run --release -p examples --bin sparse_cg
//! ```

use bytes::Bytes;
use gpu_msg::collectives::ring_allreduce_sum;
use gpu_msg::{Domain, MatcherKind};
use msg_match::{RecvRequest, RelaxationConfig};
use simt_sim::GpuGeneration;

const RANKS: u32 = 4;
const LOCAL: usize = 16; // unknowns per rank
const N: usize = RANKS as usize * LOCAL;
const MAX_ITERS: usize = 200;
const TOL: f64 = 1e-10;

/// Exchange boundary values of `v` with both neighbours and return
/// (left_ghost, right_ghost). Tags: 0 = value travelling right→ (to the
/// right neighbour), 1 = travelling left.
fn exchange(node: &Domain, rank: u32, v: &[f64]) -> Result<(f64, f64), String> {
    let n = node.ranks();
    if rank > 0 {
        node.send(
            rank,
            rank - 1,
            1,
            0,
            Bytes::from(v[0].to_le_bytes().to_vec()),
        );
    }
    if rank + 1 < n {
        node.send(
            rank,
            rank + 1,
            0,
            0,
            Bytes::from(v[LOCAL - 1].to_le_bytes().to_vec()),
        );
    }
    let mut left = 0.0;
    let mut right = 0.0;
    if rank > 0 {
        let m = node.recv_blocking(rank, RecvRequest::exact(rank - 1, 0, 0))?;
        left = f64::from_le_bytes(m.payload[..8].try_into().expect("8 bytes"));
    }
    if rank + 1 < n {
        let m = node.recv_blocking(rank, RecvRequest::exact(rank + 1, 1, 0))?;
        right = f64::from_le_bytes(m.payload[..8].try_into().expect("8 bytes"));
    }
    Ok((left, right))
}

/// y = A v for the 1D Laplacian (2 on the diagonal, -1 off-diagonal),
/// using ghost cells from the neighbours.
fn matvec(node: &Domain, rank: u32, v: &[f64]) -> Result<Vec<f64>, String> {
    let (left, right) = exchange(node, rank, v)?;
    let mut y = vec![0.0; LOCAL];
    for i in 0..LOCAL {
        let vm = if i == 0 { left } else { v[i - 1] };
        let vp = if i == LOCAL - 1 { right } else { v[i + 1] };
        y[i] = 2.0 * v[i] - vm - vp;
    }
    Ok(y)
}

fn main() {
    let node = Domain::new(
        RANKS,
        GpuGeneration::PascalGtx1080,
        MatcherKind::Partitioned(4),
        RelaxationConfig::NO_WILDCARDS,
    );

    // b = A * x_true, with x_true[i] = sin-ish ramp, so we know the answer.
    let x_true: Vec<f64> = (0..N).map(|i| ((i as f64) * 0.1).sin()).collect();
    // Global rhs computed sequentially.
    let mut b_global = vec![0.0; N];
    for i in 0..N {
        let vm = if i == 0 { 0.0 } else { x_true[i - 1] };
        let vp = if i == N - 1 { 0.0 } else { x_true[i + 1] };
        b_global[i] = 2.0 * x_true[i] - vm - vp;
    }

    // The CG scalars are reduced over the *same* messaging runtime: a
    // ring all-reduce whose every hop is a matched message. Tag
    // namespaces per reduction site keep the collective traffic away
    // from the halo tags; per-pair ordering makes reuse across
    // iterations sound.
    let allreduce = |rank: u32, value: f64, site: u32| -> f64 {
        ring_allreduce_sum(&node, rank, value, 900 + site * 16).expect("allreduce over the runtime")
    };

    // Per rank: (solution slice, iterations used, final residual). The
    // reduced scalars agree on every rank, so all ranks stop together.
    let solved: Vec<(Vec<f64>, usize, f64)> = node.run_ranks(|rank, node| {
        let b = &b_global[rank as usize * LOCAL..(rank as usize + 1) * LOCAL];
        let mut x = vec![0.0f64; LOCAL];
        let mut r = b.to_vec();
        let mut p = r.clone();
        let mut rs_old = allreduce(rank, r.iter().map(|v| v * v).sum(), 0);
        let mut iters = 0;
        let residual = loop {
            iters += 1;
            let ap = matvec(node, rank, &p).expect("matvec exchange");
            let p_ap = allreduce(rank, p.iter().zip(&ap).map(|(a, c)| a * c).sum(), 1);
            let alpha = rs_old / p_ap;
            for i in 0..LOCAL {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rs_new = allreduce(rank, r.iter().map(|v| v * v).sum(), 2);
            if rs_new.sqrt() < TOL || iters == MAX_ITERS {
                break rs_new.sqrt();
            }
            let beta = rs_new / rs_old;
            for i in 0..LOCAL {
                p[i] = r[i] + beta * p[i];
            }
            rs_old = rs_new;
        };
        (x, iters, residual)
    });

    // Verify against the known solution.
    let mut max_err = 0.0f64;
    for (rank, (x, _, _)) in solved.iter().enumerate() {
        for i in 0..LOCAL {
            max_err = max_err.max((x[i] - x_true[rank * LOCAL + i]).abs());
        }
    }
    let (_, iters_used, final_res) = &solved[0];
    println!(
        "CG converged in {iters_used} iterations, residual {final_res:.2e}, max error {max_err:.2e}"
    );
    assert!(max_err < 1e-6, "CG must recover the manufactured solution");

    let matches: u64 = (0..RANKS).map(|r| node.stats(r).matches).sum();
    let cycles: u64 = (0..RANKS).map(|r| node.stats(r).kernel_cycles).sum();
    println!(
        "halo traffic: {matches} messages matched by the partitioned matcher ({cycles} cycles)"
    );
    println!("ok");
}
