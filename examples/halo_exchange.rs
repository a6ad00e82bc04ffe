//! Halo exchange: a 2D Jacobi heat-diffusion stencil distributed over a
//! grid of GPUs — the nearest-neighbour pattern that dominates the
//! paper's proxy applications (LULESH, CNS, MultiGrid…).
//!
//! Each GPU owns an interior tile and exchanges one-cell-deep halos with
//! its four neighbours every iteration through the message-passing
//! runtime (full MPI semantics, matrix matcher). The distributed result
//! is verified against a sequential solver.
//!
//! ```text
//! cargo run --release -p examples --bin halo_exchange
//! ```

use bytes::Bytes;
use example_support::{pack_f64, rank_of, unpack_f64};
use gpu_msg::{BspProgram, Domain};
use msg_match::RecvRequest;
use parking_lot::Mutex;
use simt_sim::GpuGeneration;

const NX: usize = 3; // rank grid
const NY: usize = 3;
const TILE: usize = 8; // interior cells per side
const STEPS: usize = 10;

/// Sequential reference: the whole (NX*TILE) × (NY*TILE) domain.
fn sequential(steps: usize) -> Vec<f64> {
    let (w, h) = (NX * TILE, NY * TILE);
    let mut grid = vec![0.0f64; w * h];
    // Hot corner cell as the initial condition.
    grid[0] = 100.0;
    for _ in 0..steps {
        let mut next = grid.clone();
        for y in 0..h {
            for x in 0..w {
                let at = |xx: isize, yy: isize| -> f64 {
                    if xx < 0 || yy < 0 || xx >= w as isize || yy >= h as isize {
                        0.0
                    } else {
                        grid[yy as usize * w + xx as usize]
                    }
                };
                let (x, y) = (x as isize, y as isize);
                next[y as usize * w + x as usize] =
                    0.2 * (at(x, y) + at(x - 1, y) + at(x + 1, y) + at(x, y - 1) + at(x, y + 1));
            }
        }
        grid = next;
    }
    grid
}

fn main() {
    let ranks = (NX * NY) as u32;
    let node = Domain::full_mpi(ranks, GpuGeneration::PascalGtx1080);
    let bsp = BspProgram::new(&node);

    // Per-rank tiles with a one-cell ghost ring: (TILE+2)^2.
    let tiles: Vec<Mutex<Vec<f64>>> = (0..ranks)
        .map(|r| {
            let mut t = vec![0.0f64; (TILE + 2) * (TILE + 2)];
            if r == 0 {
                t[TILE + 3] = 100.0; // global (0,0) lives on rank 0
            }
            Mutex::new(t)
        })
        .collect();

    let idx = |x: usize, y: usize| y * (TILE + 2) + x;

    for _step in 0..STEPS {
        bsp.superstep(|rank, node| {
            let (cx, cy) = example_support::coord_of(rank, NX);
            // 1. Send my four boundary rows/columns to the neighbours.
            //    Tags encode the *direction the data travels*.
            let tile = tiles[rank as usize].lock().clone();
            let row = |y: usize| (1..=TILE).map(|x| tile[idx(x, y)]).collect::<Vec<_>>();
            let col = |x: usize| (1..=TILE).map(|y| tile[idx(x, y)]).collect::<Vec<_>>();
            let mut expected = Vec::new();
            if cy > 0 {
                let up = rank_of(cx, cy - 1, NX);
                node.send(rank, up, 0, 0, Bytes::from(pack_f64(&row(1))));
                expected.push((up, 1u32)); // they send "down" to me
            }
            if cy + 1 < NY {
                let down = rank_of(cx, cy + 1, NX);
                node.send(rank, down, 1, 0, Bytes::from(pack_f64(&row(TILE))));
                expected.push((down, 0u32));
            }
            if cx > 0 {
                let left = rank_of(cx - 1, cy, NX);
                node.send(rank, left, 2, 0, Bytes::from(pack_f64(&col(1))));
                expected.push((left, 3u32));
            }
            if cx + 1 < NX {
                let right = rank_of(cx + 1, cy, NX);
                node.send(rank, right, 3, 0, Bytes::from(pack_f64(&col(TILE))));
                expected.push((right, 2u32));
            }

            // 2. Receive the halos.
            let mut tile = tiles[rank as usize].lock();
            for (peer, tag) in expected {
                let msg = node.recv_blocking(rank, RecvRequest::exact(peer, tag, 0))?;
                let cells = unpack_f64(&msg.payload);
                match tag {
                    1 => (1..=TILE).for_each(|x| tile[idx(x, 0)] = cells[x - 1]),
                    0 => (1..=TILE).for_each(|x| tile[idx(x, TILE + 1)] = cells[x - 1]),
                    3 => (1..=TILE).for_each(|y| tile[idx(0, y)] = cells[y - 1]),
                    2 => (1..=TILE).for_each(|y| tile[idx(TILE + 1, y)] = cells[y - 1]),
                    _ => unreachable!(),
                }
            }

            // 3. Stencil update on the interior.
            let old = tile.clone();
            for y in 1..=TILE {
                for x in 1..=TILE {
                    tile[idx(x, y)] = 0.2
                        * (old[idx(x, y)]
                            + old[idx(x - 1, y)]
                            + old[idx(x + 1, y)]
                            + old[idx(x, y - 1)]
                            + old[idx(x, y + 1)]);
                }
            }
            Ok(())
        })
        .expect("superstep");
    }

    // Verify against the sequential solver.
    let reference = sequential(STEPS);
    let mut max_err = 0.0f64;
    for r in 0..ranks {
        let (cx, cy) = example_support::coord_of(r, NX);
        let tile = tiles[r as usize].lock();
        for y in 1..=TILE {
            for x in 1..=TILE {
                let gx = cx * TILE + (x - 1);
                let gy = cy * TILE + (y - 1);
                let want = reference[gy * (NX * TILE) + gx];
                max_err = max_err.max((tile[idx(x, y)] - want).abs());
            }
        }
    }
    println!("max |distributed - sequential| = {max_err:.3e}");
    assert!(max_err < 1e-12, "halo exchange must be exact");

    let total_cycles: u64 = (0..ranks).map(|r| node.stats(r).kernel_cycles).sum();
    let total_matches: u64 = (0..ranks).map(|r| node.stats(r).matches).sum();
    println!(
        "{STEPS} steps on {ranks} GPUs: {total_matches} halo messages matched, \
         {total_cycles} total communication-kernel cycles"
    );
    println!("ok");
}
