//! Bulk-synchronous-parallel driving helpers.
//!
//! The paper argues the relaxations are feasible because "scientific
//! applications on GPUs are generally well structured and strictly follow
//! the BSP model" — tags can be reused after synchronisation, receives
//! can be pre-posted, and ordering can be restored at user level. This
//! module packages that discipline: a [`BspProgram`] runs supersteps in
//! which every rank (on its own thread) exchanges messages and then meets
//! a barrier; the domain must be quiescent at each boundary, which is
//! precisely the property that makes tag reuse sound under the
//! no-ordering relaxation.

use crate::domain::Domain;

/// Runs rank closures in supersteps over a shared [`Domain`].
pub struct BspProgram<'d> {
    domain: &'d Domain,
}

impl<'d> BspProgram<'d> {
    /// Wrap a domain for BSP execution.
    pub fn new(domain: &'d Domain) -> Self {
        BspProgram { domain }
    }

    /// Execute one superstep: `body(rank, domain)` runs concurrently for
    /// every rank ([`Domain::run_ranks`]); the call returns when all
    /// ranks finish. Verifies the BSP contract that no unmatched traffic
    /// crosses the barrier.
    ///
    /// # Errors
    /// Returns an error naming every rank whose body failed, or if
    /// traffic is left in flight at the barrier.
    ///
    /// # Panics
    /// Resumes a rank body's panic.
    pub fn superstep<F>(&self, body: F) -> Result<(), String>
    where
        F: Fn(u32, &Domain) -> Result<(), String> + Sync,
    {
        // A failed rank makes its waiting peers fail too: report them all,
        // so the root cause is not hidden behind a peer's deadlock.
        let failures: Vec<String> = self
            .domain
            .run_ranks(body)
            .into_iter()
            .enumerate()
            .filter_map(|(r, res)| res.err().map(|e| format!("rank {r}: {e}")))
            .collect();
        if !failures.is_empty() {
            return Err(failures.join("; "));
        }
        if !self.domain.quiescent() {
            return Err("superstep barrier reached with traffic still in flight".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Domain, MatcherKind};
    use bytes::Bytes;
    use msg_match::{RecvRequest, RelaxationConfig};
    use simt_sim::GpuGeneration;

    #[test]
    fn supersteps_allow_tag_reuse_without_ordering() {
        let d = Domain::new(
            4,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Hash,
            RelaxationConfig::UNORDERED,
        );
        let bsp = BspProgram::new(&d);
        // The same tag is reused in every superstep — sound because the
        // barrier guarantees the previous phase fully drained.
        for step in 0..3u8 {
            bsp.superstep(|rank, d| {
                let n = d.ranks();
                let next = (rank + 1) % n;
                let prev = (rank + n - 1) % n;
                d.send(rank, next, rank, 0, Bytes::from(vec![step, rank as u8]));
                let m = d.recv_blocking(rank, RecvRequest::exact(prev, prev, 0))?;
                if m.payload[0] != step || m.payload[1] != prev as u8 {
                    return Err("wrong payload".into());
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }

    #[test]
    fn failed_rank_fails_its_waiting_peers_at_once() {
        let d = Domain::full_mpi(3, GpuGeneration::PascalGtx1080);
        let err = BspProgram::new(&d)
            .superstep(|rank, d| {
                if rank == 0 {
                    return Err("gives up before sending".into());
                }
                d.recv_blocking(rank, RecvRequest::exact(0, 1, 0)).map(drop)
            })
            .unwrap_err();
        assert!(err.contains("rank 0: gives up before sending"), "{err}");
        for waiting in ["rank 1: rank 1: receive", "rank 2: rank 2: receive"] {
            assert!(err.contains(waiting), "{err}");
        }
        assert_eq!(err.matches("deadlock").count(), 2, "{err}");
    }

    #[test]
    fn barrier_detects_leftover_traffic() {
        let d = Domain::full_mpi(2, GpuGeneration::PascalGtx1080);
        let bsp = BspProgram::new(&d);
        let err = bsp
            .superstep(|rank, d| {
                if rank == 0 {
                    // Send with no matching receive anywhere.
                    d.send(0, 1, 9, 0, Bytes::new());
                }
                Ok(())
            })
            .unwrap_err();
        assert!(err.contains("in flight"), "{err}");
    }
}
