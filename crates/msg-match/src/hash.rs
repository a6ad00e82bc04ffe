//! The fully relaxed matcher: out-of-order delivery over a two-level hash
//! table (paper Section VI-C).
//!
//! With ordering and wildcards relaxed, matching becomes key lookup:
//! `{src, tag, comm}` packs into a 64-bit key, hashed with Robert
//! Jenkins' 32-bit 6-shift integer hash (the function the paper selected).
//! The paper's structure is two tables, the primary five times larger
//! than the secondary:
//!
//! * **Insert phase** — every thread takes one receive request and tries
//!   `CAS(primary[h1(key)], empty → key)`; on a collision it tries
//!   `secondary[h2(key)]`; if that collides too, the thread holds the
//!   request for the next iteration.
//! * **Probe phase** — every thread takes one message, queries primary
//!   then secondary; a hit *claims* the slot with a CAS (so duplicate
//!   tuples cannot double-consume a request); a miss defers the message
//!   to the next iteration.
//!
//! Iterations repeat until no progress is possible. Duplicate-heavy
//! workloads therefore degrade — exactly the sensitivity Figure 6(a)
//! examines via tuple uniqueness.

use simt_sim::{BufferId, CtaCtx, CtaKernel, Gpu, Lanes, LaunchConfig, WARP_SIZE};

use crate::envelope::{Envelope, RecvRequest};
use crate::gpu_common::{GpuMatchReport, NO_MATCH};

/// Jenkins' 32-bit 6-shift integer hash — the paper's choice (its reference \[17\]).
#[inline]
pub(crate) fn jenkins6(mut a: u32) -> u32 {
    a = a.wrapping_add(0x7ed55d16).wrapping_add(a << 12);
    a = (a ^ 0xc761c23c) ^ (a >> 19);
    a = a.wrapping_add(0x165667b1).wrapping_add(a << 5);
    a = a.wrapping_add(0xd3a2646c) ^ (a << 9);
    a = a.wrapping_add(0xfd7046c5).wrapping_add(a << 3);
    a = (a ^ 0xb55a4f09) ^ (a >> 16);
    a
}

/// Fold a packed 64-bit envelope key to the 32-bit hash input.
#[inline]
fn fold_key(key: u64) -> u32 {
    (key as u32) ^ ((key >> 32) as u32)
}

/// Primary-table hash.
#[inline]
pub(crate) fn hash_primary(key: u64, table_size: u32) -> u32 {
    jenkins6(fold_key(key)) % table_size
}

/// Secondary-table hash (decorrelated by a pre-xor).
#[inline]
pub(crate) fn hash_secondary(key: u64, table_size: u32) -> u32 {
    jenkins6(fold_key(key) ^ 0x85eb_ca6b) % table_size
}

/// Size ratio primary : secondary, as chosen in the paper ("the primary
/// table being five times larger than the secondary table").
pub(crate) const PRIMARY_RATIO: usize = 5;

/// Table organisation: the collision-resolution design axis the paper
/// leaves to future work ("various combinations of hash functions and
/// collision resolution policies"). Benchmarked by the `hash_ablation`
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableOrganization {
    /// The paper's design: two tables, primary 5× the secondary, one
    /// probe in each.
    TwoLevel,
    /// A single table probed linearly up to `max_probes` slots.
    LinearProbing {
        /// Probe-chain cutoff before deferring to the next iteration.
        max_probes: u32,
    },
}

/// Configuration of the hash matcher.
#[derive(Debug, Clone, Copy)]
pub struct HashMatcherConfig {
    /// Table organisation (collision-resolution policy).
    pub organization: TableOrganization,
    /// Total table slots per request, distributed 5:1 across the two
    /// levels. 1.5 gives the paper-like load factor ~0.67.
    pub(crate) slots_per_request_x10: usize,
    /// CTAs to launch (the paper sweeps 1–32 on a single SM).
    pub(crate) ctas: u32,
    /// Threads per CTA.
    pub(crate) threads_per_cta: u32,
    /// Give up after this many refinement iterations without progress.
    pub(crate) max_stall_iterations: u32,
    /// Per-element overhead calibration in ALU instructions (hash
    /// computation is ~18 ALU ops on SASS; plus loop/branch bookkeeping).
    pub(crate) element_overhead: u32,
}

impl Default for HashMatcherConfig {
    fn default() -> Self {
        HashMatcherConfig {
            organization: TableOrganization::TwoLevel,
            slots_per_request_x10: 18,
            ctas: 1,
            threads_per_cta: 1024,
            max_stall_iterations: 2,
            element_overhead: 8,
        }
    }
}

/// The relaxed hash-table matcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashMatcher {
    /// Tuning knobs.
    pub config: HashMatcherConfig,
}

/// Device state of one matching pass shared by the kernels.
struct HashBuffers {
    /// Primary table: packed request key or 0 = empty.
    primary_key: BufferId<u64>,
    /// Primary table: request index payload.
    primary_val: BufferId<u32>,
    secondary_key: BufferId<u64>,
    secondary_val: BufferId<u32>,
    /// Request keys to insert this iteration (compacted).
    req_keys: BufferId<u64>,
    /// Original request indices parallel to `req_keys`.
    req_ids: BufferId<u32>,
    /// Message keys to probe this iteration (compacted).
    msg_keys: BufferId<u64>,
    msg_ids: BufferId<u32>,
    /// Per-request insert status: 1 = inserted, 0 = deferred.
    inserted: BufferId<u32>,
    /// Result: request index → message index.
    result: BufferId<u32>,
    /// Per-message probe status: 1 = matched, 0 = deferred.
    probed: BufferId<u32>,
    primary_size: u32,
    secondary_size: u32,
}

/// Table-clear kernel: zeroes both hash tables between iterations (the
/// `cudaMemsetAsync` of the CUDA original, charged as real work).
struct ClearKernel<'a> {
    b: &'a HashBuffers,
    grid_threads: usize,
}

impl CtaKernel for ClearKernel<'_> {
    fn name(&self) -> &'static str {
        "hash_clear"
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let b = self.b;
        let total = (b.primary_size + b.secondary_size) as usize;
        let stride = self.grid_threads;
        let cta_base = cta.cta_id() * cta.threads();
        cta.for_each_warp(|w| {
            let mut item = cta_base + w.warp_id() * WARP_SIZE;
            while item < total {
                let tid = w.lane_ids().map(|l| item as u32 + l);
                let live = tid.map(|t| (t as usize) < total);
                let prim = b.primary_size;
                w.charge_alu(2);
                let zero64 = Lanes::splat(0u64);
                let in_prim = tid.zip(&live, |t, l| l && t < prim);
                let in_sec = tid.zip(&live, |t, l| l && t >= prim);
                w.if_lanes(&in_prim, |w| {
                    let idx = tid.map(|t| t.min(prim.saturating_sub(1)));
                    w.st_global(b.primary_key, &idx, &zero64);
                });
                w.if_lanes(&in_sec, |w| {
                    let idx = tid.map(|t| {
                        t.saturating_sub(prim)
                            .min(b.secondary_size.saturating_sub(1))
                    });
                    w.st_global(b.secondary_key, &idx, &zero64);
                });
                item += stride;
            }
        });
    }
}

/// Insert kernel: grid-strided over the request batch.
struct InsertKernel<'a> {
    b: &'a HashBuffers,
    n: usize,
    grid_threads: usize,
    overhead: u32,
    org: TableOrganization,
}

impl CtaKernel for InsertKernel<'_> {
    fn name(&self) -> &'static str {
        "hash_insert"
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let b = self.b;
        let n = self.n;
        let grid_threads = self.grid_threads;
        let cta_base = cta.cta_id() * cta.threads();
        let overhead = self.overhead;
        cta.for_each_warp(|w| {
            let mut item = cta_base + w.warp_id() * WARP_SIZE;
            while item < n {
                let tid = w.lane_ids().map(|l| item as u32 + l);
                let live = tid.map(|t| (t as usize) < n);
                let idx = tid.zip(&live, |t, l| if l { t } else { 0 });
                w.charge_alu(2 + overhead);
                let (keys, _ktok) = w.ld_global(b.req_keys, &idx);
                let (ids, _itok) = w.ld_global(b.req_ids, &idx);

                let mut ok = Lanes::splat(false);
                match self.org {
                    TableOrganization::TwoLevel => {
                        // Primary CAS.
                        let h1 = keys.map(|k| hash_primary(k, b.primary_size));
                        let zero = Lanes::splat(0u64);
                        w.charge_alu(4); // slot math (hash charged via overhead)
                        let mut ins_ok = Lanes::splat(false);
                        w.if_lanes(&live, |w| {
                            let (old, _otok) = w.atom_global_cas(b.primary_key, &h1, &zero, &keys);
                            let won = old.map(|o| o == 0);
                            w.charge_alu(1);
                            w.if_lanes(&won, |w| {
                                w.st_global(b.primary_val, &h1, &ids);
                            });
                            ins_ok = won;
                        });

                        // Secondary CAS for the losers.
                        let need2 = live.zip(&ins_ok, |l, okk| l && !okk);
                        let h2 = keys.map(|k| hash_secondary(k, b.secondary_size.max(1)));
                        let mut ins2_ok = Lanes::splat(false);
                        w.if_lanes(&need2, |w| {
                            w.charge_alu(2);
                            let (old, _t) = w.atom_global_cas(b.secondary_key, &h2, &zero, &keys);
                            let won = old.map(|o| o == 0);
                            w.if_lanes(&won, |w| {
                                w.st_global(b.secondary_val, &h2, &ids);
                            });
                            ins2_ok = won;
                        });
                        ok = ins_ok.zip(&ins2_ok, |a, c| a || c);
                    }
                    TableOrganization::LinearProbing { max_probes } => {
                        let zero = Lanes::splat(0u64);
                        let mut pending = live;
                        for p in 0..max_probes {
                            if !pending.0.iter().any(|&x| x) {
                                break;
                            }
                            w.charge_alu(3); // probe slot math + loop
                            let hp = keys
                                .map(|k| (hash_primary(k, b.primary_size) + p) % b.primary_size);
                            let mut won = Lanes::splat(false);
                            w.if_lanes(&pending, |w| {
                                let (old, _t) = w.atom_global_cas(b.primary_key, &hp, &zero, &keys);
                                won = old.map(|o| o == 0);
                                w.if_lanes(&won, |w| {
                                    w.st_global(b.primary_val, &hp, &ids);
                                });
                            });
                            ok = Lanes::from_fn(|l| ok.get(l) || (pending.get(l) && won.get(l)));
                            pending = Lanes::from_fn(|l| pending.get(l) && !won.get(l));
                        }
                    }
                }
                let ok = ok.map(|x| x as u32);

                // Record per-request insert status (deferred requests are
                // retried next iteration).
                w.if_lanes(&live, |w| {
                    w.st_global(b.inserted, &idx, &ok);
                });
                item += grid_threads;
            }
        });
    }
}

/// Probe kernel: grid-strided over the message batch.
struct ProbeKernel<'a> {
    b: &'a HashBuffers,
    n: usize,
    grid_threads: usize,
    overhead: u32,
    org: TableOrganization,
}

impl CtaKernel for ProbeKernel<'_> {
    fn name(&self) -> &'static str {
        "hash_probe"
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let b = self.b;
        let n = self.n;
        let grid_threads = self.grid_threads;
        let cta_base = cta.cta_id() * cta.threads();
        let overhead = self.overhead;
        cta.for_each_warp(|w| {
            let mut item = cta_base + w.warp_id() * WARP_SIZE;
            while item < n {
                let tid = w.lane_ids().map(|l| item as u32 + l);
                let live = tid.map(|t| (t as usize) < n);
                let idx = tid.zip(&live, |t, l| if l { t } else { 0 });
                w.charge_alu(2 + overhead);
                let (keys, _ktok) = w.ld_global(b.msg_keys, &idx);
                let (mids, _itok) = w.ld_global(b.msg_ids, &idx);

                let mut matched = Lanes::splat(false);
                let tomb = Lanes::splat(u64::MAX);
                match self.org {
                    TableOrganization::TwoLevel => {
                        // Primary probe: claim via CAS(key → tombstone) so
                        // each request slot is consumed exactly once even
                        // for duplicate tuples.
                        let h1 = keys.map(|k| hash_primary(k, b.primary_size));
                        let mut done = Lanes::splat(false);
                        w.if_lanes(&live, |w| {
                            let (old, _otok) = w.atom_global_cas(b.primary_key, &h1, &keys, &tomb);
                            let hit = old.zip(&keys, |o, k| o == k && k != 0);
                            let (rid, _rtok) = w.ld_global(b.primary_val, &h1);
                            w.charge_alu(1);
                            w.if_lanes(&hit, |w| {
                                w.st_global(b.result, &rid, &mids);
                            });
                            done = hit;
                        });

                        // Secondary probe.
                        let need2 = live.zip(&done, |l, d| l && !d);
                        let h2 = keys.map(|k| hash_secondary(k, b.secondary_size.max(1)));
                        let mut done2 = Lanes::splat(false);
                        w.if_lanes(&need2, |w| {
                            w.charge_alu(2);
                            let (old, _t) = w.atom_global_cas(b.secondary_key, &h2, &keys, &tomb);
                            let hit = old.zip(&keys, |o, k| o == k && k != 0);
                            let (rid, _r) = w.ld_global(b.secondary_val, &h2);
                            w.if_lanes(&hit, |w| {
                                w.st_global(b.result, &rid, &mids);
                            });
                            done2 = hit;
                        });
                        matched = done.zip(&done2, |a, c| a || c);
                    }
                    TableOrganization::LinearProbing { max_probes } => {
                        // Walk the probe chain; an *empty* slot terminates
                        // the chain (the key cannot be further right).
                        let mut pending = live;
                        for p in 0..max_probes {
                            if !pending.0.iter().any(|&x| x) {
                                break;
                            }
                            w.charge_alu(3);
                            let hp = keys
                                .map(|k| (hash_primary(k, b.primary_size) + p) % b.primary_size);
                            let mut hit = Lanes::splat(false);
                            let mut empty = Lanes::splat(false);
                            w.if_lanes(&pending, |w| {
                                let (old, _t) = w.atom_global_cas(b.primary_key, &hp, &keys, &tomb);
                                hit = old.zip(&keys, |o, k| o == k && k != 0);
                                empty = old.map(|o| o == 0);
                                let (rid, _r) = w.ld_global(b.primary_val, &hp);
                                w.if_lanes(&hit, |w| {
                                    w.st_global(b.result, &rid, &mids);
                                });
                            });
                            matched = Lanes::from_fn(|l| {
                                matched.get(l) || (pending.get(l) && hit.get(l))
                            });
                            pending =
                                Lanes::from_fn(|l| pending.get(l) && !hit.get(l) && !empty.get(l));
                        }
                    }
                }

                let ok = matched.map(|x| x as u32);
                w.if_lanes(&live, |w| {
                    w.st_global(b.probed, &idx, &ok);
                });
                item += grid_threads;
            }
        });
    }
}

impl HashMatcher {
    /// Matcher with `ctas` CTAs sharing 1024 total threads (the Figure
    /// 6(b) sweep): the work splits across the CTAs rather than
    /// replicating, so the sweep exercises the SM's residency behaviour.
    pub fn with_ctas(ctas: u32) -> Self {
        let threads = (1024 / ctas.max(1)).clamp(32, 1024) / 32 * 32;
        HashMatcher {
            config: HashMatcherConfig {
                ctas,
                threads_per_cta: threads,
                ..Default::default()
            },
        }
    }

    /// Matcher using a single linearly probed table (ablation of the
    /// paper's two-level design).
    pub fn linear_probing(max_probes: u32) -> Self {
        HashMatcher {
            config: HashMatcherConfig {
                organization: TableOrganization::LinearProbing { max_probes },
                ..Default::default()
            },
        }
    }

    /// Matcher with an explicit load factor: `slots_per_request_x10 = 10`
    /// means exactly one slot per request (load factor 1.0).
    pub fn with_slots_per_request_x10(slots_x10: usize) -> Self {
        HashMatcher {
            config: HashMatcherConfig {
                slots_per_request_x10: slots_x10.max(10),
                ..Default::default()
            },
        }
    }

    /// Match a batch out of order. Wildcard requests are rejected: this
    /// matcher exists *because* wildcards were relaxed away.
    ///
    /// # Errors
    /// Returns an error if any request carries a wildcard.
    pub fn match_batch(
        &self,
        gpu: &mut Gpu,
        msgs: &[Envelope],
        reqs: &[RecvRequest],
    ) -> Result<GpuMatchReport, String> {
        if let Some(j) = reqs.iter().position(|r| r.has_wildcard()) {
            return Err(format!(
                "hash matcher requires the no-wildcard relaxation, but request {j} uses one"
            ));
        }
        if msgs.is_empty() || reqs.is_empty() {
            return Ok(GpuMatchReport::from_launches(vec![None; reqs.len()], &[]));
        }

        let cfg = &self.config;
        let total_slots = (reqs.len() * cfg.slots_per_request_x10 / 10).max(8) as u32;
        let (primary_size, secondary_size) = match cfg.organization {
            TableOrganization::TwoLevel => {
                let secondary = (total_slots / (PRIMARY_RATIO as u32 + 1)).max(4);
                (secondary * PRIMARY_RATIO as u32, secondary)
            }
            TableOrganization::LinearProbing { .. } => (total_slots.max(8), 0),
        };

        let b = HashBuffers {
            primary_key: gpu.mem.alloc::<u64>(primary_size as usize),
            primary_val: gpu.mem.alloc::<u32>(primary_size as usize),
            secondary_key: gpu.mem.alloc::<u64>(secondary_size.max(1) as usize),
            secondary_val: gpu.mem.alloc::<u32>(secondary_size.max(1) as usize),
            req_keys: gpu.mem.alloc::<u64>(reqs.len()),
            req_ids: gpu.mem.alloc::<u32>(reqs.len()),
            msg_keys: gpu.mem.alloc::<u64>(msgs.len()),
            msg_ids: gpu.mem.alloc::<u32>(msgs.len()),
            inserted: gpu.mem.alloc::<u32>(reqs.len()),
            result: gpu.mem.alloc_from(&vec![NO_MATCH; reqs.len()]),
            probed: gpu.mem.alloc::<u32>(msgs.len()),
            primary_size,
            secondary_size,
        };

        // Pending work lists (host mirrors of what a persistent kernel
        // would keep in device queues). Tables are cleared between
        // iterations: claimed slots are tombstoned during a pass, so a
        // fresh pass re-inserts every still-unmatched request.
        let mut pending_msgs: Vec<u32> = (0..msgs.len() as u32).collect();
        let mut launches = Vec::new();
        let mut stall = 0u32;
        let mut prev_matches = 0usize;
        let mut first_iteration = true;

        loop {
            let raw = gpu.mem.read_vec(b.result);
            let pending_reqs: Vec<u32> = (0..reqs.len() as u32)
                .filter(|&j| raw[j as usize] == NO_MATCH)
                .collect();
            if pending_msgs.is_empty() || pending_reqs.is_empty() {
                break;
            }

            // Clear the tables (memset kernel on real hardware). The
            // first iteration starts from freshly zeroed allocations and
            // skips this, so the common no-duplicate case pays nothing.
            if !first_iteration {
                let mut clear = ClearKernel {
                    b: &b,
                    grid_threads: (cfg.ctas * cfg.threads_per_cta) as usize,
                };
                launches.push(gpu.launch(
                    &mut clear,
                    LaunchConfig::single_sm(cfg.ctas, cfg.threads_per_cta),
                ));
            }
            first_iteration = false;

            // Upload this iteration's compacted work lists.
            let req_keys: Vec<u64> = pending_reqs
                .iter()
                .map(|&j| reqs[j as usize].pack())
                .collect();
            let msg_keys: Vec<u64> = pending_msgs
                .iter()
                .map(|&i| msgs[i as usize].pack())
                .collect();
            gpu.mem.write_slice(b.req_keys, 0, &req_keys);
            gpu.mem.write_slice(b.req_ids, 0, &pending_reqs);
            gpu.mem.write_slice(b.msg_keys, 0, &msg_keys);
            gpu.mem.write_slice(b.msg_ids, 0, &pending_msgs);

            let launch = LaunchConfig::single_sm(cfg.ctas, cfg.threads_per_cta);
            let grid_threads = (cfg.ctas * cfg.threads_per_cta) as usize;

            let mut ins = InsertKernel {
                b: &b,
                n: pending_reqs.len(),
                grid_threads,
                overhead: cfg.element_overhead,
                org: cfg.organization,
            };
            launches.push(gpu.launch(&mut ins, launch));

            let mut probe = ProbeKernel {
                b: &b,
                n: pending_msgs.len(),
                grid_threads,
                overhead: cfg.element_overhead,
                org: cfg.organization,
            };
            launches.push(gpu.launch(&mut probe, launch));

            // Collect deferred messages (matched ones leave the list).
            let probed = gpu.mem.read_vec(b.probed);
            pending_msgs = pending_msgs
                .iter()
                .enumerate()
                .filter(|(k, _)| probed[*k] == 0)
                .map(|(_, &i)| i)
                .collect();

            let raw_after = gpu.mem.read_vec(b.result);
            let matched_now = raw_after.iter().filter(|&&v| v != NO_MATCH).count();
            if matched_now == prev_matches {
                stall += 1;
                if stall > cfg.max_stall_iterations {
                    break;
                }
            } else {
                stall = 0;
            }
            prev_matches = matched_now;
        }

        let raw = gpu.mem.read_vec(b.result);
        // A message may have matched a request whose insert-status row was
        // from an earlier iteration; the result buffer is authoritative.
        let assignment: Vec<Option<u32>> = raw
            .iter()
            .map(|&v| if v == NO_MATCH { None } else { Some(v) })
            .collect();
        Ok(GpuMatchReport::from_launches(assignment, &launches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use simt_sim::GpuGeneration;

    fn e(src: u32, tag: u32) -> Envelope {
        Envelope::new(src, tag, 0)
    }

    #[test]
    fn jenkins_reference_values_are_stable() {
        // Pinned values guard against accidental hash changes, which
        // would silently alter every benchmark.
        assert_eq!(jenkins6(0), 0x6b4e_d927);
        assert_eq!(jenkins6(1), 0xb486_81b6);
        assert_eq!(jenkins6(0xdeadbeef), jenkins6(0xdeadbeef));
        assert_ne!(jenkins6(2), jenkins6(3));
    }

    #[test]
    fn hash_spread_is_reasonable() {
        // 1024 sequential keys into 1536 primary slots: collisions must
        // stay far below the birthday bound for a broken hash.
        let mut slots = vec![0u32; 1536];
        for k in 0..1024u64 {
            slots[hash_primary(k | (1 << 63), 1536) as usize] += 1;
        }
        let max = slots.iter().max().unwrap();
        assert!(*max <= 6, "suspicious clustering: a slot got {max} keys");
    }

    #[test]
    fn rejects_wildcards() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let err = HashMatcher::default()
            .match_batch(&mut gpu, &[e(0, 0)], &[RecvRequest::any_source(0, 0)])
            .unwrap_err();
        assert!(err.contains("wildcard"));
    }

    #[test]
    fn unique_tuples_fully_match() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let msgs: Vec<Envelope> = (0..1024).map(|i| e(i, i % 100)).collect();
        let mut reqs: Vec<RecvRequest> = (0..1024)
            .map(|i| RecvRequest::exact(i, i % 100, 0))
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        reqs.shuffle(&mut rng);
        let r = HashMatcher::default()
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(r.matches, 1024);
        r.verify_valid(&msgs, &reqs).expect("valid matching");
    }

    #[test]
    fn duplicate_tuples_still_form_perfect_matching() {
        // 256 messages over only 16 distinct tuples: heavy collisions,
        // multiple iterations, but the matching must stay perfect.
        let mut gpu = Gpu::new(GpuGeneration::MaxwellM40);
        let mut rng = StdRng::seed_from_u64(9);
        let msgs: Vec<Envelope> = (0..256)
            .map(|_| e(rng.gen_range(0..4), rng.gen_range(0..4)))
            .collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        let r = HashMatcher::default()
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(r.matches, 256, "every message has a partner");
        r.verify_valid(&msgs, &reqs).expect("valid matching");
        assert!(r.launches > 2, "duplicates must force extra iterations");
    }

    #[test]
    fn partial_workload_leaves_correct_residue() {
        let mut gpu = Gpu::new(GpuGeneration::KeplerK80);
        let msgs: Vec<Envelope> = (0..100).map(|i| e(i, 1)).collect();
        let reqs: Vec<RecvRequest> = (0..50).map(|i| RecvRequest::exact(i * 2, 1, 0)).collect();
        let r = HashMatcher::default()
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(r.matches, 50);
        r.verify_valid(&msgs, &reqs).expect("valid matching");
    }

    #[test]
    fn multi_cta_matches_and_is_faster_at_scale() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let n = 2048u32;
        let msgs: Vec<Envelope> = (0..n).map(|i| e(i, 0)).collect();
        let reqs: Vec<RecvRequest> = (0..n).map(|i| RecvRequest::exact(i, 0, 0)).collect();
        let one = HashMatcher::with_ctas(1)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        let four = HashMatcher::with_ctas(4)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(one.matches, n as u64);
        assert_eq!(four.matches, n as u64);
    }

    #[test]
    fn linear_probing_matches_fully() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let msgs: Vec<Envelope> = (0..512).map(|i| e(i, i % 50)).collect();
        let mut reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        let mut rng = StdRng::seed_from_u64(12);
        reqs.shuffle(&mut rng);
        let r = HashMatcher::linear_probing(16)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(r.matches, 512);
        r.verify_valid(&msgs, &reqs).expect("valid matching");
    }

    #[test]
    fn linear_probing_survives_duplicates() {
        let mut gpu = Gpu::new(GpuGeneration::MaxwellM40);
        let mut rng = StdRng::seed_from_u64(13);
        let msgs: Vec<Envelope> = (0..128)
            .map(|_| e(rng.gen_range(0..3), rng.gen_range(0..3)))
            .collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        let r = HashMatcher::linear_probing(8)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(r.matches, 128, "all duplicates must eventually match");
        r.verify_valid(&msgs, &reqs).expect("valid matching");
    }

    #[test]
    fn tighter_load_factor_still_correct() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let msgs: Vec<Envelope> = (0..1024).map(|i| e(i, 0)).collect();
        let reqs: Vec<RecvRequest> = (0..1024)
            .rev()
            .map(|i| RecvRequest::exact(i, 0, 0))
            .collect();
        for slots_x10 in [10usize, 13, 18, 30] {
            let r = HashMatcher::with_slots_per_request_x10(slots_x10)
                .match_batch(&mut gpu, &msgs, &reqs)
                .unwrap();
            assert_eq!(r.matches, 1024, "load factor {slots_x10}");
            r.verify_valid(&msgs, &reqs).unwrap();
        }
    }

    #[test]
    fn empty_inputs() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = HashMatcher::default()
            .match_batch(&mut gpu, &[], &[])
            .unwrap();
        assert_eq!(r.matches, 0);
        let r2 = HashMatcher::default()
            .match_batch(&mut gpu, &[e(0, 0)], &[])
            .unwrap();
        assert_eq!(r2.matches, 0);
    }
}
