//! Shard placement — the *top level* of matching parallelism.
//!
//! "The top level partitions among communicators, as there exist no
//! dependencies" (Section VI): MPI has no communicator wildcard, so
//! traffic in different communicators never contends and each can get
//! its own matching engine ("we presume one matching engine per
//! communicator", Section V-A). [`ShardPlacement`] keys traffic on
//! `(communicator, source rank)`, so a communicator's streams land on
//! shards that each pin one engine.

use crate::envelope::{Envelope, RecvRequest};

/// Maps `(communicator, source rank)` keys onto service shards.
///
/// Keys spread over all shards by a deterministic hash. Matching
/// correctness never depends on the placement — only which shard's
/// engine services a tuple — but MPI ordering does require that the
/// *same* key always lands on the same shard, which the hash
/// guarantees.
#[derive(Debug, Clone)]
pub struct ShardPlacement {
    /// Total shards traffic may land on.
    pub shards: usize,
    /// Failover indirection: `redirects[s]` is the shard actually
    /// servicing keys homed on `s`. Identity while `s` is healthy; a
    /// supervisor points it elsewhere while `s` is down and restores it
    /// on recovery. Kept behind accessors so every lookup path resolves
    /// through it — a stale direct read would split one key's stream
    /// across two shards and break per-pair ordering.
    redirects: Vec<usize>,
    /// Durable slot ownership: `assignments[slot]` is the *home* shard
    /// of stream slot `slot`. Defaults to the identity over `shards`
    /// (one slot per shard, the pre-tenancy layout); a tenancy config
    /// may pin more slots than shards, and a `ReshardPlanner` rebinds
    /// slots permanently via [`ShardPlacement::migrate`]. Resolution is
    /// always two-level — `redirects[assignments[slot]]` — so a chain
    /// can never be deeper than home → failover target, and cycles are
    /// structurally impossible.
    assignments: Vec<usize>,
}

impl ShardPlacement {
    /// Hash placement over `shards` shards.
    pub fn hashed(shards: usize) -> Self {
        assert!(shards > 0, "a service needs at least one shard");
        ShardPlacement {
            shards,
            redirects: (0..shards).collect(),
            assignments: (0..shards).collect(),
        }
    }

    /// Placement with an explicit slot → home-shard map (tenancy: slots
    /// may outnumber shards, and several slots may share one home).
    ///
    /// # Panics
    /// Panics if `assignments` is empty or names a shard `>= shards`.
    pub fn with_assignments(shards: usize, assignments: Vec<usize>) -> Self {
        assert!(shards > 0, "a service needs at least one shard");
        assert!(!assignments.is_empty(), "a placement needs slots");
        for (slot, &h) in assignments.iter().enumerate() {
            assert!(h < shards, "slot {slot} assigned to shard {h} of {shards}");
        }
        ShardPlacement {
            shards,
            redirects: (0..shards).collect(),
            assignments,
        }
    }

    /// The *home* shard of `(comm, src)` — the stable key owner,
    /// ignoring any active failover redirect.
    pub(crate) fn home_of(&self, comm: u16, src: u32) -> usize {
        // Fibonacci hashing over the packed key: cheap, deterministic,
        // and spreads consecutive ranks across shards.
        let key = ((comm as u64) << 32) | src as u64;
        (key.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as usize % self.shards
    }

    /// The shard currently servicing `(comm, src)`: the home shard,
    /// resolved through any active failover redirect.
    pub(crate) fn shard_of(&self, comm: u16, src: u32) -> usize {
        self.redirects[self.home_of(comm, src)]
    }

    /// Route every key homed on `from` to `to` (a supervisor failing a
    /// down shard over to a healthy peer). Redirects never chain: keys
    /// homed on `from` go to `to` directly; keys homed on `to` are
    /// unaffected.
    ///
    /// # Panics
    /// Panics if either index is out of range or `from == to`.
    pub fn redirect(&mut self, from: usize, to: usize) {
        assert!(from < self.shards && to < self.shards, "shard out of range");
        assert_ne!(from, to, "a shard cannot fail over to itself");
        self.redirects[from] = to;
    }

    /// Drop any redirect for `shard`, restoring it as the consumer of
    /// its own keys (on recovery, after the failover target drains).
    pub fn restore(&mut self, shard: usize) {
        assert!(shard < self.shards, "shard out of range");
        self.redirects[shard] = shard;
    }

    /// Number of stream slots this placement routes. Equals `shards`
    /// until an explicit assignment map decouples the two.
    pub fn slots(&self) -> usize {
        self.assignments.len()
    }

    /// The home shard of stream slot `slot`, ignoring any active
    /// failover redirect. Durable: only [`ShardPlacement::migrate`]
    /// moves it.
    pub fn home_of_slot(&self, slot: usize) -> usize {
        self.assignments[slot]
    }

    /// Where keys homed on `shard` are currently serviced (`shard`
    /// itself unless a failover redirect is active).
    pub fn redirect_of(&self, shard: usize) -> usize {
        self.redirects[shard]
    }

    /// The shard currently servicing stream slot `slot`: its home
    /// shard, resolved through any active failover redirect. The chain
    /// is always exactly `slot → home → redirect target` — migration
    /// rewrites the first hop, failover the second, so repeated
    /// failover/handback/migration sequences can never stack into
    /// longer chains or cycles.
    pub fn target_of(&self, slot: usize) -> usize {
        self.redirects[self.assignments[slot]]
    }

    /// Permanently rebind stream slot `slot` to home shard `shard` (a
    /// reshard migration committing a drain-transfer-handback). Unlike
    /// [`ShardPlacement::redirect`], this survives recovery of the old
    /// home — the slot has genuinely moved.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn migrate(&mut self, slot: usize, shard: usize) {
        assert!(slot < self.assignments.len(), "slot out of range");
        assert!(shard < self.shards, "shard out of range");
        self.assignments[slot] = shard;
    }

    /// Replace the whole slot → home-shard map (resetting a service
    /// between runs after migrations mutated it).
    ///
    /// # Panics
    /// Panics if the map is empty or names a shard `>= shards`.
    pub fn set_assignments(&mut self, assignments: Vec<usize>) {
        assert!(!assignments.is_empty(), "a placement needs slots");
        for (slot, &h) in assignments.iter().enumerate() {
            assert!(h < self.shards, "slot {slot} assigned out of range");
        }
        self.assignments = assignments;
    }

    /// Split a batch into per-shard message/request index lists.
    ///
    /// Requests with a source wildcard cannot be keyed by rank; they are
    /// pinned to the communicator's lowest shard (every shard sees a
    /// consistent choice, so ordering within the communicator's wildcard
    /// stream is preserved).
    pub fn split(&self, msgs: &[Envelope], reqs: &[RecvRequest]) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut out = vec![(Vec::new(), Vec::new()); self.shards];
        for (i, m) in msgs.iter().enumerate() {
            out[self.shard_of(m.comm, m.src)].0.push(i as u32);
        }
        for (j, r) in reqs.iter().enumerate() {
            let shard = match r.src {
                crate::envelope::SrcSpec::Rank(src) => self.shard_of(r.comm, src),
                crate::envelope::SrcSpec::Any => self.shard_of(r.comm, 0),
            };
            out[shard].1.push(j as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::SrcSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn multi_comm_batch(n: usize, comms: u16, seed: u64) -> (Vec<Envelope>, Vec<RecvRequest>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<Envelope> = (0..n)
            .map(|_| {
                Envelope::new(
                    rng.gen_range(0..12),
                    rng.gen_range(0..6),
                    rng.gen_range(0..comms),
                )
            })
            .collect();
        let mut reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
            .collect();
        for i in (1..reqs.len()).rev() {
            let j = rng.gen_range(0..=i);
            reqs.swap(i, j);
        }
        (msgs, reqs)
    }

    #[test]
    fn shard_placement_is_stable() {
        let p = ShardPlacement::hashed(4);
        // The hash is deterministic and in range.
        for src in 0..100 {
            let s = p.shard_of(5, src);
            assert!(s < 4);
            assert_eq!(s, p.shard_of(5, src));
        }
    }

    #[test]
    fn redirects_reroute_and_restore_without_moving_homes() {
        let mut p = ShardPlacement::hashed(4);
        // Find a key homed on shard 2 via the hash fallback.
        let src = (0..1000u32)
            .find(|&s| p.home_of(0, s) == 2)
            .expect("hash spreads over all shards");
        assert_eq!(p.shard_of(0, src), 2);
        p.redirect(2, 0);
        assert_eq!(p.home_of(0, src), 2, "home ownership never moves");
        assert_eq!(p.shard_of(0, src), 0, "service moves to the target");
        assert_eq!(p.target_of(2), 0);
        // Keys homed elsewhere are untouched (no chaining through 0).
        for s in 0..1000u32 {
            if p.home_of(0, s) != 2 {
                assert_eq!(p.shard_of(0, s), p.home_of(0, s));
            }
        }
        p.restore(2);
        assert_eq!(p.shard_of(0, src), 2, "restore hands the keys back");
        assert_eq!(p.target_of(2), 2);
    }

    #[test]
    fn split_follows_active_redirects() {
        let (msgs, reqs) = multi_comm_batch(200, 3, 13);
        let mut p = ShardPlacement::hashed(4);
        p.redirect(1, 3);
        let parts = p.split(&msgs, &reqs);
        assert!(
            parts[1].0.is_empty() && parts[1].1.is_empty(),
            "a redirected shard receives no traffic"
        );
        let total: usize = parts.iter().map(|(m, _)| m.len()).sum();
        assert_eq!(total, msgs.len(), "redirects only move, never drop");
    }

    #[test]
    fn split_covers_every_tuple_exactly_once() {
        let (msgs, mut reqs) = multi_comm_batch(200, 3, 11);
        reqs.extend((0..3).map(|comm| RecvRequest::any_source(7, comm)));
        let p = ShardPlacement::hashed(4);
        let parts = p.split(&msgs, &reqs);
        // Every message and request is in exactly one part: the shard of
        // its `(comm, src)`, `(comm, 0)` for a source wildcard.
        let mut msg_part = vec![None; msgs.len()];
        let mut req_part = vec![None; reqs.len()];
        for (s, (mi, ri)) in parts.iter().enumerate() {
            for &i in mi {
                let m = msgs[i as usize];
                assert_eq!(p.shard_of(m.comm, m.src), s, "message {i}");
                assert_eq!(msg_part[i as usize].replace(s), None, "message {i} twice");
            }
            for &j in ri {
                let r = reqs[j as usize];
                let src = match r.src {
                    SrcSpec::Rank(src) => src,
                    SrcSpec::Any => 0,
                };
                assert_eq!(p.shard_of(r.comm, src), s, "request {j}");
                assert_eq!(req_part[j as usize].replace(s), None, "request {j} twice");
            }
        }
        assert!(msg_part.iter().chain(&req_part).all(Option::is_some));
        // A message and its exactly-matching request land on one shard.
        for (i, m) in msgs.iter().enumerate() {
            let exact = RecvRequest::exact(m.src, m.tag, m.comm);
            let j = reqs
                .iter()
                .position(|r| *r == exact)
                .expect("exact request");
            assert_eq!(msg_part[i], req_part[j], "message {i} and request {j}");
        }
    }

    #[test]
    fn slots_default_to_one_per_shard_and_follow_redirects() {
        let mut p = ShardPlacement::hashed(4);
        assert_eq!(p.slots(), 4);
        for s in 0..4 {
            assert_eq!(p.home_of_slot(s), s);
            assert_eq!(p.target_of(s), s);
        }
        p.redirect(2, 0);
        assert_eq!(p.target_of(2), 0, "slot resolves through the redirect");
        assert_eq!(p.home_of_slot(2), 2, "home ownership never moves");
    }

    #[test]
    fn migration_moves_homes_durably_and_composes_with_failover() {
        // 6 slots over 3 shards: slots 0..4 on shard 0, 4..6 spread.
        let mut p = ShardPlacement::with_assignments(3, vec![0, 0, 0, 0, 1, 2]);
        assert_eq!(p.slots(), 6);
        assert_eq!(p.target_of(3), 0);
        p.migrate(3, 2);
        assert_eq!(p.home_of_slot(3), 2, "migration rebinds the home");
        assert_eq!(p.target_of(3), 2);
        // Failover of the old home no longer touches the migrated slot.
        p.redirect(0, 1);
        assert_eq!(p.target_of(0), 1);
        assert_eq!(
            p.target_of(3),
            2,
            "migrated slot ignores old home's redirect"
        );
        // Recovery of the old home keeps the migration in force.
        p.restore(0);
        assert_eq!(p.target_of(3), 2);
        // Failover of the *new* home does reroute it, exactly one hop.
        p.redirect(2, 1);
        assert_eq!(p.target_of(3), 1);
        assert_eq!(p.target_of(5), 1, "other slots on the new home move too");
        p.restore(2);
        assert_eq!(p.target_of(3), 2);
    }
}
