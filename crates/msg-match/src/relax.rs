//! The relaxation lattice of Table II: which MPI guarantees are kept,
//! which matcher that implies, and what it costs the user.
//!
//! | wildcards | ordering | unexpected | partitioning | structure  | perf      |
//! |-----------|----------|------------|--------------|------------|-----------|
//! | yes       | yes      | yes        | no           | matrix     | low       |
//! | yes       | yes      | no         | no           | matrix     | low       |
//! | no        | yes      | yes        | yes          | matrix     | high      |
//! | no        | yes      | no         | yes          | matrix     | high      |
//! | no        | no       | yes        | yes          | hash table | very high |
//! | no        | no       | no         | yes          | hash table | very high |

use serde::Serialize;

use crate::envelope::{Envelope, RecvRequest};
use crate::reference::{MatchEvent, ReferenceEngine};

/// Which guarantees a deployment keeps. `true` always means "the MPI
/// guarantee is kept"; relaxations turn fields off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct RelaxationConfig {
    /// Source/tag wildcards allowed in receive requests.
    pub wildcards: bool,
    /// In-order matching between process pairs guaranteed.
    pub ordering: bool,
    /// Unexpected messages (arrivals before their receive is posted)
    /// tolerated.
    pub unexpected: bool,
}

impl RelaxationConfig {
    /// Full MPI semantics (row 1 of Table II).
    pub const FULL_MPI: RelaxationConfig = RelaxationConfig {
        wildcards: true,
        ordering: true,
        unexpected: true,
    };

    /// No source wildcard: rank partitioning becomes possible (row 3).
    pub const NO_WILDCARDS: RelaxationConfig = RelaxationConfig {
        wildcards: false,
        ordering: true,
        unexpected: true,
    };

    /// Fully relaxed: hash-table matching (row 5/6).
    pub const UNORDERED: RelaxationConfig = RelaxationConfig {
        wildcards: false,
        ordering: false,
        unexpected: true,
    };

    /// All six rows of Table II, in the paper's order.
    pub const TABLE_II_ROWS: [RelaxationConfig; 6] = [
        RelaxationConfig {
            wildcards: true,
            ordering: true,
            unexpected: true,
        },
        RelaxationConfig {
            wildcards: true,
            ordering: true,
            unexpected: false,
        },
        RelaxationConfig {
            wildcards: false,
            ordering: true,
            unexpected: true,
        },
        RelaxationConfig {
            wildcards: false,
            ordering: true,
            unexpected: false,
        },
        RelaxationConfig {
            wildcards: false,
            ordering: false,
            unexpected: true,
        },
        RelaxationConfig {
            wildcards: false,
            ordering: false,
            unexpected: false,
        },
    ];

    /// Can the rank space be statically partitioned? (Needs no source
    /// wildcard.)
    pub fn partitionable(&self) -> bool {
        !self.wildcards
    }

    /// The data structure Table II prescribes for this configuration.
    pub fn data_structure(&self) -> DataStructure {
        if self.ordering {
            DataStructure::Matrix
        } else {
            DataStructure::HashTable
        }
    }

    /// Qualitative performance class from Table II.
    pub fn performance_class(&self) -> PerformanceClass {
        match (self.wildcards, self.ordering) {
            (true, _) => PerformanceClass::Low,
            (false, true) => PerformanceClass::High,
            (false, false) => PerformanceClass::VeryHigh,
        }
    }

    /// Qualitative user-impact class from Table II: what rewriting the
    /// application must absorb.
    pub fn user_implication(&self) -> UserImplication {
        match (self.wildcards, self.ordering, self.unexpected) {
            (true, true, true) => UserImplication::None,
            (true, _, false) | (true, false, _) => UserImplication::Medium,
            (false, true, true) => UserImplication::Low,
            (false, true, false) => UserImplication::Medium,
            (false, false, _) => UserImplication::High,
        }
    }

    /// Validate that a workload only uses what this configuration allows.
    ///
    /// # Errors
    /// Describes the first violated guarantee.
    pub fn validate_workload(&self, msgs: &[Envelope], reqs: &[RecvRequest]) -> Result<(), String> {
        if !self.wildcards {
            if let Some(j) = reqs.iter().position(|r| r.has_wildcard()) {
                return Err(format!(
                    "request {j} uses a wildcard but wildcards are relaxed away"
                ));
            }
        }
        if !self.unexpected {
            // Under "no unexpected messages" every arrival must find a
            // pre-posted receive: simulate posts-then-arrivals and demand
            // zero UMQ entries.
            let mut eng = ReferenceEngine::new();
            for r in reqs {
                eng.step(MatchEvent::Post(*r));
            }
            for m in msgs {
                eng.step(MatchEvent::Arrive(*m));
            }
            if eng.umq_max > 0 {
                return Err(format!(
                    "{} message(s) would be unexpected even with all receives \
                     pre-posted, violating the no-unexpected-messages relaxation",
                    eng.umq_max
                ));
            }
        }
        Ok(())
    }
}

/// Primary matching data structure (Table II column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DataStructure {
    /// Vote-matrix scan/reduce (ordering preserved).
    Matrix,
    /// Two-level hash table (out-of-order).
    HashTable,
}

/// Qualitative performance class (Table II column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum PerformanceClass {
    /// ≲ 6 M matches/s on Pascal.
    Low,
    /// ≲ 60 M matches/s on Pascal.
    High,
    /// ≲ 500 M matches/s on Pascal.
    VeryHigh,
}

/// Qualitative user-impact class (Table II column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum UserImplication {
    /// Unmodified MPI applications work.
    None,
    /// Minor changes (drop wildcards — most proxy apps never use them).
    Low,
    /// Pre-posting / extra synchronisation required.
    Medium,
    /// Restructuring: tags must disambiguate; BSP-style phases.
    High,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_structure_column() {
        for row in RelaxationConfig::TABLE_II_ROWS {
            let want = if row.ordering {
                DataStructure::Matrix
            } else {
                DataStructure::HashTable
            };
            assert_eq!(row.data_structure(), want);
        }
    }

    #[test]
    fn table_ii_partitioning_column() {
        assert!(!RelaxationConfig::FULL_MPI.partitionable());
        assert!(RelaxationConfig::NO_WILDCARDS.partitionable());
        assert!(RelaxationConfig::UNORDERED.partitionable());
    }

    #[test]
    fn performance_strictly_improves_down_the_lattice() {
        assert!(
            RelaxationConfig::FULL_MPI.performance_class()
                < RelaxationConfig::NO_WILDCARDS.performance_class()
        );
        assert!(
            RelaxationConfig::NO_WILDCARDS.performance_class()
                < RelaxationConfig::UNORDERED.performance_class()
        );
    }

    #[test]
    fn validate_rejects_wildcards_when_relaxed() {
        let msgs = [Envelope::new(0, 0, 0)];
        let reqs = [RecvRequest::any_source(0, 0)];
        assert!(RelaxationConfig::FULL_MPI
            .validate_workload(&msgs, &reqs)
            .is_ok());
        assert!(RelaxationConfig::NO_WILDCARDS
            .validate_workload(&msgs, &reqs)
            .is_err());
    }

    #[test]
    fn validate_no_unexpected_requires_coverage() {
        let msgs = [Envelope::new(0, 0, 0), Envelope::new(0, 1, 0)];
        let covered = [RecvRequest::exact(0, 0, 0), RecvRequest::exact(0, 1, 0)];
        let uncovered = [RecvRequest::exact(0, 0, 0)];
        let cfg = RelaxationConfig {
            wildcards: false,
            ordering: true,
            unexpected: false,
        };
        assert!(cfg.validate_workload(&msgs, &covered).is_ok());
        assert!(cfg.validate_workload(&msgs, &uncovered).is_err());
    }

    #[test]
    fn user_implication_matches_table() {
        assert_eq!(
            RelaxationConfig::FULL_MPI.user_implication(),
            UserImplication::None
        );
        assert_eq!(
            RelaxationConfig::NO_WILDCARDS.user_implication(),
            UserImplication::Low
        );
        assert_eq!(
            RelaxationConfig::UNORDERED.user_implication(),
            UserImplication::High
        );
    }
}
