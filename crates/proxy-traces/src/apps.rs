//! The DOE exascale proxy applications of Table I, as communication
//! models.
//!
//! The paper analyses the publicly released DOE Design Forward / CESAR /
//! ExMatEx / ExaCT trace sets. Those multi-gigabyte dumpi archives are not
//! redistributable here, so each application is modelled by the
//! communication characteristics the paper reports — peer counts,
//! communicator counts, tag-space sizes, wildcard usage, queue-depth
//! scale and regularity — and the generator synthesises event streams
//! whose *aggregate statistics* match (see `DESIGN.md`, substitutions).
//!
//! Facts encoded from the paper (Section IV, Figure 2, Figure 6(a)):
//! * only MiniDFT and MiniFE use `MPI_ANY_SOURCE`; nobody uses
//!   `MPI_ANY_TAG`;
//! * Nekbone uses 2 communicators, MiniDFT 7, everyone else 1;
//! * most apps talk to 10–30 peers; CNS reaches 72, AMG 79;
//! * MiniDFT, MOCFE and PARTISN use thousands of tags; AMG, LULESH and
//!   MiniFE fewer than four;
//! * queue depths stay below 512 except MultiGrid (mean ≈ 2000, median
//!   ≈ 1500) and Nekbone (mean ≈ 4000, median ≈ 1800);
//! * Nekbone and AMR Boxlib have irregular peer usage, the rest are
//!   regular/uniform.

use serde::Serialize;

/// Which benchmark suite an application belongs to (Table I column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Suite {
    /// DOE Design Forward.
    DesignForward,
    /// CESAR co-design center.
    Cesar,
    /// ExaCT co-design center.
    Exact,
    /// ExMatEx co-design center.
    Exmatex,
}

impl Suite {
    /// Display label used in the generated tables.
    pub fn label(self) -> &'static str {
        match self {
            Suite::DesignForward => "Design Forward",
            Suite::Cesar => "CESAR",
            Suite::Exact => "ExaCT",
            Suite::Exmatex => "ExMatEx",
        }
    }
}

/// How a rank spreads traffic over its peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub(crate) enum PeerPattern {
    /// Uniform nearest-neighbour exchange (stencil-like).
    Regular,
    /// Skewed: a few peers receive most of the traffic (Nekbone,
    /// AMR Boxlib in the paper's analysis).
    Irregular,
}

/// Communication model of one proxy application.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppModel {
    /// Application name as in Table I.
    pub name: &'static str,
    /// Suite it belongs to.
    pub suite: Suite,
    /// Default rank count for generated traces (scaled-down from the
    /// original runs; queue-depth targets are independent of this).
    pub(crate) ranks: u32,
    /// Peers each rank exchanges point-to-point traffic with.
    pub peers: u32,
    /// Communicators used for point-to-point traffic.
    pub(crate) communicators: u16,
    /// Distinct tag values the app uses.
    pub(crate) tag_count: u32,
    /// Per-mille of receives posted with `MPI_ANY_SOURCE`.
    pub(crate) src_wildcard_pm: u32,
    /// Per-mille of receives posted with `MPI_ANY_TAG` (always 0 in the
    /// trace set — kept as a parameter so the analyzer is exercised).
    pub(crate) tag_wildcard_pm: u32,
    /// Target mean (across ranks) of the maximum UMQ depth.
    pub(crate) umq_mean: u32,
    /// Target median (across ranks) of the maximum UMQ depth.
    pub(crate) umq_median: u32,
    /// Peer usage regularity.
    pub(crate) pattern: PeerPattern,
    /// Communication phases to generate (iterations of the app's loop).
    pub(crate) phases: u32,
}

impl AppModel {
    /// All twelve modelled applications, in Table I order.
    pub fn all() -> Vec<AppModel> {
        vec![
            AppModel {
                name: "AMG",
                suite: Suite::DesignForward,
                ranks: 216,
                peers: 79,
                communicators: 1,
                tag_count: 3,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 64,
                umq_median: 60,
                pattern: PeerPattern::Regular,
                phases: 6,
            },
            AppModel {
                name: "AMR Boxlib",
                suite: Suite::Exact,
                ranks: 128,
                peers: 24,
                communicators: 1,
                tag_count: 128,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 120,
                umq_median: 90,
                pattern: PeerPattern::Irregular,
                phases: 6,
            },
            AppModel {
                name: "BigFFT",
                suite: Suite::DesignForward,
                ranks: 100,
                peers: 30,
                communicators: 1,
                tag_count: 64,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 200,
                umq_median: 190,
                pattern: PeerPattern::Regular,
                phases: 5,
            },
            AppModel {
                name: "Crystal Router",
                suite: Suite::DesignForward,
                ranks: 100,
                peers: 10,
                communicators: 1,
                tag_count: 16,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 300,
                umq_median: 280,
                pattern: PeerPattern::Regular,
                phases: 5,
            },
            AppModel {
                name: "CNS",
                suite: Suite::Exact,
                ranks: 128,
                peers: 72,
                communicators: 1,
                tag_count: 32,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 150,
                umq_median: 140,
                pattern: PeerPattern::Regular,
                phases: 5,
            },
            AppModel {
                name: "LULESH",
                suite: Suite::Exmatex,
                ranks: 64,
                peers: 26,
                communicators: 1,
                tag_count: 2,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 30,
                umq_median: 28,
                pattern: PeerPattern::Regular,
                phases: 8,
            },
            AppModel {
                name: "MiniDFT",
                suite: Suite::DesignForward,
                ranks: 100,
                peers: 20,
                communicators: 7,
                tag_count: 4096,
                src_wildcard_pm: 45,
                tag_wildcard_pm: 0,
                umq_mean: 400,
                umq_median: 380,
                pattern: PeerPattern::Regular,
                phases: 5,
            },
            AppModel {
                name: "MiniFE",
                suite: Suite::DesignForward,
                ranks: 144,
                peers: 12,
                communicators: 1,
                tag_count: 3,
                src_wildcard_pm: 30,
                tag_wildcard_pm: 0,
                umq_mean: 40,
                umq_median: 38,
                pattern: PeerPattern::Regular,
                phases: 8,
            },
            AppModel {
                name: "MOCFE",
                suite: Suite::Cesar,
                ranks: 64,
                peers: 16,
                communicators: 1,
                tag_count: 2048,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 250,
                umq_median: 230,
                pattern: PeerPattern::Regular,
                phases: 5,
            },
            AppModel {
                name: "MultiGrid",
                suite: Suite::Exact,
                ranks: 64,
                peers: 28,
                communicators: 1,
                tag_count: 64,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 2000,
                umq_median: 1500, // mean 2000, median 1500 per Figure 2
                pattern: PeerPattern::Regular,
                phases: 3,
            },
            AppModel {
                name: "Nekbone",
                suite: Suite::Cesar,
                ranks: 64,
                peers: 10,
                communicators: 2,
                tag_count: 1,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 4000,
                umq_median: 1800,
                pattern: PeerPattern::Irregular,
                phases: 3,
            },
            AppModel {
                name: "PARTISN",
                suite: Suite::DesignForward,
                ranks: 96,
                peers: 14,
                communicators: 1,
                tag_count: 3000,
                src_wildcard_pm: 0,
                tag_wildcard_pm: 0,
                umq_mean: 100,
                umq_median: 95,
                pattern: PeerPattern::Regular,
                phases: 5,
            },
        ]
    }

    /// Look an application up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<AppModel> {
        Self::all()
            .into_iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_apps_with_unique_names() {
        let apps = AppModel::all();
        assert_eq!(apps.len(), 12);
        let names: std::collections::HashSet<_> = apps.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn paper_facts_hold_in_the_models() {
        let apps = AppModel::all();
        // Only MiniDFT and MiniFE use the source wildcard.
        let wild: Vec<&str> = apps
            .iter()
            .filter(|a| a.src_wildcard_pm > 0)
            .map(|a| a.name)
            .collect();
        assert_eq!(wild, vec!["MiniDFT", "MiniFE"]);
        // Nobody uses the tag wildcard.
        assert!(apps.iter().all(|a| a.tag_wildcard_pm == 0));
        // Communicators: Nekbone 2, MiniDFT 7, everyone else 1.
        for a in &apps {
            let want = match a.name {
                "Nekbone" => 2,
                "MiniDFT" => 7,
                _ => 1,
            };
            assert_eq!(a.communicators, want, "{}", a.name);
        }
        // Peer extremes.
        assert_eq!(AppModel::by_name("AMG").unwrap().peers, 79);
        assert_eq!(AppModel::by_name("CNS").unwrap().peers, 72);
        // Deep-queue outliers.
        for a in &apps {
            match a.name {
                "MultiGrid" | "Nekbone" => assert!(a.umq_mean >= 2000, "{}", a.name),
                _ => assert!(a.umq_mean < 512, "{} must stay under 512", a.name),
            }
        }
        // Tag-space extremes.
        assert!(AppModel::by_name("MiniDFT").unwrap().tag_count >= 1000);
        assert!(AppModel::by_name("PARTISN").unwrap().tag_count >= 1000);
        assert!(AppModel::by_name("MOCFE").unwrap().tag_count >= 1000);
        assert!(AppModel::by_name("AMG").unwrap().tag_count < 4);
        assert!(AppModel::by_name("LULESH").unwrap().tag_count < 4);
        assert!(AppModel::by_name("MiniFE").unwrap().tag_count < 4);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(AppModel::by_name("nekbone").is_some());
        assert!(AppModel::by_name("NEKBONE").is_some());
        assert!(AppModel::by_name("nosuchapp").is_none());
    }
}
