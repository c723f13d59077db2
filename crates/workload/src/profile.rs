//! Benchmark profiles: the paper's Table 4 and Table 1 characteristics.

use std::fmt;

/// MPKI threshold above which the paper labels a benchmark
/// *memory-intensive* (Section 6: "benchmarks with an average MPKI
/// greater than one are labeled as memory-intensive").
pub const MEMORY_INTENSIVE_MPKI: f64 = 1.0;

/// A thread's memory access behavior, characterized the way the paper
/// characterizes it (Section 2.1): memory intensity, row-buffer locality
/// and bank-level parallelism.
///
/// # Example
///
/// ```
/// use tcm_workload::BenchmarkProfile;
///
/// let p = BenchmarkProfile::new("mcf", 97.38, 0.4241, 6.20);
/// assert!(p.is_memory_intensive());
/// assert!(!BenchmarkProfile::new("povray", 0.01, 0.8722, 1.43).is_memory_intensive());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (SPEC CPU2006 short name, or a microbenchmark name).
    pub name: String,
    /// Last-level-cache misses per thousand instructions.
    pub mpki: f64,
    /// Inherent row-buffer locality in `[0, 1]`: probability that an
    /// access targets the row the thread last opened in that bank.
    pub rbl: f64,
    /// Bank-level parallelism: average number of banks with outstanding
    /// requests while the thread has any outstanding request.
    pub blp: f64,
}

impl BenchmarkProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `mpki` is negative, `rbl` is outside `[0, 1]`, or `blp`
    /// is less than 1 when `mpki > 0` (a thread with misses always has at
    /// least one bank outstanding).
    pub fn new(name: impl Into<String>, mpki: f64, rbl: f64, blp: f64) -> Self {
        assert!(mpki >= 0.0, "mpki must be non-negative");
        assert!((0.0..=1.0).contains(&rbl), "rbl must be within [0, 1]");
        assert!(
            mpki == 0.0 || blp >= 1.0,
            "blp must be at least 1 for threads that miss"
        );
        Self {
            name: name.into(),
            mpki,
            rbl,
            blp,
        }
    }

    /// The *random-access* microbenchmark of the paper's Table 1:
    /// MPKI 100, BLP 72.7 % of the 16-bank maximum (≈ 11.6 banks),
    /// RBL 0.1 %.
    pub fn random_access() -> Self {
        Self::new("random-access", 100.0, 0.001, 11.63)
    }

    /// The *streaming* microbenchmark of the paper's Table 1: MPKI 100,
    /// BLP 0.3 % of maximum (≈ 1 bank), RBL 99 %.
    pub fn streaming() -> Self {
        Self::new("streaming", 100.0, 0.99, 1.0)
    }

    /// Whether the paper would label this benchmark memory-intensive
    /// (MPKI > 1).
    pub fn is_memory_intensive(&self) -> bool {
        self.mpki > MEMORY_INTENSIVE_MPKI
    }

    /// Returns a copy whose MPKI is scaled by `factor`, used to model a
    /// larger or smaller last-level cache (the paper's Table 8 cache-size
    /// sweep): a bigger cache filters more misses, lowering MPKI.
    pub fn with_mpki_scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        Self {
            name: self.name.clone(),
            mpki: self.mpki * factor,
            rbl: self.rbl,
            blp: self.blp,
        }
    }
}

impl fmt::Display for BenchmarkProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (MPKI {:.2}, RBL {:.1}%, BLP {:.2})",
            self.name,
            self.mpki,
            self.rbl * 100.0,
            self.blp
        )
    }
}

/// All 25 SPEC CPU2006 benchmark characterizations from the paper's
/// Table 4, ordered by descending MPKI exactly as printed.
///
/// RBL is stored as a fraction in `[0, 1]` (the paper prints percent).
pub fn spec2006() -> Vec<BenchmarkProfile> {
    let rows: [(&str, f64, f64, f64); 25] = [
        ("mcf", 97.38, 42.41, 6.20),
        ("libquantum", 50.00, 99.22, 1.05),
        ("leslie3d", 49.35, 91.18, 1.51),
        ("soplex", 46.70, 88.84, 1.79),
        ("lbm", 43.52, 95.17, 2.82),
        ("GemsFDTD", 31.79, 56.22, 3.15),
        ("sphinx3", 24.94, 84.78, 2.24),
        ("xalancbmk", 22.95, 72.01, 2.35),
        ("omnetpp", 21.63, 45.71, 4.37),
        ("cactusADM", 12.01, 19.05, 1.43),
        ("astar", 9.26, 75.24, 1.61),
        ("hmmer", 5.66, 34.42, 1.25),
        ("bzip2", 3.98, 71.44, 1.87),
        ("h264ref", 2.30, 90.34, 1.19),
        ("gromacs", 0.98, 89.25, 1.54),
        ("gobmk", 0.77, 65.76, 1.52),
        ("sjeng", 0.39, 12.47, 1.57),
        ("gcc", 0.34, 70.92, 1.96),
        ("dealII", 0.21, 86.83, 1.22),
        ("wrf", 0.21, 92.34, 1.23),
        ("namd", 0.19, 93.05, 1.16),
        ("perlbench", 0.12, 81.59, 1.66),
        ("calculix", 0.10, 88.71, 1.20),
        ("tonto", 0.03, 88.60, 1.81),
        ("povray", 0.01, 87.22, 1.43),
    ];
    rows.iter()
        .map(|&(name, mpki, rbl_pct, blp)| BenchmarkProfile::new(name, mpki, rbl_pct / 100.0, blp))
        .collect()
}

/// Looks up a Table 4 benchmark by name. Accepts the abbreviations the
/// paper's Table 5 uses (`perl` for `perlbench`, `bzip` for `bzip2`,
/// `leslie` for `leslie3d`).
pub fn spec_by_name(name: &str) -> Option<BenchmarkProfile> {
    let canonical = match name {
        "perl" => "perlbench",
        "bzip" => "bzip2",
        "leslie" => "leslie3d",
        other => other,
    };
    spec2006().into_iter().find(|p| p.name == canonical)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_25_benchmarks_sorted_by_mpki() {
        let profiles = spec2006();
        assert_eq!(profiles.len(), 25);
        for pair in profiles.windows(2) {
            assert!(pair[0].mpki >= pair[1].mpki, "Table 4 order is by MPKI");
        }
    }

    #[test]
    fn intensive_split_matches_paper() {
        // MPKI > 1 labels 14 benchmarks intensive (mcf .. h264ref).
        let profiles = spec2006();
        let intensive: Vec<_> = profiles
            .iter()
            .filter(|p| p.is_memory_intensive())
            .collect();
        assert_eq!(intensive.len(), 14);
        assert_eq!(intensive.last().unwrap().name, "h264ref");
    }

    #[test]
    fn lookup_handles_table5_abbreviations() {
        assert_eq!(spec_by_name("perl").unwrap().name, "perlbench");
        assert_eq!(spec_by_name("bzip").unwrap().name, "bzip2");
        assert_eq!(spec_by_name("leslie").unwrap().name, "leslie3d");
        assert_eq!(spec_by_name("mcf").unwrap().mpki, 97.38);
        assert!(spec_by_name("doesnotexist").is_none());
    }

    #[test]
    fn microbenchmarks_match_table1() {
        let random = BenchmarkProfile::random_access();
        let streaming = BenchmarkProfile::streaming();
        // Same intensity, opposite BLP/RBL.
        assert_eq!(random.mpki, streaming.mpki);
        assert!(random.blp > 10.0 && streaming.blp <= 1.0);
        assert!(streaming.rbl > 0.9 && random.rbl < 0.01);
    }

    #[test]
    fn cache_scaling_changes_only_mpki() {
        let p = spec_by_name("mcf").unwrap();
        let scaled = p.with_mpki_scaled(0.5);
        assert!((scaled.mpki - p.mpki * 0.5).abs() < 1e-12);
        assert_eq!(scaled.rbl, p.rbl);
        assert_eq!(scaled.blp, p.blp);
    }

    #[test]
    #[should_panic(expected = "rbl")]
    fn invalid_rbl_is_rejected() {
        BenchmarkProfile::new("bad", 1.0, 1.5, 1.0);
    }

    #[test]
    fn display_mentions_all_three_characteristics() {
        let s = spec_by_name("mcf").unwrap().to_string();
        assert!(s.contains("mcf") && s.contains("97.38") && s.contains("6.20"));
    }
}
