//! Multiprogrammed workload construction: the paper's Table 5 workloads
//! and the randomized mixes behind its 96-workload studies.

use crate::{spec2006, spec_by_name, BenchmarkProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A multiprogrammed workload: one benchmark profile per hardware thread.
///
/// # Example
///
/// ```
/// use tcm_workload::random_workload;
///
/// let w = random_workload(0, 24, 0.5);
/// assert_eq!(w.threads.len(), 24);
/// assert!((w.intensity() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (e.g. `"A"`, `"rand-50%-07"`).
    pub name: String,
    /// One profile per thread, indexed by thread id.
    pub threads: Vec<BenchmarkProfile>,
}

impl WorkloadSpec {
    /// Creates a workload from its parts.
    pub fn new(name: impl Into<String>, threads: Vec<BenchmarkProfile>) -> Self {
        Self {
            name: name.into(),
            threads,
        }
    }

    /// Fraction of threads that are memory-intensive (MPKI > 1), the
    /// paper's definition of workload memory intensity.
    pub fn intensity(&self) -> f64 {
        if self.threads.is_empty() {
            return 0.0;
        }
        let intensive = self
            .threads
            .iter()
            .filter(|p| p.is_memory_intensive())
            .count();
        intensive as f64 / self.threads.len() as f64
    }

    /// Returns a copy with every thread's MPKI scaled by `factor`
    /// (cache-size modeling; see
    /// [`BenchmarkProfile::with_mpki_scaled`]).
    pub fn with_mpki_scaled(&self, factor: f64) -> Self {
        Self {
            name: format!("{}(x{factor})", self.name),
            threads: self
                .threads
                .iter()
                .map(|p| p.with_mpki_scaled(factor))
                .collect(),
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} threads, {:.0}% intensive)",
            self.name,
            self.threads.len(),
            self.intensity() * 100.0
        )
    }
}

fn expand(names: &[(&str, usize)]) -> Vec<BenchmarkProfile> {
    let mut threads = Vec::new();
    for &(name, count) in names {
        let profile = spec_by_name(name)
            .unwrap_or_else(|| panic!("unknown benchmark in workload table: {name}"));
        for _ in 0..count {
            threads.push(profile.clone());
        }
    }
    threads
}

/// The four representative 24-thread workloads of the paper's Table 5
/// (each 50 % memory-intensive).
///
/// Note: the paper's Table 5 column headers are transposed in print (the
/// "memory-intensive" column lists the *non-intensive* benchmarks and
/// vice versa, as the MPKI values in Table 4 show); we list each
/// benchmark under its actual MPKI class.
pub fn table5_workloads() -> Vec<WorkloadSpec> {
    let a_intensive: &[(&str, usize)] = &[
        ("mcf", 1),
        ("soplex", 2),
        ("lbm", 2),
        ("leslie", 1),
        ("sphinx3", 1),
        ("xalancbmk", 1),
        ("omnetpp", 1),
        ("astar", 1),
        ("hmmer", 2),
    ];
    let a_light: &[(&str, usize)] = &[
        ("calculix", 3),
        ("dealII", 1),
        ("gcc", 1),
        ("gromacs", 2),
        ("namd", 1),
        ("perl", 1),
        ("povray", 1),
        ("sjeng", 1),
        ("tonto", 1),
    ];
    let b_intensive: &[(&str, usize)] = &[
        ("bzip", 2),
        ("cactusADM", 3),
        ("GemsFDTD", 1),
        ("h264ref", 2),
        ("hmmer", 1),
        ("libquantum", 2),
        ("sphinx3", 1),
    ];
    let b_light: &[(&str, usize)] = &[
        ("gcc", 2),
        ("gobmk", 3),
        ("namd", 2),
        ("perl", 3),
        ("sjeng", 1),
        ("wrf", 1),
    ];
    let c_intensive: &[(&str, usize)] = &[
        ("GemsFDTD", 2),
        ("libquantum", 3),
        ("cactusADM", 1),
        ("astar", 1),
        ("omnetpp", 1),
        ("bzip", 1),
        ("soplex", 3),
    ];
    let c_light: &[(&str, usize)] = &[
        ("calculix", 2),
        ("dealII", 2),
        ("gromacs", 2),
        ("namd", 1),
        ("perl", 2),
        ("povray", 1),
        ("tonto", 1),
        ("wrf", 1),
    ];
    let d_intensive: &[(&str, usize)] = &[
        ("omnetpp", 1),
        ("bzip", 2),
        ("h264ref", 1),
        ("cactusADM", 1),
        ("astar", 1),
        ("soplex", 1),
        ("lbm", 2),
        ("leslie", 1),
        ("xalancbmk", 2),
    ];
    let d_light: &[(&str, usize)] = &[
        ("calculix", 1),
        ("dealII", 1),
        ("gcc", 1),
        ("gromacs", 1),
        ("perl", 1),
        ("povray", 2),
        ("sjeng", 2),
        ("tonto", 3),
    ];

    [
        ("A", a_intensive, a_light),
        ("B", b_intensive, b_light),
        ("C", c_intensive, c_light),
        ("D", d_intensive, d_light),
    ]
    .into_iter()
    .map(|(name, intensive, light)| {
        let mut threads = expand(intensive);
        threads.extend(expand(light));
        WorkloadSpec::new(name, threads)
    })
    .collect()
}

/// Draws a random `num_threads`-thread workload in which a
/// `intensity` fraction of the threads are memory-intensive benchmarks
/// (sampled with replacement from Table 4's intensive set, MPKI > 1) and
/// the rest are memory-non-intensive — the paper's workload construction
/// for its 96-workload studies.
///
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `intensity` is outside `[0, 1]` or `num_threads` is zero.
pub fn random_workload(seed: u64, num_threads: usize, intensity: f64) -> WorkloadSpec {
    assert!(
        (0.0..=1.0).contains(&intensity),
        "intensity must be in [0,1]"
    );
    assert!(num_threads > 0, "workload needs at least one thread");
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    let all = spec2006();
    let intensive: Vec<_> = all.iter().filter(|p| p.is_memory_intensive()).collect();
    let light: Vec<_> = all.iter().filter(|p| !p.is_memory_intensive()).collect();
    let num_intensive = (intensity * num_threads as f64).round() as usize;
    let mut threads = Vec::with_capacity(num_threads);
    for _ in 0..num_intensive {
        threads.push(intensive[rng.gen_range(0..intensive.len())].clone());
    }
    for _ in num_intensive..num_threads {
        threads.push(light[rng.gen_range(0..light.len())].clone());
    }
    WorkloadSpec::new(format!("rand-{:.0}%-{seed:02}", intensity * 100.0), threads)
}

/// Builds the paper's workload suite: `per_category` random workloads at
/// each of the given intensities (the paper uses 32 workloads at each of
/// 50 %, 75 % and 100 % for its headline 96-workload results).
pub fn workload_suite(
    intensities: &[f64],
    per_category: usize,
    num_threads: usize,
) -> Vec<WorkloadSpec> {
    let mut suite = Vec::with_capacity(intensities.len() * per_category);
    for (ci, &intensity) in intensities.iter().enumerate() {
        for i in 0..per_category {
            let seed = (ci * 1000 + i) as u64;
            suite.push(random_workload(seed, num_threads, intensity));
        }
    }
    suite
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn table5_workloads_are_24_threads_50_percent_intensive() {
        let ws = table5_workloads();
        assert_eq!(ws.len(), 4);
        for w in &ws {
            assert_eq!(w.threads.len(), 24, "workload {} has 24 threads", w.name);
            assert!((w.intensity() - 0.5).abs() < 1e-9, "workload {}", w.name);
        }
        assert_eq!(ws[0].name, "A");
        assert_eq!(ws[3].name, "D");
    }

    #[test]
    fn random_workload_hits_requested_intensity() {
        for intensity in [0.25, 0.5, 0.75, 1.0] {
            let w = random_workload(3, 24, intensity);
            assert!((w.intensity() - intensity).abs() < 1e-9);
        }
    }

    #[test]
    fn random_workload_is_deterministic_in_seed() {
        assert_eq!(random_workload(5, 24, 0.5), random_workload(5, 24, 0.5));
        assert_ne!(random_workload(5, 24, 0.5), random_workload(6, 24, 0.5));
    }

    #[test]
    fn suite_sizes_match_paper() {
        let suite = workload_suite(&[0.5, 0.75, 1.0], 32, 24);
        assert_eq!(suite.len(), 96);
        let distinct: std::collections::HashSet<_> = suite.iter().map(|w| w.name.clone()).collect();
        assert_eq!(distinct.len(), 96, "workload names are unique");
    }

    #[test]
    fn zero_intensity_workload_has_no_intensive_threads() {
        let w = random_workload(1, 8, 0.0);
        assert_eq!(w.intensity(), 0.0);
        assert!(w.threads.iter().all(|p| !p.is_memory_intensive()));
    }

    #[test]
    fn mpki_scaling_scales_every_thread() {
        let w = random_workload(2, 4, 1.0);
        let scaled = w.with_mpki_scaled(0.5);
        for (orig, s) in w.threads.iter().zip(&scaled.threads) {
            assert!((s.mpki - orig.mpki * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn invalid_intensity_panics() {
        random_workload(0, 4, 1.5);
    }

    #[test]
    fn display_is_informative() {
        let w = random_workload(0, 24, 0.75);
        let s = w.to_string();
        assert!(s.contains("24 threads"));
        assert!(s.contains("75% intensive"));
    }
}
