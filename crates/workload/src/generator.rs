//! Statistical trace generation calibrated to (MPKI, RBL, BLP).

use crate::BenchmarkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcm_types::{GlobalBank, MemAddress, Row};

/// How many rows a single-bank (streaming-like) access pattern exhausts
/// in its current bank before migrating to the next one.
///
/// Streaming code walks large contiguous buffers; with open-page address
/// mappings a stream occupies one bank for many consecutive rows, which
/// is what makes such threads *hostile*: they generate a steady stream of
/// row hits to one bank, denying it to everyone else for long stretches
/// (paper Section 2.4). Raising the dwell lengthens those
/// denial-of-service windows.
pub const DEFAULT_HOME_DWELL_ROWS: u32 = 1;

/// The memory-system shape addresses are generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineShape {
    /// Number of memory channels.
    pub num_channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
}

impl MachineShape {
    /// Total banks across all channels.
    pub fn total_banks(&self) -> usize {
        self.num_channels * self.banks_per_channel
    }
}

/// One miss burst emitted by a [`TraceGenerator`]: `gap` instructions of
/// pure compute, then `accesses.len()` concurrent cache misses issued at
/// the same instruction slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBurst {
    /// Instructions executed since the previous burst (at least 1).
    pub gap: u64,
    /// The miss addresses; distinct banks within one burst.
    pub accesses: Vec<MemAddress>,
}

/// Deterministic, seeded generator of a synthetic thread's miss stream.
///
/// Calibration (see DESIGN.md §3):
///
/// * **BLP** — each burst contains `⌊BLP⌋` or `⌈BLP⌉` accesses (chosen so
///   the mean equals BLP, clamped to the machine's bank count), each to a
///   distinct bank. Low-BLP threads stay on a *home bank*, migrating only
///   when their row changes — the paper's streaming behavior; high-BLP
///   threads spread each burst across banks.
/// * **RBL** — per global bank the generator keeps the thread's current
///   row; an access re-uses it with probability RBL, otherwise it moves
///   to a fresh row (which is when a streaming thread advances its home
///   bank).
/// * **MPKI** — the instruction gap before a burst of size `b` is
///   exponentially distributed with mean `b · 1000 / MPKI`, making the
///   long-run miss rate `MPKI` per 1000 instructions.
///
/// The generator never consults simulation time, so a thread's trace is
/// identical in shared and alone runs — the property that makes
/// `slowdown = IPC_alone / IPC_shared` well defined.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    shape: MachineShape,
    rng: StdRng,
    /// Current row per global bank (flat index).
    rows: Vec<Row>,
    /// Home bank for low-BLP (streaming-like) access patterns.
    home_bank: usize,
    /// Row changes at the home bank since it last migrated.
    home_rows_used: u32,
    /// Row changes after which the home bank migrates (bank dwell).
    home_dwell_rows: u32,
    /// Burst size distribution: `base` plus a Bernoulli(extra_prob) extra.
    base_burst: usize,
    extra_prob: f64,
    /// Mean instruction gap per single miss (1000 / MPKI).
    instrs_per_miss: f64,
    /// Scratch index list for bank selection, reused across bursts so
    /// the per-burst Fisher–Yates allocates nothing.
    bank_scratch: Vec<usize>,
}

impl TraceGenerator {
    /// Creates a generator for `profile` on `shape`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile has `mpki == 0` — compute-only threads never
    /// produce a burst, so the simulator models them without a generator
    /// (see [`TraceGenerator::is_compute_only`] for the guard helper).
    pub fn new(profile: &BenchmarkProfile, shape: MachineShape, seed: u64) -> Self {
        assert!(
            profile.mpki > 0.0,
            "compute-only thread has no miss trace; guard with is_compute_only"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let total_banks = shape.total_banks();
        let blp = profile.blp.clamp(1.0, total_banks as f64);
        let base_burst = blp.floor() as usize;
        let extra_prob = blp - blp.floor();
        let rows = (0..total_banks)
            .map(|_| Row::new(rng.gen_range(0..shape.rows_per_bank)))
            .collect();
        let home_bank = rng.gen_range(0..total_banks);
        Self {
            home_rows_used: 0,
            home_dwell_rows: DEFAULT_HOME_DWELL_ROWS,
            profile: profile.clone(),
            shape,
            rng,
            rows,
            home_bank,
            base_burst,
            extra_prob,
            instrs_per_miss: 1000.0 / profile.mpki,
            bank_scratch: Vec::with_capacity(total_banks),
        }
    }

    /// Whether `profile` generates no misses at all (MPKI = 0).
    pub fn is_compute_only(profile: &BenchmarkProfile) -> bool {
        profile.mpki <= 0.0
    }

    /// The profile this generator is calibrated to.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Generates the next miss burst.
    pub fn next_burst(&mut self) -> TraceBurst {
        let mut accesses = Vec::new();
        let gap = self.next_burst_into(&mut accesses);
        TraceBurst { gap, accesses }
    }

    /// Like [`TraceGenerator::next_burst`] but writes the burst's
    /// accesses into `out` (cleared first), reusing its capacity, and
    /// returns the instruction gap. This is `next_burst` — the owned
    /// variant is a wrapper — so the RNG draw order, and therefore the
    /// generated trace, is identical bit-for-bit.
    pub fn next_burst_into(&mut self, out: &mut Vec<MemAddress>) -> u64 {
        let size = self.sample_burst_size();
        let gap = self.sample_gap(size);
        let mut banks = std::mem::take(&mut self.bank_scratch);
        self.choose_banks_into(size, &mut banks);
        out.clear();
        out.reserve(banks.len());
        for &flat in &banks {
            out.push(self.access_bank(flat));
        }
        self.bank_scratch = banks;
        gap
    }

    fn sample_burst_size(&mut self) -> usize {
        let extra = usize::from(self.rng.gen_bool(self.extra_prob));
        (self.base_burst + extra).clamp(1, self.shape.total_banks())
    }

    fn sample_gap(&mut self, burst_size: usize) -> u64 {
        let mean = self.instrs_per_miss * burst_size as f64;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        ((-mean * u.ln()).round() as u64).max(1)
    }

    /// Picks `size` distinct banks into `out`. Streaming-like threads
    /// (base burst of 1, no fractional extra worth spreading) sit on
    /// their home bank; others sample without replacement.
    fn choose_banks_into(&mut self, size: usize, out: &mut Vec<usize>) {
        out.clear();
        if size == 1 {
            out.push(self.home_bank);
            return;
        }
        // Partial Fisher–Yates over the reused scratch index list.
        let total = self.shape.total_banks();
        out.extend(0..total);
        for i in 0..size {
            let j = self.rng.gen_range(i..total);
            out.swap(i, j);
        }
        out.truncate(size);
    }

    /// Produces the address for one access to the flat bank index,
    /// applying the RBL row re-use rule.
    fn access_bank(&mut self, flat: usize) -> MemAddress {
        let stay = self.rng.gen_bool(self.profile.rbl.clamp(0.0, 1.0));
        if !stay {
            // Advance to a fresh row; streaming threads also advance
            // their home bank here (they exhausted the row).
            let next = Row::new((self.rows[flat].index() + 1) % self.shape.rows_per_bank);
            self.rows[flat] = next;
            if flat == self.home_bank {
                self.home_rows_used += 1;
                if self.home_rows_used >= self.home_dwell_rows {
                    self.home_rows_used = 0;
                    self.home_bank = (self.home_bank + 1) % self.shape.total_banks();
                }
            }
        }
        let g = GlobalBank::from_flat(flat, self.shape.banks_per_channel);
        MemAddress::new(g.channel, g.bank, self.rows[flat])
    }
}

/// Convenience conversions for building shapes from a system config.
impl From<&tcm_types::SystemConfig> for MachineShape {
    fn from(cfg: &tcm_types::SystemConfig) -> Self {
        Self {
            num_channels: cfg.num_channels(),
            banks_per_channel: cfg.banks_per_channel,
            rows_per_bank: cfg.rows_per_bank,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::spec_by_name;
    use std::collections::HashSet;

    fn shape() -> MachineShape {
        MachineShape {
            num_channels: 4,
            banks_per_channel: 4,
            rows_per_bank: 16384,
        }
    }

    fn run_bursts(profile: &BenchmarkProfile, n: usize, seed: u64) -> Vec<TraceBurst> {
        let mut g = TraceGenerator::new(profile, shape(), seed);
        (0..n).map(|_| g.next_burst()).collect()
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let p = spec_by_name("mcf").unwrap();
        let a = run_bursts(&p, 100, 7);
        let b = run_bursts(&p, 100, 7);
        let c = run_bursts(&p, 100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn long_run_mpki_matches_profile() {
        for name in ["mcf", "libquantum", "hmmer", "gcc"] {
            let p = spec_by_name(name).unwrap();
            let bursts = run_bursts(&p, 4000, 1);
            let misses: usize = bursts.iter().map(|b| b.accesses.len()).sum();
            let instrs: u64 = bursts.iter().map(|b| b.gap).sum();
            let mpki = misses as f64 * 1000.0 / instrs as f64;
            let rel_err = (mpki - p.mpki).abs() / p.mpki;
            assert!(
                rel_err < 0.10,
                "{name}: generated MPKI {mpki:.2} vs target {:.2}",
                p.mpki
            );
        }
    }

    #[test]
    fn burst_sizes_average_to_blp() {
        let p = spec_by_name("mcf").unwrap(); // BLP 6.20
        let bursts = run_bursts(&p, 4000, 2);
        let mean =
            bursts.iter().map(|b| b.accesses.len()).sum::<usize>() as f64 / bursts.len() as f64;
        assert!(
            (mean - p.blp).abs() < 0.2,
            "mean burst {mean:.2} vs BLP {}",
            p.blp
        );
    }

    #[test]
    fn burst_banks_are_distinct() {
        let p = BenchmarkProfile::random_access();
        for burst in run_bursts(&p, 200, 3) {
            let banks: HashSet<_> = burst.accesses.iter().map(|a| a.global_bank()).collect();
            assert_eq!(banks.len(), burst.accesses.len());
        }
    }

    #[test]
    fn row_reuse_rate_tracks_rbl() {
        for name in ["libquantum", "mcf", "cactusADM"] {
            let p = spec_by_name(name).unwrap();
            let mut g = TraceGenerator::new(&p, shape(), 11);
            let mut last_row: std::collections::HashMap<GlobalBank, Row> = Default::default();
            let (mut hits, mut total) = (0u64, 0u64);
            for _ in 0..6000 {
                for a in g.next_burst().accesses {
                    let bank = a.global_bank();
                    if let Some(prev) = last_row.insert(bank, a.row) {
                        total += 1;
                        if prev == a.row {
                            hits += 1;
                        }
                    }
                }
            }
            let rbl = hits as f64 / total as f64;
            assert!(
                (rbl - p.rbl).abs() < 0.05,
                "{name}: shadow RBL {rbl:.3} vs target {:.3}",
                p.rbl
            );
        }
    }

    #[test]
    fn streaming_thread_stays_on_one_bank_until_row_change() {
        let p = BenchmarkProfile::streaming();
        let mut g = TraceGenerator::new(&p, shape(), 5);
        let mut bank_changes = 0;
        let mut row_changes = 0;
        let mut prev: Option<MemAddress> = None;
        for _ in 0..2000 {
            let b = g.next_burst();
            assert_eq!(b.accesses.len(), 1, "streaming bursts have size 1");
            let a = b.accesses[0];
            if let Some(p) = prev {
                if p.global_bank() != a.global_bank() {
                    bank_changes += 1;
                }
                if p.row != a.row || p.global_bank() != a.global_bank() {
                    row_changes += 1;
                }
            }
            prev = Some(a);
        }
        // RBL 0.99: roughly 1% row changes, and bank changes only at row
        // changes.
        assert!(row_changes < 60, "row changes {row_changes}");
        assert!(bank_changes <= row_changes);
    }

    #[test]
    fn next_burst_into_is_interchangeable_with_next_burst() {
        let p = spec_by_name("mcf").unwrap();
        let mut owned = TraceGenerator::new(&p, shape(), 42);
        let mut into = TraceGenerator::new(&p, shape(), 42);
        let mut buf = Vec::new();
        for i in 0..500 {
            let burst = owned.next_burst();
            // Alternate which variant the "into" generator uses, proving
            // they draw from the RNG identically and can interleave.
            if i % 2 == 0 {
                let gap = into.next_burst_into(&mut buf);
                assert_eq!(gap, burst.gap);
                assert_eq!(buf, burst.accesses);
            } else {
                assert_eq!(into.next_burst(), burst);
            }
        }
    }

    #[test]
    fn gaps_are_positive() {
        let p = spec_by_name("povray").unwrap(); // extremely sparse misses
        for b in run_bursts(&p, 50, 9) {
            assert!(b.gap >= 1);
        }
    }

    #[test]
    fn compute_only_guard() {
        let p = BenchmarkProfile::new("idle", 0.0, 0.5, 1.0);
        assert!(TraceGenerator::is_compute_only(&p));
        assert!(!TraceGenerator::is_compute_only(
            &spec_by_name("mcf").unwrap()
        ));
    }

    #[test]
    fn shape_from_system_config() {
        let cfg = tcm_types::SystemConfig::paper_baseline();
        let s = MachineShape::from(&cfg);
        assert_eq!(s.total_banks(), 16);
        assert_eq!(s.rows_per_bank, 16384);
    }
}
