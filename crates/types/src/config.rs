//! Static machine description: DRAM timing and system topology.
//!
//! [`SystemConfig::paper_baseline`] reproduces Table 3 of the paper:
//! 24 cores, 4 independent DRAM controllers, DDR2-800-like bank timing
//! with 4 banks and 2 KB rows per bank, 128-entry instruction windows and
//! 3-wide issue with at most one memory operation per cycle.

use crate::error::ConfigError;
use crate::ids::{ChannelId, ControllerId};
use std::fmt;
use std::ops::Range;

/// Upper bound on `banks_per_channel`, mirroring the `u128` occupancy
/// bitmask (`BankSet`) the DRAM crate uses to track busy banks per
/// channel. `tcm-types` cannot depend on `tcm-dram`, so the constant is
/// duplicated here; a cross-check test in `tcm-dram` keeps the two in
/// sync.
pub const MAX_BANKS_PER_CHANNEL: usize = 128;

/// Upper bound on a topology's total channel count. The largest machine
/// the paper evaluates has 8 channels (Table 8); the bound leaves room
/// for experiments while keeping a spec like `"4000000000x1"` from
/// allocating before it is refused.
pub const MAX_CHANNELS: usize = 64;

/// Hierarchical memory-system shape: `Topology -> Controller -> Channel
/// -> Bank`.
///
/// A topology is an ordered list of memory controllers, each owning a
/// contiguous, non-empty span of channels; channels are numbered densely
/// across the whole system in controller order. Bank count per channel
/// stays uniform (it lives in [`SystemConfig::banks_per_channel`]).
///
/// [`Topology::flat(n)`](Topology::flat) — one controller owning `n`
/// channels — reproduces the legacy flat `num_channels` configuration
/// bit-identically: a single controller means a single scheduler
/// arbitrating every channel, exactly as before. Multi-controller
/// topologies give each controller its own scheduler instance and
/// request queues, coordinated by the §5.3 meta-controller.
///
/// # Example
///
/// ```
/// use tcm_types::{ControllerId, Topology};
///
/// let t = Topology::parse("3+1")?;
/// assert_eq!(t.num_controllers(), 2);
/// assert_eq!(t.num_channels(), 4);
/// assert_eq!(t.channel_range(ControllerId::new(0)), 0..3);
/// assert_eq!(t.channel_range(ControllerId::new(1)), 3..4);
/// assert_eq!(t.to_string(), "3+1");
/// assert_eq!(Topology::parse("2x2")?, Topology::uniform(2, 2));
/// assert_eq!(Topology::parse("4")?, Topology::flat(4));
/// # Ok::<(), tcm_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Channels owned by each controller, in controller order.
    channels: Vec<usize>,
}

impl Topology {
    /// One controller owning `n` channels: the legacy flat shape.
    pub fn flat(n: usize) -> Self {
        Self { channels: vec![n] }
    }

    /// `controllers` controllers of `channels_each` channels each.
    pub fn uniform(controllers: usize, channels_each: usize) -> Self {
        Self {
            channels: vec![channels_each; controllers],
        }
    }

    /// A controller per entry, each owning the given channel count.
    pub fn asymmetric(channels: impl Into<Vec<usize>>) -> Self {
        Self {
            channels: channels.into(),
        }
    }

    /// Parses a topology spec: `"4"` (flat, one controller with 4
    /// channels), `"2x2"` (2 controllers x 2 channels each), or `"3+1"`
    /// (asymmetric per-controller channel counts).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the spec is malformed or describes
    /// an invalid topology (zero controllers or an empty controller).
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let num = |s: &str| -> Result<usize, ConfigError> {
            s.trim().parse().map_err(|_| {
                ConfigError::invalid("topology", "expected N, CxK or a+b+... channel counts")
            })
        };
        let topology = if let Some((controllers, each)) = spec.split_once('x') {
            let (controllers, each) = (num(controllers)?, num(each)?);
            // Bound the counts before `uniform` allocates one entry per
            // controller (each controller owns at least one channel).
            if controllers > MAX_CHANNELS || controllers.saturating_mul(each) > MAX_CHANNELS {
                return Err(too_many_channels());
            }
            Self::uniform(controllers, each)
        } else if spec.contains('+') {
            Self::asymmetric(spec.split('+').map(num).collect::<Result<Vec<_>, _>>()?)
        } else {
            Self::flat(num(spec)?)
        };
        topology.validate()?;
        Ok(topology)
    }

    /// Validates the shape: at least one controller, no empty controllers,
    /// at most [`MAX_CHANNELS`] channels in total.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the offending dimension.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.channels.is_empty() {
            return Err(ConfigError::invalid(
                "topology",
                "must have at least one controller",
            ));
        }
        if self.channels.contains(&0) {
            return Err(ConfigError::invalid(
                "num_channels",
                "every controller must own at least one channel",
            ));
        }
        let total = self
            .channels
            .iter()
            .try_fold(0usize, |sum, &n| sum.checked_add(n));
        if total.is_none_or(|total| total > MAX_CHANNELS) {
            return Err(too_many_channels());
        }
        Ok(())
    }

    /// Number of memory controllers.
    #[inline]
    pub fn num_controllers(&self) -> usize {
        self.channels.len()
    }

    /// Total channels across all controllers.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.iter().sum()
    }

    /// Channels owned by controller `c`.
    #[inline]
    pub fn channels_of(&self, c: ControllerId) -> usize {
        self.channels[c.index()]
    }

    /// Per-controller channel counts, in controller order.
    #[inline]
    pub fn per_controller(&self) -> &[usize] {
        &self.channels
    }

    /// The dense global channel indices owned by controller `c`.
    pub fn channel_range(&self, c: ControllerId) -> Range<usize> {
        let start: usize = self.channels[..c.index()].iter().sum();
        start..start + self.channels[c.index()]
    }

    /// The controller owning global channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range for this topology.
    pub fn controller_of(&self, ch: ChannelId) -> ControllerId {
        match self.partition(ch.index()) {
            Ok((c, _)) => c,
            Err(_) => panic!(
                "channel {ch} out of range for a {}-channel topology",
                self.num_channels()
            ),
        }
    }

    /// Splits a dense global channel index into its owning controller
    /// and the channel's *local* index within that controller — the
    /// non-panicking two-way form of [`Topology::controller_of`].
    /// Fault plans and engines that address channels under
    /// multi-controller topologies must route through this instead of
    /// assuming flat indexing, so an out-of-range index is a typed
    /// error rather than silent aliasing.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `global_channel` is out of range
    /// for this topology.
    pub fn partition(&self, global_channel: usize) -> Result<(ControllerId, usize), ConfigError> {
        let mut remaining = global_channel;
        for (c, &owned) in self.channels.iter().enumerate() {
            if remaining < owned {
                return Ok((ControllerId::new(c), remaining));
            }
            remaining -= owned;
        }
        Err(ConfigError::invalid(
            "channel",
            format!(
                "channel index {global_channel} out of range for a {}-channel topology",
                self.num_channels()
            ),
        ))
    }

    /// Iterates the controller identifiers in order.
    pub fn controllers(&self) -> impl Iterator<Item = ControllerId> {
        (0..self.channels.len()).map(ControllerId::new)
    }
}

fn too_many_channels() -> ConfigError {
    ConfigError::invalid(
        "num_channels",
        format!("a topology has at most {MAX_CHANNELS} channels in total"),
    )
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.channels.len() == 1 {
            return write!(f, "{}", self.channels[0]);
        }
        if self.channels.windows(2).all(|w| w[0] == w[1]) {
            return write!(f, "{}x{}", self.channels.len(), self.channels[0]);
        }
        for (i, n) in self.channels.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

/// DRAM access timing expressed in *core* cycles (5 GHz core clock).
///
/// The model is bank-service-time granular: a request occupies its bank
/// for an access-phase whose length depends on the row-buffer state, then
/// occupies the channel's shared data bus for `bus_burst` cycles, and the
/// data reaches the core `fixed_overhead` cycles later. The defaults are
/// calibrated so that *uncontended* round-trip latencies match the paper:
///
/// | row-buffer state | paper | this model |
/// |------------------|-------|------------|
/// | hit              | 200   | `cl + bus_burst + fixed_overhead` = 200 |
/// | closed           | 300   | `rcd + cl + bus_burst + fixed_overhead` = 300 |
/// | conflict         | 400   | `rp + rcd + cl + bus_burst + fixed_overhead` = 400 |
///
/// # Example
///
/// ```
/// use tcm_types::{DramTiming, RowState};
///
/// let t = DramTiming::ddr2_800();
/// assert_eq!(t.round_trip(RowState::Hit), 200);
/// assert_eq!(t.round_trip(RowState::Closed), 300);
/// assert_eq!(t.round_trip(RowState::Conflict), 400);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramTiming {
    /// Precharge latency (tRP), core cycles.
    pub rp: u64,
    /// Activate (row open) latency (tRCD), core cycles.
    pub rcd: u64,
    /// Column access latency (tCL), core cycles.
    pub cl: u64,
    /// Data-bus occupancy per 32-byte transfer (BL/2), core cycles.
    pub bus_burst: u64,
    /// Controller + on-chip interconnect overhead added to every access,
    /// core cycles.
    pub fixed_overhead: u64,
}

impl DramTiming {
    /// DDR2-800-like timing calibrated to the paper's 200/300/400-cycle
    /// uncontended round trips (Table 3).
    pub const fn ddr2_800() -> Self {
        Self {
            rp: 100,
            rcd: 100,
            cl: 75,
            bus_burst: 50,
            fixed_overhead: 75,
        }
    }

    /// Cycles the bank's access phase takes for a given row-buffer state
    /// (excludes the data-bus transfer).
    pub const fn access_phase(&self, state: crate::RowState) -> u64 {
        match state {
            crate::RowState::Hit => self.cl,
            crate::RowState::Closed => self.rcd + self.cl,
            crate::RowState::Conflict => self.rp + self.rcd + self.cl,
        }
    }

    /// Uncontended round-trip latency for a given row-buffer state: the
    /// cycles from scheduling the request at an idle bank until the data
    /// reaches the core.
    pub const fn round_trip(&self, state: crate::RowState) -> u64 {
        self.access_phase(state) + self.bus_burst + self.fixed_overhead
    }

    /// Validates that the timing is usable.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any latency component that must be
    /// non-zero (`cl`, `bus_burst`) is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cl == 0 {
            return Err(ConfigError::invalid("cl", "tCL must be non-zero"));
        }
        if self.bus_burst == 0 {
            return Err(ConfigError::invalid("bus_burst", "burst must be non-zero"));
        }
        Ok(())
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::ddr2_800()
    }
}

/// Complete static description of the simulated CMP + memory system.
///
/// Construct via [`SystemConfig::paper_baseline`] (Table 3 of the paper)
/// or [`SystemConfig::builder`] for variations, e.g. the Table 8
/// sensitivity sweeps over core count and controller count.
///
/// # Example
///
/// ```
/// use tcm_types::{SystemConfig, Topology};
///
/// let cfg = SystemConfig::builder()
///     .num_threads(8)
///     .num_channels(2)
///     .build()?;
/// assert_eq!(cfg.total_banks(), 8);
/// // Multi-controller shapes go through the hierarchical topology API:
/// let numa = SystemConfig::builder()
///     .topology(Topology::uniform(2, 2))
///     .build()?;
/// assert_eq!(numa.num_channels(), 4);
/// assert_eq!(numa.topology.num_controllers(), 2);
/// # Ok::<(), tcm_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Number of hardware threads (= cores; one thread per core).
    pub num_threads: usize,
    /// The controller/channel hierarchy.
    /// [`Topology::flat(n)`](Topology::flat) reproduces the legacy flat
    /// `num_channels: n` configuration bit-identically.
    pub topology: Topology,
    /// DRAM banks per channel.
    pub banks_per_channel: usize,
    /// Rows per bank (16384 in the baseline: 2 KB rows, per Table 2's
    /// `log2 Nrows = 14`).
    pub rows_per_bank: usize,
    /// Instruction window (ROB) entries per core.
    pub window_size: usize,
    /// Maximum instructions committed per core per cycle.
    pub issue_width: usize,
    /// Maximum outstanding misses per core (MSHRs).
    pub mshrs_per_core: usize,
    /// Per-controller request buffer capacity.
    pub request_buffer: usize,
    /// DRAM timing parameters.
    pub timing: DramTiming,
}

impl SystemConfig {
    /// The paper's baseline configuration (Table 3): 24 cores, 4 memory
    /// controllers, 4 banks per controller, 128-entry windows, 3-wide
    /// issue, 128-entry request buffers, DDR2-800 timing.
    pub fn paper_baseline() -> Self {
        Self {
            num_threads: 24,
            topology: Topology::flat(4),
            banks_per_channel: 4,
            rows_per_bank: 16384,
            window_size: 128,
            issue_width: 3,
            mshrs_per_core: 32,
            request_buffer: 128,
            timing: DramTiming::ddr2_800(),
        }
    }

    /// Starts building a configuration from the paper baseline.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::new()
    }

    /// Total number of memory channels across all controllers.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.topology.num_channels()
    }

    /// Total number of banks across all channels.
    #[inline]
    pub fn total_banks(&self) -> usize {
        self.num_channels() * self.banks_per_channel
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any dimension is zero, the topology
    /// is malformed, `banks_per_channel` overflows the DRAM crate's
    /// `u128` bank-occupancy bitmask, or the timing parameters are
    /// invalid.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let nonzero: [(&str, usize); 7] = [
            ("num_threads", self.num_threads),
            ("banks_per_channel", self.banks_per_channel),
            ("rows_per_bank", self.rows_per_bank),
            ("window_size", self.window_size),
            ("issue_width", self.issue_width),
            ("mshrs_per_core", self.mshrs_per_core),
            ("request_buffer", self.request_buffer),
        ];
        for (name, value) in nonzero {
            if value == 0 {
                return Err(ConfigError::invalid(name, "must be non-zero"));
            }
        }
        self.topology.validate()?;
        if self.banks_per_channel > MAX_BANKS_PER_CHANNEL {
            return Err(ConfigError::invalid(
                "banks_per_channel",
                "exceeds the 128-bank occupancy bitmask a channel can track",
            ));
        }
        self.timing.validate()
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// Builder for [`SystemConfig`], seeded with the paper baseline.
///
/// Non-consuming builder per C-BUILDER; call [`SystemConfigBuilder::build`]
/// to validate and obtain the config.
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Creates a builder initialized to [`SystemConfig::paper_baseline`].
    pub fn new() -> Self {
        Self {
            cfg: SystemConfig::paper_baseline(),
        }
    }

    /// Sets the number of threads/cores.
    pub fn num_threads(&mut self, n: usize) -> &mut Self {
        self.cfg.num_threads = n;
        self
    }

    /// Sets a flat topology: one controller owning `n` channels — the
    /// legacy configuration surface, preserved bit-identically.
    pub fn num_channels(&mut self, n: usize) -> &mut Self {
        self.cfg.topology = Topology::flat(n);
        self
    }

    /// Sets the controller/channel hierarchy.
    pub fn topology(&mut self, topology: Topology) -> &mut Self {
        self.cfg.topology = topology;
        self
    }

    /// Sets the number of banks per channel.
    pub fn banks_per_channel(&mut self, n: usize) -> &mut Self {
        self.cfg.banks_per_channel = n;
        self
    }

    /// Sets the number of rows per bank.
    pub fn rows_per_bank(&mut self, n: usize) -> &mut Self {
        self.cfg.rows_per_bank = n;
        self
    }

    /// Sets the per-core instruction window size.
    pub fn window_size(&mut self, n: usize) -> &mut Self {
        self.cfg.window_size = n;
        self
    }

    /// Sets the per-core issue width.
    pub fn issue_width(&mut self, n: usize) -> &mut Self {
        self.cfg.issue_width = n;
        self
    }

    /// Sets the number of MSHRs per core.
    pub fn mshrs_per_core(&mut self, n: usize) -> &mut Self {
        self.cfg.mshrs_per_core = n;
        self
    }

    /// Sets the per-controller request buffer capacity.
    pub fn request_buffer(&mut self, n: usize) -> &mut Self {
        self.cfg.request_buffer = n;
        self
    }

    /// Sets the DRAM timing parameters.
    pub fn timing(&mut self, timing: DramTiming) -> &mut Self {
        self.cfg.timing = timing;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent (see
    /// [`SystemConfig::validate`]).
    pub fn build(&self) -> Result<SystemConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg.clone())
    }
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::RowState;

    #[test]
    fn baseline_matches_table_3() {
        let cfg = SystemConfig::paper_baseline();
        assert_eq!(cfg.num_threads, 24);
        assert_eq!(cfg.num_channels(), 4);
        assert_eq!(cfg.topology, Topology::flat(4));
        assert_eq!(cfg.banks_per_channel, 4);
        assert_eq!(cfg.window_size, 128);
        assert_eq!(cfg.issue_width, 3);
        assert_eq!(cfg.total_banks(), 16);
        cfg.validate().expect("baseline must validate");
    }

    #[test]
    fn round_trips_match_paper() {
        let t = DramTiming::ddr2_800();
        assert_eq!(t.round_trip(RowState::Hit), 200);
        assert_eq!(t.round_trip(RowState::Closed), 300);
        assert_eq!(t.round_trip(RowState::Conflict), 400);
    }

    #[test]
    fn access_phase_ordering() {
        let t = DramTiming::ddr2_800();
        assert!(t.access_phase(RowState::Hit) < t.access_phase(RowState::Closed));
        assert!(t.access_phase(RowState::Closed) < t.access_phase(RowState::Conflict));
    }

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = SystemConfig::builder()
            .num_threads(8)
            .num_channels(2)
            .banks_per_channel(8)
            .build()
            .unwrap();
        assert_eq!(cfg.num_threads, 8);
        assert_eq!(cfg.total_banks(), 16);
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        assert!(SystemConfig::builder().num_threads(0).build().is_err());
        assert!(SystemConfig::builder().num_channels(0).build().is_err());
        assert!(SystemConfig::builder().issue_width(0).build().is_err());
        let bad_timing = DramTiming {
            cl: 0,
            ..DramTiming::ddr2_800()
        };
        assert!(SystemConfig::builder().timing(bad_timing).build().is_err());
    }

    #[test]
    fn error_message_names_the_field() {
        let err = SystemConfig::builder().window_size(0).build().unwrap_err();
        assert!(err.to_string().contains("window_size"));
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(SystemConfig::default(), SystemConfig::paper_baseline());
        assert_eq!(DramTiming::default(), DramTiming::ddr2_800());
    }

    #[test]
    fn topology_parse_covers_all_three_spellings() {
        assert_eq!(Topology::parse("4").unwrap(), Topology::flat(4));
        assert_eq!(Topology::parse("2x2").unwrap(), Topology::uniform(2, 2));
        assert_eq!(
            Topology::parse("3+1").unwrap(),
            Topology::asymmetric([3, 1])
        );
        assert!(Topology::parse("").is_err());
        assert!(Topology::parse("0").is_err());
        assert!(Topology::parse("2x0").is_err());
        assert!(Topology::parse("3+0").is_err());
        assert!(Topology::parse("banana").is_err());
    }

    #[test]
    fn topology_counts_are_bounded_before_allocating() {
        // Each is refused before anything is sized by its counts, a sum
        // that overflows included.
        for spec in [
            "18446744073709551615x1",
            "4000000000x1",
            "4000000000x0",
            "1x4000000000",
            "18446744073709551615+1",
            "65",
            "9x8",
        ] {
            let err = Topology::parse(spec).unwrap_err();
            assert_eq!(err.field(), "num_channels", "{spec}");
        }
        assert_eq!(Topology::parse("8x8").unwrap().num_channels(), MAX_CHANNELS);
        assert!(Topology::asymmetric([usize::MAX, 1]).validate().is_err());
    }

    #[test]
    fn topology_display_round_trips_through_parse() {
        for spec in ["4", "1", "2x2", "4x1", "3+1", "1+2+3"] {
            let t = Topology::parse(spec).unwrap();
            assert_eq!(Topology::parse(&t.to_string()).unwrap(), t, "{spec}");
        }
        // Uniform shapes render in CxK form even when built asymmetric.
        assert_eq!(Topology::asymmetric([2, 2]).to_string(), "2x2");
        assert_eq!(Topology::flat(4).to_string(), "4");
    }

    #[test]
    fn topology_channel_ranges_partition_the_channels() {
        let t = Topology::asymmetric([3, 1, 2]);
        assert_eq!(t.num_controllers(), 3);
        assert_eq!(t.num_channels(), 6);
        assert_eq!(t.channel_range(ControllerId::new(0)), 0..3);
        assert_eq!(t.channel_range(ControllerId::new(1)), 3..4);
        assert_eq!(t.channel_range(ControllerId::new(2)), 4..6);
        for ch in 0..6 {
            let owner = t.controller_of(ChannelId::new(ch));
            assert!(t.channel_range(owner).contains(&ch), "channel {ch}");
        }
    }

    #[test]
    fn partition_splits_global_indices_and_rejects_out_of_range() {
        let t = Topology::asymmetric([3, 1, 2]);
        assert_eq!(t.partition(0).unwrap(), (ControllerId::new(0), 0));
        assert_eq!(t.partition(2).unwrap(), (ControllerId::new(0), 2));
        assert_eq!(t.partition(3).unwrap(), (ControllerId::new(1), 0));
        assert_eq!(t.partition(4).unwrap(), (ControllerId::new(2), 0));
        assert_eq!(t.partition(5).unwrap(), (ControllerId::new(2), 1));
        let err = t.partition(6).unwrap_err();
        assert_eq!(err.field(), "channel");
        assert!(err.reason().contains("out of range"));
        // Consistency with the panicking single-way form.
        for ch in 0..6 {
            let (owner, local) = t.partition(ch).unwrap();
            assert_eq!(owner, t.controller_of(ChannelId::new(ch)));
            assert_eq!(t.channel_range(owner).start + local, ch);
        }
    }

    #[test]
    fn bank_counts_past_the_bitmask_are_rejected() {
        let ok = SystemConfig::builder()
            .banks_per_channel(MAX_BANKS_PER_CHANNEL)
            .build();
        assert!(ok.is_ok());
        let err = SystemConfig::builder()
            .banks_per_channel(MAX_BANKS_PER_CHANNEL + 1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("banks_per_channel"));
    }

    #[test]
    fn multi_controller_configs_validate() {
        let cfg = SystemConfig::builder()
            .num_threads(8)
            .topology(Topology::asymmetric([3, 1]))
            .build()
            .unwrap();
        assert_eq!(cfg.num_channels(), 4);
        assert_eq!(cfg.total_banks(), 16);
        assert!(SystemConfig::builder()
            .topology(Topology::asymmetric([]))
            .build()
            .is_err());
        assert!(SystemConfig::builder()
            .topology(Topology::asymmetric([2, 0]))
            .build()
            .is_err());
    }
}
