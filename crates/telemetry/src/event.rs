//! The typed trace-event vocabulary.
//!
//! Every observable state transition the simulator can report is one
//! [`TraceEvent`] variant. Events are plain data: emitting one never
//! influences the simulation (telemetry is observation-only by
//! construction — there is no way back from an event to the scheduler).

use std::fmt;
use tcm_chaos::FaultKind;
use tcm_types::Cycle;

/// Which cluster a thread was assigned to at a quantum boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterKind {
    /// Latency-sensitive (low MPKI): prioritized over everything.
    Latency,
    /// Bandwidth-sensitive: shuffled to spread the interference.
    Bandwidth,
}

impl ClusterKind {
    /// Stable lowercase name used in exports and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            ClusterKind::Latency => "latency",
            ClusterKind::Bandwidth => "bandwidth",
        }
    }

    /// Parses the output of [`ClusterKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "latency" => Some(ClusterKind::Latency),
            "bandwidth" => Some(ClusterKind::Bandwidth),
            _ => None,
        }
    }
}

/// Which shuffling algorithm a quantum ended up using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleAlgo {
    /// Niceness-driven insertion shuffle.
    Insertion,
    /// Uniform random permutations.
    Random,
    /// Plain round-robin rotation.
    RoundRobin,
    /// Weight-proportional random permutations (paper §3.6).
    WeightedRandom,
    /// Ablation: fixed ascending-niceness ranking, never advanced.
    Static,
}

impl ShuffleAlgo {
    /// Every algorithm, for parse tables.
    pub const ALL: [ShuffleAlgo; 5] = [
        ShuffleAlgo::Insertion,
        ShuffleAlgo::Random,
        ShuffleAlgo::RoundRobin,
        ShuffleAlgo::WeightedRandom,
        ShuffleAlgo::Static,
    ];

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            ShuffleAlgo::Insertion => "insertion",
            ShuffleAlgo::Random => "random",
            ShuffleAlgo::RoundRobin => "round-robin",
            ShuffleAlgo::WeightedRandom => "weighted-random",
            ShuffleAlgo::Static => "static",
        }
    }

    /// Parses the output of [`ShuffleAlgo::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// Row-buffer state a serviced request encountered, as trace vocabulary
/// (mirrors `tcm_types::RowState` without depending on scheduler code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The requested row was already open.
    Hit,
    /// The bank was precharged; an activate was needed.
    Closed,
    /// A different row was open; precharge + activate were needed.
    Conflict,
}

impl RowOutcome {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            RowOutcome::Hit => "hit",
            RowOutcome::Closed => "closed",
            RowOutcome::Conflict => "conflict",
        }
    }

    /// Parses the output of [`RowOutcome::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "hit" => Some(RowOutcome::Hit),
            "closed" => Some(RowOutcome::Closed),
            "conflict" => Some(RowOutcome::Conflict),
            _ => None,
        }
    }
}

/// Which monitor counter tripped TCM's plausibility guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorCounter {
    /// Misses per kilo-instruction.
    Mpki,
    /// Row-buffer locality (fraction in `[0, 1]`).
    Rbl,
    /// Bank-level parallelism (banks in `[0, total_banks]`).
    Blp,
}

impl MonitorCounter {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            MonitorCounter::Mpki => "mpki",
            MonitorCounter::Rbl => "rbl",
            MonitorCounter::Blp => "blp",
        }
    }

    /// Parses the output of [`MonitorCounter::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "mpki" => Some(MonitorCounter::Mpki),
            "rbl" => Some(MonitorCounter::Rbl),
            "blp" => Some(MonitorCounter::Blp),
            _ => None,
        }
    }
}

/// Why the TCM meta-controller quarantined one controller's monitor
/// samples instead of degrading the whole system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A controller that used to supply monitor samples at quantum
    /// boundaries suddenly reported none.
    StaleSample,
    /// A controller reported physically impossible aggregates (e.g.
    /// more shadow row hits than accesses).
    ImplausibleAggregate,
}

impl QuarantineReason {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            QuarantineReason::StaleSample => "stale-sample",
            QuarantineReason::ImplausibleAggregate => "implausible-aggregate",
        }
    }

    /// Parses the output of [`QuarantineReason::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "stale-sample" => Some(QuarantineReason::StaleSample),
            "implausible-aggregate" => Some(QuarantineReason::ImplausibleAggregate),
            _ => None,
        }
    }
}

/// One trip of a policy's self-protection machinery at a quantum
/// boundary.
///
/// [`ImplausibleCounter`](DegradationAnomaly::ImplausibleCounter) is
/// the whole-system guard: a monitor counter fell outside what the
/// hardware can physically produce, so the policy degrades to a
/// fallback ordering for the quantum. The two controller variants are
/// the meta-controller's *per-controller* guard on multi-controller
/// topologies: one controller's samples are quarantined (that shard
/// falls back to local FR-FCFS) while the healthy majority keeps TCM
/// clustering, and the controller is re-admitted after enough clean
/// quanta.
///
/// The `Display` form of `ImplausibleCounter` reproduces the
/// historical free-form anomaly string exactly, so `anomalies()`-style
/// shims stay byte-compatible.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationAnomaly {
    /// A monitor counter was implausible; the whole policy degraded
    /// for this quantum.
    ImplausibleCounter {
        /// Cycle of the quantum boundary that detected the anomaly.
        cycle: Cycle,
        /// Thread whose counter was implausible.
        thread: usize,
        /// The offending counter.
        counter: MonitorCounter,
        /// The implausible value observed.
        value: f64,
        /// Upper bound of the legal range (1.0 for RBL, total banks
        /// for BLP; unused for MPKI, whose only bound is `>= 0`).
        upper: f64,
    },
    /// The meta-controller quarantined one controller's samples.
    ControllerQuarantined {
        /// Cycle of the quantum boundary that detected the anomaly.
        cycle: Cycle,
        /// Index of the quarantined controller.
        controller: usize,
        /// What tripped the guard.
        reason: QuarantineReason,
    },
    /// A quarantined controller supplied enough consecutive clean
    /// samples and was re-admitted to the cluster aggregation.
    ControllerReadmitted {
        /// Cycle of the quantum boundary that re-admitted it.
        cycle: Cycle,
        /// Index of the re-admitted controller.
        controller: usize,
        /// Consecutive clean quanta it took to earn re-admission.
        clean_quanta: u64,
    },
}

impl DegradationAnomaly {
    /// Cycle of the quantum boundary the anomaly was detected at.
    pub fn cycle(&self) -> Cycle {
        match self {
            DegradationAnomaly::ImplausibleCounter { cycle, .. }
            | DegradationAnomaly::ControllerQuarantined { cycle, .. }
            | DegradationAnomaly::ControllerReadmitted { cycle, .. } => *cycle,
        }
    }
}

impl fmt::Display for DegradationAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationAnomaly::ImplausibleCounter {
                cycle,
                thread: t,
                counter,
                value: v,
                upper,
            } => {
                write!(f, "cycle {cycle}: implausible monitor data (")?;
                match counter {
                    MonitorCounter::Mpki => write!(f, "thread {t} MPKI {v} (must be >= 0)")?,
                    MonitorCounter::Rbl => write!(f, "thread {t} RBL {v} (must be in [0, 1])")?,
                    MonitorCounter::Blp => {
                        write!(f, "thread {t} BLP {v} (must be in [0, {upper}])")?;
                    }
                }
                write!(f, "); falling back to FR-FCFS for this quantum")
            }
            DegradationAnomaly::ControllerQuarantined {
                cycle,
                controller,
                reason,
            } => write!(
                f,
                "cycle {cycle}: controller mc{controller} quarantined ({}); healthy \
                 controllers keep TCM clustering, mc{controller} falls back to local \
                 FR-FCFS",
                reason.name()
            ),
            DegradationAnomaly::ControllerReadmitted {
                cycle,
                controller,
                clean_quanta,
            } => write!(
                f,
                "cycle {cycle}: controller mc{controller} re-admitted after \
                 {clean_quanta} clean quanta"
            ),
        }
    }
}

/// One structured trace event. See the module docs of `tcm-telemetry`
/// for the taxonomy; every variant carries the cycle it happened at.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A TCM quantum boundary ran (monitors harvested, clusters rebuilt
    /// — or, when `degraded`, the plausibility guard rejected the data).
    QuantumBoundary {
        /// Boundary cycle.
        cycle: Cycle,
        /// Zero-based quantum index.
        index: u64,
        /// Whether this quantum fell back to FR-FCFS ordering.
        degraded: bool,
    },
    /// One thread's cluster assignment at a quantum boundary, with the
    /// monitor inputs that drove it and the resulting priority rank.
    ClusterAssignment {
        /// Boundary cycle.
        cycle: Cycle,
        /// The thread.
        thread: usize,
        /// Cluster it landed in.
        cluster: ClusterKind,
        /// Priority rank after the boundary (higher = scheduled first);
        /// for the bandwidth cluster this is the niceness-shuffled rank.
        rank: usize,
        /// Weight-scaled MPKI input to clustering.
        mpki: f64,
        /// Row-buffer locality input.
        rbl: f64,
        /// Bank-level parallelism input.
        blp: f64,
    },
    /// A shuffle interval advanced the bandwidth cluster's permutation.
    ShuffleApplied {
        /// Shuffle cycle.
        cycle: Cycle,
        /// The algorithm in effect this quantum.
        algo: ShuffleAlgo,
    },
    /// A request was issued to its bank.
    RequestServiced {
        /// Issue cycle.
        cycle: Cycle,
        /// Requesting thread.
        thread: usize,
        /// Channel index.
        channel: usize,
        /// Bank index within the channel.
        bank: usize,
        /// Row-buffer state the request encountered.
        outcome: RowOutcome,
    },
    /// A bank opened a row (implied activate).
    BankActivate {
        /// Activate cycle.
        cycle: Cycle,
        /// Channel index.
        channel: usize,
        /// Bank index within the channel.
        bank: usize,
        /// The row opened.
        row: usize,
    },
    /// A bank closed its open row (implied precharge, before a
    /// conflicting activate).
    BankPrecharge {
        /// Precharge cycle.
        cycle: Cycle,
        /// Channel index.
        channel: usize,
        /// Bank index within the channel.
        bank: usize,
    },
    /// A policy's plausibility guard degraded it for one quantum.
    DegradationFallback(DegradationAnomaly),
    /// A `tcm-chaos` fault fired at its execution site.
    ChaosInjected {
        /// Injection cycle.
        cycle: Cycle,
        /// The fault class that fired.
        kind: FaultKind,
    },
}

impl TraceEvent {
    /// The cycle the event happened at.
    pub fn cycle(&self) -> Cycle {
        match self {
            TraceEvent::QuantumBoundary { cycle, .. }
            | TraceEvent::ClusterAssignment { cycle, .. }
            | TraceEvent::ShuffleApplied { cycle, .. }
            | TraceEvent::RequestServiced { cycle, .. }
            | TraceEvent::BankActivate { cycle, .. }
            | TraceEvent::BankPrecharge { cycle, .. }
            | TraceEvent::ChaosInjected { cycle, .. } => *cycle,
            TraceEvent::DegradationFallback(a) => a.cycle(),
        }
    }

    /// Stable snake_case kind tag (the `"event"` field of the JSONL
    /// export and the event name in the Chrome-trace export).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::QuantumBoundary { .. } => "quantum_boundary",
            TraceEvent::ClusterAssignment { .. } => "cluster_assignment",
            TraceEvent::ShuffleApplied { .. } => "shuffle_applied",
            TraceEvent::RequestServiced { .. } => "request_serviced",
            TraceEvent::BankActivate { .. } => "bank_activate",
            TraceEvent::BankPrecharge { .. } => "bank_precharge",
            TraceEvent::DegradationFallback(_) => "degradation_fallback",
            TraceEvent::ChaosInjected { .. } => "chaos_injected",
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn anomaly_display_matches_the_historical_string() {
        let a = DegradationAnomaly::ImplausibleCounter {
            cycle: 1_000_000,
            thread: 1,
            counter: MonitorCounter::Rbl,
            value: -3.5,
            upper: 1.0,
        };
        assert_eq!(
            a.to_string(),
            "cycle 1000000: implausible monitor data (thread 1 RBL -3.5 \
             (must be in [0, 1])); falling back to FR-FCFS for this quantum"
        );
        let b = DegradationAnomaly::ImplausibleCounter {
            cycle: 7,
            thread: 0,
            counter: MonitorCounter::Blp,
            value: 99.0,
            upper: 16.0,
        };
        assert!(b.to_string().contains("BLP 99 (must be in [0, 16])"));
        let c = DegradationAnomaly::ImplausibleCounter {
            cycle: 7,
            thread: 2,
            counter: MonitorCounter::Mpki,
            value: f64::NAN,
            upper: f64::INFINITY,
        };
        assert!(c.to_string().contains("MPKI NaN (must be >= 0)"));
    }

    #[test]
    fn quarantine_anomalies_name_the_controller() {
        let q = DegradationAnomaly::ControllerQuarantined {
            cycle: 2_000_000,
            controller: 3,
            reason: QuarantineReason::StaleSample,
        };
        let msg = q.to_string();
        assert!(msg.contains("cycle 2000000"), "{msg}");
        assert!(msg.contains("mc3 quarantined (stale-sample)"), "{msg}");
        assert!(msg.contains("falls back to local FR-FCFS"), "{msg}");
        assert_eq!(q.cycle(), 2_000_000);
        let r = DegradationAnomaly::ControllerReadmitted {
            cycle: 5_000_000,
            controller: 3,
            clean_quanta: 2,
        };
        let msg = r.to_string();
        assert!(
            msg.contains("mc3 re-admitted after 2 clean quanta"),
            "{msg}"
        );
        assert_eq!(r.cycle(), 5_000_000);
    }

    #[test]
    fn names_round_trip() {
        for algo in ShuffleAlgo::ALL {
            assert_eq!(ShuffleAlgo::from_name(algo.name()), Some(algo));
        }
        for outcome in [RowOutcome::Hit, RowOutcome::Closed, RowOutcome::Conflict] {
            assert_eq!(RowOutcome::from_name(outcome.name()), Some(outcome));
        }
        for counter in [
            MonitorCounter::Mpki,
            MonitorCounter::Rbl,
            MonitorCounter::Blp,
        ] {
            assert_eq!(MonitorCounter::from_name(counter.name()), Some(counter));
        }
        for reason in [
            QuarantineReason::StaleSample,
            QuarantineReason::ImplausibleAggregate,
        ] {
            assert_eq!(QuarantineReason::from_name(reason.name()), Some(reason));
        }
        for cluster in [ClusterKind::Latency, ClusterKind::Bandwidth] {
            assert_eq!(ClusterKind::from_name(cluster.name()), Some(cluster));
        }
        assert_eq!(ShuffleAlgo::from_name("nope"), None);
    }

    #[test]
    fn cycle_accessor_covers_every_variant() {
        let events = [
            TraceEvent::QuantumBoundary {
                cycle: 1,
                index: 0,
                degraded: false,
            },
            TraceEvent::ShuffleApplied {
                cycle: 2,
                algo: ShuffleAlgo::Random,
            },
            TraceEvent::BankPrecharge {
                cycle: 3,
                channel: 0,
                bank: 0,
            },
            TraceEvent::DegradationFallback(DegradationAnomaly::ImplausibleCounter {
                cycle: 4,
                thread: 0,
                counter: MonitorCounter::Mpki,
                value: -1.0,
                upper: f64::INFINITY,
            }),
            TraceEvent::DegradationFallback(DegradationAnomaly::ControllerQuarantined {
                cycle: 5,
                controller: 1,
                reason: QuarantineReason::ImplausibleAggregate,
            }),
            TraceEvent::DegradationFallback(DegradationAnomaly::ControllerReadmitted {
                cycle: 6,
                controller: 1,
                clean_quanta: 3,
            }),
        ];
        assert_eq!(
            events.iter().map(TraceEvent::cycle).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6]
        );
    }
}
