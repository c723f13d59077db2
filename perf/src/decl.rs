//! The benchmark's declared surface: workload names and every metric
//! a run prints, with its unit and direction. `BENCHMARK.json` at the
//! repository root declares the same lists (plus each end-to-end
//! bound); a unit test keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Whether `a` reads better than `b` in this direction.
    pub fn prefers(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperFlat,
    Paper2x2,
    ServeStream,
    ServeRecover,
}

impl Workload {
    /// Every workload, in the order suites interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFlat,
        Workload::Paper2x2,
        Workload::ServeStream,
        Workload::ServeRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFlat => "paper-flat",
            Workload::Paper2x2 => "paper-2x2",
            Workload::ServeStream => "serve-stream",
            Workload::ServeRecover => "serve-recover",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `compare` judges `metric` on this workload. A paper-*
    /// round is one job, so there its job percentiles only restate
    /// `grid_wall_s` (p50) or the slowest of a few rounds (p90); they
    /// are emitted, because every run reports every end-to-end metric,
    /// but not judged.
    pub fn judges(self, metric: &str) -> bool {
        let restated = matches!(metric, "job_p50_s" | "job_p90_s");
        !(restated && matches!(self, Workload::PaperFlat | Workload::Paper2x2))
    }
}

/// `compare` treats a change or spread of `setup_s` as within its bound
/// when it is within `bound` × median or this many seconds, whichever
/// is larger: a start-up of a few milliseconds moves by a fraction of
/// a millisecond with the machine.
pub const SETUP_FLOOR_S: f64 = 0.025;

impl Metric {
    /// The absolute floor under this metric's relative bound.
    pub fn floor(&self) -> f64 {
        if self.name == "setup_s" {
            SETUP_FLOOR_S
        } else {
            0.0
        }
    }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    lower("grid_wall_s", "s"),
    lower("job_p50_s", "s"),
    lower("job_p90_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
];

/// Policies of the paper lineup, as per-layer metric name segments.
pub const POLICIES: [&str; 5] = ["fr-fcfs", "stfm", "par-bs", "atlas", "tcm"];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    lower("sim.alone.busy_s", "s"),
    lower("sim.alone.runs", "count"),
    lower("sim.cells.busy_s", "s"),
    lower("sim.engine.self_s", "s"),
    lower("sim.engine.ns_per_request", "ns"),
    higher("sim.requests", "count"),
    higher("sim.multi.host_scaling", "x"),
    lower("sim.checkpoint.cell_ms", "ms"),
    lower("workload.gen.ns_per_access", "ns"),
    lower("sched.fr-fcfs.busy_s", "s"),
    lower("sched.fr-fcfs.pick_ns", "ns"),
    higher("sched.fr-fcfs.picks", "count"),
    lower("sched.stfm.busy_s", "s"),
    lower("sched.stfm.pick_ns", "ns"),
    higher("sched.stfm.picks", "count"),
    lower("sched.par-bs.busy_s", "s"),
    lower("sched.par-bs.pick_ns", "ns"),
    higher("sched.par-bs.picks", "count"),
    lower("sched.atlas.busy_s", "s"),
    lower("sched.atlas.pick_ns", "ns"),
    higher("sched.atlas.picks", "count"),
    lower("sched.tcm.busy_s", "s"),
    lower("sched.tcm.pick_ns", "ns"),
    higher("sched.tcm.picks", "count"),
    lower("core.tcm.tick_s", "s"),
    lower("core.meta.exchange_s", "s"),
    higher("core.meta.exchanges", "count"),
    lower("serve.alone_ms", "ms"),
    lower("serve.submit.ack_ms", "ms"),
    lower("serve.job.first_cell_ms", "ms"),
    lower("serve.job.cell_gap_ms", "ms"),
    lower("serve.job.tail_ms", "ms"),
    lower("serve.result.publish_ms", "ms"),
    lower("serve.wal.records", "1/job"),
    lower("serve.wal.bytes", "B/job"),
    lower("serve.wal.replay_ms", "ms"),
    lower("serve.recover.jobs_readmitted", "count"),
    higher("serve.recover.cells_resumed", "count"),
    lower("proto.status.rtt_us", "us"),
    lower("trace.timer_ns", "ns"),
    lower("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// Whether `name` is a valid metric or workload name: starts with a
    /// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn better(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), better(m.better).into()))
            .collect()
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        for e in doc
            .get("end_to_end")
            .and_then(Json::arr)
            .expect("metric list")
        {
            let bound = e
                .get("bound")
                .and_then(Json::num)
                .expect("every end-to-end bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
    }

    #[test]
    fn names_and_units_use_the_allowed_charset() {
        let all = END_TO_END.iter().chain(PER_LAYER);
        let mut seen = std::collections::HashSet::new();
        for m in all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("-leading-dash"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
        assert!(valid_unit("B/job"));
    }

    #[test]
    fn setup_metric_is_in_seconds_and_lower_is_better() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert_eq!(setup.floor(), SETUP_FLOOR_S);
        assert!(END_TO_END
            .iter()
            .filter(|m| m.name != "setup_s")
            .all(|m| m.floor() == 0.0));
    }

    #[test]
    fn job_percentiles_are_judged_only_where_there_are_jobs() {
        for m in END_TO_END {
            assert!(Workload::ServeStream.judges(m.name));
            assert!(Workload::ServeRecover.judges(m.name));
            let restated = m.name.starts_with("job_p");
            assert_eq!(Workload::PaperFlat.judges(m.name), !restated);
            assert_eq!(Workload::Paper2x2.judges(m.name), !restated);
        }
    }
}
