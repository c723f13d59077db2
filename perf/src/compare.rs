//! Set files and their comparison.
//!
//! A set file holds what `tcm-perf suite` measured: per workload, every
//! run's end-to-end values, counts and correctness, plus the traced
//! run's per-layer values. `compare` judges set B (the change) against
//! set A (the parent) with the bounds `BENCHMARK.json` declares;
//! `record` writes two sets of one commit as the committed baseline.

use crate::decl::{Better, Workload, END_TO_END};
use crate::json::{self, Json};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::path::Path;

pub const SET_SCHEMA: &str = "tcm-perf-set-v1";
const BASELINE_SCHEMA: &str = "tcm-perf-baseline-v1";

/// One workload's runs within a set.
#[derive(Debug, Default, Clone)]
pub struct WorkloadRuns {
    pub seeds: Vec<f64>,
    pub correct: Vec<bool>,
    pub attempted: Vec<f64>,
    pub failed: Vec<f64>,
    pub metrics: BTreeMap<String, Vec<f64>>,
    pub per_layer: BTreeMap<String, f64>,
}

#[derive(Debug, Default, Clone)]
pub struct Set {
    pub label: String,
    pub nproc: f64,
    pub kernel: String,
    pub seconds: f64,
    pub smoke: bool,
    /// Shared by the two sets of one paired suite, empty otherwise.
    pub pairing: String,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

impl Set {
    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        let workloads = self.workloads.iter().map(|(name, w)| {
            (
                name.clone(),
                json::obj([
                    ("seeds", nums(&w.seeds)),
                    (
                        "correct",
                        Json::Arr(w.correct.iter().map(|&c| Json::Bool(c)).collect()),
                    ),
                    ("attempted", nums(&w.attempted)),
                    ("failed", nums(&w.failed)),
                    (
                        "metrics",
                        json::obj(w.metrics.iter().map(|(k, v)| (k.clone(), nums(v)))),
                    ),
                    (
                        "per_layer",
                        json::obj(w.per_layer.iter().map(|(k, &v)| (k.clone(), Json::Num(v)))),
                    ),
                ]),
            )
        });
        json::obj([
            ("schema", Json::Str(SET_SCHEMA.into())),
            ("label", Json::Str(self.label.clone())),
            ("nproc", Json::Num(self.nproc)),
            ("kernel", Json::Str(self.kernel.clone())),
            ("seconds", Json::Num(self.seconds)),
            ("smoke", Json::Bool(self.smoke)),
            ("pairing", Json::Str(self.pairing.clone())),
            ("workloads", json::obj(workloads)),
        ])
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::str) != Some(SET_SCHEMA) {
            return Err(format!("{}: not a {SET_SCHEMA} file", path.display()));
        }
        let mut set = Set {
            label: doc
                .get("label")
                .and_then(Json::str)
                .unwrap_or_default()
                .to_string(),
            nproc: doc.get("nproc").and_then(Json::num).unwrap_or(0.0),
            kernel: doc
                .get("kernel")
                .and_then(Json::str)
                .unwrap_or_default()
                .to_string(),
            seconds: doc.get("seconds").and_then(Json::num).unwrap_or(0.0),
            smoke: doc.get("smoke").and_then(Json::bool).unwrap_or(false),
            pairing: doc
                .get("pairing")
                .and_then(Json::str)
                .unwrap_or_default()
                .to_string(),
            workloads: BTreeMap::new(),
        };
        for (name, w) in doc.get("workloads").and_then(Json::obj).unwrap_or_default() {
            let nums = |k: &str| w.get(k).and_then(Json::nums).unwrap_or_default();
            let named = |k: &str| -> Vec<(String, Json)> {
                w.get(k).and_then(Json::obj).unwrap_or_default().to_vec()
            };
            set.workloads.insert(
                name.clone(),
                WorkloadRuns {
                    seeds: nums("seeds"),
                    correct: w
                        .get("correct")
                        .and_then(Json::arr)
                        .unwrap_or_default()
                        .iter()
                        .map(|c| c.bool() == Some(true))
                        .collect(),
                    attempted: nums("attempted"),
                    failed: nums("failed"),
                    metrics: named("metrics")
                        .into_iter()
                        .map(|(k, v)| (k, v.nums().unwrap_or_default()))
                        .collect(),
                    per_layer: named("per_layer")
                        .into_iter()
                        .filter_map(|(k, v)| Some((k, v.num()?)))
                        .collect(),
                },
            );
        }
        Ok(set)
    }
}

/// Every end-to-end metric's bound from `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut bounds = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::arr)
        .unwrap_or_default()
    {
        if let (Some(name), Some(bound)) = (
            m.get("name").and_then(Json::str),
            m.get("bound").and_then(Json::num),
        ) {
            bounds.insert(name.to_string(), bound);
        }
    }
    for m in END_TO_END {
        if !bounds.contains_key(m.name) {
            return Err(format!(
                "{} declares no bound for {}",
                path.display(),
                m.name
            ));
        }
    }
    Ok(bounds)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    NoWorse,
    Worse,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs a gain must be shown on.
const MIN_PAIRS: usize = 10;

/// B's change from A, signed so that positive is worse: run by run when
/// the runs were taken in pairs (`b[i] - a[i]`), else median to median.
fn worse_by(a: &[f64], b: &[f64], better: Better, paired: bool) -> Vec<f64> {
    let diff = |x: f64, y: f64| match better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    if paired {
        a.iter().zip(b).map(|(&x, &y)| diff(x, y)).collect()
    } else {
        match (stats::median(a), stats::median(b)) {
            (Some(x), Some(y)) => vec![diff(x, y)],
            _ => Vec::new(),
        }
    }
}

/// Judges the change's runs `b` against the parent's runs `a`. The
/// tolerance of a median is `bound` × it or `floor` (in the metric's
/// unit), whichever is larger.
///
/// With `paired`, run i of both sides was taken next to the other, so
/// the machine's drift cancels in the per-pair differences `b[i] -
/// a[i]`, and those decide `worse` and `unresolved`:
/// * `unresolved`: the differences' interquartile distance exceeds A's
///   tolerance;
/// * `worse`: their median is worse by more than A's tolerance.
///
/// Otherwise the sides' own spreads and medians do:
/// * `unresolved`: either side's interquartile distance exceeds its
///   tolerance, unless every B run reads better than every A run;
/// * `worse`: B's median is worse than A's by more than A's tolerance.
///
/// Either way, `better` takes at least ten index-paired runs of which B
/// wins at least nine in ten (ties count for neither), with medians
/// that differ by more than A's interquartile distance; `no-worse` is
/// the rest.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    bound: f64,
    floor: f64,
    better: Better,
    paired: bool,
) -> Verdict {
    let d = worse_by(a, b, better, paired);
    let (Some(ma), Some(mb), Some([q1, _, q3]), Some([qb1, _, qb3]), Some(md)) = (
        stats::median(a),
        stats::median(b),
        stats::quartiles(a),
        stats::quartiles(b),
        stats::median(&d),
    ) else {
        return Verdict::Unresolved;
    };
    let tolerance = |median: f64| (bound * median.abs()).max(floor);
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(&x, &y)| better.prefers(y, x))
        .count();
    let gain = pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better.prefers(mb, ma)
        && (mb - ma).abs() > q3 - q1;
    let unresolved = match stats::quartiles(&d) {
        Some([d1, _, d3]) if paired => d3 - d1 > tolerance(ma),
        _ => q3 - q1 > tolerance(ma) || qb3 - qb1 > tolerance(mb),
    };
    if unresolved {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better.prefers(y, x)));
        return match (all_better && !paired, gain) {
            (true, true) => Verdict::Better,
            (true, false) => Verdict::NoWorse,
            _ => Verdict::Unresolved,
        };
    }
    if md > tolerance(ma) {
        Verdict::Worse
    } else if gain {
        Verdict::Better
    } else {
        Verdict::NoWorse
    }
}

/// `25.0%`, or `25.0%|25ms` when a floor (in seconds) applies.
fn bound_text(bound: f64, floor: f64) -> String {
    let relative = format!("{:.1}%", bound * 100.0);
    if floor > 0.0 {
        format!("{relative}|{:.0}ms", floor * 1e3)
    } else {
        relative
    }
}

fn summary_text(values: &[f64]) -> String {
    Summary::of(values).map_or_else(|| "-".into(), |s| s.to_string())
}

/// `tcm-perf compare A.json B.json`: one row per workload and
/// end-to-end metric plus one for the failure share; exits 1 when any
/// row is `worse`.
pub fn compare_main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: tcm-perf compare A.json B.json");
        return 2;
    };
    let loaded = (
        Set::load(Path::new(a)),
        Set::load(Path::new(b)),
        load_bounds(Path::new("BENCHMARK.json")),
    );
    let (sa, sb, bounds) = match loaded {
        (Ok(sa), Ok(sb), Ok(bounds)) => (sa, sb, bounds),
        (a, b, bounds) => {
            for e in [a.err(), b.err(), bounds.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let paired = !sa.pairing.is_empty() && sa.pairing == sb.pairing;
    println!(
        "A = {a} ({}), B = {b} ({}), {}",
        sa.label,
        sb.label,
        if paired {
            "paired runs: judged pair by pair"
        } else {
            "unpaired runs: judged median to median"
        }
    );
    println!(
        "{:<14} {:<12} {:<40} {:<40} {:>8} {:>11}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound"
    );
    let mut worse = 0;
    for w in Workload::ALL {
        let empty = WorkloadRuns::default();
        let ra = sa.workloads.get(w.name()).unwrap_or(&empty);
        let rb = sb.workloads.get(w.name()).unwrap_or(&empty);
        for m in END_TO_END {
            let va = ra
                .metrics
                .get(m.name)
                .map(Vec::as_slice)
                .unwrap_or_default();
            let vb = rb
                .metrics
                .get(m.name)
                .map(Vec::as_slice)
                .unwrap_or_default();
            let bound = bounds[m.name];
            let pairs = paired && va.len() == vb.len();
            let judged = if w.judges(m.name) {
                let v = verdict(va, vb, bound, m.floor(), m.better, pairs);
                worse += usize::from(v == Verdict::Worse);
                v.as_str()
            } else {
                "n/a (restates the round)"
            };
            let growth = stats::median(&worse_by(va, vb, Better::Lower, pairs));
            let change = match (stats::median(va), growth) {
                (Some(x), Some(g)) if x != 0.0 => format!("{:+.2}%", g / x * 100.0),
                _ => "-".into(),
            };
            println!(
                "{:<14} {:<12} {:<40} {:<40} {:>8} {:>11}  {judged}",
                w.name(),
                m.name,
                summary_text(va),
                summary_text(vb),
                change,
                bound_text(bound, m.floor()),
            );
        }
        let share = |r: &WorkloadRuns| {
            let (f, t): (f64, f64) = (r.failed.iter().sum(), r.attempted.iter().sum());
            (f, t, if t > 0.0 { f / t } else { 0.0 })
        };
        let ((fa, ta, pa), (fb, tb, pb)) = (share(ra), share(rb));
        let v = if pb > pa {
            Verdict::Worse
        } else {
            Verdict::NoWorse
        };
        worse += usize::from(v == Verdict::Worse);
        println!(
            "{:<14} {:<12} {:<40} {:<40} {:>8} {:>11}  {}",
            w.name(),
            "failures",
            format!("{fa}/{ta}"),
            format!("{fb}/{tb}"),
            "",
            "any",
            v.as_str()
        );
    }
    i32::from(worse > 0)
}

/// Per workload and end-to-end metric: median, quartiles and n.
fn summaries(set: &Set) -> Json {
    json::obj(set.workloads.iter().map(|(name, w)| {
        let metrics = w.metrics.iter().filter_map(|(m, values)| {
            let s = Summary::of(values)?;
            Some((
                m.clone(),
                json::obj([
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]),
            ))
        });
        (name.clone(), json::obj(metrics))
    }))
}

/// `tcm-perf record --out FILE A.json B.json`: writes both sets'
/// summaries as the baseline and appends one history entry (medians
/// over both sets, keyed by the sets' label) to FILE's history.
pub fn record_main(args: &[String]) -> i32 {
    let (out, a, b) = match args {
        [flag, out, a, b] if flag == "--out" => (Path::new(out), a, b),
        _ => {
            eprintln!("usage: tcm-perf record --out FILE A.json B.json");
            return 2;
        }
    };
    let (sa, sb) = match (Set::load(Path::new(a)), Set::load(Path::new(b))) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (x, y) => {
            for e in [x.err(), y.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let mut history: Vec<Json> = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| doc.get("history").and_then(Json::arr).map(<[Json]>::to_vec))
        .unwrap_or_default();
    let mut pooled = sa.clone();
    for (name, w) in &sb.workloads {
        let p = pooled.workloads.entry(name.clone()).or_default();
        for (m, values) in &w.metrics {
            p.metrics.entry(m.clone()).or_default().extend(values);
        }
    }
    let medians = json::obj(pooled.workloads.iter().map(|(name, w)| {
        (
            name.clone(),
            json::obj(
                w.metrics
                    .iter()
                    .filter_map(|(m, v)| Some((m.clone(), Json::Num(stats::median(v)?)))),
            ),
        )
    }));
    let machine = |s: &Set| {
        [
            ("commit", Json::Str(s.label.clone())),
            ("nproc", Json::Num(s.nproc)),
            ("kernel", Json::Str(s.kernel.clone())),
            ("run_seconds", Json::Num(s.seconds)),
        ]
    };
    history.push(json::obj(
        machine(&sa).into_iter().chain([("medians", medians)]),
    ));
    let baseline = json::obj(
        machine(&sa)
            .into_iter()
            .chain([("sets", Json::Arr(vec![summaries(&sa), summaries(&sb)]))]),
    );
    let doc = json::obj([
        ("schema", Json::Str(BASELINE_SCHEMA.into())),
        ("baseline", baseline),
        ("history", Json::Arr(history)),
    ]);
    match std::fs::write(out, format!("{doc}\n")) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{}: {e}", out.display());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, wobble: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + wobble * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn same_distribution_is_no_worse() {
        let a = around(10.0, 0.01, 10);
        assert_eq!(
            verdict(&a, &a, 0.08, 0.0, Better::Lower, false),
            Verdict::NoWorse
        );
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let a = around(10.0, 0.01, 10);
        let b = around(11.0, 0.01, 10);
        assert_eq!(
            verdict(&a, &b, 0.08, 0.0, Better::Lower, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&b, &a, 0.08, 0.0, Better::Higher, false),
            Verdict::Worse
        );
        // Within the bound: no-worse.
        let c = around(10.5, 0.01, 10);
        assert_eq!(
            verdict(&a, &c, 0.08, 0.0, Better::Lower, false),
            Verdict::NoWorse
        );
    }

    #[test]
    fn a_clear_win_on_ten_pairs_is_better() {
        let a = around(10.0, 0.01, 10);
        let b = around(9.0, 0.01, 10);
        assert_eq!(
            verdict(&a, &b, 0.08, 0.0, Better::Lower, false),
            Verdict::Better
        );
        // Too few pairs to claim it.
        assert_eq!(
            verdict(&a[..5], &b[..5], 0.08, 0.0, Better::Lower, false),
            Verdict::NoWorse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = around(10.0, 0.3, 10);
        let b = around(10.2, 0.3, 10);
        assert_eq!(
            verdict(&a, &b, 0.08, 0.0, Better::Lower, false),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let fast = around(5.0, 0.3, 10);
        assert_eq!(
            verdict(&a, &fast, 0.08, 0.0, Better::Lower, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(&[], &b, 0.08, 0.0, Better::Lower, false),
            Verdict::Unresolved
        );
    }

    /// `center` scaled by a machine that runs 30% slower in the second
    /// half of the runs.
    fn drifting(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * if i < n / 2 { 1.0 } else { 1.3 } * (1.0 + 0.002 * i as f64))
            .collect()
    }

    #[test]
    fn pairing_cancels_machine_drift() {
        let a = drifting(10.0, 10);
        let same: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        assert_eq!(
            verdict(&a, &same, 0.25, 0.0, Better::Lower, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&a, &same, 0.25, 0.0, Better::Lower, true),
            Verdict::NoWorse
        );
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(
            verdict(&a, &slower, 0.25, 0.0, Better::Lower, true),
            Verdict::Worse
        );
        // A gain must still beat the parent's own spread (30% here).
        let faster: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            verdict(&a, &faster, 0.25, 0.0, Better::Lower, true),
            Verdict::NoWorse
        );
        let much_faster: Vec<f64> = a.iter().map(|x| x * 0.6).collect();
        assert_eq!(
            verdict(&a, &much_faster, 0.25, 0.0, Better::Lower, true),
            Verdict::Better
        );
        // Pairs that disagree by more than the bound are unresolved.
        let noisy: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, x)| x * if i % 2 == 0 { 0.6 } else { 1.4 })
            .collect();
        assert_eq!(
            verdict(&a, &noisy, 0.25, 0.0, Better::Lower, true),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[], &[], 0.25, 0.0, Better::Lower, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_changes_within_the_absolute_floor_are_no_worse() {
        // A 1.7 ms start-up that gets 0.5 ms (29%) slower and wobbles by
        // 30%: beyond a 25% bound, within the 25 ms floor.
        let a = around(0.0017, 0.3, 10);
        let b = around(0.0022, 0.3, 10);
        assert_eq!(
            verdict(&a, &b, 0.25, 0.0, Better::Lower, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&a, &b, 0.25, 0.025, Better::Lower, false),
            Verdict::NoWorse
        );
        // 30 ms slower is beyond the floor.
        let c = around(0.0317, 0.01, 10);
        assert_eq!(
            verdict(&a, &c, 0.25, 0.025, Better::Lower, false),
            Verdict::Worse
        );
        // On a 200 ms start-up the relative bound is the larger: +20%
        // (40 ms) is within it, +30% (60 ms) is not.
        let slow = around(0.2, 0.01, 10);
        assert_eq!(
            verdict(
                &slow,
                &around(0.24, 0.01, 10),
                0.25,
                0.025,
                Better::Lower,
                false
            ),
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(
                &slow,
                &around(0.26, 0.01, 10),
                0.25,
                0.025,
                Better::Lower,
                false
            ),
            Verdict::Worse
        );
    }
}
