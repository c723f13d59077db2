//! Experiment scaling knobs.

use std::str::FromStr;
use tcm_types::Cycle;

/// How big to run the experiments.
///
/// The paper simulates 100 M cycles per run and 32 workloads per
/// intensity category; the defaults here (20 M / 8) reproduce the same
/// shapes at laptop scale. Set `TCM_FULL=1` for paper scale, or override
/// the individual knobs with `TCM_CYCLES` / `TCM_WORKLOADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Cycles simulated per run.
    pub horizon: Cycle,
    /// Workloads per intensity category.
    pub workloads_per_category: usize,
    /// Hardware threads (cores).
    pub threads: usize,
}

impl Scale {
    /// Reads the scale from the environment (see crate docs). An unset
    /// variable keeps its default; a `TCM_CYCLES` or `TCM_WORKLOADS` that
    /// is not a positive integer is an error naming the variable.
    pub fn from_env() -> Result<Self, String> {
        let full = std::env::var("TCM_FULL").is_ok_and(|v| v == "1");
        Ok(Self {
            horizon: positive_var("TCM_CYCLES", if full { 100_000_000 } else { 20_000_000 })?,
            workloads_per_category: positive_var("TCM_WORKLOADS", if full { 32 } else { 8 })?,
            threads: 24,
        })
    }
}

/// The positive integer in environment variable `name`, or `default`
/// when it is unset.
fn positive_var<T: FromStr + Default + PartialEq>(name: &str, default: T) -> Result<T, String> {
    let Some(value) = std::env::var_os(name) else {
        return Ok(default);
    };
    value
        .to_str()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n != T::default())
        .ok_or_else(|| format!("{name}={value:?} is not a positive integer"))
}
