//! Experiment harness for the TCM reproduction: one driver per table and
//! figure of the paper, looked up by name ([`experiments::NAMES`]) by the
//! `reproduce` binary. `reproduce NAME...` prints the named reports;
//! plain `reproduce` runs them all and assembles EXPERIMENTS.md input.
//!
//! Experiment scale is controlled by environment variables so the same
//! code serves quick checks and full paper-scale runs:
//!
//! | variable | meaning | default |
//! |----------|---------|---------|
//! | `TCM_CYCLES` | cycles per simulation | 20,000,000 |
//! | `TCM_WORKLOADS` | workloads per intensity category | 8 |
//! | `TCM_FULL=1` | paper scale: 100 M cycles, 32 workloads | off |
//!
//! `TCM_CYCLES` and `TCM_WORKLOADS` must be positive integers when set;
//! [`Scale::from_env`] returns an error otherwise.

#![warn(missing_docs)]

pub mod experiments;
mod scale;
mod static_prio;

pub use scale::Scale;
pub use static_prio::StaticPriority;
