//! TCM — Thread Cluster Memory scheduling (Kim, Papamichael, Mutlu,
//! Harchol-Balter, MICRO 2010): the paper's primary contribution.
//!
//! TCM observes that system throughput and fairness call for *different*
//! scheduling policies, and that threads can be divided into two clusters
//! with different needs:
//!
//! 1. **Clustering** ([`cluster_threads`], the paper's Algorithm 1):
//!    every quantum (1 M cycles) threads are sorted by memory intensity
//!    (MPKI) and the least intensive ones — up to a `ClusterThresh`
//!    fraction of the previous quantum's total bandwidth usage — form the
//!    *latency-sensitive* cluster; the rest form the
//!    *bandwidth-sensitive* cluster.
//! 2. **Latency cluster first**: latency-sensitive threads are strictly
//!    prioritized (lowest MPKI highest), buying large throughput gains at
//!    negligible bandwidth cost.
//! 3. **Niceness** ([`niceness_scores`]): within the bandwidth cluster, a
//!    thread with high bank-level parallelism is *fragile* (nice) and one
//!    with high row-buffer locality is *hostile* (not nice).
//! 4. **Insertion shuffle** ([`InsertionShuffler`], Algorithm 2):
//!    every `ShuffleInterval` (800 cycles) the bandwidth cluster's
//!    priority order is perturbed so that nicer threads spend more time
//!    near the top and the least nice thread almost always sits at the
//!    bottom; when threads are too homogeneous for niceness to be
//!    meaningful (`ShuffleAlgoThresh`), TCM falls back to
//!    [`RandomShuffler`].
//!
//! The pieces are assembled as the paper's §5.3 split: each memory
//! controller runs a [`TcmController`] (its [`TcmMonitor`] and the
//! paper's Algorithm 3 request prioritization: rank, then row-hit, then
//! age), and one [`MetaController`] aggregates their samples at quantum
//! boundaries, clusters and shuffles once for the whole system, and
//! broadcasts the ranking back. [`Tcm`] is that split on a one-controller
//! machine: one controller plus one meta-controller behind the
//! [`tcm_sched::Scheduler`] interface, with OS thread-weight support and
//! the `ClusterThresh` fairness/performance knob. [`storage`] reproduces
//! the paper's Table 2 hardware-cost model.
//!
//! # Example
//!
//! ```
//! use tcm_core::{Tcm, TcmParams};
//!
//! let tcm = Tcm::new(24); // paper defaults: ClusterThresh 4/24, quantum 1M
//! assert_eq!(tcm.params().quantum, 1_000_000);
//! assert_eq!(tcm.params().shuffle_interval, 800);
//! assert_eq!(TcmParams::paper_default(24).cluster_thresh, 4.0 / 24.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

mod clustering;
mod meta;
mod monitor;
mod niceness;
mod params;
mod ranking;
mod scheduler;
mod shuffle;
pub mod storage;

pub use clustering::{cluster_threads, Cluster, Clustering};
pub use meta::{MetaController, TcmController};
pub use monitor::TcmMonitor;
pub use niceness::{niceness_scores, rank_ascending};
pub use params::{ShuffleMode, TcmParams};
pub use scheduler::Tcm;
pub use shuffle::{
    weighted_random_permutation, InsertionShuffler, InsertionVariant, RandomShuffler,
    RoundRobinShuffler, Shuffler,
};
