//! FR-FCFS: first-ready, first-come-first-served (Rixner et al., ISCA
//! 2000).

use crate::select::{age_key, pick_max_by_key, row_hit};
use crate::{PickContext, Scheduler};
use tcm_types::Request;

/// Row-hit-first, then oldest-first.
///
/// The thread-unaware policy used by real memory controllers and the
/// paper's first baseline: it maximizes DRAM throughput by exploiting the
/// open row, but lets high-row-buffer-locality threads starve everyone
/// sharing their banks (the paper's Figure 1 shows it is both the least
/// fair and among the lowest-throughput policies for multiprogrammed
/// workloads).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl FrFcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for FrFcfs {
    fn name(&self) -> &'static str {
        "FR-FCFS"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        pick_max_by_key(pending, |r| (row_hit(r, ctx.open_row), age_key(r)))
    }

    fn observes_completions(&self) -> bool {
        false
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, req};

    #[test]
    fn row_hit_beats_age() {
        let mut s = FrFcfs::new();
        let pending = vec![req(0, 0, 1, 0), req(1, 1, 9, 100)];
        assert_eq!(s.pick(&pending, &ctx(200, Some(9))), 1);
    }

    #[test]
    fn oldest_wins_without_open_row() {
        let mut s = FrFcfs::new();
        let pending = vec![req(1, 0, 1, 50), req(0, 1, 9, 10)];
        assert_eq!(s.pick(&pending, &ctx(200, None)), 1);
    }

    #[test]
    fn oldest_row_hit_wins_among_hits() {
        let mut s = FrFcfs::new();
        let pending = vec![req(0, 0, 9, 50), req(1, 1, 9, 10), req(2, 2, 1, 0)];
        assert_eq!(s.pick(&pending, &ctx(200, Some(9))), 1);
    }
}
