//! Oldest-first scheduling (FCFS).

use crate::select::{age_key, pick_max_by_key};
use crate::{PickContext, Scheduler};
use tcm_types::Request;

/// First-come-first-served: service the oldest request, ignoring
/// row-buffer state and threads entirely.
///
/// Not evaluated in the paper's headline results but useful as the
/// no-policy floor: it sacrifices both DRAM throughput (no row-hit
/// preference) and thread-awareness.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn pick(&mut self, pending: &[Request], _ctx: &PickContext) -> usize {
        pick_max_by_key(pending, age_key)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, req};

    #[test]
    fn always_picks_oldest() {
        let mut s = Fcfs::new();
        let pending = vec![req(2, 0, 1, 30), req(0, 1, 2, 10), req(1, 2, 3, 20)];
        assert_eq!(s.pick(&pending, &ctx(100, Some(3))), 1);
    }

    #[test]
    fn ignores_row_hits() {
        let mut s = Fcfs::new();
        // Row 5 open; the row-hit request is younger and must NOT win.
        let pending = vec![req(0, 0, 1, 10), req(1, 1, 5, 20)];
        assert_eq!(s.pick(&pending, &ctx(100, Some(5))), 0);
    }
}
