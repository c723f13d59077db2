//! Fault-injection wrapper for scheduling policies.
//!
//! [`ChaosScheduler`] decorates any [`Scheduler`] and, from a configured
//! cycle on, stops advancing its tick timer — modeling a scheduler whose
//! control logic wedges in a tight loop. The simulator's same-cycle
//! livelock guard must detect this as `SimError::Stalled`; the wrapper
//! exists so tests can prove that it does.
//!
//! Before the spin cycle the wrapper is transparent: every hook forwards
//! to the inner policy, and `next_tick` only clamps the inner timer so
//! the spin engages on time even for policies that never tick.

use crate::{PickContext, Scheduler, SystemView};
use tcm_chaos::{FaultKind, FaultSpec};
use tcm_dram::ServiceOutcome;
use tcm_telemetry::{DegradationAnomaly, Telemetry, TraceEvent};
use tcm_types::{Cycle, Request};

/// A [`Scheduler`] decorator that spins (stops advancing time) from a
/// configured cycle on. See the module docs.
#[derive(Debug)]
pub struct ChaosScheduler {
    inner: Box<dyn Scheduler>,
    spin_at: Cycle,
    telemetry: Telemetry,
    spin_reported: bool,
}

impl ChaosScheduler {
    /// Wraps `inner`, arming the spin to engage at cycle `spin_at`.
    pub fn new(inner: Box<dyn Scheduler>, spin_at: Cycle) -> Self {
        Self {
            inner,
            spin_at,
            telemetry: Telemetry::disabled(),
            spin_reported: false,
        }
    }

    /// The cycle at which the spin engages.
    pub fn spin_at(&self) -> Cycle {
        self.spin_at
    }
}

impl Scheduler for ChaosScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        self.inner.pick(pending, ctx)
    }

    fn on_enqueue(&mut self, req: &Request, now: Cycle) {
        self.inner.on_enqueue(req, now);
    }

    fn on_service(
        &mut self,
        outcome: &ServiceOutcome,
        remaining_same_bank: &[Request],
        now: Cycle,
    ) {
        self.inner.on_service(outcome, remaining_same_bank, now);
    }

    fn on_complete(&mut self, req: &Request, now: Cycle) {
        self.inner.on_complete(req, now);
    }

    /// Before the spin cycle: the inner timer, clamped so a tick lands at
    /// `spin_at` even if the inner policy never ticks. From the spin
    /// cycle on: `Some(now)` — a timer that refuses to advance, which the
    /// simulator's livelock guard flags as a stall.
    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        if now >= self.spin_at {
            return Some(now);
        }
        match self.inner.next_tick(now) {
            Some(t) => Some(t.min(self.spin_at)),
            None => Some(self.spin_at),
        }
    }

    fn tick(&mut self, now: Cycle, view: &SystemView<'_>) {
        if now >= self.spin_at && !self.spin_reported {
            self.spin_reported = true;
            self.telemetry.emit(|| TraceEvent::ChaosInjected {
                cycle: now,
                kind: FaultKind::SchedulerSpin,
            });
        }
        self.inner.tick(now, view);
    }

    fn set_thread_weights(&mut self, weights: &[f64]) {
        self.inner.set_thread_weights(weights);
    }

    fn inject_monitor_fault(&mut self, fault: &FaultSpec) {
        self.inner.inject_monitor_fault(fault);
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.inner.attach_telemetry(telemetry);
    }

    fn degradation_events(&self) -> &[DegradationAnomaly] {
        self.inner.degradation_events()
    }

    fn quantum_exchange(&mut self, now: Cycle) -> Option<crate::MonitorSample> {
        self.inner.quantum_exchange(now)
    }

    fn apply_broadcast(&mut self, plan: &crate::ClusterPlan, now: Cycle) {
        self.inner.apply_broadcast(plan, now);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, req};
    use crate::FrFcfs;

    #[test]
    fn transparent_before_spin_cycle() {
        let mut chaos = ChaosScheduler::new(Box::new(FrFcfs::new()), 1_000);
        let mut plain = FrFcfs::new();
        assert_eq!(chaos.name(), plain.name());
        let pending = vec![req(0, 0, 1, 0), req(1, 1, 2, 5)];
        let c = ctx(10, Some(2));
        assert_eq!(chaos.pick(&pending, &c), plain.pick(&pending, &c));
    }

    #[test]
    fn next_tick_clamps_to_spin_cycle() {
        let chaos = ChaosScheduler::new(Box::new(FrFcfs::new()), 1_000);
        // FrFcfs has no timer; the wrapper supplies the spin cycle.
        assert_eq!(chaos.next_tick(0), Some(1_000));
        assert_eq!(chaos.next_tick(999), Some(1_000));
    }

    #[test]
    fn spin_refuses_to_advance_time() {
        let chaos = ChaosScheduler::new(Box::new(FrFcfs::new()), 1_000);
        assert_eq!(chaos.next_tick(1_000), Some(1_000));
        assert_eq!(
            chaos.next_tick(5_000),
            Some(5_000),
            "frozen at `now` forever"
        );
        assert_eq!(chaos.spin_at(), 1_000);
    }
}
