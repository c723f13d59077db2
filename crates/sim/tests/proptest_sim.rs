//! Property tests for the simulator layer: event-queue ordering against a
//! reference model, metric identities, and whole-system robustness over
//! random workloads.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tcm_sim::{
    workload_metrics, Event, EventQueue, IpcPair, PolicyKind, System, Timer, EVENT_WINDOW,
};
use tcm_types::ThreadId;
use tcm_types::{SystemConfig, Topology};
use tcm_workload::{BenchmarkProfile, WorkloadSpec};

/// The full policy lineup used by the whole-system properties.
fn policy_lineup(n: usize) -> [PolicyKind; 6] {
    [
        PolicyKind::Fcfs,
        PolicyKind::FrFcfs,
        PolicyKind::Stfm(Default::default()),
        PolicyKind::ParBs(Default::default()),
        PolicyKind::Atlas(Default::default()),
        PolicyKind::Tcm(tcm_core::TcmParams::reproduction_default(n)),
    ]
}

/// Builds a random workload from proptest-drawn `(mpki, rbl, blp)`
/// profile triples.
fn workload_from(profiles: &[(f64, f64, f64)]) -> WorkloadSpec {
    let threads: Vec<BenchmarkProfile> = profiles
        .iter()
        .enumerate()
        .map(|(i, &(mpki, rbl, blp))| BenchmarkProfile::new(format!("p{i}"), mpki, rbl, blp))
        .collect();
    WorkloadSpec::new("prop", threads)
}

/// The `(cycle, seq)`-sorted reference for the event-queue properties.
/// Each pushed event carries its `seq` as a core-burst epoch.
#[derive(Default)]
struct Model {
    pending: BTreeSet<(u64, u64)>,
    now: u64,
    seq: u64,
}

impl Model {
    fn burst(seq: u64) -> Event {
        Event::CoreBurst {
            thread: ThreadId::new(0),
            epoch: seq,
        }
    }

    /// Pushes an event `delta` cycles after the last pop.
    fn push(&mut self, q: &mut EventQueue, delta: u64) {
        q.push(self.now + delta, Self::burst(self.seq));
        self.pending.insert((self.now + delta, self.seq));
        self.seq += 1;
    }

    /// Pops at or before `bound` from both, checking `peek_cycle` first.
    fn pop(&mut self, q: &mut EventQueue, bound: u64) -> Result<(), TestCaseError> {
        let next = self.pending.first().copied();
        prop_assert_eq!(q.peek_cycle(), next.map(|(c, _)| c));
        let got = q.pop_at_or_before(bound);
        match next.filter(|&(c, _)| c <= bound) {
            Some((c, seq)) => {
                self.pending.remove(&(c, seq));
                self.now = c;
                prop_assert_eq!(got, Some((c, Self::burst(seq))));
            }
            None => prop_assert_eq!(got, None),
        }
        prop_assert_eq!(q.len(), self.pending.len());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event queue pops in (cycle, insertion) order — checked against
    /// a sorted reference model.
    #[test]
    fn event_queue_matches_reference_sort(cycles in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for &c in &cycles {
            q.push(c, Event::SchedTick { timer: Timer::Meta });
        }
        let mut reference: Vec<(u64, usize)> = cycles.iter().copied().zip(0..).collect();
        reference.sort_by_key(|&(c, i)| (c, i));
        let mut popped = Vec::new();
        while let Some((c, _)) = q.pop() {
            popped.push(c);
        }
        let expected: Vec<u64> = reference.into_iter().map(|(c, _)| c).collect();
        prop_assert_eq!(popped, expected);
    }

    /// Interleaved pushes and bounded pops, with push cycles up to five
    /// near windows past the last popped cycle (so events go through the
    /// far heap and the slots wrap), pop in exactly the order of a
    /// `(cycle, seq)`-sorted model, and `peek_cycle` always names the
    /// cycle of the next pop. Runs in both the windowed and the
    /// reference mode.
    #[test]
    fn event_queue_interleaved_matches_sorted_model(
        ops in proptest::collection::vec(
            (0u8..4, 0u64..5 * EVENT_WINDOW as u64, 0u64..2 * EVENT_WINDOW as u64),
            1..400,
        ),
        reference in any::<bool>(),
    ) {
        let mut q = EventQueue::new();
        q.set_reference_mode(reference);
        let mut model = Model::default();
        for (op, delta, slack) in ops {
            match op {
                // Half the pops are bounded just past the last pop.
                0 => model.pop(&mut q, model.now + if slack % 2 == 0 { slack % 16 } else { slack })?,
                // Near pushes, so same-cycle ties are common.
                1 => model.push(&mut q, delta % 8),
                // Pushes on a coarse grid of absolute cycles, so an event
                // that waited in the far heap ties with later direct ones.
                2 => model.push(&mut q, (model.now + delta).next_multiple_of(256) - model.now),
                _ => model.push(&mut q, delta),
            }
        }
        while !model.pending.is_empty() {
            model.pop(&mut q, u64::MAX)?;
        }
        prop_assert!(q.is_empty());
    }

    /// Metric identities hold for arbitrary IPC pairs: WS <= N,
    /// HS <= min speedup... HS <= 1 when nothing speeds up, and
    /// maxSD >= every individual slowdown's lower bound.
    #[test]
    fn metric_identities(
        pairs in proptest::collection::vec((0.001..3.0f64, 0.001..3.0f64), 1..32),
    ) {
        let ipc: Vec<IpcPair> = pairs
            .iter()
            .map(|&(shared, alone)| IpcPair { shared: shared.min(alone), alone })
            .collect();
        let m = workload_metrics(&ipc);
        prop_assert!(m.weighted_speedup <= ipc.len() as f64 + 1e-9);
        prop_assert!(m.weighted_speedup >= 0.0);
        prop_assert!(m.max_slowdown >= 1.0 - 1e-9, "shared <= alone => slowdown >= 1");
        prop_assert!(m.harmonic_speedup <= 1.0 + 1e-9);
        // HS <= WS/N <= max speedup.
        prop_assert!(m.harmonic_speedup <= m.weighted_speedup / ipc.len() as f64 + 1e-9);
    }

    /// The full system never panics, never loses requests, and always
    /// makes progress for arbitrary small workloads under every policy.
    #[test]
    fn system_robustness(
        profiles in proptest::collection::vec(
            (0.0..80.0f64, 0.0..1.0f64, 1.0..8.0f64),
            1..6,
        ),
        policy_index in 0usize..6,
        seed in any::<u64>(),
    ) {
        let n = profiles.len();
        let cfg = SystemConfig::builder().num_threads(n).build().unwrap();
        let workload = workload_from(&profiles);
        let kinds = policy_lineup(n);
        let kind = &kinds[policy_index % kinds.len()];
        let mut sys = System::new(&cfg, &workload, kind.build(n, &cfg), seed);
        let horizon = 120_000;
        let r = sys.run(horizon);
        prop_assert_eq!(r.cycles, horizon);
        let injected: u64 = r.misses.iter().sum();
        prop_assert!(r.total_serviced <= injected);
        for (i, &retired) in r.retired.iter().enumerate() {
            prop_assert!(retired > 0, "thread {i} made no progress");
            prop_assert!(retired <= horizon * cfg.issue_width as u64);
        }
        prop_assert!((0.0..=1.0).contains(&r.row_hit_rate));
    }

    /// Skip-ahead stepping is bit-identical to the per-event reference
    /// path: the calendar-wheel event queue plus strided probe checks
    /// must produce exactly the same `RunResult` (every counter, every
    /// float bit) as the plain binary-heap ordering of the queue's
    /// reference mode on random workloads under every policy. This is
    /// the property the SoA/skip-ahead hot path is allowed to assume.
    #[test]
    fn skip_ahead_matches_per_event_reference(
        profiles in proptest::collection::vec(
            (0.0..80.0f64, 0.0..1.0f64, 1.0..8.0f64),
            2..6,
        ),
        policy_index in 0usize..6,
        seed in any::<u64>(),
    ) {
        let n = profiles.len();
        let cfg = SystemConfig::builder().num_threads(n).build().unwrap();
        let workload = workload_from(&profiles);
        let kinds = policy_lineup(n);
        let kind = &kinds[policy_index % kinds.len()];
        let horizon = 150_000;

        let mut fast = System::new(&cfg, &workload, kind.build(n, &cfg), seed);
        let fast_result = fast.run(horizon);

        let mut reference = System::new(&cfg, &workload, kind.build(n, &cfg), seed);
        reference.set_reference_event_order(true);
        let reference_result = reference.run(horizon);

        prop_assert_eq!(fast_result, reference_result);
    }

    /// A multi-controller machine's queue — bursts, wakeups, completions
    /// and one timer per controller plus the meta-controller's — pops
    /// in exactly the pure binary-heap order: sending every push to the
    /// far heap (the queue's reference mode) reproduces the `RunResult`
    /// bit for bit, on uniform (2x2) and asymmetric (3+1) machines under
    /// every policy.
    #[test]
    fn multi_lanes_match_heap_reference(
        profiles in proptest::collection::vec(
            (0.0..60.0f64, 0.0..1.0f64, 1.0..8.0f64),
            2..6,
        ),
        policy_index in 0usize..6,
        asymmetric in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = profiles.len();
        let topology = if asymmetric {
            Topology::asymmetric([3, 1])
        } else {
            Topology::uniform(2, 2)
        };
        let cfg = SystemConfig::builder()
            .num_threads(n)
            .topology(topology)
            .build()
            .unwrap();
        let workload = workload_from(&profiles);
        let kinds = policy_lineup(n);
        let kind = &kinds[policy_index % kinds.len()];
        let horizon = 100_000;

        let build = || System::for_policy(&cfg, &workload, kind, seed);
        let fast_result = build().run(horizon);
        let mut reference = build();
        reference.set_reference_event_order(true);
        prop_assert_eq!(fast_result, reference.run(horizon));
    }
}
