//! Property tests for the foundational types: identifier round trips,
//! address flattening, timing monotonicity, and topology round trips.

use proptest::prelude::*;
use tcm_types::{
    BankId, ChannelId, DramTiming, GlobalBank, Request, RequestId, RowState, SystemConfig,
    Topology, MAX_CHANNELS,
};

proptest! {
    /// Global bank flattening is a bijection for any bank geometry.
    #[test]
    fn global_bank_flattening_bijective(
        channels in 1usize..16,
        banks in 1usize..16,
    ) {
        let mut seen = std::collections::HashSet::new();
        for c in 0..channels {
            for b in 0..banks {
                let g = GlobalBank::new(ChannelId::new(c), BankId::new(b));
                let flat = g.flat_index(banks);
                prop_assert!(flat < channels * banks);
                prop_assert!(seen.insert(flat));
                prop_assert_eq!(GlobalBank::from_flat(flat, banks), g);
            }
        }
    }

    /// Round-trip latency is strictly ordered hit < closed < conflict for
    /// any timing with non-zero precharge/activate components.
    #[test]
    fn round_trip_ordering(
        rp in 1u64..500,
        rcd in 1u64..500,
        cl in 1u64..500,
        burst in 1u64..200,
        overhead in 0u64..200,
    ) {
        let t = DramTiming { rp, rcd, cl, bus_burst: burst, fixed_overhead: overhead };
        prop_assert!(t.round_trip(RowState::Hit) < t.round_trip(RowState::Closed));
        prop_assert!(t.round_trip(RowState::Closed) < t.round_trip(RowState::Conflict));
        prop_assert_eq!(
            t.round_trip(RowState::Conflict) - t.round_trip(RowState::Closed),
            rp
        );
    }

    /// Request age ordering is a strict total order (antisymmetric and
    /// total) over distinct requests.
    #[test]
    fn request_age_is_total_order(
        a_cycle in 0u64..1000,
        b_cycle in 0u64..1000,
        a_id in 0u64..1000,
        b_id in 0u64..1000,
    ) {
        prop_assume!(a_id != b_id);
        let addr = tcm_types::MemAddress::new(
            ChannelId::new(0),
            BankId::new(0),
            tcm_types::Row::new(0),
        );
        let a = Request::new(RequestId::new(a_id), tcm_types::ThreadId::new(0), addr, a_cycle);
        let b = Request::new(RequestId::new(b_id), tcm_types::ThreadId::new(0), addr, b_cycle);
        prop_assert!(a.is_older_than(&b) != b.is_older_than(&a));
    }

    /// `Topology::flat(n)` reproduces the legacy single-controller
    /// config exactly: one controller owning all `n` channels, dense
    /// channel indices, and a spelling that parses back to itself —
    /// and a config built through the legacy `num_channels(n)` knob is
    /// identical to one built with the explicit flat topology.
    #[test]
    fn flat_topology_round_trips_legacy_config(n in 1usize..64) {
        let flat = Topology::flat(n);
        prop_assert_eq!(flat.validate(), Ok(()));
        prop_assert_eq!(flat.num_controllers(), 1);
        prop_assert_eq!(flat.num_channels(), n);
        prop_assert_eq!(flat.per_controller(), &[n]);
        let c0 = flat.controllers().next().expect("one controller");
        prop_assert_eq!(flat.channels_of(c0), n);
        prop_assert_eq!(flat.channel_range(c0), 0..n);
        for ch in 0..n {
            prop_assert_eq!(flat.controller_of(ChannelId::new(ch)), c0);
        }
        prop_assert_eq!(flat.to_string(), n.to_string());
        prop_assert_eq!(Topology::parse(&n.to_string()), Ok(flat.clone()));

        let legacy = SystemConfig::builder().num_channels(n).build();
        let explicit = SystemConfig::builder().topology(flat).build();
        prop_assert_eq!(legacy, explicit);
    }

    /// Any valid topology's channel ranges partition `0..num_channels`
    /// in controller order, and `controller_of` inverts the partition;
    /// the display spelling always parses back to the same topology.
    #[test]
    fn topology_ranges_partition_and_display_round_trips(
        counts in proptest::collection::vec(1usize..8, 1..6),
    ) {
        let t = Topology::asymmetric(counts.clone());
        prop_assert_eq!(t.validate(), Ok(()));
        prop_assert_eq!(t.num_controllers(), counts.len());
        let mut next = 0usize;
        for c in t.controllers() {
            let range = t.channel_range(c);
            prop_assert_eq!(range.start, next);
            prop_assert_eq!(range.len(), t.channels_of(c));
            for ch in range.clone() {
                prop_assert_eq!(t.controller_of(ChannelId::new(ch)), c);
            }
            next = range.end;
        }
        prop_assert_eq!(next, t.num_channels());
        prop_assert_eq!(Topology::parse(&t.to_string()), Ok(t));
    }

    /// `--topology` and daemon job specs reach `Topology::parse` as
    /// arbitrary text: it returns a topology of at most `MAX_CHANNELS`
    /// channels that displays back to itself, or a typed error — never a
    /// panic, and never an allocation sized by an unchecked count.
    #[test]
    fn arbitrary_topology_specs_parse_or_are_refused(
        raw in proptest::collection::vec(any::<u8>(), 0..16),
        pieces in proptest::collection::vec((any::<u64>(), 0u64..80, 0usize..6), 1..5),
    ) {
        let _ = Topology::parse(&String::from_utf8_lossy(&raw));
        let mut spec = String::new();
        for (huge, small, sep) in pieces {
            spec.push_str(&if sep % 3 == 0 { huge } else { small }.to_string());
            spec.push(['x', '+', 'x', '+', ' ', '-'][sep]);
        }
        spec.pop();
        match Topology::parse(&spec) {
            Ok(t) => {
                prop_assert!(t.num_channels() <= MAX_CHANNELS, "{}", spec);
                prop_assert_eq!(Topology::parse(&t.to_string()), Ok(t));
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
