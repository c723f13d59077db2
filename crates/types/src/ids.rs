//! Strongly-typed identifiers for the simulated machine's resources.
//!
//! Newtypes keep thread indices, channel indices, bank indices and row
//! numbers from being accidentally mixed (C-NEWTYPE). All identifiers are
//! dense `usize` indices so they can be used directly to index `Vec`s.

use std::fmt;

macro_rules! index_newtype {
    ($(#[$meta:meta])* $name:ident, $display:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,

        )]
        pub struct $name(usize);

        impl $name {
            /// Creates an identifier from a dense index.
            #[inline]
            pub const fn new(index: usize) -> Self {
                Self(index)
            }

            /// Returns the dense index backing this identifier.
            #[inline]
            pub const fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(index: usize) -> Self {
                Self(index)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($display, "{}"), self.0)
            }
        }
    };
}

index_newtype!(
    /// Identifies one hardware thread (equivalently, one core: the paper's
    /// baseline runs one thread per core on a 24-core CMP).
    ThreadId,
    "T"
);

index_newtype!(
    /// Identifies one memory controller. A controller owns a contiguous
    /// span of channels (see `Topology` in the config module); the
    /// paper's baseline is four single-channel controllers, while §5.3's
    /// meta-controller coordinates several controllers per system.
    ControllerId,
    "mc"
);

index_newtype!(
    /// Identifies one memory channel; channels are numbered densely
    /// across the whole system (4 in the paper's baseline).
    ChannelId,
    "ch"
);

index_newtype!(
    /// Identifies one DRAM bank *within* a channel (4 banks per channel in
    /// the paper's baseline DDR2 configuration).
    BankId,
    "b"
);

index_newtype!(
    /// Identifies one DRAM row within a bank (2 KB rows; 16384 rows per
    /// bank in the baseline, per the paper's Table 2 storage math).
    Row,
    "row"
);

/// A `(channel, bank)` pair naming one bank in the whole memory subsystem.
///
/// Bank-level parallelism in the paper is counted across the *entire*
/// memory subsystem (all channels), so a flat, globally unique bank name
/// is frequently needed.
///
/// # Example
///
/// ```
/// use tcm_types::{BankId, ChannelId, GlobalBank};
///
/// let g = GlobalBank::new(ChannelId::new(1), BankId::new(2));
/// assert_eq!(g.flat_index(4), 6); // channel 1 * 4 banks + bank 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalBank {
    /// Channel holding the bank.
    pub channel: ChannelId,
    /// Bank index within the channel.
    pub bank: BankId,
}

impl GlobalBank {
    /// Creates a global bank name from its channel and per-channel bank.
    #[inline]
    pub const fn new(channel: ChannelId, bank: BankId) -> Self {
        Self { channel, bank }
    }

    /// Flattens to a dense index given the number of banks per channel.
    #[inline]
    pub const fn flat_index(self, banks_per_channel: usize) -> usize {
        self.channel.index() * banks_per_channel + self.bank.index()
    }

    /// Inverse of [`GlobalBank::flat_index`].
    #[inline]
    pub const fn from_flat(flat: usize, banks_per_channel: usize) -> Self {
        Self {
            channel: ChannelId::new(flat / banks_per_channel),
            bank: BankId::new(flat % banks_per_channel),
        }
    }
}

impl fmt::Display for GlobalBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.channel, self.bank)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_round_trips_through_usize() {
        let t = ThreadId::new(7);
        assert_eq!(usize::from(t), 7);
        assert_eq!(ThreadId::from(7), t);
        assert_eq!(t.index(), 7);
    }

    #[test]
    fn display_is_compact_and_nonempty() {
        assert_eq!(ThreadId::new(3).to_string(), "T3");
        assert_eq!(ControllerId::new(1).to_string(), "mc1");
        assert_eq!(ChannelId::new(0).to_string(), "ch0");
        assert_eq!(BankId::new(2).to_string(), "b2");
        assert_eq!(Row::new(11).to_string(), "row11");
        assert_eq!(
            GlobalBank::new(ChannelId::new(1), BankId::new(3)).to_string(),
            "ch1.b3"
        );
    }

    #[test]
    fn ids_order_by_index() {
        assert!(ThreadId::new(1) < ThreadId::new(2));
        assert!(Row::new(9) > Row::new(3));
    }

    #[test]
    fn global_bank_flattening_round_trips() {
        for channel in 0..4 {
            for bank in 0..4 {
                let g = GlobalBank::new(ChannelId::new(channel), BankId::new(bank));
                let flat = g.flat_index(4);
                assert_eq!(GlobalBank::from_flat(flat, 4), g);
            }
        }
    }

    #[test]
    fn global_bank_flat_indices_are_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for channel in 0..3 {
            for bank in 0..5 {
                let g = GlobalBank::new(ChannelId::new(channel), BankId::new(bank));
                assert!(seen.insert(g.flat_index(5)));
            }
        }
        assert_eq!(seen.len(), 15);
        assert_eq!(*seen.iter().max().unwrap(), 14);
    }

    #[test]
    fn default_ids_are_zero() {
        assert_eq!(ThreadId::default().index(), 0);
        assert_eq!(BankId::default().index(), 0);
    }
}
