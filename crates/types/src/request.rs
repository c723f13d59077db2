//! Memory requests: the unit of work flowing from cores to DRAM banks.

use crate::{BankId, ChannelId, Cycle, GlobalBank, Row, ThreadId};
use std::fmt;

/// Globally unique, monotonically increasing request identifier.
///
/// Assigned by the simulator at injection time; useful for FCFS age
/// tie-breaking (older request = smaller id) and for correlating
/// completion events with their originating core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id from its raw sequence number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw sequence number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// A row-granularity DRAM address: `(channel, bank, row)`.
///
/// Column bits are not modeled: every request transfers one 32-byte cache
/// block and row-buffer behavior only depends on whether consecutive
/// accesses touch the *same row*, so row granularity captures everything
/// the evaluated scheduling policies can observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemAddress {
    /// Memory channel (one independent controller per channel).
    pub channel: ChannelId,
    /// Bank within the channel.
    pub bank: BankId,
    /// Row within the bank.
    pub row: Row,
}

impl MemAddress {
    /// Creates an address from its components.
    #[inline]
    pub const fn new(channel: ChannelId, bank: BankId, row: Row) -> Self {
        Self { channel, bank, row }
    }

    /// The globally unique bank this address maps to.
    #[inline]
    pub const fn global_bank(self) -> GlobalBank {
        GlobalBank::new(self.channel, self.bank)
    }
}

impl fmt::Display for MemAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}:{}", self.channel, self.bank, self.row)
    }
}

/// The row-buffer state a request encounters when it reaches its bank.
///
/// Determines the DRAM access latency (see
/// [`DramTiming`](crate::DramTiming)):
/// a *hit* needs only a column access, *closed* needs an activate first,
/// and a *conflict* additionally needs a precharge of the currently open
/// (different) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowState {
    /// The addressed row is already open in the row-buffer.
    Hit,
    /// The bank is precharged; no row is open.
    Closed,
    /// A different row is open and must be precharged first.
    Conflict,
}

impl fmt::Display for RowState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RowState::Hit => "hit",
            RowState::Closed => "closed",
            RowState::Conflict => "conflict",
        };
        f.write_str(s)
    }
}

/// One outstanding last-level-cache miss traveling through the memory
/// system.
///
/// Requests are read requests for a 32-byte cache block (the paper's
/// request buffer prioritizes reads over writes; like most scheduling
/// studies we model the read path, which is what stalls cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Unique id; smaller = older (injection order).
    pub id: RequestId,
    /// The thread (core) that issued the miss.
    pub thread: ThreadId,
    /// Target DRAM location.
    pub addr: MemAddress,
    /// Cycle at which the request entered the controller's request buffer.
    pub issued_at: Cycle,
}

impl Request {
    /// Creates a request.
    #[inline]
    pub const fn new(id: RequestId, thread: ThreadId, addr: MemAddress, issued_at: Cycle) -> Self {
        Self {
            id,
            thread,
            addr,
            issued_at,
        }
    }

    /// `true` if this request is older than `other` (arrived earlier;
    /// ties broken by injection sequence, which is unique).
    #[inline]
    pub fn is_older_than(&self, other: &Request) -> bool {
        (self.issued_at, self.id) < (other.issued_at, other.id)
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} -> {} @{}]",
            self.id, self.thread, self.addr, self.issued_at
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn req(id: u64, at: Cycle) -> Request {
        Request::new(
            RequestId::new(id),
            ThreadId::new(0),
            MemAddress::new(ChannelId::new(0), BankId::new(0), Row::new(0)),
            at,
        )
    }

    #[test]
    fn age_ordering_uses_issue_cycle_then_id() {
        assert!(req(5, 10).is_older_than(&req(1, 20)));
        assert!(req(1, 10).is_older_than(&req(2, 10)));
        assert!(!req(2, 10).is_older_than(&req(1, 10)));
        assert!(!req(1, 10).is_older_than(&req(1, 10)));
    }

    #[test]
    fn address_global_bank_matches_components() {
        let a = MemAddress::new(ChannelId::new(2), BankId::new(3), Row::new(9));
        assert_eq!(a.global_bank().channel, ChannelId::new(2));
        assert_eq!(a.global_bank().bank, BankId::new(3));
    }

    #[test]
    fn display_forms_are_informative() {
        let r = req(4, 77);
        let s = r.to_string();
        assert!(s.contains("req4"));
        assert!(s.contains("T0"));
        assert!(s.contains("@77"));
        assert_eq!(RowState::Conflict.to_string(), "conflict");
    }

    #[test]
    fn row_state_equality() {
        assert_eq!(RowState::Hit, RowState::Hit);
        assert_ne!(RowState::Hit, RowState::Closed);
        assert_ne!(RowState::Closed, RowState::Conflict);
    }
}
