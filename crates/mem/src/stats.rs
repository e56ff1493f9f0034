//! Per-channel access counters gathered by the bus.

use core::fmt;

use ptstore_core::{AccessKind, Channel};
use ptstore_trace::Snapshot;
use serde::{Deserialize, Serialize};

/// Counters for every (channel, kind) combination plus faults, maintained by
/// [`Bus`](crate::bus::Bus). The cycle model and the evaluation harness read
/// these to attribute time and to verify experiments actually exercised the
/// paths they claim (e.g. that the PTStore kernel really issues `sd.pt`
/// stores for every page-table write).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessStats {
    /// Regular-channel reads.
    pub regular_reads: u64,
    /// Regular-channel writes.
    pub regular_writes: u64,
    /// Instruction fetches.
    pub fetches: u64,
    /// `ld.pt` reads.
    pub secure_reads: u64,
    /// `sd.pt` writes.
    pub secure_writes: u64,
    /// Page-table-walker fetches.
    pub ptw_reads: u64,
    /// Walker A/D-bit updates.
    pub ptw_writes: u64,
    /// Accesses denied by the PMP/PTStore checks.
    pub faults: u64,
}

impl AccessStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a successful access.
    pub fn record(&mut self, channel: Channel, kind: AccessKind) {
        self.record_n(channel, kind, 1);
    }

    /// Records `n` successful accesses of one channel and kind — what `n`
    /// calls of [`Self::record`] would count.
    pub fn record_n(&mut self, channel: Channel, kind: AccessKind, n: u64) {
        let counter = match (channel, kind) {
            (Channel::Regular, AccessKind::Read) => &mut self.regular_reads,
            (Channel::Regular, AccessKind::Write) => &mut self.regular_writes,
            (Channel::Regular, AccessKind::Execute) => &mut self.fetches,
            (Channel::SecurePt, AccessKind::Read) => &mut self.secure_reads,
            (Channel::SecurePt, AccessKind::Write) => &mut self.secure_writes,
            (Channel::SecurePt, AccessKind::Execute) => &mut self.fetches,
            (Channel::Ptw, AccessKind::Read) => &mut self.ptw_reads,
            (Channel::Ptw, AccessKind::Write) => &mut self.ptw_writes,
            (Channel::Ptw, AccessKind::Execute) => &mut self.ptw_reads,
        };
        *counter += n;
    }

    /// Records a denied access.
    pub fn record_fault(&mut self) {
        self.faults += 1;
    }

    /// Total successful accesses.
    pub fn total(&self) -> u64 {
        self.regular_reads
            + self.regular_writes
            + self.fetches
            + self.secure_reads
            + self.secure_writes
            + self.ptw_reads
            + self.ptw_writes
    }

    /// Total accesses through the dedicated `ld.pt`/`sd.pt` channel.
    pub fn secure_total(&self) -> u64 {
        self.secure_reads + self.secure_writes
    }

    /// Difference against an earlier snapshot (for scoped measurement).
    #[deprecated(note = "use `Snapshot::delta`")]
    pub fn since(&self, earlier: &AccessStats) -> AccessStats {
        self.delta(earlier)
    }
}

impl Snapshot for AccessStats {
    fn delta(&self, earlier: &Self) -> Self {
        AccessStats {
            regular_reads: self.regular_reads - earlier.regular_reads,
            regular_writes: self.regular_writes - earlier.regular_writes,
            fetches: self.fetches - earlier.fetches,
            secure_reads: self.secure_reads - earlier.secure_reads,
            secure_writes: self.secure_writes - earlier.secure_writes,
            ptw_reads: self.ptw_reads - earlier.ptw_reads,
            ptw_writes: self.ptw_writes - earlier.ptw_writes,
            faults: self.faults - earlier.faults,
        }
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r/w/f={}/{}/{} ld.pt/sd.pt={}/{} ptw={}/{} faults={}",
            self.regular_reads,
            self.regular_writes,
            self.fetches,
            self.secure_reads,
            self.secure_writes,
            self.ptw_reads,
            self.ptw_writes,
            self.faults
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_right_counter() {
        let mut s = AccessStats::new();
        s.record(Channel::Regular, AccessKind::Read);
        s.record(Channel::Regular, AccessKind::Write);
        s.record(Channel::Regular, AccessKind::Execute);
        s.record(Channel::SecurePt, AccessKind::Read);
        s.record(Channel::SecurePt, AccessKind::Write);
        s.record(Channel::Ptw, AccessKind::Read);
        s.record(Channel::Ptw, AccessKind::Write);
        assert_eq!(s.regular_reads, 1);
        assert_eq!(s.regular_writes, 1);
        assert_eq!(s.fetches, 1);
        assert_eq!(s.secure_reads, 1);
        assert_eq!(s.secure_writes, 1);
        assert_eq!(s.ptw_reads, 1);
        assert_eq!(s.ptw_writes, 1);
        assert_eq!(s.total(), 7);
        assert_eq!(s.secure_total(), 2);
    }

    #[test]
    fn record_n_equals_n_records() {
        for channel in [Channel::Regular, Channel::SecurePt, Channel::Ptw] {
            for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
                let mut one_by_one = AccessStats::new();
                for _ in 0..5 {
                    one_by_one.record(channel, kind);
                }
                let mut at_once = AccessStats::new();
                at_once.record_n(channel, kind, 5);
                assert_eq!(one_by_one, at_once, "{channel:?}/{kind:?}");
            }
        }
    }

    #[test]
    fn since_subtracts() {
        let mut s = AccessStats::new();
        s.record(Channel::Regular, AccessKind::Read);
        let snap = s.snapshot();
        s.record(Channel::Regular, AccessKind::Read);
        s.record_fault();
        let d = s.delta(&snap);
        assert_eq!(d.regular_reads, 1);
        assert_eq!(d.faults, 1);
    }

    #[test]
    fn display_nonempty() {
        assert!(!AccessStats::new().to_string().is_empty());
    }
}
