//! Modeled per-layer counters, read from the kernel's public fields before
//! and after each row. They are deterministic: a change that only speeds up
//! the simulator must leave every one of them identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ptstore_kernel::{CostKind, Kernel, KernelStats, Snapshot};

/// Counter name → value, summed over a pass's rows (`*_peak` gauges take
/// the maximum instead).
pub type Counters = BTreeMap<String, f64>;

/// Every modeled counter name a workload may report, in report order.
pub fn names() -> Vec<String> {
    let cycles = CostKind::ALL.iter().map(|k| format!("cycles.{k:?}"));
    let rest = KERNEL.iter().map(|&(name, _)| name).chain(MEM).chain([
        "mmu.tlb_hits",
        "mmu.tlb_misses",
        "modelcheck.states",
        "modelcheck.transitions",
        "modelcheck.dedup_ratio",
        "forkstress.paper_err_pp",
    ]);
    cycles.chain(rest.map(str::to_string)).collect()
}

/// `KernelStats` counters, each with its field.
type StatField = fn(&KernelStats) -> u64;
const KERNEL: [(&str, StatField); 9] = [
    ("kernel.syscalls", |d| d.syscalls),
    ("kernel.page_faults", |d| d.page_faults),
    ("kernel.adjustments", |d| d.adjustments),
    ("kernel.migrated_pages", |d| d.migrated_pages),
    ("kernel.tlb_shootdowns", |d| d.tlb_shootdowns),
    ("kernel.shootdown_ipis", |d| d.shootdown_ipis),
    ("kernel.deferred_drains", |d| d.deferred_drains),
    ("kernel.deferred_queue_peak", |d| d.deferred_queue_peak),
    ("kernel.pt_pages_peak", |d| d.pt_pages_peak),
];

/// Bus access counters, in the order [`Probe`] stores them.
const MEM: [&str; 5] = [
    "mem.secure_reads",
    "mem.secure_writes",
    "mem.ptw_reads",
    "mem.regular_reads",
    "mem.regular_writes",
];

/// Adds `value` to `name`, or raises it for a `*_peak` gauge.
pub fn add(c: &mut Counters, name: &str, value: f64) {
    let slot = c.entry(name.to_string()).or_insert(0.0);
    if name.ends_with("_peak") {
        *slot = slot.max(value);
    } else {
        *slot += value;
    }
}

/// A snapshot of one kernel's public counters.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    cycles: [u64; 16],
    stats: KernelStats,
    mem: [u64; 5],
    tlb: [u64; 2],
}

impl Probe {
    /// Snapshots `k`.
    pub fn take(k: &Kernel) -> Self {
        let m = k.bus.stats();
        let (mut hits, mut misses) = (0, 0);
        for h in &k.harts {
            for s in [h.mmu.itlb_stats(), h.mmu.dtlb_stats()] {
                hits += s.hits;
                misses += s.misses;
            }
        }
        Self {
            cycles: CostKind::ALL.map(|kind| k.cycles.of(kind)),
            stats: k.stats,
            mem: [
                m.secure_reads,
                m.secure_writes,
                m.ptw_reads,
                m.regular_reads,
                m.regular_writes,
            ],
            tlb: [hits, misses],
        }
    }

    /// The row's counter deltas since `self`: adds them to `c` and returns
    /// their canonical rendering (the `CostKind` breakdown, the
    /// `KernelStats` delta and the bus and TLB deltas) for the golden check.
    pub fn finish(&self, k: &Kernel, c: &mut Counters) -> String {
        let now = Probe::take(k);
        let d = self.stats_since(k);
        let mut cost = String::new();
        for (i, kind) in CostKind::ALL.iter().enumerate() {
            let v = now.cycles[i] - self.cycles[i];
            add(c, &format!("cycles.{kind:?}"), v as f64);
            if v > 0 {
                let _ = write!(
                    cost,
                    "{}{kind:?}={v}",
                    if cost.is_empty() { "" } else { "," }
                );
            }
        }
        for (name, field) in KERNEL {
            add(c, name, field(&d) as f64);
        }
        let mem: [u64; 5] = std::array::from_fn(|i| now.mem[i] - self.mem[i]);
        for (name, v) in MEM.iter().zip(mem) {
            add(c, name, v as f64);
        }
        let tlb = [now.tlb[0] - self.tlb[0], now.tlb[1] - self.tlb[1]];
        add(c, "mmu.tlb_hits", tlb[0] as f64);
        add(c, "mmu.tlb_misses", tlb[1] as f64);
        format!("cost=[{cost}] stats={d:?} mem={mem:?} tlb_hits_misses={tlb:?}")
    }

    /// The kernel statistics delta since `self`.
    pub fn stats_since(&self, k: &Kernel) -> KernelStats {
        k.stats.delta(&self.stats)
    }
}
