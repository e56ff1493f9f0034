//! Property and concurrency tests for the generational process table.
//!
//! The table's whole point is that a handle to a reaped process *detects*
//! its staleness instead of silently resolving to whatever reused the
//! slot. The proptest half drives random insert/reap/quiesce schedules
//! and asserts that no retired handle ever resolves again — through the
//! owning-hart API or the lock-free [`TableReader`] — even as slots are
//! reclaimed and reused. The threaded half runs a real reader thread
//! against an owner performing reap/reuse churn: any interleaving the
//! host scheduler produces must show each handle either its original pid
//! or nothing.

use std::collections::BTreeSet;

use proptest::prelude::*;
use ptstore_core::PhysAddr;
use ptstore_kernel::pagetable::AddressSpace;
use ptstore_kernel::process::{FdTable, Process, SignalTable};
use ptstore_kernel::{Pid, ProcHandle, ProcState, ProcessTable};

fn proc(pid: Pid) -> Process {
    Process {
        pid,
        parent: None,
        state: ProcState::Running,
        pcb_addr: PhysAddr::new(0x1000),
        aspace: AddressSpace::default(),
        vmas: Vec::new(),
        brk: 0,
        mmap_cursor: 0,
        fds: FdTable::with_std(),
        signals: SignalTable::default(),
        exit_code: 0,
        children: BTreeSet::new(),
        zombies: BTreeSet::new(),
        mm_owner: None,
        threads: Vec::new(),
    }
}

/// One step of a random table schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(Pid),
    Remove(Pid),
    Quiesce(usize),
}

fn op_strategy(harts: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..24u32).prop_map(Op::Insert),
        (1..24u32).prop_map(Op::Remove),
        (0..harts).prop_map(Op::Quiesce),
    ]
}

proptest! {
    /// A reaped pid's handle never resolves again — not through
    /// `resolve`, not through the reader — no matter how slots are
    /// quiesced, reclaimed, and reused afterwards.
    #[test]
    fn retired_handles_never_resolve(ops in proptest::collection::vec(op_strategy(2), 1..80)) {
        let mut t = ProcessTable::with_harts(2);
        let reader = t.reader();
        let mut retired: Vec<(Pid, ProcHandle)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(pid) => {
                    // Duplicate pids are a clean error, never a panic.
                    let _ = t.insert(proc(pid));
                }
                Op::Remove(pid) => {
                    if let Some(h) = t.lookup(pid) {
                        prop_assert!(t.remove(pid).is_some());
                        retired.push((pid, h));
                    }
                }
                Op::Quiesce(hart) => t.quiesce(hart),
            }
            for &(pid, h) in &retired {
                prop_assert!(t.resolve(h).is_none(), "pid {pid} resolved after reap");
                prop_assert!(!reader.live(h), "reader saw pid {pid} live after reap");
                prop_assert!(reader.pid_of(h).is_none());
            }
            // Live entries keep round-tripping exactly.
            for pid in t.pids() {
                let h = t.lookup(pid).expect("live pid has a handle");
                prop_assert_eq!(t.resolve(h).map(|p| p.pid), Some(pid));
                prop_assert_eq!(reader.pid_of(h), Some(pid));
            }
        }
    }

    /// Slot reuse never resurrects an old generation: any two handles the
    /// table ever issued for the same slot have distinct generations.
    #[test]
    fn generations_never_repeat_per_slot(rounds in 1..40usize) {
        let mut t = ProcessTable::with_harts(1);
        let mut seen: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
        for r in 0..rounds {
            let pid = (r + 1) as Pid;
            let h = t.insert(proc(pid)).expect("insert");
            let gens = seen.entry(h.slot).or_default();
            prop_assert!(!gens.contains(&h.gen), "slot {} repeated gen {}", h.slot, h.gen);
            gens.push(h.gen);
            t.remove(pid);
            t.quiesce(0); // harts = 1: the slot is immediately reusable
        }
        prop_assert!(t.slots_reclaimed() > 0 || rounds == 0);
    }
}

/// A real reader thread races the owning hart through reap/reuse churn:
/// every `pid_of` observation must be the handle's original pid or
/// nothing, under whatever interleaving the host scheduler produces. The
/// churn schedule is seeded so failures replay.
#[test]
fn concurrent_reader_during_reap_sees_old_pid_or_nothing() {
    for seed in 1..=4u64 {
        let mut t = ProcessTable::with_harts(2);
        let reader = t.reader();
        let handles: Vec<(Pid, ProcHandle)> = (1..=32)
            .map(|pid| (pid, t.insert(proc(pid)).expect("insert")))
            .collect();
        let watched = handles.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for _ in 0..2_000 {
                    for &(pid, h) in &watched {
                        if let Some(seen) = reader.pid_of(h) {
                            assert_eq!(seen, pid, "reader resolved a reused slot");
                        } else {
                            assert!(!reader.live(h), "dead handle reported live");
                        }
                    }
                }
            });
            // The owner reaps and reuses slots while the reader runs. A
            // multiplicative LCG picks victims; quiescing both harts lets
            // limbo drain so slots genuinely get reused mid-race.
            let mut state = seed;
            let mut next_pid: Pid = 33;
            for _ in 0..400 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pid = (state >> 33) as Pid % 32 + 1;
                if t.lookup(pid).is_some() {
                    t.remove(pid).expect("reap");
                    t.quiesce(0);
                    t.quiesce(1);
                    t.insert(proc(next_pid)).expect("reuse slot");
                    next_pid += 1;
                }
            }
        });
        // Every original handle whose pid was reaped is stale for good.
        for (pid, h) in handles {
            match t.resolve(h) {
                Some(p) => assert_eq!(p.pid, pid),
                None => assert!(t.lookup(pid).is_none() || t.lookup(pid) != Some(h)),
            }
        }
        assert!(t.slots_reclaimed() > 0, "churn must actually reuse slots");
    }
}
