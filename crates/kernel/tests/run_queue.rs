//! The hart run queue against the `VecDeque<Pid>` + `retain` queue it
//! replaced, and the duplicate-entry pattern a reap must clean up.
//!
//! Run queues hold duplicates: switching to a pid that is still queued and
//! later switching away from it queues it twice. A reap must remove every
//! copy from every hart, or a later `pick_next` would pop a pid that no
//! longer exists.

use std::collections::VecDeque;

use proptest::prelude::*;
use ptstore_core::MIB;
use ptstore_kernel::{Kernel, KernelConfig, Pid, RunQueue};

/// One step of a random run-queue schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(Pid),
    Pop,
    RemoveAll(Pid),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Half the pids come from a small range, so duplicates and re-pushes
    // after a removal are common; the wide range reaches the compaction
    // threshold.
    let pid = || prop_oneof![1..6u32, 1..80u32];
    prop_oneof![
        4 => pid().prop_map(Op::Push),
        1 => Just(Op::Pop),
        3 => pid().prop_map(Op::RemoveAll),
    ]
}

proptest! {
    /// Same pops, same contents and the same `Debug` string as the model
    /// after every step — the state digest hashes that string.
    #[test]
    fn matches_vecdeque_retain_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut q = RunQueue::default();
        let mut model: VecDeque<Pid> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(p) => {
                    q.push_back(p);
                    model.push_back(p);
                }
                Op::Pop => prop_assert_eq!(q.pop_front(), model.pop_front()),
                Op::RemoveAll(p) => {
                    q.remove_all(p);
                    model.retain(|&x| x != p);
                }
            }
            prop_assert_eq!(q.iter().collect::<Vec<_>>(), Vec::from(model.clone()));
            prop_assert_eq!(format!("{q:?}"), format!("{model:?}"));
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
    }
}

fn copies(k: &Kernel, hart: usize, pid: Pid) -> usize {
    k.harts[hart].run_queue.iter().filter(|&p| p == pid).count()
}

#[test]
fn reap_removes_every_queued_copy_on_every_hart() {
    let cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(256 * MIB)
        .with_initial_secure_size(16 * MIB)
        .with_harts(2);
    let mut k = Kernel::boot(cfg).expect("boot");
    let a = k.sys_fork().expect("fork a");
    let c = k.sys_fork().expect("fork c");

    // Switch to c while it is still queued, then away from it: hart 0 now
    // queues c twice.
    k.do_switch_to(c).expect("switch to c");
    k.do_switch_to(1).expect("back to init");
    assert_eq!(copies(&k, 0, c), 2, "the duplicate-entry pattern");

    // Hart 1 queues c as well (switching to the running c requeues it).
    k.set_active_hart(1);
    k.do_switch_to(c).expect("c on hart 1");
    k.do_switch_to(c).expect("c requeued on hart 1");
    assert_eq!(copies(&k, 1, c), 1);

    // c exits on hart 0 (`a` is the next runnable), and init reaps it.
    k.set_active_hart(0);
    k.do_switch_to(c).expect("switch to c");
    k.sys_exit(7).expect("exit c");
    assert_eq!(k.current_pid(), a);
    k.do_switch_to(1).expect("back to init");
    assert_eq!(k.sys_wait().expect("wait"), (c, 7));

    // The reaping hart prunes at once; hart 1 prunes when it merges the
    // reap message at its next activation.
    assert_eq!(copies(&k, 0, c), 0);
    k.set_active_hart(1);
    k.set_active_hart(0);
    for hart in 0..k.harts.len() {
        assert_eq!(
            copies(&k, hart, c),
            0,
            "hart {hart} still queues reaped pid {c}"
        );
    }
    assert!(k.procs.get(c).is_none());
}
