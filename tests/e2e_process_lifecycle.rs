//! End-to-end process lifecycle under PTStore: deep fork trees, exec chains,
//! pipes across forks, CoW integrity, and token hygiene throughout.

use ptstore::kernel::{Kernel, KernelConfig, KernelError, ProcState};
use ptstore::prelude::*;

fn boot() -> Kernel {
    Kernel::boot(
        KernelConfig::cfi_ptstore()
            .with_mem_size(256 * MIB)
            .with_initial_secure_size(16 * MIB),
    )
    .expect("boot")
}

#[test]
fn deep_fork_tree() {
    let mut k = boot();
    // Chain: init forks A, A forks B, B forks C...
    let mut chain = vec![1u32];
    for _ in 0..10 {
        let child = k.sys_fork().expect("fork");
        k.do_switch_to(child).expect("switch");
        chain.push(child);
    }
    // Unwind from the leaf: each exits, parent reaps.
    for i in (1..chain.len()).rev() {
        assert_eq!(k.current_pid(), chain[i]);
        k.sys_exit(i as i32).expect("exit");
        // exit schedules somewhere; force the parent.
        k.do_switch_to(chain[i - 1]).expect("switch to parent");
        let (pid, code) = k.sys_wait().expect("wait");
        assert_eq!(pid, chain[i]);
        assert_eq!(code, i as i32);
    }
    assert_eq!(k.procs.len(), 1);
    assert_eq!(k.stats.token_failures, 0);
}

#[test]
fn exec_chain_reuses_address_space_safely() {
    let mut k = boot();
    let before_pt = k.stats.pt_pages_live;
    for _ in 0..25 {
        k.sys_exec().expect("exec");
    }
    // exec tears down and rebuilds user mappings; PT pages must not leak
    // (the same intermediate tables get reused or freed).
    assert!(k.stats.pt_pages_live <= before_pt + 4);
    k.sys_touch(VirtAddr::new(0x1_0000), false)
        .expect("text mapped");
}

#[test]
fn pipe_across_fork() {
    let mut k = boot();
    let (r, w) = k.sys_pipe().expect("pipe");
    let child = k.sys_fork().expect("fork");
    // Parent writes...
    k.sys_write(w, b"from parent").expect("write");
    // ...child reads.
    k.do_switch_to(child).expect("switch");
    let data = k.sys_read(r, 64).expect("read");
    assert_eq!(&data, b"from parent");
    k.sys_exit(0).expect("exit");
    k.sys_wait().expect("wait");
    // Parent's ends still work after the child's fds were closed at exit.
    k.sys_write(w, b"again").expect("write");
    assert_eq!(k.sys_read(r, 5).expect("read"), b"again");
}

#[test]
fn pipe_end_above_fd_64_survives_fork_and_child_exit() {
    let mut k = boot();
    // Fds 0..3 are the console; 32 pipes fill fds 3..=66.
    let ends: Vec<(i32, i32)> = (0..32).map(|_| k.sys_pipe().expect("pipe")).collect();
    let (r, w) = *ends.last().expect("32 pipes");
    assert_eq!((r, w), (65, 66));
    let child = k.sys_fork().expect("fork");
    k.do_switch_to(child).expect("switch");
    k.sys_exit(0).expect("exit");
    k.do_switch_to(1).expect("switch to parent");
    k.sys_wait().expect("wait");
    // The child's exit dropped only the child's references: the parent's
    // ends of the pipe still work.
    k.sys_write(w, b"still open").expect("write");
    assert_eq!(k.sys_read(r, 10).expect("read"), b"still open");
}

#[test]
fn pipe_end_above_fd_256_is_closed_at_exit() {
    let mut k = boot();
    // 127 pipes fill fds 3..=256; the 128th lands at fds 257/258.
    let ends: Vec<(i32, i32)> = (0..128).map(|_| k.sys_pipe().expect("pipe")).collect();
    let (r, w) = *ends.last().expect("128 pipes");
    assert_eq!((r, w), (257, 258));
    let child = k.sys_fork().expect("fork");
    // The parent drops its write end; the child's copy keeps the pipe
    // open, so an empty read must block rather than report EOF.
    k.sys_close(w).expect("close");
    assert!(matches!(k.sys_read(r, 8), Err(KernelError::WouldBlock)));
    k.do_switch_to(child).expect("switch");
    k.sys_exit(0).expect("exit");
    k.do_switch_to(1).expect("switch to parent");
    k.sys_wait().expect("wait");
    // Exit closed the child's write end too: the pipe now reads EOF.
    assert_eq!(k.sys_read(r, 8).expect("read at EOF"), b"");
}

#[test]
fn cow_isolation_is_real_memory_isolation() {
    let mut k = boot();
    k.sys_brk(ptstore::kernel::pagetable::USER_HEAP_BASE + PAGE_SIZE)
        .expect("brk");
    let heap = VirtAddr::new(ptstore::kernel::pagetable::USER_HEAP_BASE);
    k.user_write_u64(heap, 0x1111).expect("parent init");

    let child = k.sys_fork().expect("fork");
    // Parent changes the value after fork.
    k.user_write_u64(heap, 0x2222).expect("parent write");
    assert_eq!(k.user_read_u64(heap).expect("parent read"), 0x2222);

    // Child still sees the pre-fork value.
    k.do_switch_to(child).expect("switch");
    assert_eq!(k.user_read_u64(heap).expect("child read"), 0x1111);
    // Child writes its own value; parent unaffected.
    k.user_write_u64(heap, 0x3333).expect("child write");
    k.do_switch_to(1).expect("switch back");
    assert_eq!(k.user_read_u64(heap).expect("parent read"), 0x2222);
}

#[test]
fn hundreds_of_processes_round_robin() {
    let mut k = boot();
    let children: Vec<_> = (0..50).map(|_| k.sys_fork().expect("fork")).collect();
    // Round-robin through everyone several times; every switch validates a
    // token against the PCB in attackable memory.
    for _ in 0..4 {
        for &c in &children {
            k.do_switch_to(c).expect("switch");
        }
        k.do_switch_to(1).expect("back to init");
    }
    assert_eq!(k.stats.token_failures, 0);
    assert!(k.stats.token_validations >= 200);
    // Clean teardown.
    for &c in &children {
        k.do_switch_to(c).expect("switch");
        k.sys_exit(0).expect("exit");
    }
    for _ in &children {
        k.sys_wait().expect("wait");
    }
    assert_eq!(k.procs.len(), 1);
}

#[test]
fn secure_region_contains_every_pt_page_always() {
    let mut k = boot();
    let region = k.secure_region().expect("region");
    let children: Vec<_> = (0..20).map(|_| k.sys_fork().expect("fork")).collect();
    for &c in &children {
        let p = k.procs.get(c).expect("child");
        for &pt in &p.aspace.pt_pages {
            assert!(
                region.contains(pt.base_addr()),
                "pt page {pt} of pid {c} outside secure region"
            );
        }
    }
}

/// Exits the live child `pid` (switching to it first) and returns to init.
fn exit_child(k: &mut Kernel, pid: u32, code: i32) {
    k.do_switch_to(pid).expect("switch to child");
    k.sys_exit(code).expect("exit");
    k.do_switch_to(1).expect("back to init");
}

#[test]
fn wait_reaps_lowest_pid_zombie_first_and_skips_live_siblings() {
    let mut k = boot();
    let kids: Vec<u32> = (0..4).map(|_| k.sys_fork().expect("fork")).collect();
    exit_child(&mut k, kids[3], 13);
    exit_child(&mut k, kids[1], 11);
    // kids[0] and kids[2] are alive and older than the zombies they sit
    // between.
    assert_eq!(k.sys_wait().expect("wait"), (kids[1], 11));
    assert_eq!(k.sys_wait().expect("wait"), (kids[3], 13));
    assert_eq!(k.sys_wait(), Err(KernelError::InvalidState));
    exit_child(&mut k, kids[2], 12);
    exit_child(&mut k, kids[0], 10);
    assert_eq!(k.sys_wait().expect("wait"), (kids[0], 10));
    assert_eq!(k.sys_wait().expect("wait"), (kids[2], 12));
    assert_eq!(k.procs.len(), 1);
}

#[test]
fn wait_without_a_zombie_child_is_invalid_state() {
    let mut k = boot();
    // No children at all.
    assert_eq!(k.sys_wait(), Err(KernelError::InvalidState));
    // Only live children.
    let child = k.sys_fork().expect("fork");
    assert_eq!(k.sys_wait(), Err(KernelError::InvalidState));
    assert!(k.procs.get(child).is_some());
}

#[test]
fn exited_thread_is_reaped_through_wait() {
    let mut k = boot();
    let tid = k.sys_clone_thread().expect("clone thread");
    exit_child(&mut k, tid, 5);
    assert_eq!(k.sys_wait().expect("wait"), (tid, 5));
    assert!(k.procs.get(tid).is_none());
    assert!(k.procs.get(1).expect("init").threads.is_empty());
}

#[test]
fn orphan_exit_after_parent_reaped_does_not_panic() {
    let mut k = boot();
    let parent = k.sys_fork().expect("fork parent");
    k.do_switch_to(parent).expect("switch to parent");
    let orphan = k.sys_fork().expect("fork orphan");
    // The parent exits with its child still alive, and init reaps it.
    k.sys_exit(1).expect("parent exit");
    k.do_switch_to(1).expect("back to init");
    assert_eq!(k.sys_wait().expect("wait"), (parent, 1));
    // The orphan exits with no parent left to file it with.
    exit_child(&mut k, orphan, 2);
    assert_eq!(
        k.procs.get(orphan).map(|p| p.state),
        Some(ProcState::Zombie)
    );
    assert_eq!(k.sys_wait(), Err(KernelError::InvalidState));
}

#[test]
fn zombie_switched_back_to_is_not_waitable_until_it_exits_again() {
    // Without token checks nothing stops a switch to an exited process:
    // it runs again, so `wait` must pass it over until it exits again.
    let mut k = Kernel::boot(KernelConfig::baseline().with_mem_size(256 * MIB)).expect("boot");
    let child = k.sys_fork().expect("fork");
    exit_child(&mut k, child, 3);
    k.do_switch_to(child).expect("switch to the zombie");
    k.do_switch_to(1).expect("back to init");
    assert_eq!(k.sys_wait(), Err(KernelError::InvalidState));
    exit_child(&mut k, child, 4);
    assert_eq!(k.sys_wait().expect("wait"), (child, 4));
}
