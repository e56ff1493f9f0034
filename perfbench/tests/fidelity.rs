//! The traced twins must time the same program the public entry points
//! run: at a small shape, each twin produces modeled cycles, statistics,
//! TLB digest and exploration hash identical to its untraced entry point.

use ptstore_core::MIB;
use ptstore_kernel::{DrainPolicy, Kernel, KernelConfig};
use ptstore_modelcheck::{explore, Ablation, McConfig, ModelVerdict};
use ptstore_perfbench::c1m::c1m_traced;
use ptstore_perfbench::forkstress::fork_stress_traced;
use ptstore_perfbench::modelcheck::explore_traced;
use ptstore_perfbench::trace::{Call, Tracer};
use ptstore_workloads::c1m::{run_c1m_threads, tlb_digest, C1mParams};
use ptstore_workloads::fork_stress::{run_fork_stress, stress_configs};

fn boot(cfg: KernelConfig) -> Kernel {
    Kernel::boot(cfg).expect("kernel boots")
}

fn assert_same_machine(a: &Kernel, b: &Kernel) {
    assert_eq!(a.cycles.breakdown(), b.cycles.breakdown());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.bus.stats(), b.bus.stats());
    assert_eq!(tlb_digest(a), tlb_digest(b));
}

#[test]
fn forkstress_twin_matches_run_fork_stress() {
    for cfg in stress_configs(256 * MIB, MIB, 32 * MIB) {
        let (mut plain, mut traced) = (boot(cfg), boot(cfg));
        let mut tr = Tracer::default();
        let want = run_fork_stress(&mut plain, 200).expect("stress");
        let got = fork_stress_traced(&mut traced, 200, &mut tr).expect("traced stress");
        assert_eq!(want, got, "{}", cfg.label());
        assert_same_machine(&plain, &traced);
        for call in [Call::Fork, Call::Switch, Call::Exit, Call::Wait] {
            assert_eq!(tr.hist(call).calls(), 200, "{}", call.name());
        }
    }
}

#[test]
fn c1m_twin_matches_run_c1m() {
    // Enough connections per tenant for the pool churn and both mprotect
    // directions to run.
    let p = C1mParams {
        requests_per_tenant: 70,
        ..C1mParams::quick()
    };
    for batched in [false, true] {
        let cfg = KernelConfig::cfi_ptstore()
            .with_mem_size(256 * MIB)
            .with_initial_secure_size(8 * MIB)
            .with_harts(2)
            .with_deferred_shootdowns(batched)
            .with_alloc_magazines(batched)
            .with_drain_policy(DrainPolicy::Watermark { depth: 8 });
        let (mut plain, mut traced) = (boot(cfg), boot(cfg));
        let mut tr = Tracer::default();
        let want = run_c1m_threads(&mut plain, &p, 1);
        let got = c1m_traced(&mut traced, &p, &mut tr).expect("traced c1m");
        assert_eq!(want, got);
        assert_same_machine(&plain, &traced);
        assert_eq!(tr.hist(Call::Wait).calls(), p.processes());
        assert_eq!(tr.hist(Call::Accept).calls(), p.connections());
        assert_eq!(tr.spans().len() as u64, p.processes());
        assert_eq!(tr.hist(Call::Mprotect).calls(), 2 * p.processes());
    }
}

#[test]
fn modelcheck_twin_matches_explore() {
    let base = McConfig {
        depth: 2,
        ..McConfig::default()
    };
    let mut runs = vec![base.clone()];
    for a in Ablation::ALL {
        runs.push(McConfig {
            ablate: Some(a),
            ..base.clone()
        });
    }
    for mc in runs {
        let mut tr = Tracer::default();
        let want = explore(&mc);
        let got = explore_traced(&mc, &mut tr);
        assert_eq!(want.summary(), got.summary());
        assert_eq!(want.exploration_digest, got.exploration_digest);
        if mc.ablate.is_none() {
            assert_eq!(want.verdict, ModelVerdict::Verified);
            assert_eq!(tr.hist(Call::Oracle).calls(), want.oracle_checks);
            assert_eq!(tr.hist(Call::Digest).calls(), want.transitions + 1);
        } else {
            assert_eq!(want.verdict, ModelVerdict::Falsified);
        }
    }
}
