//! Clone branching: the search derives every successor from a deep clone of
//! its rebuilt parent instead of replaying the whole trace per edge. That is
//! sound only if a clone-branched successor is indistinguishable from a
//! fresh replay — same canonical encoding, same oracle verdict — and if
//! branching never reaches back into the parent. Both are pinned here.

use std::collections::HashSet;

use ptstore_fault::{apply, boot_model, format_trace, replay, Invariants, ModelOp};
use ptstore_modelcheck::{canon, explore, Ablation, McConfig};
use ptstore_trace::TraceSink;

/// BFS over `mc`'s full alphabet to `mc.depth`, deduped on the canonical
/// digest exactly as the search is. At every transition the successor
/// branched from a clone of the parent must equal a fresh replay of
/// `trace + [op]`, and the parent's own encoding must not move. Returns
/// the number of transitions compared.
fn assert_clone_equals_replay(mc: &McConfig) -> u64 {
    let kcfg = mc.kernel_config();
    let alphabet = mc.alphabet();
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(canon::digest(&boot_model(&kcfg)));
    let mut frontier: Vec<Vec<ModelOp>> = vec![Vec::new()];
    let mut compared = 0u64;
    for _ in 0..mc.depth {
        let mut next = Vec::new();
        for trace in &frontier {
            let parent = replay(&kcfg, trace);
            let parent_enc = canon::encode(&parent);
            for &op in &alphabet {
                let mut succ = trace.clone();
                succ.push(op);
                let mut branched = parent.clone();
                apply(&mut branched, op);
                let replayed = replay(&kcfg, &succ);
                let enc = canon::encode(&branched);
                assert_eq!(
                    enc,
                    canon::encode(&replayed),
                    "clone-branched state differs from replay of\n{}",
                    format_trace(&succ)
                );
                let rep = Invariants::check(&branched);
                assert_eq!(
                    rep.violations,
                    Invariants::check(&replayed).violations,
                    "oracle verdicts differ for\n{}",
                    format_trace(&succ)
                );
                compared += 1;
                if seen.insert(canon::digest(&branched)) && rep.ok() {
                    next.push(succ);
                }
            }
            assert_eq!(
                canon::encode(&parent),
                parent_enc,
                "branching moved the parent of\n{}",
                format_trace(trace)
            );
        }
        frontier = next;
    }
    compared
}

#[test]
fn clone_branching_equals_replay_on_the_defended_search() {
    let mc = McConfig {
        depth: 3,
        ..McConfig::default()
    };
    let compared = assert_clone_equals_replay(&mc);
    // Every edge the search itself takes was compared.
    assert_eq!(compared, explore(&mc).transitions);
}

#[test]
fn clone_branching_equals_replay_under_every_ablation() {
    for a in Ablation::ALL {
        let mc = McConfig {
            depth: 2,
            ablate: Some(a),
            ..McConfig::default()
        };
        assert!(assert_clone_equals_replay(&mc) > 0, "{a}");
    }
}

#[test]
fn clone_is_deep_and_starts_without_a_trace_sink() {
    // PMP S-bit check off, so the PTE flip lands in the clone's memory.
    let mc = McConfig {
        ablate: Some(Ablation::PmpSBitCheck),
        ..McConfig::default()
    };
    let mut k = boot_model(&mc.kernel_config());
    apply(&mut k, ModelOp::Fork { hart: 0 });
    let sink = TraceSink::new();
    k.set_trace_sink(Some(sink.clone()));
    let enc = canon::encode(&k);
    let reader = k.procs.reader();
    let handles: Vec<_> = k.procs.handles().map(|(h, p)| (h, p.pid)).collect();

    let mut c = k.clone();
    assert!(c.trace_sink().is_none(), "a clone must not share the sink");
    assert_eq!(
        canon::encode(&c),
        enc,
        "a fresh clone encodes as its source"
    );
    for op in [
        ModelOp::Fork { hart: 1 },
        ModelOp::Mmap { hart: 0 },
        ModelOp::ExitChild { hart: 0 },
        ModelOp::PteFlip { hart: 0, bit: 35 },
    ] {
        apply(&mut c, op);
    }
    assert_ne!(canon::encode(&c), enc, "the ops must change the clone");
    assert!(
        !Invariants::check(&c).ok(),
        "the landed flip must corrupt the clone"
    );

    // The original is untouched: state, oracle verdict, lock-free reader
    // metadata, and its trace stream (nothing the clone did landed there).
    assert_eq!(canon::encode(&k), enc);
    assert!(Invariants::check(&k).ok());
    for (h, pid) in handles {
        assert!(reader.live(h), "handle of pid {pid} went stale");
        assert_eq!(reader.pid_of(h), Some(pid));
    }
    let before = sink.len();
    apply(&mut c, ModelOp::Mmap { hart: 1 });
    assert_eq!(
        sink.len(),
        before,
        "the clone emitted into the source's sink"
    );
    assert!(k.trace_sink().is_some());
}
