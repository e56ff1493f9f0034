//! `modelcheck`: the bounded BFS over the 30-op alphabet at 2 harts with the
//! boundary drain policy and every defense on, followed by the three
//! one-check ablations, each of which must falsify with its pinned
//! counterexample. Host time goes to booting the model machine, the
//! invariant oracle and the canonical digest — one of each per transition.

use std::collections::HashSet;
use std::time::Instant;

use ptstore_core::Fnv1a;
use ptstore_fault::{apply, boot_model, replay_trace, InvariantReport, Invariants, ModelOp};
use ptstore_kernel::{Kernel, KernelConfig};
use ptstore_modelcheck::{
    canon, explore, Ablation, Counterexample, ExploreReport, McConfig, ModelVerdict, OpKind,
};

use crate::counters;
use crate::harness::Workload;
use crate::shape::{Rng, PAPER_SEED};
use crate::trace::{Call, Tracer};
use crate::{PassOutput, Unit};

/// Model-checking shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// BFS depth bound.
    pub depth: u32,
    /// Op families, in alphabet order.
    pub kinds: Vec<OpKind>,
}

impl Shape {
    /// Depth 4 over the full default alphabet in canonical order.
    pub fn paper() -> Self {
        Self {
            depth: 4,
            kinds: OpKind::ALL.to_vec(),
        }
    }

    /// The paper shape on [`PAPER_SEED`]; any other seed permutes the op
    /// families. The depth is an integer, so it cannot move by ±10%; a
    /// permuted alphabet instead changes the exploration order (and hash)
    /// while the set of states reachable within the bound — and so the
    /// state and transition counts of the defended search — must not
    /// change.
    pub fn for_seed(seed: u64) -> Self {
        let mut s = Self::paper();
        if seed != PAPER_SEED {
            Rng::new(seed).shuffle(&mut s.kinds);
        }
        s
    }

    /// The defended search first, then one search per ablation.
    pub fn configs(&self) -> Vec<(String, McConfig)> {
        let base = McConfig {
            depth: self.depth,
            kinds: self.kinds.clone(),
            jobs: 1,
            ..McConfig::default()
        };
        let mut runs = vec![("verify".to_string(), base.clone())];
        for a in Ablation::ALL {
            runs.push((
                format!("ablate:{}", a.name()),
                McConfig {
                    ablate: Some(a),
                    ..base.clone()
                },
            ));
        }
        runs
    }
}

/// The modelcheck workload.
pub struct ModelCheck;

/// One search's canonical rendering: the deterministic summary, one line.
fn render(r: &ExploreReport) -> String {
    r.summary().trim_end().replace('\n', " | ")
}

fn record(mc: &McConfig, r: &ExploreReport, out: &mut PassOutput) {
    out.ops += r.transitions;
    if mc.ablate.is_none() {
        counters::add(&mut out.counters, "modelcheck.states", r.states as f64);
        counters::add(
            &mut out.counters,
            "modelcheck.transitions",
            r.transitions as f64,
        );
        counters::add(
            &mut out.counters,
            "modelcheck.dedup_ratio",
            r.states as f64 / r.transitions.max(1) as f64,
        );
    }
}

impl Workload for ModelCheck {
    type Shape = Shape;
    type Prepared = (Vec<(String, McConfig)>, Kernel);

    const NAME: &'static str = "modelcheck";
    const GOLDEN: &'static str = include_str!("../golden/modelcheck.txt");

    fn shape(seed: u64) -> Shape {
        Shape::for_seed(seed)
    }

    /// The search configurations and alphabet, plus the model machine the
    /// search starts from, booted as its root state is.
    fn setup(shape: &Shape) -> Result<Self::Prepared, String> {
        let runs = shape.configs();
        let root = crate::guarded(|| Ok(boot_model(&runs[0].1.kernel_config())))?;
        std::hint::black_box(runs[0].1.alphabet());
        Ok((runs, root))
    }

    fn run(_shape: &Shape, (runs, _root): Self::Prepared) -> PassOutput {
        let mut out = PassOutput::default();
        for (name, mc) in runs {
            let t = Instant::now();
            let r = crate::guarded(|| Ok(explore(&mc)));
            let secs = t.elapsed().as_secs_f64();
            let render = r.map(|r| {
                record(&mc, &r, &mut out);
                render(&r) + &replay_note(&mc, &r)
            });
            out.units.push(Unit { name, render, secs });
        }
        out
    }

    fn run_traced(shape: &Shape, tr: &mut Tracer) -> PassOutput {
        let mut out = PassOutput::default();
        for (name, mc) in shape.configs() {
            let render = crate::guarded(|| {
                tr.enter("row");
                let r = explore_traced(&mc, tr);
                tr.leave();
                record(&mc, &r, &mut out);
                Ok(render(&r) + &replay_note(&mc, &r))
            });
            out.units.push(Unit {
                name,
                render,
                secs: 0.0,
            });
        }
        out
    }

    fn check(_shape: &Shape, out: &mut PassOutput) -> Vec<(usize, String)> {
        let mut bad = Vec::new();
        for (i, u) in out.units.iter().enumerate() {
            let Ok(r) = &u.render else { continue };
            let want = if i == 0 { "VERIFIED" } else { "FALSIFIED" };
            if !r.contains(&format!("verdict          : {want}")) {
                bad.push((i, format!("expected {want}")));
            }
            if i > 0 && !r.ends_with("replay=violates") {
                bad.push((i, "counterexample does not replay".to_string()));
            }
        }
        // The reachable state set does not depend on the alphabet order:
        // every seed's defended search must count what the paper order
        // counts.
        let golden = crate::harness::golden_units(Self::GOLDEN);
        if let (Some(Ok(r)), Some((_, g))) = (out.units.first().map(|u| &u.render), golden.first())
        {
            for key in ["states explored", "transitions"] {
                if summary_line(r, key) != summary_line(g, key) {
                    bad.push((0, format!("{key} differ from the paper alphabet order")));
                }
            }
        }
        bad
    }
}

/// The ` | `-separated summary segment starting with `key`.
fn summary_line<'a>(render: &'a str, key: &str) -> Option<&'a str> {
    render
        .split(" | ")
        .map(str::trim)
        .find(|l| l.starts_with(key))
}

/// For a falsified search, whether its counterexample re-executes to a
/// violating state on a fresh machine.
fn replay_note(mc: &McConfig, r: &ExploreReport) -> String {
    match &r.counterexample {
        Some(cex) if !replay_trace(&mc.kernel_config(), &cex.trace).ok() => {
            " | replay=violates".to_string()
        }
        Some(_) => " | replay=clean".to_string(),
        None => String::new(),
    }
}

fn violations(rep: &InvariantReport) -> Vec<String> {
    rep.violations.iter().map(|v| format!("{v:?}")).collect()
}

/// `replay` with the boot and each op timed.
fn replay_traced(cfg: &KernelConfig, trace: &[ModelOp], tr: &mut Tracer) -> Kernel {
    let mut k = tr.time(Call::BootModel, || boot_model(cfg));
    for &op in trace {
        tr.time(Call::Apply, || apply(&mut k, op));
    }
    k
}

/// `replay_trace` with every call timed.
fn replay_trace_traced(cfg: &KernelConfig, trace: &[ModelOp], tr: &mut Tracer) -> InvariantReport {
    let k = replay_traced(cfg, trace, tr);
    tr.time(Call::Oracle, || Invariants::check(&k))
}

/// [`explore`] at one job, re-issued call by call: every `boot_model`,
/// `apply`, `Invariants::check` and `canon::digest` is timed, with one
/// `transition` span per expanded edge.
pub fn explore_traced(mc: &McConfig, tr: &mut Tracer) -> ExploreReport {
    let kcfg = mc.kernel_config();
    let alphabet = mc.alphabet();
    let config_line = format!(
        "scheme={} harts={} drain={} ablate={} depth={} alphabet={}",
        mc.scheme.name(),
        mc.harts,
        match mc.drain_policy {
            Some(p) => p.to_string(),
            None => "eager".to_string(),
        },
        match mc.ablate {
            Some(a) => a.name(),
            None => "none",
        },
        mc.depth,
        alphabet.len(),
    );

    let root = tr.time(Call::BootModel, || boot_model(&kcfg));
    let root_rep = tr.time(Call::Oracle, || Invariants::check(&root));
    let root_digest = tr.time(Call::Digest, || canon::digest(&root));
    let mut exploration = Fnv1a::new();
    exploration.write_u64(root_digest);
    let mut report = ExploreReport {
        verdict: ModelVerdict::Verified,
        states: 1,
        transitions: 0,
        oracle_checks: 1,
        states_per_depth: vec![1],
        exploration_digest: exploration.finish(),
        alphabet_len: alphabet.len(),
        counterexample: None,
        config_line,
    };
    if !root_rep.ok() {
        report.verdict = ModelVerdict::Falsified;
        report.counterexample = Some(Counterexample {
            trace: Vec::new(),
            violations: violations(&root_rep),
            shrunk_from: 0,
        });
        return report;
    }

    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(root_digest);
    let mut frontier: Vec<Vec<ModelOp>> = vec![Vec::new()];
    let mut raw_counterexample: Option<Vec<ModelOp>> = None;
    let mut truncated = false;

    'levels: for _ in 1..=mc.depth {
        if frontier.is_empty() || truncated {
            break;
        }
        let work: Vec<(usize, ModelOp)> = (0..frontier.len())
            .flat_map(|i| alphabet.iter().map(move |&op| (i, op)))
            .collect();
        // Expand the whole level first, then merge in submission order,
        // exactly as the search does.
        let results: Vec<(u64, bool)> = work
            .iter()
            .map(|&(i, op)| {
                tr.enter("transition");
                let mut k = replay_traced(&kcfg, &frontier[i], tr);
                tr.time(Call::Apply, || apply(&mut k, op));
                let rep = tr.time(Call::Oracle, || Invariants::check(&k));
                let digest = tr.time(Call::Digest, || canon::digest(&k));
                drop(k);
                tr.leave();
                (digest, rep.ok())
            })
            .collect();

        let mut next: Vec<Vec<ModelOp>> = Vec::new();
        let mut discovered = 0u64;
        for (&(i, op), (digest, ok)) in work.iter().zip(results) {
            report.transitions += 1;
            report.oracle_checks += 1;
            if !ok {
                let mut trace = frontier[i].clone();
                trace.push(op);
                raw_counterexample = Some(trace);
                if seen.insert(digest) {
                    discovered += 1;
                    report.states += 1;
                    exploration.write_u64(digest);
                }
                report.states_per_depth.push(discovered);
                break 'levels;
            }
            if seen.insert(digest) {
                discovered += 1;
                report.states += 1;
                exploration.write_u64(digest);
                if report.states >= mc.max_states {
                    truncated = true;
                } else {
                    let mut trace = frontier[i].clone();
                    trace.push(op);
                    next.push(trace);
                }
            }
        }
        if raw_counterexample.is_none() {
            report.states_per_depth.push(discovered);
        }
        frontier = next;
    }

    report.exploration_digest = exploration.finish();
    if let Some(trace) = raw_counterexample {
        // Greedy single-op-drop shrink to a fixed point, each candidate
        // validated by a full replay.
        let shrunk_from = trace.len();
        let mut cur = trace;
        loop {
            let mut dropped = false;
            let mut i = 0;
            while i < cur.len() && cur.len() > 1 {
                let mut cand = cur.clone();
                cand.remove(i);
                if !replay_trace_traced(&kcfg, &cand, tr).ok() {
                    cur = cand;
                    dropped = true;
                } else {
                    i += 1;
                }
            }
            if !dropped {
                break;
            }
        }
        let final_rep = replay_trace_traced(&kcfg, &cur, tr);
        report.verdict = ModelVerdict::Falsified;
        report.counterexample = Some(Counterexample {
            trace: cur,
            violations: violations(&final_rep),
            shrunk_from,
        });
    } else if truncated {
        report.verdict = ModelVerdict::Truncated;
    }
    report
}
