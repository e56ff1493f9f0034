//! The timing loop shared by every workload: set-up samples, measured
//! passes, output checks, and the metric report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ptstore_core::Fnv1a;

use crate::counters;
use crate::trace::{Call, Tracer};
use crate::PassOutput;

/// Stand-alone set-ups timed before the measured passes (each pass adds one
/// more sample).
pub const SETUP_REPS: usize = 15;

/// One benchmark workload.
pub trait Workload {
    /// The seeded input shape.
    type Shape: std::fmt::Debug;
    /// What [`Workload::setup`] builds for one pass: the booted kernels (or
    /// model machine) the pass starts from.
    type Prepared;

    /// The workload name on the command line.
    const NAME: &'static str;
    /// The committed golden output of the paper-seed pass.
    const GOLDEN: &'static str;

    /// The shape `seed` selects.
    fn shape(seed: u64) -> Self::Shape;
    /// Builds the inputs of one pass.
    ///
    /// # Errors
    /// A kernel that fails to boot.
    fn setup(shape: &Self::Shape) -> Result<Self::Prepared, String>;
    /// One untraced pass through the public entry points, each unit timed.
    fn run(shape: &Self::Shape, prepared: Self::Prepared) -> PassOutput;
    /// One pass through the traced twins, booting its own kernels.
    fn run_traced(shape: &Self::Shape, tr: &mut Tracer) -> PassOutput;
    /// Cross-unit consistency checks that hold on every seed; returns the
    /// failing unit indices with reasons. May add derived counters.
    fn check(shape: &Self::Shape, out: &mut PassOutput) -> Vec<(usize, String)>;
}

/// Run options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed ([`crate::shape::PAPER_SEED`] for the golden-checked
    /// paper shapes).
    pub seed: u64,
    /// Measured-phase budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_out: Option<std::path::PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every checked unit matched its reference and passed its checks.
    pub correct: bool,
    /// Checked units attempted.
    pub attempted: u64,
    /// Checked units that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines printed before the result.
    pub detail: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parses a golden file (or [`PassOutput::render`]): `name: render` lines;
/// `#` lines are comments.
pub fn golden_units(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, render) = l.split_once(": ")?;
            Some((name.to_string(), render.to_string()))
        })
        .collect()
}

/// Checks one pass: every unit rendered, matches `reference` when given,
/// and passes the workload's consistency checks. Returns `(attempted,
/// failed)` and appends the reasons to `why`.
fn verify<W: Workload>(
    shape: &W::Shape,
    out: &mut PassOutput,
    reference: Option<&[(String, String)]>,
    why: &mut Vec<String>,
) -> (u64, u64) {
    let mut bad: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, msg) in W::check(shape, out) {
        bad.entry(i).or_default().push(msg);
    }
    for (i, u) in out.units.iter().enumerate() {
        if let Err(e) = &u.render {
            bad.entry(i).or_default().push(e.clone());
            continue;
        }
        if let Some(reference) = reference {
            match reference.get(i) {
                Some((name, r)) if *name == u.name && Ok(r) == u.render.as_ref() => {}
                Some(_) => bad
                    .entry(i)
                    .or_default()
                    .push("modeled output differs".into()),
                None => bad
                    .entry(i)
                    .or_default()
                    .push("unit not in reference".into()),
            }
        }
    }
    let mut attempted = out.units.len() as u64;
    if let Some(reference) = reference {
        if reference.len() > out.units.len() {
            // Reference units the pass never produced count as failed.
            attempted += (reference.len() - out.units.len()) as u64;
            for i in out.units.len()..reference.len() {
                bad.entry(i).or_default().push("unit missing".into());
            }
        }
    }
    for (i, msgs) in &bad {
        let name = out.units.get(*i).map_or("?", |u| u.name.as_str());
        why.push(format!("{name}: {}", msgs.join("; ")));
    }
    (attempted, bad.len() as u64)
}

/// The median and quartiles of `v`, as Python's
/// `statistics.quantiles(v, n=4)` (exclusive method) gives them.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let q = |p: f64| {
        let m = (n + 1) as f64 * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(0.25), q(0.5), q(0.75))
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over the units' renders: compares held-out-seed output across
/// commits.
pub fn modeled_digest(out: &PassOutput) -> u64 {
    Fnv1a::hash_bytes(out.render().as_bytes())
}

/// Runs workload `W` under `opts`.
pub fn run<W: Workload>(opts: &Opts) -> Outcome {
    let shape = W::shape(opts.seed);
    let golden;
    let reference: Option<&[(String, String)]> = if opts.seed == crate::shape::PAPER_SEED {
        golden = golden_units(W::GOLDEN);
        Some(&golden)
    } else {
        None
    };
    let mut o = Outcome::default();
    o.detail.push(format!("shape: {shape:?}"));
    let mut why = Vec::new();

    if opts.trace {
        traced::<W>(&shape, reference, opts, &mut o, &mut why);
    } else {
        untraced::<W>(&shape, reference, opts, &mut o, &mut why);
    }

    if o.attempted == 0 {
        o.attempted = 1;
        o.failed = 1;
    }
    o.correct = o.failed == 0 && why.is_empty();
    for w in why {
        o.detail.push(format!("FAILED {w}"));
    }
    o
}

/// The untraced run: set-up samples, then measured passes until another
/// would overrun the budget (at least one).
fn untraced<W: Workload>(
    shape: &W::Shape,
    reference: Option<&[(String, String)]>,
    opts: &Opts,
    o: &mut Outcome,
    why: &mut Vec<String>,
) {
    let mut setups = Vec::new();
    let prepare = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let p = W::setup(shape);
        setups.push(t.elapsed().as_secs_f64());
        p
    };
    for _ in 0..SETUP_REPS {
        if let Err(e) = prepare(&mut setups) {
            why.push(format!("setup: {e}"));
            return;
        }
    }

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut run_s = Vec::new();
    let mut ops_per_s = Vec::new();
    let mut unit_secs = Vec::new();
    let mut rss = 0.0;
    let mut first: Option<Vec<(String, String)>> = None;
    loop {
        let lap = Instant::now();
        let prepared = match prepare(&mut setups) {
            Ok(p) => p,
            Err(e) => {
                why.push(format!("setup: {e}"));
                return;
            }
        };
        let mut out = W::run(shape, prepared);
        let (a, f) = verify::<W>(shape, &mut out, reference.or(first.as_deref()), why);
        o.attempted += a;
        o.failed += f;
        if first.is_none() {
            // Later passes only add allocator fragmentation, which grows
            // with the pass count that fits the budget.
            rss = peak_rss_mib();
            o.detail
                .push(format!("modeled-digest: {:#018x}", modeled_digest(&out)));
            first = Some(golden_units(&out.render()));
        }
        let secs = out.secs();
        unit_secs.push(out.units.iter().map(|u| u.secs).collect::<Vec<_>>());
        run_s.push(secs);
        ops_per_s.push(out.ops as f64 / secs);
        if start.elapsed() + lap.elapsed() > budget {
            break;
        }
    }
    let (q1, med, q3) = quartiles(&run_s);
    o.detail.push(format!(
        "passes: {} run_s median {med:.4} quartiles {q1:.4}..{q3:.4}",
        run_s.len()
    ));
    o.detail.push(format!("unit-secs: {unit_secs:?}"));
    let (s1, smed, s3) = quartiles(&setups);
    o.detail.push(format!(
        "setups: {} setup_s median {smed:.6} quartiles {s1:.6}..{s3:.6}",
        setups.len()
    ));
    o.metric("run_s", med, "s");
    o.metric("ops_per_s", median(&ops_per_s), "1/s");
    o.metric("setup_s", smed, "s");
    o.metric("peak_rss_mib", rss, "MiB");
}

/// The traced run: one untraced pass (the modeled counters and the
/// untraced time), then one traced pass that must reproduce its output.
fn traced<W: Workload>(
    shape: &W::Shape,
    reference: Option<&[(String, String)]>,
    opts: &Opts,
    o: &mut Outcome,
    why: &mut Vec<String>,
) {
    let prepared = match W::setup(shape) {
        Ok(p) => p,
        Err(e) => {
            why.push(format!("setup: {e}"));
            return;
        }
    };
    let mut plain = W::run(shape, prepared);
    let (a, f) = verify::<W>(shape, &mut plain, reference, why);
    o.attempted += a;
    o.failed += f;

    let mut tr = Tracer::default();
    let mut traced_out = W::run_traced(shape, &mut tr);
    // The trace must time the same program: identical modeled output.
    let (a, f) = verify::<W>(
        shape,
        &mut traced_out,
        Some(&golden_units(&plain.render())),
        why,
    );
    o.attempted += a;
    o.failed += f;

    let spans = tr.spans();
    let traced_s: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end - s.start).as_secs_f64())
        .sum();
    let self_s: f64 = spans
        .iter()
        .map(|s| (s.end - s.start).saturating_sub(s.child).as_secs_f64())
        .sum();
    let untraced_s = plain.secs();
    o.detail.push(format!(
        "traced: untraced {untraced_s:.4} s, traced {traced_s:.4} s, unattributed {self_s:.4} s"
    ));
    for &c in Call::ALL {
        let h = tr.hist(c);
        o.metric(format!("{}.calls", c.name()), h.calls() as f64, "count");
        o.metric(format!("{}.self_s", c.name()), h.total_s(), "s");
        o.metric(format!("{}.p50_us", c.name()), h.quantile_us(0.5), "us");
        o.metric(format!("{}.p99_us", c.name()), h.quantile_us(0.99), "us");
    }
    o.metric("driver.self_s", self_s, "s");
    o.metric("driver.self_pct", 100.0 * self_s / traced_s.max(1e-9), "%");
    o.metric(
        "trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s.max(1e-9),
        "%",
    );
    for name in counters::names() {
        let v = plain.counters.get(&name).copied().unwrap_or(0.0);
        o.metric(name.clone(), v, counter_unit(&name));
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, tr.to_json()) {
            why.push(format!("writing {}: {e}", path.display()));
        }
    }
}

fn counter_unit(name: &str) -> &'static str {
    match name {
        n if n.starts_with("cycles.") => "cycles",
        "kernel.pt_pages_peak" => "pages",
        "modelcheck.dedup_ratio" => "ratio",
        "forkstress.paper_err_pp" => "pp",
        _ => "count",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0]).1, 2.0);
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn golden_lines_split_at_the_first_separator() {
        let g = golden_units("# comment\nCFI+PTStore batched/watermark:8: a: b\n");
        assert_eq!(
            g,
            vec![("CFI+PTStore batched/watermark:8".into(), "a: b".into())]
        );
    }
}
