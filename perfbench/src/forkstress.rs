//! `forkstress`: §V-D1 at paper scale — 30 000 simultaneous processes on
//! each of the four configurations (baseline, CFI, CFI+PTStore,
//! CFI+PTStore-Adj), 1 hart. The page-table write storm: fork copies tables
//! through `sd.pt`, the secure region grows, and exit+wait scan the largest
//! live process table the repository builds.

use std::time::Instant;

use ptstore_core::{GIB, MIB};
use ptstore_kernel::{Kernel, KernelConfig, KernelError, Snapshot};
use ptstore_workloads::c1m::tlb_digest;
use ptstore_workloads::fork_stress::{run_fork_stress, stress_configs, ForkStressResult};
use ptstore_workloads::report::overhead_pct;

use crate::counters::Probe;
use crate::harness::Workload;
use crate::shape::{Rng, PAPER_SEED};
use crate::trace::{Call, Tracer};
use crate::{field, PassOutput, Unit};

/// The paper's overheads for CFI, CFI+PTStore and CFI+PTStore-Adj, percent.
pub const PAPER_PCT: [f64; 3] = [2.84, 6.83, 3.77];

/// Fork-stress shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Simultaneous processes per configuration.
    pub procs: u64,
    /// Machine memory.
    pub mem_size: u64,
    /// Initial secure region of the adjusting CFI+PTStore row.
    pub small_region: u64,
    /// Secure region of the never-adjusting CFI+PTStore-Adj row.
    pub large_region: u64,
}

impl Shape {
    /// The paper shape: 30 000 processes, 4 GiB, 64 MiB vs 1 GiB regions.
    pub fn paper() -> Self {
        Self {
            procs: 30_000,
            mem_size: 4 * GIB,
            small_region: 64 * MIB,
            large_region: GIB,
        }
    }

    /// The paper shape on [`PAPER_SEED`], else a draw around it: memory and
    /// region sizes move by up to ±10%. The process count stays at paper
    /// scale: host time grows about 4× per doubling of processes, so a
    /// smaller count would hide the exit+wait cost and a drawn one would
    /// swamp run-to-run comparisons.
    pub fn for_seed(seed: u64) -> Self {
        if seed == PAPER_SEED {
            return Self::paper();
        }
        let p = Self::paper();
        let mut r = Rng::new(seed);
        Self {
            procs: p.procs,
            mem_size: r.around(p.mem_size, 0.1, 64 * MIB),
            small_region: r.around(p.small_region, 0.1, MIB),
            large_region: r.around(p.large_region, 0.1, MIB),
        }
    }

    /// The four configuration rows.
    pub fn configs(&self) -> [KernelConfig; 4] {
        stress_configs(self.mem_size, self.small_region, self.large_region)
    }
}

/// The forkstress workload.
pub struct ForkStress;

fn kerr(e: KernelError) -> String {
    format!("kernel error: {e:?}")
}

/// One row's canonical rendering.
fn render(r: &ForkStressResult, k: &Kernel, probe: &Probe, out: &mut PassOutput) -> String {
    let counters = probe.finish(k, &mut out.counters);
    format!(
        "{r:?} {counters} tlb_digest={:#018x} procs_left={}",
        tlb_digest(k),
        k.procs.len()
    )
}

impl Workload for ForkStress {
    type Shape = Shape;
    type Prepared = Vec<Kernel>;

    const NAME: &'static str = "forkstress";
    const GOLDEN: &'static str = include_str!("../golden/forkstress.txt");

    fn shape(seed: u64) -> Shape {
        Shape::for_seed(seed)
    }

    fn setup(shape: &Shape) -> Result<Vec<Kernel>, String> {
        shape
            .configs()
            .into_iter()
            .map(|cfg| Kernel::boot(cfg).map_err(kerr))
            .collect()
    }

    fn run(shape: &Shape, kernels: Vec<Kernel>) -> PassOutput {
        let mut out = PassOutput::default();
        for mut k in kernels {
            let name = k.cfg.label();
            let probe = Probe::take(&k);
            let t = Instant::now();
            let r = crate::guarded(|| run_fork_stress(&mut k, shape.procs).map_err(kerr));
            let secs = t.elapsed().as_secs_f64();
            out.ops += probe.stats_since(&k).syscalls;
            let render = r.map(|r| render(&r, &k, &probe, &mut out));
            out.units.push(Unit { name, render, secs });
        }
        out
    }

    fn run_traced(shape: &Shape, tr: &mut Tracer) -> PassOutput {
        let mut out = PassOutput::default();
        for cfg in shape.configs() {
            let name = cfg.label();
            let render = crate::guarded(|| {
                let mut k = tr.time(Call::Boot, || Kernel::boot(cfg)).map_err(kerr)?;
                let probe = Probe::take(&k);
                tr.enter("row");
                let r = fork_stress_traced(&mut k, shape.procs, tr);
                tr.leave();
                out.ops += probe.stats_since(&k).syscalls;
                Ok(render(&r.map_err(kerr)?, &k, &probe, &mut out))
            });
            out.units.push(Unit {
                name,
                render,
                secs: 0.0,
            });
        }
        out
    }

    fn check(shape: &Shape, out: &mut PassOutput) -> Vec<(usize, String)> {
        let mut bad = Vec::new();
        let cycles: Vec<Option<u64>> = out
            .units
            .iter()
            .map(|u| {
                let r = u.render.as_ref().ok()?;
                field(r, "cycles: ")
            })
            .collect();
        let (Some(base), Some(cfi), Some(pts), Some(adj)) =
            (cycles[0], cycles[1], cycles[2], cycles[3])
        else {
            return bad;
        };
        let pct = [cfi, pts, adj].map(|c| overhead_pct(c, base));
        let err = pct
            .iter()
            .zip(PAPER_PCT)
            .map(|(m, p)| (m - p).abs())
            .fold(0.0, f64::max);
        out.counters
            .insert("forkstress.paper_err_pp".to_string(), err);
        // The paper's ordering: CFI costs something, PTStore adds to it,
        // and the adjusting configuration pays the most.
        if !(pct[0] > 0.0 && pct[2] > pct[0] && pct[1] > pct[2]) {
            bad.push((2, format!("overhead ordering broken: {pct:?}")));
        }
        for (i, u) in out.units.iter().enumerate() {
            let Ok(r) = &u.render else { continue };
            if field(r, "created: ") != Some(shape.procs) {
                bad.push((i, "wrong process count".to_string()));
            }
            if field(r, "procs_left=") != Some(1) {
                bad.push((i, "processes left behind".to_string()));
            }
            let adjusts = field(r, "adjustments: ").unwrap_or(0) > 0;
            if adjusts != (i == 2) {
                bad.push((i, "only the small-region row may adjust".to_string()));
            }
        }
        bad
    }
}

/// [`run_fork_stress`] re-issued call by call, with each kernel call timed.
pub fn fork_stress_traced(
    k: &mut Kernel,
    count: u64,
    tr: &mut Tracer,
) -> Result<ForkStressResult, KernelError> {
    let cycles_before = k.cycles.total();
    let stats_before = k.stats;
    let mut children = Vec::with_capacity(count as usize);
    for _ in 0..count {
        children.push(tr.time(Call::Fork, || k.sys_fork())?);
    }
    for &child in &children {
        tr.time(Call::Switch, || k.do_switch_to(child))?;
        tr.time(Call::Exit, || k.sys_exit(0))?;
    }
    for _ in 0..children.len() {
        tr.time(Call::Wait, || k.sys_wait())?;
    }
    let d = k.stats.delta(&stats_before);
    Ok(ForkStressResult {
        created: count,
        cycles: k.cycles.since(cycles_before),
        adjustments: d.adjustments,
        migrated_pages: d.migrated_pages,
        final_region_size: k.secure_region().map(|r| r.size()),
        pt_pages_peak: k.stats.pt_pages_peak,
    })
}
