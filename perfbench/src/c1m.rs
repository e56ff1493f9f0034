//! `c1m`: the paper-shape C1M serving run — 500 tenant slots × 20 churn
//! rounds × 100 connections = 1M connections per row on a 2-hart machine,
//! swept over native, eager CFI+PTStore, and batched CFI+PTStore under each
//! drain policy. The serving path: mostly syscalls and page faults against
//! a small process table, with shootdowns on every mapping change.

use std::time::Instant;

use ptstore_core::{VirtAddr, GIB, MIB, PAGE_SIZE};
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{CostKind, DrainPolicy, Kernel, KernelConfig, KernelError, Pid, Snapshot};
use ptstore_workloads::c1m::{run_c1m, tlb_digest, C1mParams, C1mResult};
use ptstore_workloads::smp::{HartShare, SmpRunReport};

use crate::counters::Probe;
use crate::harness::Workload;
use crate::shape::{Rng, PAPER_SEED};
use crate::trace::{Call, Tracer};
use crate::{field, PassOutput, Unit};

/// C1M shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// The workload parameters.
    pub params: C1mParams,
    /// Machine memory.
    pub mem_size: u64,
    /// Initial secure region.
    pub secure_size: u64,
    /// Harts (the sweep needs a remote TLB to shoot down).
    pub harts: usize,
}

impl Shape {
    /// `reproduce --harts 2 c1m`: 1M connections per row on 4 GiB.
    pub fn paper() -> Self {
        Self {
            params: C1mParams::paper(),
            mem_size: 4 * GIB,
            secure_size: 64 * MIB,
            harts: 2,
        }
    }

    /// The paper shape on [`PAPER_SEED`], else a draw around it: tenant
    /// slots within ±5% with connections per tenant chosen to keep 1M
    /// connections per row (within ±0.5%), and response size, heap size
    /// and per-request user cycles within ±10%. The churn rounds stay at
    /// 20, so the work per row — and the host time — stays comparable
    /// across seeds.
    pub fn for_seed(seed: u64) -> Self {
        if seed == PAPER_SEED {
            return Self::paper();
        }
        let p = C1mParams::paper();
        let mut r = Rng::new(seed);
        let tenants = r.around(p.tenants, 0.05, 1);
        let requests = p.connections() as f64 / (tenants * p.churn_rounds) as f64;
        Self {
            params: C1mParams {
                tenants,
                requests_per_tenant: requests.round() as u64,
                response_bytes: r.around(p.response_bytes, 0.1, 64),
                heap_pages: r.range(p.heap_pages - 1, p.heap_pages + 1),
                user_cycles_per_request: r.around(p.user_cycles_per_request, 0.1, 1),
                ..p
            },
            ..Self::paper()
        }
    }

    /// The five sweep rows, labelled as `reproduce c1m` labels them.
    pub fn configs(&self) -> Vec<(String, KernelConfig)> {
        let geometry = |cfg: KernelConfig| {
            cfg.to_builder()
                .mem_size(self.mem_size)
                .initial_secure_size(self.secure_size.min(self.mem_size / 4))
                .harts(self.harts)
                .build()
                .expect("valid c1m geometry")
        };
        let mut rows = vec![
            ("Native".to_string(), geometry(KernelConfig::baseline())),
            (
                "CFI+PTStore eager".to_string(),
                geometry(KernelConfig::cfi_ptstore()),
            ),
        ];
        for pol in [
            DrainPolicy::Boundary,
            DrainPolicy::Watermark { depth: 8 },
            DrainPolicy::AsidRecycle,
        ] {
            rows.push((
                format!("CFI+PTStore batched/{pol}"),
                geometry(
                    KernelConfig::cfi_ptstore()
                        .with_deferred_shootdowns(true)
                        .with_alloc_magazines(true)
                        .with_drain_policy(pol),
                ),
            ));
        }
        rows
    }
}

/// The c1m workload.
pub struct C1m;

fn kerr(e: KernelError) -> String {
    format!("kernel error: {e:?}")
}

fn render(r: &C1mResult, k: &Kernel, probe: &Probe, out: &mut PassOutput) -> String {
    let forks = probe.stats_since(k).forks;
    let counters = probe.finish(k, &mut out.counters);
    format!(
        "{r:?} forks={forks} clean={} {counters}",
        k.security_log.is_empty()
    )
}

impl Workload for C1m {
    type Shape = Shape;
    type Prepared = Vec<(String, Kernel)>;

    const NAME: &'static str = "c1m";
    const GOLDEN: &'static str = include_str!("../golden/c1m.txt");

    fn shape(seed: u64) -> Shape {
        Shape::for_seed(seed)
    }

    fn setup(shape: &Shape) -> Result<Vec<(String, Kernel)>, String> {
        shape
            .configs()
            .into_iter()
            .map(|(label, cfg)| Ok((label, Kernel::boot(cfg).map_err(kerr)?)))
            .collect()
    }

    fn run(shape: &Shape, kernels: Vec<(String, Kernel)>) -> PassOutput {
        let mut out = PassOutput::default();
        for (name, mut k) in kernels {
            let probe = Probe::take(&k);
            let t = Instant::now();
            let r = crate::guarded(|| Ok(run_c1m(&mut k, &shape.params)));
            let secs = t.elapsed().as_secs_f64();
            out.ops += probe.stats_since(&k).syscalls;
            let render = r.map(|r| render(&r, &k, &probe, &mut out));
            out.units.push(Unit { name, render, secs });
        }
        out
    }

    fn run_traced(shape: &Shape, tr: &mut Tracer) -> PassOutput {
        let mut out = PassOutput::default();
        for (name, cfg) in shape.configs() {
            let render = crate::guarded(|| {
                let mut k = tr.time(Call::Boot, || Kernel::boot(cfg)).map_err(kerr)?;
                let probe = Probe::take(&k);
                tr.enter("row");
                let r = c1m_traced(&mut k, &shape.params, tr);
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
        let p = &shape.params;
        let mut bad = Vec::new();
        let mut digests = Vec::new();
        let mut ipis = Vec::new();
        for (i, u) in out.units.iter().enumerate() {
            let Ok(r) = &u.render else { continue };
            if field(r, "connections: ") != Some(p.connections()) {
                bad.push((i, "wrong connection count".to_string()));
            }
            // Every tenant generation plus one supervisor per hart.
            if field(r, "forks=") != Some(p.processes() + shape.harts as u64) {
                bad.push((i, "wrong fork count".to_string()));
            }
            if !r.contains("clean=true") {
                bad.push((i, "security events on a clean run".to_string()));
            }
            digests.push(field(r, "tlb_digest: "));
            ipis.push(field(r, "shootdown_ipis: "));
        }
        if digests.len() == 5 {
            // Drain policies move drain placement only: the final TLB
            // state must be identical across the batched rows.
            if digests[2] != digests[3] || digests[2] != digests[4] {
                bad.push((3, "drain policies left different TLB states".to_string()));
            }
            if ipis[2] >= ipis[1] {
                bad.push((2, "batching did not cut shootdown IPIs".to_string()));
            }
        }
        bad
    }
}

/// [`run_c1m`] at one host thread, re-issued call by call with each kernel
/// call timed and one `tenant` span per tenant generation.
pub fn c1m_traced(
    k: &mut Kernel,
    p: &C1mParams,
    tr: &mut Tracer,
) -> Result<C1mResult, KernelError> {
    let doc = vec![0x42u8; p.response_bytes as usize];
    k.fs.create("/srv/tenant.bin", doc);
    let stats0 = k.stats;
    // One supervisor per hart, each switched onto its hart.
    let harts = k.harts.len();
    k.set_active_hart(0);
    let mut workers: Vec<Pid> = Vec::with_capacity(harts);
    for _ in 0..harts {
        workers.push(tr.time(Call::Fork, || k.sys_fork())?);
    }
    let mut handles = Vec::with_capacity(harts);
    for (h, &w) in workers.iter().enumerate() {
        k.set_active_hart(h);
        tr.time(Call::Switch, || k.do_switch_to(w))?;
        handles.push(k.proc_handle(w).ok_or(KernelError::NoSuchProcess)?);
    }
    k.set_active_hart(0);
    // Tenant slots split across harts, earlier harts taking the remainder.
    let shares: Vec<u64> = (0..harts as u64)
        .map(|h| p.tenants / harts as u64 + u64::from(h < p.tenants % harts as u64))
        .collect();
    let shootdowns0 = k.stats.tlb_shootdowns;
    let ipis0 = k.stats.shootdown_ipis;
    let before: Vec<u64> = k.harts.iter().map(|h| h.cycles.total()).collect();
    for (hart, &slots) in shares.iter().enumerate() {
        if slots == 0 {
            continue;
        }
        k.set_active_hart(hart);
        let supervisor = workers[hart];
        for _ in 0..p.churn_rounds {
            for _ in 0..slots {
                tr.enter("tenant");
                let tenant = tr.time(Call::Fork, || k.sys_fork())?;
                tr.time(Call::Switch, || k.do_switch_to(tenant))?;
                serve_tenant_traced(k, p, tr)?;
                tr.time(Call::Exit, || k.sys_exit(0))?;
                if k.current_pid() != supervisor {
                    tr.time(Call::Switch, || k.do_switch_to(supervisor))?;
                }
                tr.time(Call::Wait, || k.sys_wait())?;
                tr.leave();
            }
        }
    }
    k.set_active_hart(0);
    for (&pid, &handle) in workers.iter().zip(&handles) {
        if k.resolve_handle(handle).is_none_or(|w| w.pid != pid) {
            return Err(KernelError::NoSuchProcess);
        }
    }
    let deltas: Vec<u64> = k
        .harts
        .iter()
        .zip(&before)
        .map(|(h, b)| h.cycles.total() - b)
        .collect();
    let wall_cycles = deltas.iter().copied().max().unwrap_or(0);
    let per_hart = (0..harts)
        .map(|h| HartShare {
            hart: h,
            ops: shares[h],
            cycles: deltas[h],
            utilization: if wall_cycles == 0 {
                0.0
            } else {
                deltas[h] as f64 / wall_cycles as f64
            },
        })
        .collect();
    let report = SmpRunReport {
        workload: "c1m".to_string(),
        harts,
        ops: shares.iter().sum(),
        wall_cycles,
        busy_cycles: deltas.iter().sum(),
        per_hart,
        tlb_shootdowns: k.stats.tlb_shootdowns - shootdowns0,
        shootdown_ipis: k.stats.shootdown_ipis - ipis0,
    };
    let d = k.stats.delta(&stats0);
    Ok(C1mResult {
        report,
        connections: p.connections(),
        processes: p.processes(),
        adjustments: d.adjustments,
        deferred_drains: d.deferred_drains,
        deferred_pages_coalesced: d.deferred_pages_coalesced,
        watermark_drains: d.watermark_drains,
        asid_recycle_drains: d.asid_recycle_drains,
        deferred_queue_peak: d.deferred_queue_peak,
        tlb_digest: tlb_digest(k),
    })
}

/// One tenant generation of the c1m serve loop, each kernel call timed.
fn serve_tenant_traced(k: &mut Kernel, p: &C1mParams, tr: &mut Tracer) -> Result<(), KernelError> {
    const REQUEST_BYTES: u64 = 420;
    const BATCH: u64 = 16;

    let heap_base = k
        .procs
        .get(k.current_pid())
        .ok_or(KernelError::NoSuchProcess)?
        .brk;
    tr.time(Call::Brk, || {
        k.sys_brk(heap_base + p.heap_pages * PAGE_SIZE)
    })?;
    for i in 0..p.heap_pages {
        tr.time(Call::Touch, || {
            k.sys_touch(VirtAddr::new(heap_base + i * PAGE_SIZE), true)
        })?;
    }
    let mut served = 0u64;
    let mut since_pool_churn = 0u64;
    let mut hardened = false;
    while served < p.requests_per_tenant {
        let batch = BATCH.min(p.requests_per_tenant - served);
        tr.time(Call::Select, || k.sys_select(batch))?;
        since_pool_churn += batch;
        if since_pool_churn >= 32 {
            since_pool_churn = 0;
            let arena = tr.time(Call::Mmap, || k.sys_mmap(4 * PAGE_SIZE))?;
            for i in 0..4 {
                tr.time(Call::Touch, || {
                    k.sys_touch(VirtAddr::new(arena.as_u64() + i * PAGE_SIZE), true)
                })?;
            }
            tr.time(Call::Munmap, || k.sys_munmap(arena, 4 * PAGE_SIZE))?;
            let head = VirtAddr::new(heap_base);
            let perms = if hardened { VmPerms::RW } else { VmPerms::RO };
            tr.time(Call::Mprotect, || {
                k.sys_mprotect(head, 2 * PAGE_SIZE, perms)
            })?;
            hardened = !hardened;
        }
        for _ in 0..batch {
            let sock = tr.time(Call::Accept, || k.sys_accept(REQUEST_BYTES))?;
            tr.time(Call::Recv, || k.sys_recv(sock, REQUEST_BYTES))?;
            k.charge(CostKind::User, p.user_cycles_per_request);
            let fd = tr.time(Call::Open, || k.sys_open("/srv/tenant.bin"))?;
            tr.time(Call::Fstat, || k.sys_fstat(fd))?;
            let mut remaining = p.response_bytes;
            while remaining > 0 {
                let chunk = remaining.min(64 << 10);
                tr.time(Call::Read, || k.sys_read_discard(fd, chunk))?;
                tr.time(Call::Send, || k.sys_send(sock, chunk))?;
                remaining -= chunk;
            }
            tr.time(Call::Close, || k.sys_close(fd))?;
            tr.time(Call::Close, || k.sys_close(sock))?;
        }
        served += batch;
    }
    Ok(())
}
