//! Host-time benchmark of the PTStore simulator.
//!
//! Three workloads — `forkstress`, `c1m` and `modelcheck` — each run
//! through the repository's public entry points ([`run_fork_stress`],
//! [`run_c1m`], [`explore`]) with tracing off, and through a traced twin
//! built in this crate that re-issues the same public calls with a timer
//! around each call into a layer. Every modeled output is checked: against
//! the committed goldens on the paper seed, against the run's first pass on
//! any other seed, and, for the traced twin, against the untraced pass.
//!
//! [`run_fork_stress`]: ptstore_workloads::fork_stress::run_fork_stress
//! [`run_c1m`]: ptstore_workloads::c1m::run_c1m
//! [`explore`]: ptstore_modelcheck::explore

pub mod c1m;
pub mod counters;
pub mod forkstress;
pub mod harness;
pub mod modelcheck;
pub mod shape;
pub mod trace;

use counters::Counters;

/// One checked unit of a pass: a configuration row, or one model-checking
/// run. `render` is the canonical text of every modeled output the unit
/// produced; two runs of the same program on the same inputs must render
/// byte-identical text.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Row or run name.
    pub name: String,
    /// Canonical modeled output, or the error that made the unit fail.
    pub render: Result<String, String>,
    /// Host seconds inside the unit's public entry-point call (0 for the
    /// traced twins, which the trace times instead).
    pub secs: f64,
}

/// Everything one pass over a workload produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// The checked units, in run order.
    pub units: Vec<Unit>,
    /// Workload operations performed: kernel syscalls for the kernel
    /// workloads, BFS transitions for `modelcheck`.
    pub ops: u64,
    /// Modeled per-layer counters, read from public fields after each unit.
    pub counters: Counters,
}

impl PassOutput {
    /// Host seconds inside the public entry-point calls.
    pub fn secs(&self) -> f64 {
        self.units.iter().map(|u| u.secs).sum()
    }

    /// The units' renders, one line each, for golden comparison.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for u in &self.units {
            match &u.render {
                Ok(r) => s.push_str(&format!("{}: {r}\n", u.name)),
                Err(e) => s.push_str(&format!("{}: FAILED {e}\n", u.name)),
            }
        }
        s
    }
}

/// Runs `f`, turning a panic into an error string: a kernel failure is a
/// failed unit, not a crashed benchmark.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(match p.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match p.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// The first unsigned number after `key` in `s` (a field of a unit's
/// rendering).
pub(crate) fn field(s: &str, key: &str) -> Option<u64> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
