//! Outside-in layer trace: a timer around each call the traced twins make
//! into a layer, aggregated into fixed-size histograms, plus parent spans at
//! row, tenant-generation and BFS-transition granularity.
//!
//! Memory stays bounded however many calls a run makes: each [`Call`] owns
//! one [`Hist`] of fixed size, and only the coarse parent spans are kept
//! individually. The spans are written out once, at the end of the run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

macro_rules! calls {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// A timed call into one layer, named `<layer>.<call>`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Call { $($variant),* }

        impl Call {
            /// Every call, in report order.
            pub const ALL: &'static [Call] = &[$(Call::$variant),*];

            /// The metric prefix, `<layer>.<call>`.
            pub fn name(self) -> &'static str {
                match self { $(Call::$variant => $name),* }
            }
        }
    };
}

calls! {
    Boot => "kernel.boot",
    Fork => "kernel.fork",
    Exit => "kernel.exit",
    Wait => "kernel.wait",
    Switch => "kernel.switch",
    Brk => "kernel.brk",
    Touch => "kernel.touch",
    Mmap => "kernel.mmap",
    Munmap => "kernel.munmap",
    Mprotect => "kernel.mprotect",
    Select => "kernel.select",
    Accept => "kernel.accept",
    Recv => "kernel.recv",
    Open => "kernel.open",
    Fstat => "kernel.fstat",
    Read => "kernel.read",
    Send => "kernel.send",
    Close => "kernel.close",
    BootModel => "fault.boot_model",
    Apply => "fault.apply",
    Oracle => "fault.oracle",
    Digest => "modelcheck.digest",
}

/// Sub-buckets per power of two: quantiles are exact to within 1/32.
const SUB: u64 = 16;
const BUCKETS: usize = (SUB + (64 - 4) * SUB) as usize;

/// A log-linear histogram of call durations in nanoseconds.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    calls: u64,
    total_ns: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            calls: 0,
            total_ns: 0,
        }
    }
}

fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let e = 63 - u64::from(ns.leading_zeros());
    let shift = e - 4;
    (SUB + (e - 4) * SUB + ((ns >> shift) - SUB)) as usize
}

/// The midpoint of bucket `i`, in nanoseconds.
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let e = (i - SUB) / SUB + 4;
    let m = (i - SUB) % SUB + SUB;
    let lo = m << (e - 4);
    let hi = (m + 1) << (e - 4);
    (lo + hi) as f64 / 2.0
}

impl Hist {
    /// Records one call.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket(ns)] += 1;
        self.calls += 1;
        self.total_ns += u128::from(ns);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Summed duration, in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// The `q` quantile, in microseconds (0 when nothing was recorded).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        let rank = ((q * self.calls as f64).ceil() as u64).clamp(1, self.calls);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i) / 1e3;
            }
        }
        unreachable!("rank is at most the number of recorded calls")
    }
}

/// A coarse parent span: one row, tenant generation or BFS transition.
#[derive(Debug, Clone)]
pub struct Span {
    /// `row`, `tenant` or `transition`.
    pub kind: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// End, since the tracer was created (zero while open).
    pub end: Duration,
    /// Time spent in timed calls while this span was the innermost open one.
    pub child: Duration,
}

/// The per-run trace: one histogram per [`Call`] and the parent spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    hists: Vec<Hist>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            hists: vec![Hist::default(); Call::ALL.len()],
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Times `f` as one `call`.
    #[inline]
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        self.hists[call as usize].record(d);
        if let Some(&s) = self.open.last() {
            self.spans[s].child += d;
        }
        r
    }

    /// Opens a parent span of `kind` inside the innermost open one.
    pub fn enter(&mut self, kind: &'static str) {
        let idx = self.spans.len();
        self.spans.push(Span {
            kind,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            child: Duration::ZERO,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn leave(&mut self) {
        let idx = self.open.pop().expect("leave matches an enter");
        let end = self.origin.elapsed();
        let span = &mut self.spans[idx];
        span.end = end;
        let d = span.end - span.start;
        if let Some(p) = span.parent {
            self.spans[p].child += d;
        }
    }

    /// The histogram of `call`.
    pub fn hist(&self, call: Call) -> &Hist {
        &self.hists[call as usize]
    }

    /// The parent spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole trace as JSON: per-call aggregates, then every parent span
    /// with its self time (duration minus the time its children cover).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"calls\": [");
        for (i, &c) in Call::ALL.iter().enumerate() {
            let h = self.hist(c);
            let _ = write!(
                s,
                "{}\n  {{\"name\": \"{}\", \"calls\": {}, \"self_s\": {:.9}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}}",
                if i == 0 { "" } else { "," },
                c.name(),
                h.calls(),
                h.total_s(),
                h.quantile_us(0.5),
                h.quantile_us(0.99)
            );
        }
        s.push_str("\n], \"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let dur = sp.end.saturating_sub(sp.start);
            let _ = write!(
                s,
                "{}\n  {{\"id\": {i}, \"kind\": \"{}\", \"parent\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}, \"self_us\": {:.3}}}",
                if i == 0 { "" } else { "," },
                sp.kind,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.start.as_secs_f64() * 1e6,
                dur.as_secs_f64() * 1e6,
                dur.saturating_sub(sp.child).as_secs_f64() * 1e6
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 100, 1_000, 123_456, 1 << 40] {
            let b = bucket(ns);
            assert!(b >= last, "{ns}");
            last = b;
            let mid = bucket_mid(b);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 / 16.0 + 1.0,
                "{ns} -> {mid}"
            );
        }
        assert!(bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_and_self_time() {
        let mut t = Tracer::default();
        t.enter("row");
        for us in 1..=100u64 {
            t.time(Call::Fork, || std::thread::sleep(Duration::ZERO));
            t.hists[Call::Exit as usize].record(Duration::from_micros(us));
        }
        t.leave();
        assert_eq!(t.hist(Call::Fork).calls(), 100);
        let p50 = t.hist(Call::Exit).quantile_us(0.5);
        assert!((48.0..=52.0).contains(&p50), "{p50}");
        let p99 = t.hist(Call::Exit).quantile_us(0.99);
        assert!((96.0..=102.0).contains(&p99), "{p99}");
        let row = &t.spans()[0];
        assert!(row.child <= row.end - row.start);
        assert_eq!(t.hist(Call::Wait).quantile_us(0.5), 0.0);
    }
}
