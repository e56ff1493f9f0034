//! Differential property tests for the bus's page bursts.
//!
//! [`Bus::read_words`] and [`Bus::write_words`] promise to be exactly the
//! per-word loop of [`Bus::read`]/[`Bus::write`] at ascending addresses,
//! stopping at the first failing access — only faster, by taking one PMP
//! decision per page the PMP proves uniform. These tests run random bursts
//! on one bus and the per-word loop on a clone, under random PMP programs
//! (raw TOR/NA4/NAPOT entries whose boundaries often cut a page, plus a
//! page-aligned secure region), every channel, `satp.S` on and off, every
//! privilege mode, and random start, misalignment and length, and require
//! the same values or error (with the same completed-word count), the same
//! final memory, the same `AccessStats` and the same fault count. A traced
//! pair must also emit the same event stream.

use proptest::prelude::*;
use ptstore_core::prelude::*;
use ptstore_core::{PmpEntry, PmpPermissions};
use ptstore_mem::{BurstError, Bus};
use ptstore_trace::TraceSink;

/// Memory under test: small, so that bursts near the top run out of range.
const MEM_PAGES: u64 = 24;
/// Bursts may start a little past the end of memory.
const PROBE_PAGES: u64 = MEM_PAGES + 2;

#[derive(Debug, Clone)]
struct Burst {
    write: bool,
    addr: u64,
    values: Vec<u64>,
    channel: Channel,
    ctx: AccessContext,
}

fn arb_channel() -> impl Strategy<Value = Channel> {
    prop_oneof![
        Just(Channel::Regular),
        Just(Channel::SecurePt),
        Just(Channel::Ptw),
    ]
}

fn arb_ctx() -> impl Strategy<Value = AccessContext> {
    (any::<bool>(), 0u8..4).prop_map(|(satp_s, mode)| match mode {
        0 => AccessContext::user(satp_s),
        1 => AccessContext::machine(),
        _ => AccessContext::supervisor(satp_s),
    })
}

/// A word value: zero often, so stores also clear sparse frame words.
fn arb_word() -> impl Strategy<Value = u64> {
    prop_oneof![1 => Just(0u64), 3 => any::<u64>()]
}

fn arb_burst() -> impl Strategy<Value = Burst> {
    (
        any::<bool>(),
        0..PROBE_PAGES * PAGE_SIZE / 8,
        prop_oneof![8 => Just(0u64), 1 => Just(4u64)],
        proptest::collection::vec(arb_word(), 0..1100),
        arb_channel(),
        arb_ctx(),
    )
        .prop_map(|(write, word, skew, values, channel, ctx)| Burst {
            write,
            addr: word * 8 + skew,
            values,
            channel,
            ctx,
        })
}

/// An optional page-aligned secure region `(base page, pages)`.
fn arb_region() -> impl Strategy<Value = Option<(u64, u64)>> {
    (any::<bool>(), 1u64..MEM_PAGES, 1u64..8)
        .prop_map(|(on, base, pages)| on.then_some((base, pages)))
}

/// A raw PMP entry write: any cfg byte and a `pmpaddr` inside the probe
/// space, so TOR and NA4 boundaries usually fall inside a page.
fn arb_entry() -> impl Strategy<Value = (usize, u8, u64)> {
    (0usize..8, any::<u8>(), 0..(PROBE_PAGES * PAGE_SIZE) >> 2)
}

/// A bus with seeded memory, a secure region and the raw entries applied.
fn build_bus(
    seed_words: &[(u64, u64)],
    region: Option<(u64, u64)>,
    entries: &[(usize, u8, u64)],
    fast_path: bool,
) -> Bus {
    let mut bus = Bus::new(MEM_PAGES * PAGE_SIZE);
    bus.pmp_mut().set_fast_path(fast_path);
    for &(word, v) in seed_words {
        bus.mem_unchecked()
            .write_u64(PhysAddr::new(word * 8), v)
            .expect("seed word in range");
    }
    if let Some((base_page, pages)) = region {
        let region = SecureRegion::new(PhysAddr::new(base_page * PAGE_SIZE), pages * PAGE_SIZE)
            .expect("page-aligned region");
        bus.install_secure_region(&region).expect("free TOR pair");
    }
    for &(index, cfg, addr) in entries {
        bus.pmp_mut().set_entry(
            index,
            PmpEntry {
                cfg: PmpPermissions::from_bits(cfg),
                addr,
            },
        );
    }
    bus
}

/// The reference: the per-word loop a burst must equal.
fn per_word(bus: &mut Bus, b: &Burst, out: &mut [u64]) -> Result<(), BurstError> {
    for (i, slot) in out.iter_mut().enumerate() {
        let addr = PhysAddr::new(b.addr + i as u64 * 8);
        let step = if b.write {
            bus.write::<u64>(addr, b.values[i], b.channel, b.ctx)
        } else {
            bus.read::<u64>(addr, b.channel, b.ctx).map(|v| *slot = v)
        };
        step.map_err(|error| BurstError {
            completed: i,
            error,
        })?;
    }
    Ok(())
}

fn burst(bus: &mut Bus, b: &Burst, out: &mut [u64]) -> Result<(), BurstError> {
    let addr = PhysAddr::new(b.addr);
    if b.write {
        bus.write_words(addr, &b.values, b.channel, b.ctx)
    } else {
        bus.read_words(addr, out, b.channel, b.ctx)
    }
}

/// Every page's live words plus the touched-frame count: the whole
/// observable memory state.
fn memory_image(bus: &Bus) -> (Vec<Vec<(u16, u64)>>, usize) {
    let pages = (0..MEM_PAGES)
        .map(|p| {
            bus.mem()
                .page_nonzero_words(PhysPageNum::new(p))
                .expect("in range")
        })
        .collect();
    (pages, bus.mem().touched_frames())
}

/// Runs every burst on `a` and its per-word loop on `b`, comparing each
/// outcome and the final state.
fn run_pair(a: &mut Bus, b: &mut Bus, bursts: &[Burst]) -> Result<(), TestCaseError> {
    for (i, op) in bursts.iter().enumerate() {
        // Reads start from a poisoned buffer so untouched words show.
        let mut out_a = vec![0xdead_beef_u64; op.values.len()];
        let mut out_b = out_a.clone();
        let ra = burst(a, op, &mut out_a);
        let rb = per_word(b, op, &mut out_b);
        prop_assert_eq!(ra, rb, "burst {} = {:?}: outcome diverged", i, op);
        prop_assert_eq!(&out_a, &out_b, "burst {}: read values diverged", i);
        prop_assert_eq!(a.stats(), b.stats(), "burst {}: stats diverged", i);
    }
    prop_assert_eq!(memory_image(a), memory_image(b), "final memory diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A burst and the per-word loop agree on values, errors, memory,
    /// access counts and faults, with the PMP fast path on or off.
    #[test]
    fn burst_equals_per_word_loop(
        seed_words in proptest::collection::vec(
            (0..MEM_PAGES * PAGE_SIZE / 8, any::<u64>()), 0..200),
        region in arb_region(),
        entries in proptest::collection::vec(arb_entry(), 0..4),
        bursts in proptest::collection::vec(arb_burst(), 1..8),
        fast_path in prop_oneof![4 => Just(true), 1 => Just(false)],
    ) {
        let mut a = build_bus(&seed_words, region, &entries, fast_path);
        let mut b = a.clone();
        run_pair(&mut a, &mut b, &bursts)?;
    }

    /// With a trace sink attached, a burst emits exactly the per-word
    /// loop's event stream: one PMP check and one transfer per word.
    #[test]
    fn traced_burst_emits_the_per_word_stream(
        region in arb_region(),
        entries in proptest::collection::vec(arb_entry(), 0..3),
        bursts in proptest::collection::vec(arb_burst(), 1..4),
    ) {
        let mut a = build_bus(&[], region, &entries, true);
        let mut b = a.clone();
        let (sink_a, sink_b) = (TraceSink::new(), TraceSink::new());
        a.set_trace_sink(Some(sink_a.clone()));
        b.set_trace_sink(Some(sink_b.clone()));
        run_pair(&mut a, &mut b, &bursts)?;
        prop_assert_eq!(sink_a.events(), sink_b.events());
        prop_assert_eq!(sink_a.counters(), sink_b.counters());
    }
}

/// An untraced burst across uniform secure pages still counts every word,
/// and a denied burst stops exactly where the per-word loop would.
#[test]
fn uniform_secure_page_burst_counts_every_word() {
    let mut bus = Bus::new(MEM_PAGES * PAGE_SIZE);
    let region = SecureRegion::new(PhysAddr::new(8 * PAGE_SIZE), 4 * PAGE_SIZE).expect("region");
    bus.install_secure_region(&region).expect("install");
    let ctx = AccessContext::supervisor(true);
    let values: Vec<u64> = (1..=700).collect();
    bus.write_words(region.base() + 8, &values, Channel::SecurePt, ctx)
        .expect("sd.pt burst inside the region");
    let mut back = vec![0; values.len()];
    bus.read_words(region.base() + 8, &mut back, Channel::SecurePt, ctx)
        .expect("ld.pt burst inside the region");
    assert_eq!(back, values);
    assert_eq!(bus.stats().secure_writes, 700);
    assert_eq!(bus.stats().secure_reads, 700);
    // A regular-channel burst into the region stops at its first word.
    let denied = bus
        .write_words(region.base(), &values, Channel::Regular, ctx)
        .expect_err("regular store into the region");
    assert_eq!(denied.completed, 0);
    assert_eq!(bus.stats().faults, 1);
    // A burst running from normal memory into the region stops at the
    // region's first word, after every word before it landed.
    let below = region.base() - 16;
    let crossing = bus
        .write_words(below, &[7, 7, 7], Channel::Regular, ctx)
        .expect_err("crosses into the region");
    assert_eq!(crossing.completed, 2);
    assert_eq!(bus.stats().regular_writes, 2);
}
