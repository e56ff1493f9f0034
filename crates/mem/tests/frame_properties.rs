//! Property tests: the adaptive frame backing must be indistinguishable
//! from a plain 4 KiB byte array.

use proptest::prelude::*;
use ptstore_core::{PhysAddr, PhysPageNum, PAGE_SIZE};
use ptstore_mem::{Frame, PhysMem};

/// A write operation against one frame.
#[derive(Debug, Clone)]
enum FrameOp {
    WriteWord { index: u16, value: u64 },
    WriteByte { offset: u16, value: u8 },
}

fn arb_frame_op() -> impl Strategy<Value = FrameOp> {
    prop_oneof![
        (0u16..512, any::<u64>()).prop_map(|(index, value)| FrameOp::WriteWord { index, value }),
        (0u16..4096, any::<u8>()).prop_map(|(offset, value)| FrameOp::WriteByte { offset, value }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The frame agrees with a reference byte array after any op sequence,
    /// across all backing promotions.
    #[test]
    fn frame_matches_reference(ops in proptest::collection::vec(arb_frame_op(), 1..300)) {
        let mut frame = Frame::new();
        let mut reference = [0u8; PAGE_SIZE as usize];
        for op in ops {
            match op {
                FrameOp::WriteWord { index, value } => {
                    frame.write_word(index, value);
                    reference[index as usize * 8..index as usize * 8 + 8]
                        .copy_from_slice(&value.to_le_bytes());
                }
                FrameOp::WriteByte { offset, value } => {
                    frame.write_byte(offset, value);
                    reference[offset as usize] = value;
                }
            }
        }
        // Full readback comparison, both word- and byte-granular.
        for i in 0u16..512 {
            let want = u64::from_le_bytes(
                reference[i as usize * 8..i as usize * 8 + 8].try_into().expect("8"),
            );
            prop_assert_eq!(frame.read_word(i), want, "word {}", i);
        }
        for off in (0u16..4096).step_by(97) {
            prop_assert_eq!(frame.read_byte(off), reference[off as usize], "byte {}", off);
        }
        prop_assert_eq!(frame.is_zero(), reference.iter().all(|&b| b == 0));
    }

    /// PhysMem u8/u32/u64 accessors are mutually consistent.
    #[test]
    fn physmem_width_consistency(
        word_addr in (0u64..(16 * PAGE_SIZE / 8)).prop_map(|w| w * 8),
        value in any::<u64>(),
    ) {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        let a = PhysAddr::new(word_addr);
        m.write_u64(a, value).expect("in range");
        // Byte view.
        for i in 0..8u64 {
            prop_assert_eq!(
                m.read_u8(a + i).expect("in range"),
                value.to_le_bytes()[i as usize]
            );
        }
        // u32 halves.
        prop_assert_eq!(m.read_u32(a).expect("in range"), value as u32);
        prop_assert_eq!(m.read_u32(a + 4).expect("in range"), (value >> 32) as u32);
        // Rewrite one byte, reread the word.
        m.write_u8(a + 3, 0xAB).expect("in range");
        let mut bytes = value.to_le_bytes();
        bytes[3] = 0xAB;
        prop_assert_eq!(m.read_u64(a).expect("in range"), u64::from_le_bytes(bytes));
    }

    /// copy_page produces bit-identical pages; zero_page fully clears.
    #[test]
    fn copy_and_zero(ops in proptest::collection::vec((0u16..512, any::<u64>()), 1..64)) {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        let src = PhysPageNum::new(2);
        let dst = PhysPageNum::new(7);
        for &(w, v) in &ops {
            m.write_u64(src.base_addr() + w as u64 * 8, v).expect("write");
        }
        m.copy_page(src, dst).expect("copy");
        for w in 0u64..512 {
            prop_assert_eq!(
                m.read_u64(src.base_addr() + w * 8).expect("read"),
                m.read_u64(dst.base_addr() + w * 8).expect("read")
            );
        }
        m.zero_page(dst);
        prop_assert!(m.page_is_zero(dst));
        prop_assert_eq!(m.read_u64(dst.base_addr()).expect("read"), 0);
    }

    /// The sparse page walk equals the definitional dense scan,
    /// `(0..512).map(read_u64).filter(non-zero)`, over random word writes —
    /// zero writes included (they shrink the word map) and long enough
    /// sequences to promote the frame to dense backing.
    #[test]
    fn page_nonzero_words_matches_dense_scan(
        writes in proptest::collection::vec(
            (0u16..512, prop_oneof![Just(0u64), any::<u64>()]),
            0..300,
        ),
    ) {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        let page = PhysPageNum::new(3);
        for &(w, v) in &writes {
            m.write_u64(page.base_addr() + u64::from(w) * 8, v).expect("write");
        }
        prop_assert_eq!(m.page_nonzero_words(page).expect("in range"), dense_scan(&m, page));
        // A neighbour in the same chunk that was never written.
        prop_assert_eq!(m.page_nonzero_words(PhysPageNum::new(4)).expect("in range"), vec![]);
    }
}

/// The reference the sparse walk must reproduce: 512 bounds-checked reads.
fn dense_scan(m: &PhysMem, page: PhysPageNum) -> Vec<(u16, u64)> {
    (0u16..512)
        .map(|i| {
            let w = m
                .read_u64(page.base_addr() + u64::from(i) * 8)
                .expect("in range");
            (i, w)
        })
        .filter(|&(_, w)| w != 0)
        .collect()
}

#[test]
fn page_nonzero_words_covers_every_backing_and_the_range_edge() {
    // Two chunks' worth of pages, so the second chunk starts unallocated.
    let mut m = PhysMem::new(1024 * PAGE_SIZE);
    let unallocated = PhysPageNum::new(700);
    assert_eq!(m.page_nonzero_words(unallocated).expect("in range"), vec![]);

    // Words: a few sparse entries written out of order, one zeroed again.
    let sparse = PhysPageNum::new(1);
    for (w, v) in [(9u64, 5u64), (2, 7), (400, 1), (2, 0)] {
        m.write_u64(sparse.base_addr() + w * 8, v).expect("write");
    }
    assert_eq!(
        m.page_nonzero_words(sparse).expect("in range"),
        vec![(9, 5), (400, 1)]
    );
    assert_eq!(
        m.page_nonzero_words(sparse).unwrap(),
        dense_scan(&m, sparse)
    );

    // The same frame level by level: Words first, then Dense once filled
    // past the promotion threshold, with every other word zeroed again.
    let mut f = Frame::new();
    f.write_word(3, 4);
    assert!(matches!(f, Frame::Words(_)));
    assert_eq!(f.nonzero_words(), vec![(3, 4)]);
    for i in 0u16..200 {
        f.write_word(i, u64::from(i) + 1);
    }
    assert!(matches!(f, Frame::Dense(_)));
    for i in (0u16..200).step_by(2) {
        f.write_word(i, 0);
    }
    let want: Vec<(u16, u64)> = (1u16..200)
        .step_by(2)
        .map(|i| (i, u64::from(i) + 1))
        .collect();
    assert_eq!(f.nonzero_words(), want);
    assert!(Frame::Zero.nonzero_words().is_empty());

    // Out of range: the first page past the end and one far beyond it.
    for ppn in [1024u64, 1 << 30] {
        assert!(m.page_nonzero_words(PhysPageNum::new(ppn)).is_err());
    }
}
