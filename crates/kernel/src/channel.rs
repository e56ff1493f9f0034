//! The kernel's **only** gateway to raw physical memory.
//!
//! The paper's software support (§IV-C2) modifies LLVM so that every kernel
//! page-table accessor *must* compile to `ld.pt`/`sd.pt` — the secure channel
//! cannot be bypassed by construction. This module is the source-level twin
//! of that guarantee: every `Bus`/`PhysMem` access the kernel performs is
//! concentrated here, and `ptstore-lint`'s *channel-confinement* rule forbids
//! raw bus access anywhere else in `ptstore-kernel` (the M-mode firmware in
//! [`crate::sbi`] and two boot/host-switch sites carry explicit, justified
//! `ptstore-lint: allow(...)` markers).
//!
//! Grouped by trust level:
//!
//! * **Checked, channel-tagged accessors** — `Kernel::pt_read` /
//!   `Kernel::pt_write` (the `ld.pt`/`sd.pt` path), `Kernel::mem_read` /
//!   `Kernel::mem_write` (regular kernel data), their page-burst twins
//!   `Kernel::pt_read_words` / `Kernel::pt_write_words` /
//!   `Kernel::mem_write_words`, the allocator's `Kernel::secure_page_is_zero`,
//!   and the token-field accessors. These go through the PMP and pay
//!   modeled cycles.
//! * **Host-side bulk helpers** — `Kernel::raw_copy_page` /
//!   `Kernel::raw_zero_page` / `Kernel::image_write_u64`: unchecked
//!   `PhysMem` operations used only where the modeled machine would issue a
//!   long run of ordinary stores to *non-page-table* frames (page migration,
//!   user-page scrubbing, writing the kernel image at boot). They never
//!   touch secure-region state behind the PMP's back except via
//!   `Kernel::zero_page`, whose first store is checked precisely so the
//!   channel permission is validated before the bulk clear.

use ptstore_core::{Channel, PhysAddr, PhysPageNum};
use ptstore_mem::BurstError;

use crate::config::DefenseMode;
use crate::cycles::{cost, CostKind};
use crate::error::KernelError;
use crate::kernel::Kernel;

/// How many accesses of an `n`-word burst were issued: all of them, or
/// those up to and including the failing one. The burst twins charge
/// exactly what the per-word loop would have charged before stopping.
fn issued(result: &Result<(), BurstError>, n: usize) -> u64 {
    match result {
        Ok(()) => n as u64,
        Err(e) => e.completed as u64 + 1,
    }
}

impl Kernel {
    /// A checked regular-channel 8-byte read (kernel data structures).
    pub(crate) fn mem_read(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        self.charge(CostKind::MemAccess, cost::MEM_ACCESS);
        Ok(self.bus.read::<u64>(pa, Channel::Regular, self.kctx())?)
    }

    /// A checked regular-channel 8-byte write (kernel data structures).
    pub(crate) fn mem_write(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        self.charge(CostKind::MemAccess, cost::MEM_ACCESS);
        Ok(self
            .bus
            .write::<u64>(pa, v, Channel::Regular, self.kctx())?)
    }

    /// A page-table read via the defense channel (`ld.pt` under PTStore).
    pub(crate) fn pt_read(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        self.charge(CostKind::MemAccess, cost::MEM_ACCESS);
        let ch = self.pt_channel();
        Ok(self.bus.read::<u64>(pa, ch, self.kctx())?)
    }

    /// A page-table write via the defense channel (`sd.pt` under PTStore).
    /// The virtual-isolation baseline pays its write-window toll here.
    pub(crate) fn pt_write(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        self.charge(CostKind::PtWrite, cost::MEM_ACCESS);
        if self.cfg.defense == DefenseMode::VirtualIsolation {
            self.charge(CostKind::VirtIsolationSwitch, cost::VIRT_ISO_WINDOW);
        }
        let ch = self.pt_channel();
        Ok(self.bus.write::<u64>(pa, v, ch, self.kctx())?)
    }

    /// Regular-channel burst write of `values` from `pa`: `values.len()`
    /// [`Self::mem_write`]s in one call (see [`ptstore_mem::Bus::write_words`]).
    pub(crate) fn mem_write_words(
        &mut self,
        pa: PhysAddr,
        values: &[u64],
    ) -> Result<(), KernelError> {
        let result = self
            .bus
            .write_words(pa, values, Channel::Regular, self.kctx());
        self.charge(
            CostKind::MemAccess,
            cost::MEM_ACCESS * issued(&result, values.len()),
        );
        Ok(result.map_err(|e| e.error)?)
    }

    /// Defense-channel burst read into `out` from `pa`: `out.len()`
    /// [`Self::pt_read`]s in one call.
    pub(crate) fn pt_read_words(
        &mut self,
        pa: PhysAddr,
        out: &mut [u64],
    ) -> Result<(), KernelError> {
        let ch = self.pt_channel();
        let result = self.bus.read_words(pa, out, ch, self.kctx());
        self.charge(
            CostKind::MemAccess,
            cost::MEM_ACCESS * issued(&result, out.len()),
        );
        Ok(result.map_err(|e| e.error)?)
    }

    /// Defense-channel burst write of `values` from `pa`: `values.len()`
    /// [`Self::pt_write`]s in one call, each store paying the
    /// virtual-isolation window where that baseline is configured.
    pub(crate) fn pt_write_words(
        &mut self,
        pa: PhysAddr,
        values: &[u64],
    ) -> Result<(), KernelError> {
        let ch = self.pt_channel();
        let result = self.bus.write_words(pa, values, ch, self.kctx());
        let n = issued(&result, values.len());
        self.charge(CostKind::PtWrite, cost::MEM_ACCESS * n);
        if self.cfg.defense == DefenseMode::VirtualIsolation {
            self.charge(CostKind::VirtIsolationSwitch, cost::VIRT_ISO_WINDOW * n);
        }
        Ok(result.map_err(|e| e.error)?)
    }

    /// Word indices of the non-zero words of page-table page `ppn`, in
    /// ascending order, read DRAM's-eye with no charge. This only plans
    /// where a burst should end; every value the kernel acts on still
    /// comes through a checked read.
    pub(crate) fn pt_nonzero_slots(&self, ppn: PhysPageNum) -> Result<Vec<u16>, KernelError> {
        Ok(self
            .bus
            .mem()
            .page_nonzero_words(ppn)?
            .into_iter()
            .map(|(i, _)| i)
            .collect())
    }

    /// The allocator's zero-check of a would-be page-table page: one
    /// `ld.pt` read burst over the whole page (paper §V-E3).
    pub(crate) fn secure_page_is_zero(&mut self, ppn: PhysPageNum) -> Result<bool, KernelError> {
        Ok(self.bus.secure_page_is_zero(ppn, self.kctx())?)
    }

    /// An 8-byte secure-channel read (`ld.pt`) of a token field. Cycle
    /// accounting is the caller's: token costs are charged per operation
    /// ([`cost::TOKEN_VALIDATE`] etc.), not per store.
    pub(crate) fn secure_u64_read(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        Ok(self.bus.read::<u64>(pa, Channel::SecurePt, self.kctx())?)
    }

    /// An 8-byte secure-channel write (`sd.pt`) of a token field. See
    /// [`Self::secure_u64_read`] for the cycle-accounting convention.
    pub(crate) fn secure_u64_write(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        Ok(self
            .bus
            .write::<u64>(pa, v, Channel::SecurePt, self.kctx())?)
    }

    /// Zeroes a page through the appropriate channel; `secure` selects the
    /// `sd.pt` path.
    pub(crate) fn zero_page(&mut self, ppn: PhysPageNum, secure: bool) -> Result<(), KernelError> {
        self.charge(CostKind::MemAccess, cost::ZERO_PAGE);
        // One checked store validates the channel is actually permitted...
        let ch = if secure {
            Channel::SecurePt
        } else {
            Channel::Regular
        };
        self.bus.write::<u64>(ppn.base_addr(), 0, ch, self.kctx())?;
        // ...then the rest of the page is cleared in bulk.
        self.bus.mem_unchecked().zero_page(ppn);
        Ok(())
    }

    /// Copies one whole *data* frame host-side (page migration, CoW break).
    /// Never used on page-table frames — those are written PTE-by-PTE via
    /// [`Self::pt_write`] so the PMP adjudicates every store.
    pub(crate) fn raw_copy_page(
        &mut self,
        from: PhysPageNum,
        to: PhysPageNum,
    ) -> Result<(), KernelError> {
        Ok(self.bus.mem_unchecked().copy_page(from, to)?)
    }

    /// Scrubs one *data* frame host-side (freed user pages, vacated
    /// migration sources). Secure-region frames instead go through
    /// [`Self::zero_page`] with `secure = true` so the channel is checked.
    pub(crate) fn raw_zero_page(&mut self, ppn: PhysPageNum) {
        self.bus.mem_unchecked().zero_page(ppn);
    }

    /// Writes one word of the kernel image at boot (materialising the
    /// PT-Rand secret global). The image region predates the PMP program,
    /// so this is the loader's store, not a kernel runtime access.
    pub(crate) fn image_write_u64(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        Ok(self.bus.mem_unchecked().write_u64(pa, v)?)
    }
}
