//! BAD: the checked bus helpers beyond plain `read`/`write` — page bursts,
//! instruction fetches, the allocator zero-check and the fault-injection
//! bit flip — called from kernel code outside the channel module. Each is
//! still a raw bus access and must fire `channel-confinement`.

impl Kernel {
    fn copy_kernel_half(&mut self, src: PhysAddr, dst: PhysAddr) -> Result<(), KernelError> {
        let ctx = self.kctx();
        let mut words = [0u64; 256];
        self.bus.read_words(src, &mut words, Channel::SecurePt, ctx)?;
        self.bus.write_words(dst, &words, Channel::SecurePt, ctx)?;
        Ok(())
    }

    fn fetch_parcel(&mut self, pa: PhysAddr) -> Result<u32, KernelError> {
        Ok(self.bus.fetch::<u32>(pa, self.kctx())?)
    }

    fn fresh_table_is_clean(&mut self, ppn: PhysPageNum) -> Result<bool, KernelError> {
        Ok(self.bus.secure_page_is_zero(ppn, self.kctx())?)
    }

    fn flip(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        Ok(self.bus.inject_bit_flip(pa, 3, Channel::Regular, self.kctx())?)
    }
}
