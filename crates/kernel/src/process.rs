//! Processes, PCBs materialised in simulated memory, and VM areas — plus the
//! **generational slot-array process table** (the ptab model) that makes
//! cross-hart PCB lookup lock-free.
//!
//! The fields PTStore cares about — the **page-table pointer** and the
//! **token pointer** — live at fixed offsets inside a PCB object in *normal*
//! (attackable) physical memory, exactly as `task_struct`/`mm_struct` fields
//! do in Linux. The attacker's arbitrary-write primitive can corrupt them;
//! the token in the secure region is what catches it (paper §III-C3, Fig. 3).
//!
//! ## The table
//!
//! [`ProcessTable`] is a fixed-capacity slot array. Each slot carries a
//! monotonically increasing **generation counter** (even = vacant, odd =
//! occupied); a pid lookup returns a [`ProcHandle`]`{ slot, gen }` instead of
//! a raw map reference. Readers validate a handle with one atomic load and no
//! shared writes, so any number of hart threads can check liveness
//! concurrently through a [`TableReader`] while the owning hart mutates the
//! table. A reaped slot's generation advances and never repeats, so a stale
//! handle can only *mismatch* — the ABA resolution a `BTreeMap<Pid, Process>`
//! cannot express. Freed slots pass through an **epoch-based limbo list**:
//! a slot is reused only once every hart has quiesced past the epoch at
//! which it was retired, mirroring how a real lock-free table would defer
//! payload reclamation until no reader can still hold a reference into it.
//!
//! The capacity is a *limit*, not an allocation: slot metadata lives in
//! lazily initialised fixed-size chunks (stable addresses, so readers stay
//! lock-free) and the payload vector grows with the high-water mark, so the
//! many short-lived kernels the test and bench harnesses boot pay for the
//! handful of slots they use, not for the fork-stress headroom.
//!
//! This module is the one place in the workspace where raw
//! `std::sync::atomic` orderings are allowed (the `atomics-confinement`
//! ptstore-lint rule); everything else synchronises through messages or
//! locks.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ptstore_core::{PhysAddr, VirtAddr};
use serde::{Deserialize, Serialize};

use crate::pagetable::AddressSpace;

/// Process identifier.
pub type Pid = u32;

/// PCB object size in the PCB slab (bytes).
pub const PCB_SIZE: u64 = 256;

/// Byte offset of the page-table (root) pointer field in a PCB.
pub const PCB_OFF_PT_PTR: u64 = 0x08;

/// Byte offset of the token pointer field in a PCB.
pub const PCB_OFF_TOKEN_PTR: u64 = 0x10;

/// Byte offset of the pid field in a PCB.
pub const PCB_OFF_PID: u64 = 0x00;

/// Byte offset of the saved user program counter.
pub const PCB_OFF_UPC: u64 = 0x18;

/// Scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcState {
    /// Currently on the (single) hart.
    Running,
    /// Runnable, waiting in the queue.
    Ready,
    /// Blocked (pipe/select/wait).
    Blocked,
    /// Exited, awaiting `wait()` by the parent.
    Zombie,
}

/// Per-VMA permissions (the VM metadata the §V-E4 attack targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmPerms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl VmPerms {
    /// Read/write data.
    pub const RW: VmPerms = VmPerms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read/execute text.
    pub const RX: VmPerms = VmPerms {
        read: true,
        write: false,
        exec: true,
    };
    /// Read-only.
    pub const RO: VmPerms = VmPerms {
        read: true,
        write: false,
        exec: false,
    };
}

/// A user virtual memory area (demand-paged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmArea {
    /// Inclusive page-aligned start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
    /// Area permissions.
    pub perms: VmPerms,
}

impl VmArea {
    /// True when `va` lies inside the area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        (self.start..self.end).contains(&va.as_u64())
    }
}

/// An open file description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FdEntry {
    /// Regular file in the ramfs.
    File {
        /// File name (ramfs key).
        name: String,
        /// Current offset.
        offset: u64,
    },
    /// Read end of a pipe.
    PipeRead {
        /// Pipe id.
        id: u32,
    },
    /// Write end of a pipe.
    PipeWrite {
        /// Pipe id.
        id: u32,
    },
    /// The console (stdout/stderr model).
    Console,
    /// A connected network socket (NGINX/Redis workload model).
    Socket {
        /// Socket id in the kernel socket table.
        id: u32,
    },
}

/// A per-process descriptor table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdTable {
    entries: Vec<Option<FdEntry>>,
}

impl FdTable {
    /// An empty table with stdin/stdout/stderr wired to the console.
    pub fn with_std() -> Self {
        Self {
            entries: vec![
                Some(FdEntry::Console),
                Some(FdEntry::Console),
                Some(FdEntry::Console),
            ],
        }
    }

    /// Installs `entry` in the lowest free slot, returning the fd.
    pub fn insert(&mut self, entry: FdEntry) -> i32 {
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.is_none() {
                *e = Some(entry);
                return i as i32;
            }
        }
        self.entries.push(Some(entry));
        (self.entries.len() - 1) as i32
    }

    /// Looks up an fd.
    pub fn get(&self, fd: i32) -> Option<&FdEntry> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.entries.get(i))
            .and_then(Option::as_ref)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, fd: i32) -> Option<&mut FdEntry> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.entries.get_mut(i))
            .and_then(Option::as_mut)
    }

    /// Removes an fd, returning its entry.
    pub fn remove(&mut self, fd: i32) -> Option<FdEntry> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.entries.get_mut(i))
            .and_then(Option::take)
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// The open descriptors with their entries, in ascending fd order.
    pub fn iter(&self) -> impl Iterator<Item = (i32, &FdEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(fd, e)| e.as_ref().map(|e| (fd as i32, e)))
    }
}

/// Signal disposition (install/catch latency is what LMBench measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SigAction {
    /// Default disposition.
    #[default]
    Default,
    /// Ignored.
    Ignore,
    /// A user handler is installed (the model stores only the fact).
    Handler,
}

/// Per-process signal state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalTable {
    /// Dispositions for signals 1–31.
    pub actions: [SigAction; 32],
    /// Pending signal bitmap.
    pub pending: u32,
    /// Number of signals delivered to handlers (catch-latency accounting).
    pub caught: u64,
}

/// One process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent pid (pid 1 has none).
    pub parent: Option<Pid>,
    /// Scheduling state.
    pub state: ProcState,
    /// Physical address of the PCB object in the PCB slab.
    pub pcb_addr: PhysAddr,
    /// The address space.
    pub aspace: AddressSpace,
    /// VM areas (text/heap/stack/mmap).
    pub vmas: Vec<VmArea>,
    /// Current `brk`.
    pub brk: u64,
    /// Next mmap allocation cursor.
    pub mmap_cursor: u64,
    /// Open files.
    pub fds: FdTable,
    /// Signal state.
    pub signals: SignalTable,
    /// Exit code once zombie.
    pub exit_code: i32,
    /// Children not yet reaped, in ascending pid order (which is creation
    /// order: pids are monotonic and never recycled).
    pub children: BTreeSet<Pid>,
    /// The subset of `children` that are zombies, awaiting `wait()`.
    /// Derived state: filled at exit, drained at reap.
    pub zombies: BTreeSet<Pid>,
    /// For a thread: the pid owning the shared address space (`None` for
    /// the mm owner itself). The thread's PCB carries the *same* page-table
    /// pointer, bound by its own **copied token** (paper §III-C3: "copy the
    /// token whenever the page table pointer ... is legitimately copied").
    pub mm_owner: Option<Pid>,
    /// Threads sharing this process's address space.
    pub threads: Vec<Pid>,
}

impl Process {
    /// Physical address of this PCB's page-table-pointer field.
    pub fn pt_ptr_slot(&self) -> PhysAddr {
        self.pcb_addr + PCB_OFF_PT_PTR
    }

    /// Physical address of this PCB's token-pointer field — the address a
    /// valid token's user pointer must point back to (paper Fig. 3).
    pub fn token_slot(&self) -> PhysAddr {
        self.pcb_addr + PCB_OFF_TOKEN_PTR
    }

    /// Finds the VMA containing `va`.
    pub fn vma_for(&self, va: VirtAddr) -> Option<&VmArea> {
        self.vmas.iter().find(|v| v.contains(va))
    }

    /// Mutable VMA lookup (the §V-E4 attack mutates these).
    pub fn vma_for_mut(&mut self, va: VirtAddr) -> Option<&mut VmArea> {
        self.vmas.iter_mut().find(|v| v.contains(va))
    }
}

/// Fixed slot capacity of the process table. Sized for the paper's
/// 30 000-process fork stress with headroom for limbo slots that cannot be
/// reclaimed until lagging harts quiesce.
pub const PROC_TABLE_CAPACITY: usize = 65_536;

/// Sentinel in the dense pid index: "pid has no slot".
const SLOT_NONE: u32 = u32::MAX;

/// A generational reference to a process-table slot.
///
/// The handle stays valid exactly as long as the slot's generation counter
/// equals `gen`. Once the process is reaped the generation advances (and
/// never repeats for the slot), so a stale handle *detects* its staleness
/// instead of silently resolving to whatever process reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcHandle {
    /// Slot index in the table.
    pub slot: u32,
    /// Generation the slot had when the handle was issued (always odd).
    pub gen: u32,
}

/// Why [`ProcessTable::insert`] refused a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// A live entry with this pid already exists.
    DuplicatePid(Pid),
    /// Every slot is live or still in limbo awaiting hart quiescence.
    Full,
}

/// Slots per lazily allocated metadata chunk (power of two).
const META_CHUNK: usize = 1024;

/// One chunk of per-slot atomic metadata. Chunks are allocated on first use
/// and never move or shrink, so a [`TableReader`] can dereference them
/// without any lock.
#[derive(Debug)]
struct MetaChunk {
    /// Per-slot generation: even = vacant, odd = occupied. Monotonic.
    gens: [AtomicU32; META_CHUNK],
    /// Pid published for an occupied slot (undefined while vacant).
    pids: [AtomicU32; META_CHUNK],
}

impl MetaChunk {
    fn new_boxed() -> Box<Self> {
        Box::new(Self {
            gens: std::array::from_fn(|_| AtomicU32::new(0)),
            pids: std::array::from_fn(|_| AtomicU32::new(0)),
        })
    }
}

/// The shared, atomically readable half of the table: per-slot generations,
/// published pids, and the reclamation epochs. Everything here is written
/// only by the table owner and read (lock-free) by any thread holding a
/// [`TableReader`]. Slot metadata is chunked and chunks materialise on first
/// write — an untouched chunk reads as "all slots vacant at generation 0",
/// which no issued handle (generations are odd) can ever match.
#[derive(Debug)]
struct SharedMeta {
    /// Lazily initialised metadata chunks covering the whole capacity.
    chunks: Box<[OnceLock<Box<MetaChunk>>]>,
    /// Global reclamation epoch; bumped on every retire.
    epoch: AtomicU64,
    /// Last epoch each hart has quiesced at. A retired slot is reusable
    /// once `min(hart_epochs) >= retire_epoch`.
    hart_epochs: Box<[AtomicU64]>,
}

impl SharedMeta {
    fn new(capacity: usize, harts: usize) -> Self {
        Self {
            chunks: (0..capacity.div_ceil(META_CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            epoch: AtomicU64::new(0),
            hart_epochs: (0..harts.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Total slot capacity covered by the chunk directory.
    fn capacity(&self) -> usize {
        self.chunks.len() * META_CHUNK
    }

    /// The chunk holding `slot`, materialising it on first use (owner side).
    fn chunk(&self, slot: usize) -> &MetaChunk {
        self.chunks[slot / META_CHUNK].get_or_init(MetaChunk::new_boxed)
    }

    /// Lock-free generation read; `None` for slots beyond the capacity.
    /// Slots in unmaterialised chunks read as generation 0 (vacant).
    fn gen_of(&self, slot: usize) -> Option<u32> {
        let chunk = self.chunks.get(slot / META_CHUNK)?;
        Some(match chunk.get() {
            Some(c) => c.gens[slot % META_CHUNK].load(Ordering::Acquire),
            None => 0,
        })
    }

    /// Lock-free published-pid read (0 while the chunk is unmaterialised).
    fn pid_at(&self, slot: usize) -> u32 {
        match self.chunks[slot / META_CHUNK].get() {
            Some(c) => c.pids[slot % META_CHUNK].load(Ordering::Acquire),
            None => 0,
        }
    }

    fn min_hart_epoch(&self) -> u64 {
        self.hart_epochs
            .iter()
            .map(|e| e.load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }
}

/// A clonable, lock-free view of the table's generational metadata, safe to
/// hold on any thread while the owning hart keeps mutating the table. It can
/// validate handles and read published pids; it can never reach the payload.
#[derive(Debug, Clone)]
pub struct TableReader {
    meta: Arc<SharedMeta>,
}

impl TableReader {
    /// True while `h` still refers to the process it was issued for: one
    /// atomic load, zero shared writes.
    pub fn live(&self, h: ProcHandle) -> bool {
        self.meta.gen_of(h.slot as usize) == Some(h.gen)
    }

    /// The pid behind `h`, or `None` when the handle is stale. Reads the
    /// generation before *and* after the pid load so a concurrent reap
    /// cannot hand back a reused slot's pid.
    pub fn pid_of(&self, h: ProcHandle) -> Option<Pid> {
        let si = h.slot as usize;
        if self.meta.gen_of(si)? != h.gen {
            return None;
        }
        let pid = self.meta.pid_at(si);
        (self.meta.gen_of(si) == Some(h.gen)).then_some(pid)
    }

    /// Current global reclamation epoch.
    pub fn epoch(&self) -> u64 {
        self.meta.epoch.load(Ordering::Acquire)
    }
}

/// The process table: a fixed-capacity generational slot array (see the
/// module docs for the concurrency contract).
#[derive(Debug)]
pub struct ProcessTable {
    /// Slot payloads. Boxed so a vacant slot costs one pointer, not a whole
    /// `Process`.
    slots: Vec<Option<Box<Process>>>,
    /// Shared atomic metadata (generations, pids, epochs).
    meta: Arc<SharedMeta>,
    /// Dense pid → slot index (O(1) hot-path lookup; pids are small and
    /// allocated sequentially).
    pid_slots: Vec<u32>,
    /// Ordered pid → slot map, kept solely so `pids()`/`iter()` walk in
    /// deterministic pid order (oracle and stats depend on that order).
    by_pid: BTreeMap<Pid, u32>,
    /// Retired slots awaiting quiescence: `(slot, retire_epoch)` in retire
    /// order (epochs are monotonic, so the front is always the oldest).
    limbo: VecDeque<(u32, u64)>,
    /// Slots safe to reuse.
    free: Vec<u32>,
    /// First never-used slot.
    high_water: u32,
    /// Slots reclaimed out of limbo over the table's lifetime.
    reclaimed: u64,
}

impl Default for ProcessTable {
    fn default() -> Self {
        Self::with_harts(1)
    }
}

impl Clone for ProcessTable {
    /// Deep snapshot: the clone gets its own metadata arrays, so readers of
    /// the original are unaffected and handles stay valid against both.
    fn clone(&self) -> Self {
        let meta = SharedMeta::new(self.meta.capacity(), self.meta.hart_epochs.len());
        for (ci, lock) in self.meta.chunks.iter().enumerate() {
            let Some(src) = lock.get() else { continue };
            let dst = meta.chunks[ci].get_or_init(MetaChunk::new_boxed);
            for i in 0..META_CHUNK {
                dst.gens[i].store(src.gens[i].load(Ordering::Acquire), Ordering::Release);
                dst.pids[i].store(src.pids[i].load(Ordering::Acquire), Ordering::Release);
            }
        }
        meta.epoch
            .store(self.meta.epoch.load(Ordering::Acquire), Ordering::Release);
        for (i, e) in self.meta.hart_epochs.iter().enumerate() {
            meta.hart_epochs[i].store(e.load(Ordering::Acquire), Ordering::Release);
        }
        Self {
            slots: self.slots.clone(),
            meta: Arc::new(meta),
            pid_slots: self.pid_slots.clone(),
            by_pid: self.by_pid.clone(),
            limbo: self.limbo.clone(),
            free: self.free.clone(),
            high_water: self.high_water,
            reclaimed: self.reclaimed,
        }
    }
}

impl ProcessTable {
    /// Empty table for a single-hart machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table whose reclamation epochs track `harts` harts.
    pub fn with_harts(harts: usize) -> Self {
        Self {
            slots: Vec::new(),
            meta: Arc::new(SharedMeta::new(PROC_TABLE_CAPACITY, harts)),
            pid_slots: Vec::new(),
            by_pid: BTreeMap::new(),
            limbo: VecDeque::new(),
            free: Vec::new(),
            high_water: 0,
            reclaimed: 0,
        }
    }

    /// A lock-free reader over this table's generational metadata.
    pub fn reader(&self) -> TableReader {
        TableReader {
            meta: Arc::clone(&self.meta),
        }
    }

    /// Slot index for `pid`, if live.
    #[inline]
    fn slot_of(&self, pid: Pid) -> Option<u32> {
        match self.pid_slots.get(pid as usize) {
            Some(&s) if s != SLOT_NONE => Some(s),
            _ => None,
        }
    }

    /// Moves limbo slots whose retire epoch every hart has passed onto the
    /// free list.
    fn reclaim(&mut self) {
        let safe = self.meta.min_hart_epoch();
        while let Some(&(slot, retired)) = self.limbo.front() {
            if retired > safe {
                break;
            }
            self.limbo.pop_front();
            self.free.push(slot);
            self.reclaimed += 1;
        }
    }

    /// Picks a slot for a new entry: reclaimed slots first, then fresh ones.
    fn claim_slot(&mut self) -> Option<u32> {
        self.reclaim();
        if let Some(s) = self.free.pop() {
            return Some(s);
        }
        if (self.high_water as usize) < self.meta.capacity() {
            let s = self.high_water;
            self.high_water += 1;
            self.slots.push(None);
            debug_assert_eq!(self.slots.len(), self.high_water as usize);
            return Some(s);
        }
        None
    }

    /// Marks `hart` quiescent at the current epoch (it holds no handles from
    /// before this call) and reclaims whatever that unblocks.
    pub fn quiesce(&mut self, hart: usize) {
        if let Some(e) = self.meta.hart_epochs.get(hart) {
            e.store(self.meta.epoch.load(Ordering::Acquire), Ordering::Release);
        }
        self.reclaim();
    }

    /// Inserts a process, publishing its slot for lock-free readers.
    ///
    /// # Errors
    /// [`TableError::DuplicatePid`] when a live entry with the same pid
    /// exists; [`TableError::Full`] when no slot is free (all live or still
    /// in limbo).
    pub fn insert(&mut self, p: Process) -> Result<ProcHandle, TableError> {
        let pid = p.pid;
        if self.slot_of(pid).is_some() {
            return Err(TableError::DuplicatePid(pid));
        }
        let Some(slot) = self.claim_slot() else {
            return Err(TableError::Full);
        };
        let si = slot as usize;
        debug_assert!(self.slots[si].is_none(), "claimed slot must be vacant");
        self.slots[si] = Some(Box::new(p));
        if self.pid_slots.len() <= pid as usize {
            self.pid_slots.resize(pid as usize + 1, SLOT_NONE);
        }
        self.pid_slots[pid as usize] = slot;
        self.by_pid.insert(pid, slot);
        // Publish pid first, then flip the generation odd: a reader that
        // observes the odd generation is guaranteed to read this pid.
        let c = self.meta.chunk(si);
        c.pids[si % META_CHUNK].store(pid, Ordering::Release);
        let gen = c.gens[si % META_CHUNK].load(Ordering::Relaxed) + 1;
        debug_assert_eq!(gen % 2, 1, "occupied generation must be odd");
        c.gens[si % META_CHUNK].store(gen, Ordering::Release);
        Ok(ProcHandle { slot, gen })
    }

    /// The live handle for `pid`, if any (O(1), no shared writes).
    pub fn lookup(&self, pid: Pid) -> Option<ProcHandle> {
        let slot = self.slot_of(pid)?;
        let gen = self.meta.gen_of(slot as usize).unwrap_or(0);
        debug_assert_eq!(gen % 2, 1, "indexed slot must be occupied");
        Some(ProcHandle { slot, gen })
    }

    /// Resolves a handle, failing on generation mismatch (stale handle).
    pub fn resolve(&self, h: ProcHandle) -> Option<&Process> {
        let si = h.slot as usize;
        if self.meta.gen_of(si)? != h.gen {
            return None;
        }
        self.slots[si].as_deref()
    }

    /// Mutable handle resolution (owning-hart side).
    pub fn resolve_mut(&mut self, h: ProcHandle) -> Option<&mut Process> {
        let si = h.slot as usize;
        if self.meta.gen_of(si)? != h.gen {
            return None;
        }
        self.slots[si].as_deref_mut()
    }

    /// Immutable pid lookup (O(1) through the dense index).
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.slot_of(pid)
            .and_then(|s| self.slots[s as usize].as_deref())
    }

    /// Mutable pid lookup.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.slot_of(pid)
            .and_then(|s| self.slots[s as usize].as_deref_mut())
    }

    /// Removes a process (final reap): the slot's generation advances (odd →
    /// even, invalidating every outstanding handle) and the slot enters
    /// limbo until all harts quiesce past the retire epoch.
    pub fn remove(&mut self, pid: Pid) -> Option<Process> {
        let slot = self.slot_of(pid)?;
        let si = slot as usize;
        let p = self.slots[si].take().map(|b| *b)?;
        self.pid_slots[pid as usize] = SLOT_NONE;
        self.by_pid.remove(&pid);
        // Retire: flip the generation even *before* bumping the epoch so a
        // reader can never validate a handle against a slot already headed
        // for reuse.
        let c = self.meta.chunk(si);
        let gen = c.gens[si % META_CHUNK].load(Ordering::Relaxed) + 1;
        debug_assert_eq!(gen % 2, 0, "vacant generation must be even");
        c.gens[si % META_CHUNK].store(gen, Ordering::Release);
        let retired = self.meta.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.limbo.push_back((slot, retired));
        Some(p)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.by_pid.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_pid.is_empty()
    }

    /// Slots currently awaiting quiescence.
    pub fn limbo_len(&self) -> usize {
        self.limbo.len()
    }

    /// Slots reclaimed out of limbo over the table's lifetime.
    pub fn slots_reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Iterates pids in ascending order (deterministic; the oracle and the
    /// stats walk depend on it).
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.by_pid.keys().copied()
    }

    /// Iterates processes in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.by_pid
            .values()
            .filter_map(|&s| self.slots[s as usize].as_deref())
    }

    /// Iterates `(handle, process)` pairs in pid order — the slot-array walk
    /// the invariant oracle uses to re-derive the satp↔token↔PCB binding.
    pub fn handles(&self) -> impl Iterator<Item = (ProcHandle, &Process)> {
        self.by_pid.values().filter_map(|&s| {
            let gen = self.meta.gen_of(s as usize).unwrap_or(0);
            self.slots[s as usize]
                .as_deref()
                .map(move |p| (ProcHandle { slot: s, gen }, p))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the layout *is* the constant under test
    fn pcb_field_offsets_are_pointer_aligned() {
        // §V-E2 relies on PCB/token fields being 8-byte aligned.
        assert_eq!(PCB_OFF_PT_PTR % 8, 0);
        assert_eq!(PCB_OFF_TOKEN_PTR % 8, 0);
        assert!(PCB_OFF_TOKEN_PTR < PCB_SIZE);
    }

    #[test]
    fn fd_table_reuses_lowest_slot() {
        let mut t = FdTable::with_std();
        let a = t.insert(FdEntry::Console);
        assert_eq!(a, 3);
        let b = t.insert(FdEntry::Console);
        assert_eq!(b, 4);
        t.remove(a);
        let c = t.insert(FdEntry::Console);
        assert_eq!(c, 3, "lowest free slot is reused");
        assert_eq!(t.open_count(), 5);
        assert!(t.get(99).is_none());
        assert!(t.get(-1).is_none());
    }

    #[test]
    fn vma_lookup() {
        let vma = VmArea {
            start: 0x1000,
            end: 0x3000,
            perms: VmPerms::RW,
        };
        assert!(vma.contains(VirtAddr::new(0x1000)));
        assert!(vma.contains(VirtAddr::new(0x2fff)));
        assert!(!vma.contains(VirtAddr::new(0x3000)));
    }

    fn proc(pid: Pid) -> Process {
        Process {
            pid,
            parent: None,
            state: ProcState::Running,
            pcb_addr: PhysAddr::new(0x1000),
            aspace: AddressSpace::default(),
            vmas: Vec::new(),
            brk: 0,
            mmap_cursor: 0,
            fds: FdTable::with_std(),
            signals: SignalTable::default(),
            exit_code: 0,
            children: BTreeSet::new(),
            zombies: BTreeSet::new(),
            mm_owner: None,
            threads: Vec::new(),
        }
    }

    #[test]
    fn process_table_basics() {
        let mut t = ProcessTable::new();
        assert!(t.is_empty());
        t.insert(proc(1)).expect("fresh pid");
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1).unwrap().pid, 1);
        let slot = t.get(1).unwrap().token_slot();
        assert_eq!(slot, PhysAddr::new(0x1000 + PCB_OFF_TOKEN_PTR));
        assert!(t.remove(1).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn duplicate_pid_is_an_error_not_a_panic() {
        let mut t = ProcessTable::new();
        t.insert(proc(7)).expect("fresh pid");
        assert_eq!(t.insert(proc(7)), Err(TableError::DuplicatePid(7)));
        assert_eq!(t.len(), 1, "the live entry is untouched");
    }

    #[test]
    fn stale_handle_mismatches_after_reap() {
        let mut t = ProcessTable::new();
        let h = t.insert(proc(3)).expect("insert");
        assert_eq!(t.resolve(h).unwrap().pid, 3);
        assert!(t.remove(3).is_some());
        assert!(t.resolve(h).is_none(), "gen advanced on reap");
        assert!(t.lookup(3).is_none());
        // Reuse the slot for a different pid: the old handle must still
        // mismatch (the ABA case).
        t.quiesce(0);
        let h2 = t.insert(proc(4)).expect("insert after quiesce");
        assert_eq!(h.slot, h2.slot, "slot is reused once quiescent");
        assert_ne!(h.gen, h2.gen, "generation never repeats");
        assert!(t.resolve(h).is_none());
        assert_eq!(t.resolve(h2).unwrap().pid, 4);
    }

    #[test]
    fn limbo_blocks_reuse_until_every_hart_quiesces() {
        let mut t = ProcessTable::with_harts(2);
        let h = t.insert(proc(1)).expect("insert");
        t.remove(1).expect("reap");
        assert_eq!(t.limbo_len(), 1);
        // Only hart 0 quiesces: hart 1 may still hold the handle.
        t.quiesce(0);
        assert_eq!(t.limbo_len(), 1, "slot stays in limbo");
        let h2 = t.insert(proc(2)).expect("fresh slot");
        assert_ne!(h.slot, h2.slot, "fresh slot, not the limbo one");
        // Hart 1 quiesces: the limbo slot becomes reusable.
        t.quiesce(1);
        assert_eq!(t.limbo_len(), 0);
        assert_eq!(t.slots_reclaimed(), 1);
        let h3 = t.insert(proc(3)).expect("reused slot");
        assert_eq!(h3.slot, h.slot);
    }

    #[test]
    fn reader_validates_without_table_access() {
        let mut t = ProcessTable::new();
        let h = t.insert(proc(9)).expect("insert");
        let r = t.reader();
        assert!(r.live(h));
        assert_eq!(r.pid_of(h), Some(9));
        t.remove(9).expect("reap");
        assert!(!r.live(h));
        assert_eq!(r.pid_of(h), None);
        assert_eq!(r.epoch(), 1);
    }

    #[test]
    fn iteration_stays_pid_ordered_across_slot_reuse() {
        let mut t = ProcessTable::new();
        for pid in [5, 3, 8] {
            t.insert(proc(pid)).expect("insert");
        }
        t.remove(3).expect("reap");
        t.quiesce(0);
        t.insert(proc(2)).expect("reuses slot of pid 3");
        let pids: Vec<Pid> = t.pids().collect();
        assert_eq!(pids, [2, 5, 8], "pid order, not slot order");
        let via_handles: Vec<Pid> = t.handles().map(|(_, p)| p.pid).collect();
        assert_eq!(via_handles, [2, 5, 8]);
        for (h, p) in t.handles() {
            assert_eq!(t.resolve(h).unwrap().pid, p.pid);
        }
    }
}
