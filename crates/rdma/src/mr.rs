//! Registered memory regions.
//!
//! A [`MemoryRegion`] models memory pinned and registered with an RDMA NIC:
//! local code reads and writes it directly, while remote peers access it
//! with one-sided verbs through a [`QueuePair`](crate::QueuePair).
//!
//! ## Torn-write modelling
//!
//! On real hardware a CPU store sequence updating a multi-cache-line object
//! is not atomic with respect to a concurrent RDMA Read: the NIC may DMA a
//! mixture of old and new lines. Catfish (like FaRM) detects this with
//! per-line version stamps. We reproduce the effect honestly:
//! [`MemoryRegion::write_local_torn`] applies the new bytes immediately for
//! *local* readers (program order) but records the old bytes and a
//! completion instant; a remote snapshot taken inside the window observes
//! the first portion of the write as new and the remainder as old, at
//! cache-line granularity — which is exactly the mixed-version state the
//! codec's validation rejects.
//!
//! ## Demand-zero backing
//!
//! Rings, mailboxes and arenas are registered at their worst-case size, and
//! most of that capacity is never written. On Linux (x86-64 and AArch64),
//! regions of 64 KiB and up are backed by an anonymous mapping that the
//! kernel fills with zeros one page at a time on first write, so untouched
//! capacity costs no resident memory. Smaller regions, and every region on
//! other targets, are zeroed heap buffers.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use catfish_simnet::{SimDuration, SimTime};

/// Cache-line granularity of torn-write visibility.
const TORN_LINE: usize = 64;

#[derive(Debug)]
struct TornWrite {
    offset: usize,
    old: Vec<u8>,
    started: SimTime,
    completes: SimTime,
}

/// One cache line of registered memory. The `repr(align)` guarantees a
/// heap-backed buffer starts on a cache-line boundary, so chunk slots
/// (whole multiples of 64 bytes) never straddle an extra line — matching
/// how a real registration would pin page-aligned memory for the NIC.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([u8; TORN_LINE]);

/// Regions at least this large come from a demand-zero mapping; smaller
/// ones (8-byte head and ack cells, tiny test arenas) stay on the heap,
/// where a page-granular mapping would waste more than it saves.
const MAP_THRESHOLD: usize = 64 * 1024;

/// A zero-initialised byte buffer whose base address is cache-line-aligned.
enum AlignedBuf {
    Heap { lines: Vec<Line>, len: usize },
    Mapped(demand_zero::Mapping),
}

impl AlignedBuf {
    fn zeroed(len: usize) -> Self {
        let mapped = if len >= MAP_THRESHOLD {
            demand_zero::Mapping::new(len)
        } else {
            None
        };
        let buf = match mapped {
            Some(m) => AlignedBuf::Mapped(m),
            None => AlignedBuf::Heap {
                lines: vec![Line([0u8; TORN_LINE]); len.div_ceil(TORN_LINE)],
                len,
            },
        };
        debug_assert_eq!(
            buf.as_slice().as_ptr() as usize % TORN_LINE,
            0,
            "registered region base must be cache-line-aligned"
        );
        buf
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        let mut buf = Self::zeroed(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        buf
    }

    fn len(&self) -> usize {
        match self {
            AlignedBuf::Heap { len, .. } => *len,
            AlignedBuf::Mapped(m) => m.len(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            // SAFETY: `Line` is a transparent 64-byte array with no
            // padding, so the line storage is `lines.len() * 64` contiguous
            // initialized bytes; `len` never exceeds that.
            AlignedBuf::Heap { lines, len } => unsafe {
                std::slice::from_raw_parts(lines.as_ptr().cast::<u8>(), *len)
            },
            AlignedBuf::Mapped(m) => m.as_slice(),
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        match self {
            // SAFETY: as in `as_slice`, plus exclusive access via `&mut self`.
            AlignedBuf::Heap { lines, len } => unsafe {
                std::slice::from_raw_parts_mut(lines.as_mut_ptr().cast::<u8>(), *len)
            },
            AlignedBuf::Mapped(m) => m.as_mut_slice(),
        }
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len())
            .finish()
    }
}

/// Demand-zero anonymous mappings for large regions.
///
/// The kernel backs a private anonymous mapping with the shared zero page
/// until a page is first written, so only touched pages become resident.
/// A zeroed heap buffer would not do: the allocator clears recycled memory
/// by writing it, committing every page up front. The mapping is
/// page-aligned (which implies the 64-byte cache-line alignment) and
/// unmapped on drop.
///
/// Declared here instead of through a bindings crate; the constants are
/// the Linux values shared by x86-64 and AArch64. Every other target gets
/// the stub below and falls back to the zeroed heap buffer.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod demand_zero {
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const PAGE: usize = 4096;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An owned read-write anonymous mapping of `len` (> 0) bytes.
    pub(super) struct Mapping {
        ptr: NonNull<u8>,
        len: usize,
    }

    impl Mapping {
        pub(super) fn new(len: usize) -> Option<Self> {
            assert!(len > 0, "an empty region needs no mapping");
            // SAFETY: a fresh private anonymous mapping at a kernel-chosen
            // address aliases no existing memory; the arguments are valid
            // for `mmap(2)` and failure is checked below.
            let addr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // MAP_FAILED is `(void *)-1`.
            if addr as usize == usize::MAX {
                let layout = std::alloc::Layout::from_size_align(len, PAGE)
                    .expect("region length overflows a layout");
                std::alloc::handle_alloc_error(layout);
            }
            Some(Mapping {
                ptr: NonNull::new(addr.cast::<u8>()).expect("mmap never maps page zero"),
                len,
            })
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: the mapping is `len` readable bytes, zero-filled by
            // the kernel until written, alive until `self` drops.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [u8] {
            // SAFETY: as in `as_slice`, plus exclusive access via `&mut self`.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are exactly the range `mmap` returned,
            // and no borrow of it outlives `self`.
            let rc = unsafe { munmap(self.ptr.as_ptr().cast::<c_void>(), self.len) };
            debug_assert_eq!(rc, 0, "munmap of an owned mapping failed");
        }
    }
}

/// Targets without the mapping: [`Mapping::new`] declines, so every region
/// is a zeroed heap buffer.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod demand_zero {
    pub(super) enum Mapping {}

    impl Mapping {
        pub(super) fn new(_len: usize) -> Option<Self> {
            None
        }

        pub(super) fn len(&self) -> usize {
            match *self {}
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            match *self {}
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [u8] {
            match *self {}
        }
    }
}

#[derive(Debug)]
struct MrInner {
    bytes: AlignedBuf,
    rkey: u32,
    torn: VecDeque<TornWrite>,
}

/// A registered memory region; cloning shares the same memory.
///
/// # Examples
///
/// ```
/// use catfish_rdma::MemoryRegion;
///
/// let mr = MemoryRegion::new(1024, 7);
/// mr.write_local(8, b"hello");
/// let mut buf = [0u8; 5];
/// mr.read_local(8, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Clone, Debug)]
pub struct MemoryRegion {
    inner: Rc<RefCell<MrInner>>,
}

impl MemoryRegion {
    /// Registers a zeroed region of `len` bytes with remote key `rkey`.
    /// On Linux, regions of 64 KiB and up commit memory only for the pages
    /// that are written (see the module docs).
    pub fn new(len: usize, rkey: u32) -> Self {
        Self::with_buf(AlignedBuf::zeroed(len), rkey)
    }

    /// Registers existing memory (copied into cache-line-aligned backing).
    pub fn from_bytes(bytes: Vec<u8>, rkey: u32) -> Self {
        Self::with_buf(AlignedBuf::from_bytes(&bytes), rkey)
    }

    fn with_buf(bytes: AlignedBuf, rkey: u32) -> Self {
        MemoryRegion {
            inner: Rc::new(RefCell::new(MrInner {
                bytes,
                rkey,
                torn: VecDeque::new(),
            })),
        }
    }

    /// The remote key peers use to address this region.
    pub fn rkey(&self) -> u32 {
        self.inner.borrow().rkey
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.inner.borrow().bytes.len()
    }

    /// Alignment of the region's base address in bytes (at least the
    /// cache-line size — node slots that are whole multiples of 64 bytes
    /// therefore never straddle an extra line).
    pub fn base_alignment(&self) -> usize {
        let inner = self.inner.borrow();
        let addr = inner.bytes.as_slice().as_ptr() as usize;
        if addr == 0 {
            TORN_LINE
        } else {
            1 << addr.trailing_zeros()
        }
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `buf.len()` bytes at `offset` (local, always consistent).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn read_local(&self, offset: usize, buf: &mut [u8]) {
        let inner = self.inner.borrow();
        buf.copy_from_slice(&inner.bytes.as_slice()[offset..offset + buf.len()]);
    }

    /// Lends `f` a direct borrow of `len` bytes at `offset` — the zero-copy
    /// read path. The region is borrowed for the duration of `f`, so `f`
    /// must not call back into mutating methods of the same region.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region, or if the region is
    /// concurrently borrowed mutably.
    pub fn with_slice<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let inner = self.inner.borrow();
        f(&inner.bytes.as_slice()[offset..offset + len])
    }

    /// Zeroes `len` bytes at `offset` without staging a source buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn zero_local(&self, offset: usize, len: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.bytes.as_mut_slice()[offset..offset + len].fill(0);
    }

    /// Writes `data` at `offset` atomically (visible consistently to both
    /// local readers and remote snapshots from this instant).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn write_local(&self, offset: usize, data: &[u8]) {
        let mut inner = self.inner.borrow_mut();
        inner.bytes.as_mut_slice()[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Writes `data` at `offset` with a torn-visibility `window`: local
    /// readers see the new bytes immediately, but remote snapshots taken
    /// before `now + window` observe a cache-line-granular mixture of new
    /// (leading lines) and old (trailing lines) bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region, or when called outside a
    /// running simulation.
    pub fn write_local_torn(&self, offset: usize, data: &[u8], window: SimDuration) {
        let now = catfish_simnet::now();
        let mut inner = self.inner.borrow_mut();
        // GC expired windows.
        while inner.torn.front().is_some_and(|t| t.completes <= now) {
            inner.torn.pop_front();
        }
        if !window.is_zero() {
            let old = inner.bytes.as_slice()[offset..offset + data.len()].to_vec();
            inner.torn.push_back(TornWrite {
                offset,
                old,
                started: now,
                completes: now + window,
            });
        }
        inner.bytes.as_mut_slice()[offset..offset + data.len()].copy_from_slice(data);
    }

    /// The bytes a one-sided remote read sampling this region at instant
    /// `at` observes: consistent, except inside pending torn windows where
    /// trailing cache lines still show pre-write contents.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn snapshot_remote(&self, offset: usize, len: usize, at: SimTime) -> Vec<u8> {
        // GC windows that have expired by the current simulation clock (a
        // snapshot "at" a future instant may still need windows that are
        // pending now, so GC keys off `now`, not `at`).
        let now = catfish_simnet::now();
        let mut inner = self.inner.borrow_mut();
        while inner
            .torn
            .front()
            .is_some_and(|t| t.completes <= now.min(at))
        {
            inner.torn.pop_front();
        }
        let inner = &*inner;
        let mut out = inner.bytes.as_slice()[offset..offset + len].to_vec();
        for t in &inner.torn {
            if at >= t.completes || at < t.started {
                continue;
            }
            // Fraction of the write already visible at `at`, rounded down
            // to whole cache lines.
            let dur = t.completes.duration_since(t.started).as_nanos();
            let done = at.duration_since(t.started).as_nanos();
            let lines_total = t.old.len().div_ceil(TORN_LINE);
            let lines_done = ((done as u128 * lines_total as u128) / dur.max(1) as u128) as usize;
            let new_bytes = (lines_done * TORN_LINE).min(t.old.len());
            // Bytes [new_bytes..] of the write region still show old data.
            let stale_begin = t.offset + new_bytes;
            let stale_end = t.offset + t.old.len();
            let overlap_begin = stale_begin.max(offset);
            let overlap_end = stale_end.min(offset + len);
            if overlap_begin < overlap_end {
                out[overlap_begin - offset..overlap_end - offset]
                    .copy_from_slice(&t.old[overlap_begin - t.offset..overlap_end - t.offset]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catfish_simnet::{sleep, Sim};

    #[test]
    fn local_write_read_round_trip() {
        let mr = MemoryRegion::new(256, 1);
        mr.write_local(10, &[1, 2, 3]);
        let mut buf = [0u8; 3];
        mr.read_local(10, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn clones_share_memory() {
        let mr = MemoryRegion::new(64, 1);
        let mr2 = mr.clone();
        mr.write_local(0, &[9]);
        let mut b = [0u8];
        mr2.read_local(0, &mut b);
        assert_eq!(b, [9]);
    }

    #[test]
    fn torn_write_locally_consistent() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(256, 1);
            mr.write_local_torn(0, &[7u8; 256], SimDuration::from_micros(1));
            let mut buf = [0u8; 256];
            mr.read_local(0, &mut buf);
            assert_eq!(buf, [7u8; 256]);
        });
    }

    #[test]
    fn snapshot_inside_window_sees_mixture() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(256, 1);
            mr.write_local(0, &[1u8; 256]);
            mr.write_local_torn(0, &[2u8; 256], SimDuration::from_micros(4));
            // Halfway through the window: lines 0..2 new, 2..4 old.
            let t = catfish_simnet::now() + SimDuration::from_micros(2);
            let snap = mr.snapshot_remote(0, 256, t);
            assert_eq!(&snap[..128], &[2u8; 128][..]);
            assert_eq!(&snap[128..], &[1u8; 128][..]);
        });
    }

    #[test]
    fn snapshot_after_window_is_clean() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(128, 1);
            mr.write_local_torn(0, &[5u8; 128], SimDuration::from_micros(1));
            let t = catfish_simnet::now() + SimDuration::from_micros(1);
            assert_eq!(mr.snapshot_remote(0, 128, t), vec![5u8; 128]);
        });
    }

    #[test]
    fn snapshot_before_window_sees_old() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(128, 1);
            sleep(SimDuration::from_micros(10)).await;
            mr.write_local_torn(0, &[5u8; 128], SimDuration::from_micros(2));
            // A snapshot "from the past" (read arrived before the write).
            let t = catfish_simnet::now() + SimDuration::from_nanos(1);
            let snap = mr.snapshot_remote(0, 128, t);
            // Line 0 may already be visible at 1ns into a 2us window? No:
            // 1ns/2us of 2 lines rounds down to 0 lines.
            assert_eq!(snap, vec![0u8; 128]);
        });
    }

    #[test]
    fn snapshot_partial_range_overlap() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(512, 1);
            mr.write_local(128, &[1u8; 128]);
            mr.write_local_torn(128, &[2u8; 128], SimDuration::from_micros(2));
            // Read a range that straddles the torn region's stale half.
            let t = catfish_simnet::now() + SimDuration::from_micros(1);
            let snap = mr.snapshot_remote(0, 512, t);
            assert_eq!(&snap[..128], &[0u8; 128][..]); // untouched
            assert_eq!(&snap[128..192], &[2u8; 64][..]); // first line new
            assert_eq!(&snap[192..256], &[1u8; 64][..]); // second line old
            assert_eq!(&snap[256..], &[0u8; 256][..]);
        });
    }

    #[test]
    fn expired_windows_are_garbage_collected() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(64, 1);
            for _ in 0..100 {
                mr.write_local_torn(0, &[1u8; 64], SimDuration::from_nanos(10));
                sleep(SimDuration::from_nanos(20)).await;
            }
            assert!(mr.inner.borrow().torn.len() <= 1);
        });
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mr = MemoryRegion::new(8, 1);
        let mut buf = [0u8; 16];
        mr.read_local(0, &mut buf);
    }

    #[test]
    fn base_is_cache_line_aligned() {
        for len in [0usize, 1, 63, 64, 65, 4096, 100_000] {
            let mr = MemoryRegion::new(len, 1);
            assert!(
                mr.base_alignment() >= TORN_LINE,
                "len {len}: alignment {} below cache line",
                mr.base_alignment()
            );
        }
    }

    #[test]
    fn from_bytes_preserves_contents_and_aligns() {
        let data: Vec<u8> = (0..200u8).collect();
        let mr = MemoryRegion::from_bytes(data.clone(), 3);
        assert!(mr.base_alignment() >= TORN_LINE);
        let mut buf = vec![0u8; 200];
        mr.read_local(0, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn with_slice_lends_without_copy() {
        let mr = MemoryRegion::new(128, 1);
        mr.write_local(32, b"abc");
        assert_eq!(mr.with_slice(32, 3, |s| s.to_vec()), b"abc");
        // Nested shared borrows are fine.
        mr.with_slice(0, 64, |a| {
            mr.with_slice(32, 3, |b| assert_eq!(&a[32..35], b));
        });
    }
}
