//! A minimal per-core virtual-to-physical page mapper.
//!
//! Traces emit virtual addresses. The MMU gives each `(core, virtual
//! page)` pair a distinct physical page, so that cores running identical
//! traces (homogeneous mixes) do not alias in the shared LLC — matching
//! the multi-programmed methodology of the paper. Mapping is a
//! deterministic hash scattered over the configured physical memory,
//! with linear probing to avoid collisions.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::types::{mix64, LineAddr, LINE_SHIFT, PAGE_SHIFT};

/// Deterministic multiply-rotate hasher (Fx-style). The MMU probes its
/// page map once per memory access, so the default SipHash showed up in
/// simulator profiles; page-number keys need scatter, not DoS
/// resistance.
#[derive(Debug, Default, Clone)]
pub struct PageHasher {
    state: u64,
}

impl PageHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type PageMapHasher = BuildHasherDefault<PageHasher>;

/// Direct-mapped translation-cache size (entries, power of two). The
/// cache fronts the page map: page-local access runs hit the same entry
/// repeatedly, turning the per-access hash-map probe into one indexed
/// load. It is a pure memo — translations are identical with it off.
/// Sized for the multi-programmed Zipf mixes: 4 cores touching a few
/// thousand hot pages each thrashed a 512-entry array, and at 24 bytes
/// a slot (a 16-byte padded tag plus the page) the memo is still small
/// enough to be cache-resident.
const TLB_ENTRIES: usize = 8192;

/// Per-system page mapper.
#[derive(Debug)]
pub struct Mmu {
    map: HashMap<(u32, u64), u64, PageMapHasher>,
    used: HashMap<u64, (), PageMapHasher>,
    phys_pages: u64,
    /// `(core, vpage)` tag per slot; `u32::MAX` core marks empty.
    tlb_tags: Vec<(u32, u64)>,
    /// Cached physical page per slot.
    tlb_ppage: Vec<u64>,
}

impl Mmu {
    /// An MMU managing `phys_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `phys_bytes` is smaller than one page.
    pub fn new(phys_bytes: u64) -> Self {
        let phys_pages = phys_bytes >> PAGE_SHIFT;
        assert!(phys_pages > 0, "physical memory too small");
        // Page maps grow monotonically as the workload touches new
        // pages; pre-sizing them past the working set of the standard
        // mixes keeps rehash-and-move cycles out of the measured
        // region (they showed up as libc memcpy in simulator
        // profiles). ~1.5 MB up front for the pair.
        let prealloc = 32_768.min(phys_pages as usize);
        Mmu {
            map: HashMap::with_capacity_and_hasher(prealloc, PageMapHasher::default()),
            used: HashMap::with_capacity_and_hasher(prealloc, PageMapHasher::default()),
            phys_pages,
            tlb_tags: vec![(u32::MAX, 0); TLB_ENTRIES],
            tlb_ppage: vec![0; TLB_ENTRIES],
        }
    }

    /// Default MMU: 8 GB, per the paper's Table V.
    pub fn default_8gb() -> Self {
        Self::new(8 << 30)
    }

    /// Translate a virtual byte address from `core` to a physical line
    /// address.
    #[inline]
    pub fn translate(&mut self, core: usize, vaddr: u64) -> LineAddr {
        let vpage = vaddr >> PAGE_SHIFT;
        let key = (core as u32, vpage);
        let slot = (vpage as usize ^ core.wrapping_mul(0x9E37)) & (TLB_ENTRIES - 1);
        let ppage = if self.tlb_tags[slot] == key {
            self.tlb_ppage[slot]
        } else {
            self.translate_slow(key, slot)
        };
        let paddr = (ppage << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1));
        LineAddr::from_byte_addr(paddr)
    }

    /// TLB-miss path: consult (or grow) the page map and refill the
    /// missed slot. Out of line so the per-access fast path inlines to a
    /// tag compare and an indexed load.
    #[cold]
    fn translate_slow(&mut self, key: (u32, u64), slot: usize) -> u64 {
        let (core, vpage) = key;
        let p = match self.map.get(&key) {
            Some(&p) => p,
            None => {
                let mut candidate = mix64(vpage ^ mix64(core as u64 ^ 0xC0FE)) % self.phys_pages;
                while self.used.contains_key(&candidate) {
                    candidate = (candidate + 1) % self.phys_pages;
                }
                self.used.insert(candidate, ());
                self.map.insert(key, candidate);
                candidate
            }
        };
        self.tlb_tags[slot] = key;
        self.tlb_ppage[slot] = p;
        p
    }

    /// The largest physical line address a translation can return.
    pub(crate) fn max_line(&self) -> LineAddr {
        LineAddr((self.phys_pages << (PAGE_SHIFT - LINE_SHIFT)) - 1)
    }

    /// Number of distinct pages mapped so far.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PAGE_SIZE;

    #[test]
    fn translation_is_stable() {
        let mut m = Mmu::default_8gb();
        let a = m.translate(0, 0x1000);
        let b = m.translate(0, 0x1000);
        assert_eq!(a, b);
        assert_eq!(m.mapped_pages(), 1);
    }

    #[test]
    fn same_page_offsets_stay_together() {
        let mut m = Mmu::default_8gb();
        let a = m.translate(0, 0x1000);
        let b = m.translate(0, 0x1040);
        assert_eq!(b.0, a.0 + 1);
        assert_eq!(a.page_number(), b.page_number());
    }

    #[test]
    fn cores_get_distinct_physical_pages() {
        let mut m = Mmu::default_8gb();
        let a = m.translate(0, 0x1000);
        let b = m.translate(1, 0x1000);
        assert_ne!(a.page_number(), b.page_number());
    }

    #[test]
    fn no_two_vpages_share_a_ppage() {
        let mut m = Mmu::new(1 << 20); // tiny: 256 pages, forces probing
        let mut seen = std::collections::HashSet::new();
        for v in 0..200u64 {
            let line = m.translate(0, v * PAGE_SIZE);
            assert!(seen.insert(line.page_number()), "collision at vpage {v}");
        }
    }

    #[test]
    fn max_line_bounds_every_translation() {
        let mut m = Mmu::new(1 << 20);
        assert_eq!(m.max_line(), LineAddr((1 << 14) - 1));
        for v in 0..256u64 {
            assert!(m.translate(0, v * PAGE_SIZE + PAGE_SIZE - 1) <= m.max_line());
        }
        assert_eq!(Mmu::default_8gb().max_line(), LineAddr((1 << 27) - 1));
    }

    #[test]
    fn offsets_preserved() {
        let mut m = Mmu::default_8gb();
        let line = m.translate(0, 0x1234_5678);
        // offset within page: 0x678 -> line offset 0x678 >> 6 = 0x19
        assert_eq!(line.0 & 0x3F, (0x5678 & 0xFFF) >> 6);
    }
}
