//! Paged physical memory with permissions and copy-on-write snapshots.
//!
//! Memory is a set of non-overlapping *regions* of 64-bit words. Every
//! access is checked for mapping, alignment and permission; violations
//! surface as the hardware exceptions the Xentry runtime detector consumes:
//!
//! * unmapped address → `#PF`
//! * store to read-only region (e.g. hypervisor text) → `#PF` (write)
//! * fetch from a non-executable region → `#PF` (fetch)
//! * unaligned word access → `#AC`
//!
//! The null page is never mapped, so corrupted zero-ish pointers fault
//! exactly like on real hardware.
//!
//! # Pages
//!
//! Contents live in 4 KiB pages ([`PAGE_BYTES`], [`PAGE_WORDS`] words)
//! aligned to the address space, each behind its own `Arc`. Everything that
//! is fixed once setup code has finished — region names, bases, lengths,
//! permissions, the [`PageMap`] descriptors and the page table — sits behind
//! one more `Arc`. So:
//!
//! * **An access is one index.** `addr >> 12` indexes a flat page table
//!   whose entry names the page's storage slot, the word range of the page
//!   the region covers, its permissions and the page map governing it (if
//!   any). A page that holds several small regions chains one entry per
//!   region; an address past the table, or outside every entry's word
//!   range (the unmapped tail of a partial page), is `Unmapped`.
//! * **A clone copies no words.** `Memory::clone` bumps one reference count
//!   per page (240 for the campaign platform, ~5 µs where the deep copy of
//!   its 935 KiB took ~72 µs). A page is copied the first time it is
//!   written while shared, and only that page — so the cost a snapshot
//!   used to pay up front moves to the first write to each page after it.
//!   `a.clone_from(&b)` is `a = b.clone()` for less when `a` is an older
//!   image of the same memory map (same `Arc`'d layout, so the same
//!   slots): it keeps `a`'s page vector and walks it comparing pointers,
//!   and only a slot whose page is not already `b`'s pays a reference
//!   count up and one down — the ten or so pages a handler dirtied, not
//!   240 and an allocation. With any other `a` (another layout, or a
//!   memory still being mapped) it falls back to the plain clone.
//! * **Comparing two descendants of one image skips what they share.**
//!   [`Memory::for_each_diff`] (and with it [`Memory::delta_from`], `==`
//!   and [`Memory::restore_region`]) passes over pages that are the same
//!   allocation and word-compares the rest, so a diff costs the pages
//!   either side dirtied, not the size of the image. An equal but
//!   unshared page still compares equal.
//!
//! Mapped addresses must lie below [`ADDR_LIMIT`], which bounds the table.
//!
//! # Lookaside windows
//!
//! A caller that accesses memory again and again — [`Machine::run`](crate::Machine::run) —
//! carries two small caches of *where* recent accesses resolved, never of
//! *what* they read: a [`FetchWindow`] for instruction fetches
//! ([`Memory::fetch_near`]) and a [`DataWindow`] for loads and stores
//! through the page maps ([`Memory::read_near`], [`Memory::write_near`]).
//! Both are filled only by the checked path, which is also where every
//! fault is raised, and the word itself always comes from the live page, so
//! stores, pokes, restores and copy-on-write need no invalidation. The one
//! thing a window remembers that simulated code can change is a
//! translation: the data window keeps the PTE value it was derived from
//! and compares it with the live PTE word on every hit. No window is
//! stored in a [`Memory`], a machine or a snapshot; [`Memory::fetch`],
//! [`Memory::read_v`] and [`Memory::write_v`] are the `_near` forms with a
//! throwaway one.
//!
//! `Machine::run` keeps one thing that *does* hold contents — the
//! instructions it has decoded, in front of the fetch window — and this
//! module's part in that is one answer: [`Memory::write_near`] says whether
//! the store landed in an executable region, which is the only event inside
//! a run that can change what a fetch returns. Why that is enough is in
//! ARCHITECTURE.md §1, "Step loop".

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Access permissions for a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Perms {
    pub read: bool,
    pub write: bool,
    pub exec: bool,
}

impl Perms {
    /// Read-only data.
    pub const R: Perms = Perms {
        read: true,
        write: false,
        exec: false,
    };
    /// Read-write data.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
        exec: false,
    };
    /// Executable, read-only (text sections).
    pub const RX: Perms = Perms {
        read: true,
        write: false,
        exec: true,
    };
    /// Executable and writable (guest self-modifying regions; discouraged).
    pub const RWX: Perms = Perms {
        read: true,
        write: true,
        exec: true,
    };
}

/// Identifies a region for diagnostics and fault-outcome classification
/// (e.g. "the corrupted store landed in another domain's memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u32);

/// Bytes per page — region storage and every [`PageMap`] use 4 KiB pages.
pub const PAGE_BYTES: u64 = 0x1000;
/// Words per page.
pub const PAGE_WORDS: usize = (PAGE_BYTES / 8) as usize;
/// Regions and page-mapped ranges must end at or below this address: the
/// page table is a flat array indexed by `addr >> 12`, and this keeps it
/// small (the campaign platform ends at 26 MiB). Accesses above it simply
/// miss.
pub const ADDR_LIMIT: u64 = 1 << 32;

type Page = [u64; PAGE_WORDS];

/// Page number of a byte address.
fn page_of(addr: u64) -> u64 {
    addr / PAGE_BYTES
}

/// Word index of a byte address within its page.
fn word_of(addr: u64) -> usize {
    (addr / 8) as usize % PAGE_WORDS
}

/// A contiguous mapped range of words: the boot-static description. The
/// contents live in the owning [`Memory`]'s pages; read them with
/// [`Memory::region_words`], [`Memory::peek`] or [`Memory::for_each_diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    pub id: RegionId,
    /// Human-readable name ("hv.text", "dom1.data", ...).
    pub name: String,
    /// Base byte address; must be 8-aligned.
    pub base: u64,
    pub perms: Perms,
    /// Length in words.
    words: usize,
    /// Storage slot of the page holding `base`; the region's pages occupy
    /// consecutive slots from here.
    first_slot: usize,
}

impl Region {
    /// Size in words.
    pub fn len_words(&self) -> usize {
        self.words
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> u64 {
        (self.words as u64) * 8
    }

    /// Whether `addr` (byte address) falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    fn end(&self) -> u64 {
        self.base + self.len_bytes()
    }

    /// First and last page number the region touches.
    fn page_span(&self) -> (u64, u64) {
        (page_of(self.base), page_of(self.end() - 1))
    }

    /// The region's pages in address order: `(storage slot, word range of
    /// that page the region covers)`. Concatenating the ranges yields the
    /// region's words in order.
    fn spans(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let (first, last) = self.page_span();
        (first..=last).map(move |page| {
            let page_base = page * PAGE_BYTES;
            let lo = self.base.saturating_sub(page_base) / 8;
            let hi = ((self.end() - page_base) / 8).min(PAGE_WORDS as u64);
            (
                self.first_slot + (page - first) as usize,
                lo as usize..hi as usize,
            )
        })
    }
}

/// Memory access errors, mapped to exceptions by the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemError {
    /// No region maps this address.
    Unmapped { addr: u64 },
    /// Region mapped but the permission is missing.
    Protection { addr: u64 },
    /// Address not 8-byte aligned.
    Unaligned { addr: u64 },
}

/// Present bit of a page-table entry (see [`PageMap`]).
pub const PTE_PRESENT: u64 = 1 << 0;
/// Writable bit of a page-table entry.
pub const PTE_RW: u64 = 1 << 1;
/// Mask selecting the frame (physical page base) bits of a PTE.
pub const PTE_FRAME_MASK: u64 = !0xFFFu64;

/// A single-level page table governing one virtual range: data accesses
/// (never fetches) whose address falls in `[virt_base, virt_base +
/// nr_pages * 4 KiB)` are walked through the PTE array at `ptbl_base`
/// (one word per page, in the memory image itself — so PTE corruption is
/// ordinary word corruption, visible to deltas, digests and microreboot).
///
/// Accesses outside every map pass through untranslated, which keeps the
/// hypervisor's own flat addressing intact while guest data pages get
/// fault-on-walk semantics: a non-present PTE raises `Unmapped` (`#PF`), a
/// write through a read-only PTE raises `Protection`, and corrupted frame
/// bits silently redirect the access — exactly the three failure shapes of
/// real PTE soft errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageMap {
    /// First virtual byte address the map governs (page-aligned).
    pub virt_base: u64,
    /// Pages in the map.
    pub nr_pages: u32,
    /// Byte address of the first PTE word backing this map.
    pub ptbl_base: u64,
}

impl PageMap {
    /// Whether `addr` falls inside the governed virtual range.
    pub fn covers(&self, addr: u64) -> bool {
        addr >= self.virt_base && addr < self.virt_base + self.nr_pages as u64 * PAGE_BYTES
    }

    /// Byte address of the PTE word governing `addr` (which must be
    /// covered).
    pub fn pte_addr(&self, addr: u64) -> u64 {
        self.ptbl_base + ((addr - self.virt_base) / PAGE_BYTES) * 8
    }

    /// The identity PTE for page `page` of this map: present, writable,
    /// frame equal to the virtual page base (what boot installs).
    pub fn identity_pte(&self, page: u32) -> u64 {
        (self.virt_base + page as u64 * PAGE_BYTES) | PTE_PRESENT | PTE_RW
    }
}

/// What the page table knows about one region's share of one page.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// Index into [`Memory::pages`].
    slot: u32,
    /// Index into [`Layout::overflow`] of the next region on the same page;
    /// [`NO_NEXT`] ends the chain.
    next: u32,
    /// Index into [`Layout::regions`].
    region: u16,
    /// Words `[lo, hi)` of the page belong to the region; empty when
    /// nothing is mapped on the page.
    lo: u16,
    hi: u16,
    /// 1 + index into [`Layout::page_maps`] of the map governing this
    /// virtual page, 0 for none. Meaningful on table entries only, not on
    /// overflow entries.
    map: u16,
    perms: Perms,
}

const NO_NEXT: u32 = u32::MAX;

const UNMAPPED_PAGE: PageEntry = PageEntry {
    slot: 0,
    next: NO_NEXT,
    region: 0,
    lo: 0,
    hi: 0,
    map: 0,
    perms: Perms {
        read: false,
        write: false,
        exec: false,
    },
};

/// Everything about a memory map that is fixed once setup code is done.
/// Shared by every clone; [`Memory::map`] and [`Memory::add_page_map`]
/// extend it (their own copy of it, if clones exist).
#[derive(Debug, Clone, Default)]
struct Layout {
    /// Regions sorted by base address.
    regions: Vec<Region>,
    /// Page maps governing translated virtual ranges. The descriptors never
    /// change after setup; the PTE *words* live in a region and change like
    /// any other memory.
    page_maps: Vec<PageMap>,
    /// Indexed by page number; one entry per page up to the last mapped or
    /// page-mapped one.
    table: Vec<PageEntry>,
    /// Second and later regions of pages that hold more than one.
    overflow: Vec<PageEntry>,
    /// Page number stored in each slot, ascending.
    slot_pages: Vec<u64>,
}

impl Layout {
    /// Build the table for `regions` (disjoint, any order) and `page_maps`.
    fn build(mut regions: Vec<Region>, page_maps: Vec<PageMap>) -> Layout {
        regions.sort_by_key(|r| r.base);
        let mut layout = Layout::default();
        for r in regions {
            layout.append(r);
        }
        for m in page_maps {
            layout.govern(m);
        }
        layout
    }

    /// Whether a region at `base` would sort after every region here.
    fn ends_below(&self, base: u64) -> bool {
        self.regions.last().is_none_or(|r| r.end() <= base)
    }

    /// Grow the table to `pages` entries.
    fn cover(&mut self, pages: u64) {
        if self.table.len() < pages as usize {
            self.table.resize(pages as usize, UNMAPPED_PAGE);
        }
    }

    /// Add a region that lies above every region already here
    /// ([`Layout::ends_below`]): give its pages the next slots and enter
    /// them in the table.
    fn append(&mut self, mut r: Region) {
        let (first, last) = r.page_span();
        // Regions are disjoint and ascending, so the only page this one
        // can share with an earlier region is the last one allocated.
        let shared = self.slot_pages.last() == Some(&first);
        r.first_slot = self.slot_pages.len() - shared as usize;
        self.slot_pages.extend(first + shared as u64..=last);
        self.cover(last + 1);
        for (page, (slot, words)) in (first..).zip(r.spans()) {
            let head = &mut self.table[page as usize];
            let entry = PageEntry {
                slot: slot as u32,
                next: head.next,
                region: self.regions.len() as u16,
                lo: words.start as u16,
                hi: words.end as u16,
                map: head.map,
                perms: r.perms,
            };
            if head.hi == 0 {
                *head = entry;
            } else {
                head.next = self.overflow.len() as u32;
                self.overflow.push(entry);
            }
        }
        self.regions.push(r);
    }

    /// Put `map`'s virtual pages under its governance.
    fn govern(&mut self, map: PageMap) {
        let first = page_of(map.virt_base);
        self.cover(first + map.nr_pages as u64);
        self.page_maps.push(map);
        for head in &mut self.table[first as usize..][..map.nr_pages as usize] {
            head.map = self.page_maps.len() as u16;
        }
    }

    /// Table entry for the page holding `addr`; `None` past the table.
    #[inline]
    fn head(&self, addr: u64) -> Option<&PageEntry> {
        self.table.get(usize::try_from(page_of(addr)).ok()?)
    }

    /// The entry, on the chain starting at `head`, whose region maps the
    /// word at `addr`.
    #[inline]
    fn resolve<'a>(&'a self, head: Option<&'a PageEntry>, addr: u64) -> Option<&'a PageEntry> {
        let w = word_of(addr) as u16;
        let mut e = head?;
        loop {
            if e.lo <= w && w < e.hi {
                return Some(e);
            }
            e = self.overflow.get(e.next as usize)?;
        }
    }

    /// Why a new region cannot join `regions`, if it cannot.
    fn check_region(&self, name: &str, base: u64, words: usize) -> Result<(), String> {
        if !base.is_multiple_of(8) {
            return Err(format!("region base must be 8-aligned: {name} @ {base:#x}"));
        }
        if words == 0 {
            return Err(format!("empty region: {name}"));
        }
        let end = (words as u64)
            .checked_mul(8)
            .and_then(|len| base.checked_add(len))
            .filter(|&end| end <= ADDR_LIMIT)
            .ok_or_else(|| format!("region {name} @ {base:#x} ends above {ADDR_LIMIT:#x}"))?;
        if self.regions.len() >= u16::MAX as usize {
            return Err(format!("too many regions for {name}"));
        }
        for r in &self.regions {
            if end > r.base && base < r.end() {
                return Err(format!(
                    "region {name} [{base:#x},{end:#x}) overlaps {} [{:#x},{:#x})",
                    r.name,
                    r.base,
                    r.end()
                ));
            }
        }
        Ok(())
    }

    /// Why a new page map cannot join `page_maps`, if it cannot.
    fn check_page_map(&self, map: &PageMap) -> Result<(), String> {
        if !map.virt_base.is_multiple_of(PAGE_BYTES) {
            return Err(format!(
                "page map base must be page-aligned: {:#x}",
                map.virt_base
            ));
        }
        if map.nr_pages == 0 {
            return Err("empty page map".to_string());
        }
        let end = map.virt_base as u128 + map.nr_pages as u128 * PAGE_BYTES as u128;
        if end > ADDR_LIMIT as u128 {
            return Err(format!(
                "page map @ {:#x} ends above {ADDR_LIMIT:#x}",
                map.virt_base
            ));
        }
        if map.ptbl_base.checked_add(map.nr_pages as u64 * 8).is_none() {
            return Err(format!(
                "page map PTE array @ {:#x} wraps the address space",
                map.ptbl_base
            ));
        }
        if self.page_maps.len() >= u16::MAX as usize - 1 {
            return Err("too many page maps".to_string());
        }
        for m in &self.page_maps {
            if m.covers(map.virt_base) || map.covers(m.virt_base) {
                return Err(format!("page maps overlap at {:#x}", map.virt_base));
            }
        }
        Ok(())
    }
}

/// The physical memory map. See the [module docs](self) for how pages are
/// stored and what a clone shares.
#[derive(Default)]
pub struct Memory {
    /// Boot-static description and page table.
    layout: Arc<Layout>,
    /// Contents, one page per slot ([`Layout::slot_pages`]). Words of a
    /// page that no region covers are never written and stay zero.
    pages: Vec<Arc<Page>>,
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            layout: Arc::clone(&self.layout),
            pages: self.pages.clone(),
        }
    }

    /// `*self = source.clone()`, at the cost of the pages that differ: when
    /// both are images of one memory map (the same layout allocation,
    /// so the same slots), the page vector is kept and only slots that do
    /// not already share the source's page take its `Arc`. Anything else
    /// is a plain clone.
    fn clone_from(&mut self, source: &Memory) {
        let Memory { layout, pages } = source;
        if !Arc::ptr_eq(&self.layout, layout) || self.pages.len() != pages.len() {
            *self = source.clone();
            return;
        }
        for (ours, theirs) in self.pages.iter_mut().zip(pages) {
            if !Arc::ptr_eq(ours, theirs) {
                *ours = Arc::clone(theirs);
            }
        }
    }
}

/// Sparse word-level difference between two memory images that share one
/// region layout (same regions, bases, sizes). Campaign checkpoints only
/// ever diff descendants of a single boot image, whose layout is fixed at
/// load time, so the delta never needs to describe mapping changes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryDelta {
    /// `(region index, word index, new value)` for every word that differs.
    pub words: Vec<(u32, u32, u64)>,
}

impl MemoryDelta {
    /// Number of changed words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the two images were identical.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// One-entry fetch lookaside: where the last successful
/// [`Memory::fetch_near`] found its word. Holds only what the memory map
/// fixes — a page number, the executable word range of that page and its
/// storage slot — never contents, so stores, pokes, restores and
/// copy-on-write between fetches are seen (what `run` remembers of
/// contents sits in front of this window and has its own rule:
/// ARCHITECTURE.md §1, "Step loop"). It belongs to one memory map:
/// start a new one after [`Memory::map`]. [`Machine::run`](crate::Machine::run)
/// keeps one per call and nothing stores one.
#[derive(Debug, Clone, Copy)]
pub struct FetchWindow {
    /// Page the window is on; `u64::MAX`, which no address is on, when it
    /// is on none.
    page: u64,
    /// Words `[lo, hi)` of the page are one executable region's.
    lo: u16,
    hi: u16,
    /// Index into [`Memory::pages`].
    slot: u32,
}

impl Default for FetchWindow {
    fn default() -> FetchWindow {
        FetchWindow {
            page: u64::MAX,
            lo: 0,
            hi: 0,
            slot: 0,
        }
    }
}

/// Entries in a [`DataWindow`]. A `run` call on the campaign platform makes
/// a couple of hundred data accesses to about eight pages, and the measured
/// miss rate is 12.3% with 4 entries, 3.4% with 16 — close to the one miss
/// a page must cost — and 3.0% with 32.
const DATA_WINDOW_ENTRIES: usize = 16;

/// The PTE a page walk went through: where it sits and what it held.
#[derive(Debug, Clone, Copy)]
struct Pte {
    value: u64,
    /// Index into [`Memory::pages`]; [`NO_PTE`] when no map governs the
    /// address and there was no walk.
    slot: u32,
    /// Word of that page.
    word: u16,
}

const NO_PTE: u32 = u32::MAX;

/// What stands in for the PTE of an address no map governs: present,
/// writable, nowhere.
const UNTRANSLATED: Pte = Pte {
    value: PTE_PRESENT | PTE_RW,
    slot: NO_PTE,
    word: 0,
};

/// Where one virtual page's data accesses go, and what that was derived
/// from.
#[derive(Debug, Clone, Copy)]
struct DataEntry {
    /// Virtual page number the entry answers for.
    vpage: u64,
    /// The PTE the translation below was derived from.
    pte: Pte,
    /// Words `[lo, hi)` of the translated page are one readable region's.
    lo: u16,
    hi: u16,
    /// Index into [`Memory::pages`] of the translated page.
    slot: u32,
    /// Whether region and PTE both allow a store.
    write: bool,
    /// Whether the region is executable: a store that lands here may change
    /// what a later fetch returns ([`Memory::write_near`]).
    exec: bool,
}

impl DataEntry {
    /// Answers for no address: its word range holds no word. All zeroes,
    /// so that a new window is one fill, made where the window will live.
    const EMPTY: DataEntry = DataEntry {
        vpage: 0,
        pte: Pte {
            value: 0,
            slot: 0,
            word: 0,
        },
        lo: 0,
        hi: 0,
        slot: 0,
        write: false,
        exec: false,
    };
}

/// Data lookaside, the [`FetchWindow`] of loads and stores: where the last
/// successful [`Memory::read_near`] / [`Memory::write_near`] to each of a
/// few virtual pages found its word. Like the fetch window it holds where,
/// never what: the page's storage slot, the word range and write permission
/// of the region there — which the memory map fixes — and, for a
/// page-mapped address, where its PTE sits and the PTE value the slot was
/// translated from. That last part simulated code *can* change, so a hit
/// reads the live PTE word again and compares: a store, `poke`, restore or
/// injected strike that changes the PTE is seen by the next access with no
/// invalidation protocol, and one that leaves it equal changes nothing the
/// entry holds. It belongs to one memory map: start a new one after
/// [`Memory::map`] or [`Memory::add_page_map`].
/// [`Machine::run`](crate::Machine::run) keeps one per call and nothing
/// stores one.
#[derive(Debug)]
pub struct DataWindow {
    entries: [DataEntry; DATA_WINDOW_ENTRIES],
}

impl Default for DataWindow {
    #[inline]
    fn default() -> DataWindow {
        DataWindow {
            entries: [DataEntry::EMPTY; DATA_WINDOW_ENTRIES],
        }
    }
}

impl DataWindow {
    /// The entry `vpage` maps to. The hypervisor's structure families sit
    /// one page each at 0x40-page strides, so their low page-number bits
    /// are all equal (16 entries indexed by those alone miss as often as
    /// 4); fold the stride's bits in.
    #[inline]
    fn index(vpage: u64) -> usize {
        (vpage ^ (vpage >> 6)) as usize % DATA_WINDOW_ENTRIES
    }
}

/// Kind of access being performed, for permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
    Fetch,
    /// Privileged: any mapped word, whatever the region's permissions.
    Raw,
}

impl Memory {
    /// Empty memory map.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn try_map(
        &mut self,
        id: RegionId,
        name: &str,
        base: u64,
        words: usize,
        perms: Perms,
    ) -> Result<(), String> {
        self.layout.check_region(name, base, words)?;
        let region = Region {
            id,
            name: name.to_string(),
            base,
            perms,
            words,
            first_slot: 0,
        };
        let zero: Arc<Page> = Arc::new([0; PAGE_WORDS]);
        if self.layout.ends_below(base) {
            // Setup code maps in ascending order: extend in place.
            let layout = Arc::make_mut(&mut self.layout);
            layout.append(region);
            self.pages.resize(layout.slot_pages.len(), zero);
            return Ok(());
        }
        // Out of order: slots are in address order, so later regions move.
        // Rebuild, carrying every page over to its new slot.
        let mut regions = self.layout.regions.clone();
        regions.push(region);
        let layout = Layout::build(regions, self.layout.page_maps.clone());
        let mut kept = self.layout.slot_pages.iter().zip(&self.pages).peekable();
        self.pages = layout
            .slot_pages
            .iter()
            .map(|page| match kept.next_if(|(old, _)| *old == page) {
                Some((_, contents)) => Arc::clone(contents),
                None => Arc::clone(&zero),
            })
            .collect();
        self.layout = Arc::new(layout);
        Ok(())
    }

    fn try_add_page_map(&mut self, map: PageMap) -> Result<(), String> {
        self.layout.check_page_map(&map)?;
        Arc::make_mut(&mut self.layout).govern(map);
        Ok(())
    }

    /// Map a new zero-filled region. Panics if it overlaps an existing
    /// region, the base is unaligned or it ends above [`ADDR_LIMIT`] —
    /// memory maps are built by trusted setup code, not simulated code.
    /// Every page of the new region starts as one shared zero page.
    pub fn map(&mut self, name: &str, base: u64, words: usize, perms: Perms) -> RegionId {
        let id = RegionId(self.layout.regions.len() as u32);
        self.try_map(id, name, base, words, perms)
            .unwrap_or_else(|e| panic!("{e}"));
        id
    }

    /// Look up the region covering `addr`.
    pub fn region_at(&self, addr: u64) -> Option<&Region> {
        let e = self.layout.resolve(self.layout.head(addr), addr)?;
        Some(&self.layout.regions[e.region as usize])
    }

    /// Region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        self.regions()
            .iter()
            .find(|r| r.id == id)
            .expect("region id valid")
    }

    /// Region lookup by name (setup/diagnostics).
    pub fn region_by_name(&self, name: &str) -> Option<&Region> {
        self.regions().iter().find(|r| r.name == name)
    }

    /// All regions, sorted by base.
    pub fn regions(&self) -> &[Region] {
        &self.layout.regions
    }

    /// The contents of `r` (a region of this memory), page slice by page
    /// slice in address order.
    fn region_slices<'a>(&'a self, r: &'a Region) -> impl Iterator<Item = &'a [u64]> + 'a {
        r.spans().map(move |(slot, words)| &self.pages[slot][words])
    }

    /// A flat copy of the named region's contents (diagnostics, tests).
    pub fn region_words(&self, name: &str) -> Option<Vec<u64>> {
        let r = self.region_by_name(name)?;
        Some(self.region_slices(r).flatten().copied().collect())
    }

    /// Total mapped words.
    pub fn len_words(&self) -> usize {
        self.regions().iter().map(Region::len_words).sum()
    }

    /// Check alignment, mapping and permission of an access to physical
    /// address `addr`, whose page's table entry is `head`; return the entry
    /// of the region that maps it.
    #[inline]
    fn check<'a>(
        &'a self,
        head: Option<&'a PageEntry>,
        addr: u64,
        kind: Access,
    ) -> Result<&'a PageEntry, MemError> {
        if !addr.is_multiple_of(8) {
            return Err(MemError::Unaligned { addr });
        }
        let e = self
            .layout
            .resolve(head, addr)
            .ok_or(MemError::Unmapped { addr })?;
        let ok = match kind {
            Access::Read => e.perms.read,
            Access::Write => e.perms.write,
            Access::Fetch => e.perms.exec,
            Access::Raw => true,
        };
        if !ok {
            return Err(MemError::Protection { addr });
        }
        Ok(e)
    }

    /// [`Memory::check`] from the address alone; return the storage slot
    /// and in-page word index.
    #[inline]
    fn access(&self, addr: u64, kind: Access) -> Result<(usize, usize), MemError> {
        let e = self.check(self.layout.head(addr), addr, kind)?;
        Ok((e.slot as usize, word_of(addr)))
    }

    /// Where a data access to virtual address `addr` lands, from `near`
    /// alone: storage slot, word of that page and whether the region there
    /// is executable. `None` unless `addr` is aligned, on a page `near` has
    /// an entry for, inside the entry's word range, allowed (`write`) and —
    /// for a page-mapped address — still governed by the PTE value the
    /// entry was derived from.
    #[inline]
    fn near_hit(&self, near: &DataWindow, addr: u64, write: bool) -> Option<(usize, usize, bool)> {
        let (vpage, word) = (page_of(addr), word_of(addr));
        let e = &near.entries[DataWindow::index(vpage)];
        let hit = e.vpage == vpage
            && addr.is_multiple_of(8)
            && (e.lo..e.hi).contains(&(word as u16))
            && (e.write || !write)
            && (e.pte.slot == NO_PTE
                || self.pages[e.pte.slot as usize][e.pte.word as usize] == e.pte.value);
        hit.then_some((e.slot as usize, word, e.exec))
    }

    /// The checked path of a data access to virtual address `addr`: the
    /// page walk ([`Memory::walk`]), then [`Memory::check`] on the physical
    /// address — one table lookup serves both and, for an identity PTE
    /// (what boot installs), the data access as well. Raises every fault,
    /// and is the only place `near` is filled. Answers as
    /// [`Memory::near_hit`] does; "executable" is the region the *physical*
    /// address is in, so a store through a redirected PTE says what it hit.
    #[inline(never)]
    fn near_miss(
        &self,
        near: &mut DataWindow,
        addr: u64,
        kind: Access,
    ) -> Result<(usize, usize, bool), MemError> {
        let head = self.layout.head(addr);
        let (pa, pte) = self.walk(head, addr, kind == Access::Write)?;
        let head = if page_of(pa) == page_of(addr) {
            head
        } else {
            self.layout.head(pa)
        };
        let e = self.check(head, pa, kind)?;
        // An entry promises reads; a write-only region gets none.
        if e.perms.read {
            let vpage = page_of(addr);
            near.entries[DataWindow::index(vpage)] = DataEntry {
                vpage,
                pte,
                lo: e.lo,
                hi: e.hi,
                slot: e.slot,
                write: e.perms.write && pte.value & PTE_RW != 0,
                exec: e.perms.exec,
            };
        }
        Ok((e.slot as usize, word_of(pa), e.perms.exec))
    }

    /// Copy-on-write: the word is written in place when this handle is the
    /// page's only owner, otherwise the page is copied first.
    #[inline]
    fn store(&mut self, (slot, word): (usize, usize), value: u64) {
        Arc::make_mut(&mut self.pages[slot])[word] = value;
    }

    /// Read the word at `addr` (data read).
    #[inline]
    pub fn read(&self, addr: u64) -> Result<u64, MemError> {
        let (slot, word) = self.access(addr, Access::Read)?;
        Ok(self.pages[slot][word])
    }

    /// Write the word at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        let at = self.access(addr, Access::Write)?;
        self.store(at, value);
        Ok(())
    }

    /// Register a page map over a virtual range (trusted setup code, like
    /// [`Memory::map`]). The PTE words at `ptbl_base` must already be
    /// mapped; setup fills them with identity entries.
    pub fn add_page_map(&mut self, map: PageMap) {
        self.try_add_page_map(map).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Registered page maps.
    pub fn page_maps(&self) -> &[PageMap] {
        &self.layout.page_maps
    }

    /// The page walk for virtual address `addr`, whose page's table entry
    /// is `head`: the physical address and the PTE it went through
    /// ([`UNTRANSLATED`] when no map governs the page).
    ///
    /// Three faults, in this order. The PTE word itself unmapped or
    /// unaligned (a map whose PTE array hangs off its region, or was set up
    /// at an odd address) fails with the *PTE's* address — before the data
    /// address has been looked at, so before its own alignment check. Then
    /// a non-present PTE is `Unmapped` and a write through a read-only PTE
    /// `Protection`, both against the *virtual* address, as hardware
    /// reports them. This is the one walk: [`Memory::translate`] and the
    /// data path's checked half ([`Memory::near_miss`]) are both this
    /// function, so there is no second place to give a different answer.
    #[inline]
    fn walk(
        &self,
        head: Option<&PageEntry>,
        addr: u64,
        write: bool,
    ) -> Result<(u64, Pte), MemError> {
        let map = match head {
            Some(e) if e.map != 0 => &self.layout.page_maps[e.map as usize - 1],
            _ => return Ok((addr, UNTRANSLATED)),
        };
        let (slot, word) = self.access(map.pte_addr(addr), Access::Raw)?;
        let value = self.pages[slot][word];
        if value & PTE_PRESENT == 0 {
            return Err(MemError::Unmapped { addr });
        }
        if write && value & PTE_RW == 0 {
            return Err(MemError::Protection { addr });
        }
        let pte = Pte {
            value,
            slot: slot as u32,
            word: word as u16,
        };
        Ok(((value & PTE_FRAME_MASK) | (addr & (PAGE_BYTES - 1)), pte))
    }

    /// Walk `addr` through the covering page map, if any. Returns the
    /// physical address data accesses must use; addresses outside every
    /// map translate to themselves. A non-present PTE faults `Unmapped`, a
    /// write through a read-only PTE faults `Protection` — both reported
    /// against the *virtual* address, as hardware does — and a PTE word
    /// that is itself unmapped or unaligned faults first, with the PTE's
    /// address. The PTE read is a raw walk (privileged, no recursion, no
    /// PMC events).
    pub fn translate(&self, addr: u64, write: bool) -> Result<u64, MemError> {
        Ok(self.walk(self.layout.head(addr), addr, write)?.0)
    }

    /// Read the word at virtual address `addr`: translate through the
    /// covering page map (identity outside every map), then [`Memory::read`].
    #[inline]
    pub fn read_v(&self, addr: u64) -> Result<u64, MemError> {
        self.read_near(&mut DataWindow::default(), addr)
    }

    /// Write the word at virtual address `addr` (see [`Memory::read_v`]).
    #[inline]
    pub fn write_v(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.write_near(&mut DataWindow::default(), addr, value)
            .map(|_| ())
    }

    /// [`Memory::read_v`] for a caller that loads and stores again and
    /// again: an access `near` can answer ([`DataWindow`]) skips the page
    /// table and the walk; any other takes the checked path, which enters
    /// the page in `near` when it succeeds. The word is read from the live
    /// page either way.
    #[inline]
    pub fn read_near(&self, near: &mut DataWindow, addr: u64) -> Result<u64, MemError> {
        let (slot, word, _) = match self.near_hit(near, addr, false) {
            Some(at) => at,
            None => self.near_miss(near, addr, Access::Read)?,
        };
        Ok(self.pages[slot][word])
    }

    /// [`Memory::write_v`] through a [`DataWindow`] (see
    /// [`Memory::read_near`]). `Ok(true)` when the store landed in an
    /// executable region — the one thing a caller that remembers what it
    /// has *fetched* must hear about (ARCHITECTURE.md §1, "Step loop").
    #[inline]
    pub fn write_near(
        &mut self,
        near: &mut DataWindow,
        addr: u64,
        value: u64,
    ) -> Result<bool, MemError> {
        let (slot, word, exec) = match self.near_hit(near, addr, true) {
            Some(at) => at,
            None => self.near_miss(near, addr, Access::Write)?,
        };
        self.store((slot, word), value);
        Ok(exec)
    }

    /// Fetch the word at `addr` for execution.
    #[inline]
    pub fn fetch(&self, addr: u64) -> Result<u64, MemError> {
        self.fetch_near(&mut FetchWindow::default(), addr)
    }

    /// [`Memory::fetch`] for a caller that fetches again and again: an
    /// aligned `addr` inside `near` skips the table; any other takes the
    /// checked path, which moves `near` to wherever it succeeds. The word is
    /// read from the live page either way.
    #[inline]
    pub fn fetch_near(&self, near: &mut FetchWindow, addr: u64) -> Result<u64, MemError> {
        let word = word_of(addr);
        if page_of(addr) == near.page
            && addr.is_multiple_of(8)
            && (near.lo..near.hi).contains(&(word as u16))
        {
            return Ok(self.pages[near.slot as usize][word]);
        }
        let e = self.check(self.layout.head(addr), addr, Access::Fetch)?;
        *near = FetchWindow {
            page: page_of(addr),
            lo: e.lo,
            hi: e.hi,
            slot: e.slot,
        };
        Ok(self.pages[e.slot as usize][word])
    }

    /// Privileged write used by loaders and the "hardware" (VMCS block,
    /// device DMA): ignores the write permission but still requires the
    /// address to be mapped and aligned.
    pub fn poke(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        let at = self.access(addr, Access::Raw)?;
        self.store(at, value);
        Ok(())
    }

    /// Privileged read (golden-run differencing, diagnostics).
    #[inline]
    pub fn peek(&self, addr: u64) -> Result<u64, MemError> {
        let (slot, word) = self.access(addr, Access::Raw)?;
        Ok(self.pages[slot][word])
    }

    /// Human-readable memory-map dump (diagnostics).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for r in self.regions() {
            let p = &r.perms;
            let _ = writeln!(
                s,
                "{:#012x}..{:#012x}  {}{}{}  {:>8} KiB  {}",
                r.base,
                r.end(),
                if p.read { 'r' } else { '-' },
                if p.write { 'w' } else { '-' },
                if p.exec { 'x' } else { '-' },
                r.len_bytes() / 1024,
                r.name
            );
        }
        s
    }

    /// Copy a slice of words into memory starting at `addr` (loader):
    /// [`Memory::poke`] word by word, stopping at the first address that is
    /// not mapped, but resolving each page once.
    pub fn load_image(&mut self, addr: u64, words: &[u64]) -> Result<(), MemError> {
        let mut done = 0;
        while done < words.len() {
            let at = addr.wrapping_add(done as u64 * 8);
            if !at.is_multiple_of(8) {
                return Err(MemError::Unaligned { addr: at });
            }
            let e = *self
                .layout
                .resolve(self.layout.head(at), at)
                .ok_or(MemError::Unmapped { addr: at })?;
            let first = word_of(at);
            let n = (e.hi as usize - first).min(words.len() - done);
            Arc::make_mut(&mut self.pages[e.slot as usize])[first..first + n]
                .copy_from_slice(&words[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Whether `other` has this memory's regions in this memory's slots.
    fn same_layout(&self, other: &Memory) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout) || self.regions() == other.regions()
    }

    /// Call `f(region index, word index, ours, theirs)` for every word that
    /// differs between `self` and `other`, in region then word order. Pages
    /// the two images share are skipped without being read, so the walk
    /// costs the pages either side has written since they diverged.
    ///
    /// # Panics
    /// If the layouts differ: only images of one memory map are comparable
    /// word by word.
    pub fn for_each_diff(&self, other: &Memory, mut f: impl FnMut(usize, usize, u64, u64)) {
        assert!(
            self.same_layout(other),
            "memory diff requires an identical region layout"
        );
        for (ridx, r) in self.regions().iter().enumerate() {
            let mut widx = 0;
            for (slot, words) in r.spans() {
                let (ours, theirs) = (&self.pages[slot], &other.pages[slot]);
                let n = words.len();
                if !Arc::ptr_eq(ours, theirs) && ours[words.clone()] != theirs[words.clone()] {
                    for (i, (&a, &b)) in ours[words.clone()].iter().zip(&theirs[words]).enumerate()
                    {
                        if a != b {
                            f(ridx, widx + i, a, b);
                        }
                    }
                }
                widx += n;
            }
        }
    }

    /// Sparse difference of `self` against `base`. Both images must share
    /// one region layout (checkpoints of a single boot image always do).
    ///
    /// # Panics
    /// If the layouts differ — that would mean the delta silently dropped
    /// state, which a checkpoint store must never do.
    pub fn delta_from(&self, base: &Memory) -> MemoryDelta {
        let mut words = Vec::new();
        self.for_each_diff(base, |ridx, widx, cur, _| {
            words.push((ridx as u32, widx as u32, cur));
        });
        MemoryDelta { words }
    }

    /// Apply a delta produced by [`Memory::delta_from`] against this exact
    /// image, replaying the recorded word changes in place.
    pub fn apply_delta(&mut self, delta: &MemoryDelta) {
        for &(ridx, widx, value) in &delta.words {
            let r = &self.layout.regions[ridx as usize];
            assert!(
                (widx as usize) < r.words,
                "delta word {widx} outside region {}",
                r.name
            );
            let at = self
                .access(r.base + widx as u64 * 8, Access::Raw)
                .expect("inside a mapped region");
            self.store(at, value);
        }
    }

    /// Deterministic 64-bit digest of the full image (layout + contents).
    /// Stable across processes and Rust releases; used by the snapshot
    /// round-trip tests and the campaign determinism harness.
    pub fn digest(&self) -> u64 {
        use crate::prng::fold64;
        let mut h = fold64(0x6d65_6d6f_7279, self.regions().len() as u64);
        for r in self.regions() {
            h = fold64(h, r.base);
            h = fold64(h, r.words as u64);
            for b in r.name.bytes() {
                h = fold64(h, b as u64);
            }
            for words in self.region_slices(r) {
                for &w in words {
                    h = fold64(h, w);
                }
            }
        }
        for m in self.page_maps() {
            h = fold64(h, m.virt_base);
            h = fold64(h, m.nr_pages as u64);
            h = fold64(h, m.ptbl_base);
        }
        h
    }

    /// Overwrite the named region's contents with what `image` — another
    /// state of this same memory map, e.g. its boot-time clone — holds
    /// there (privileged, loader-grade: ignores write permission). Returns
    /// how many words actually changed — the caller's state-loss
    /// accounting. Pages still shared with `image` are skipped; a page the
    /// region owns entirely is restored by sharing `image`'s again.
    ///
    /// # Panics
    /// If the region is missing or the layouts differ: callers restore
    /// images captured from this same layout, so a mismatch means the
    /// image belongs to a different machine.
    pub fn restore_region(&mut self, name: &str, image: &Memory) -> usize {
        assert!(
            self.same_layout(image),
            "restore_region: image of a different memory map for {name}"
        );
        let layout = Arc::clone(&self.layout);
        let r = layout
            .regions
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("restore_region: no region named {name}"));
        let mut changed = 0usize;
        for (slot, words) in r.spans() {
            let (live, boot) = (&mut self.pages[slot], &image.pages[slot]);
            if Arc::ptr_eq(live, boot) {
                continue;
            }
            let differing = live[words.clone()]
                .iter()
                .zip(&boot[words.clone()])
                .filter(|(a, b)| a != b)
                .count();
            if differing == 0 {
                continue;
            }
            changed += differing;
            if words.len() == PAGE_WORDS {
                *live = Arc::clone(boot);
            } else {
                Arc::make_mut(live)[words.clone()].copy_from_slice(&boot[words]);
            }
        }
        changed
    }

    /// Deterministic digest of a single region's contents, or `None` when
    /// no region has that name. Lets callers assert which regions changed
    /// across an operation (e.g. that a hypervisor microreboot reset the
    /// private families while preserving guest-visible state) without
    /// comparing full images.
    pub fn region_digest(&self, name: &str) -> Option<u64> {
        use crate::prng::fold64;
        let r = self.region_by_name(name)?;
        let mut h = fold64(0x7265_6769_6f6e, r.base);
        for &w in self.region_slices(r).flatten() {
            h = fold64(h, w);
        }
        Some(h)
    }
}

/// Same memory map and same contents; shared pages are equal by identity.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.same_layout(other)
            && self.page_maps() == other.page_maps()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for Memory {}

/// The memory map and a digest of the contents, not 100k words.
impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("regions", &self.regions())
            .field("page_maps", &self.page_maps())
            .field("digest", &format_args!("{:#018x}", self.digest()))
            .finish()
    }
}

/// Serialized form of a region: the description plus its words as one flat
/// array.
#[derive(Serialize, Deserialize)]
struct RegionImage {
    id: RegionId,
    name: String,
    base: u64,
    words: Vec<u64>,
    perms: Perms,
}

/// Serialized form of [`Memory`]; the page table is rebuilt on load.
#[derive(Serialize, Deserialize)]
struct MemoryImage {
    regions: Vec<RegionImage>,
    page_maps: Vec<PageMap>,
}

impl Serialize for Memory {
    fn to_value(&self) -> Value {
        MemoryImage {
            regions: self
                .regions()
                .iter()
                .map(|r| RegionImage {
                    id: r.id,
                    name: r.name.clone(),
                    base: r.base,
                    words: self.region_slices(r).flatten().copied().collect(),
                    perms: r.perms,
                })
                .collect(),
            page_maps: self.page_maps().to_vec(),
        }
        .to_value()
    }
}

impl Deserialize for Memory {
    fn from_value(v: &Value) -> Result<Memory, serde::Error> {
        let image = MemoryImage::from_value(v)?;
        let mut mem = Memory::new();
        for r in &image.regions {
            mem.try_map(r.id, &r.name, r.base, r.words.len(), r.perms)
                .map_err(serde::Error::msg)?;
            mem.load_image(r.base, &r.words)
                .expect("region just mapped");
        }
        for &m in &image.page_maps {
            mem.try_add_page_map(m).map_err(serde::Error::msg)?;
        }
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new();
        m.map("text", 0x1000, 16, Perms::RX);
        m.map("data", 0x2000, 16, Perms::RW);
        m.map("rodata", 0x3000, 4, Perms::R);
        m
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = mem();
        m.write(0x2008, 0xabcd).unwrap();
        assert_eq!(m.read(0x2008).unwrap(), 0xabcd);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = mem();
        assert_eq!(m.read(0x0).unwrap_err(), MemError::Unmapped { addr: 0 });
        assert_eq!(
            m.read(0x9000).unwrap_err(),
            MemError::Unmapped { addr: 0x9000 }
        );
    }

    #[test]
    fn write_to_text_is_protection_fault() {
        let mut m = mem();
        assert_eq!(
            m.write(0x1000, 1).unwrap_err(),
            MemError::Protection { addr: 0x1000 }
        );
    }

    #[test]
    fn fetch_from_data_is_protection_fault() {
        let m = mem();
        assert_eq!(
            m.fetch(0x2000).unwrap_err(),
            MemError::Protection { addr: 0x2000 }
        );
        assert!(m.fetch(0x1008).is_ok());
    }

    #[test]
    fn unaligned_access_faults() {
        let m = mem();
        assert_eq!(
            m.read(0x2001).unwrap_err(),
            MemError::Unaligned { addr: 0x2001 }
        );
    }

    #[test]
    fn read_only_region_rejects_writes_allows_reads() {
        let mut m = mem();
        assert!(m.read(0x3000).is_ok());
        assert_eq!(
            m.write(0x3000, 5).unwrap_err(),
            MemError::Protection { addr: 0x3000 }
        );
    }

    #[test]
    fn poke_bypasses_permissions_but_not_mapping() {
        let mut m = mem();
        m.poke(0x1008, 42).unwrap();
        assert_eq!(m.peek(0x1008).unwrap(), 42);
        assert!(m.poke(0x9000, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_map_panics() {
        let mut m = mem();
        m.map("bad", 0x1008, 4, Perms::RW);
    }

    #[test]
    fn region_lookup_by_name_and_addr() {
        let m = mem();
        assert_eq!(m.region_by_name("data").unwrap().base, 0x2000);
        assert_eq!(m.region_at(0x2078).unwrap().name, "data");
        assert!(m.region_at(0x2080).is_none());
    }

    #[test]
    fn describe_lists_every_region() {
        let m = mem();
        let d = m.describe();
        for name in ["text", "data", "rodata"] {
            assert!(d.contains(name), "missing {name} in:\n{d}");
        }
        assert!(d.contains("r-x"), "perm rendering");
    }

    #[test]
    fn load_image_places_words() {
        let mut m = mem();
        m.load_image(0x1000, &[1, 2, 3]).unwrap();
        assert_eq!(m.fetch(0x1000).unwrap(), 1);
        assert_eq!(m.fetch(0x1010).unwrap(), 3);
    }

    #[test]
    fn delta_round_trip_restores_exact_image() {
        let base = mem();
        let mut cur = base.clone();
        cur.write(0x2008, 7).unwrap();
        cur.write(0x2078, 0xdead).unwrap();
        cur.poke(0x1000, 99).unwrap();
        let d = cur.delta_from(&base);
        assert_eq!(d.len(), 3);
        let mut rebuilt = base.clone();
        rebuilt.apply_delta(&d);
        assert_eq!(rebuilt, cur);
        assert_eq!(rebuilt.digest(), cur.digest());
    }

    #[test]
    fn delta_of_identical_images_is_empty() {
        let m = mem();
        assert!(m.delta_from(&m.clone()).is_empty());
    }

    #[test]
    fn digest_tracks_content_and_layout() {
        let a = mem();
        let mut b = mem();
        assert_eq!(a.digest(), b.digest());
        b.poke(0x2000, 1).unwrap();
        assert_ne!(a.digest(), b.digest());
        let mut c = Memory::new();
        c.map("other", 0x1000, 16, Perms::RX);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn region_digest_tracks_only_that_region() {
        let a = mem();
        let mut b = mem();
        b.poke(0x2000, 7).unwrap();
        assert_eq!(a.region_digest("text"), b.region_digest("text"));
        assert_ne!(a.region_digest("data"), b.region_digest("data"));
        assert!(a.region_digest("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "identical region layout")]
    fn delta_rejects_layout_mismatch() {
        let a = mem();
        let mut b = Memory::new();
        b.map("text", 0x1000, 16, Perms::RX);
        let _ = a.delta_from(&b);
    }

    /// Two-page mapped range at 0x10_0000 with its PTE words at 0x8000.
    fn paged_mem() -> (Memory, PageMap) {
        let mut m = mem();
        m.map("ptbl", 0x8000, 4, Perms::RW);
        m.map("paged", 0x10_0000, (2 * PAGE_BYTES / 8) as usize, Perms::RW);
        let map = PageMap {
            virt_base: 0x10_0000,
            nr_pages: 2,
            ptbl_base: 0x8000,
        };
        for page in 0..2 {
            m.poke(0x8000 + page * 8, map.identity_pte(page as u32))
                .unwrap();
        }
        m.add_page_map(map);
        (m, map)
    }

    #[test]
    fn identity_pte_translates_to_self() {
        let (mut m, _) = paged_mem();
        m.write_v(0x10_0008, 0xfeed).unwrap();
        assert_eq!(m.read_v(0x10_0008).unwrap(), 0xfeed);
        assert_eq!(m.peek(0x10_0008).unwrap(), 0xfeed, "identity map");
        // Unmapped addresses pass through untranslated.
        assert_eq!(m.translate(0x2008, false).unwrap(), 0x2008);
    }

    #[test]
    fn cleared_present_bit_faults_on_walk() {
        let (mut m, map) = paged_mem();
        let pte = m.peek(0x8008).unwrap();
        m.poke(0x8008, pte & !PTE_PRESENT).unwrap();
        let va = map.virt_base + PAGE_BYTES; // page 1
        assert_eq!(m.read_v(va).unwrap_err(), MemError::Unmapped { addr: va });
        // Page 0 still translates.
        assert!(m.read_v(map.virt_base).is_ok());
    }

    #[test]
    fn cleared_rw_bit_faults_writes_only() {
        let (mut m, map) = paged_mem();
        let pte = m.peek(0x8000).unwrap();
        m.poke(0x8000, pte & !PTE_RW).unwrap();
        let va = map.virt_base;
        assert!(m.read_v(va).is_ok());
        assert_eq!(
            m.write_v(va, 1).unwrap_err(),
            MemError::Protection { addr: va }
        );
    }

    #[test]
    fn corrupted_frame_bits_redirect_or_fault() {
        let (mut m, map) = paged_mem();
        let pte = m.peek(0x8000).unwrap();
        // Flip a high frame bit: the walk lands in unmapped space.
        m.poke(0x8000, pte ^ (1 << 40)).unwrap();
        assert!(matches!(
            m.read_v(map.virt_base),
            Err(MemError::Unmapped { .. })
        ));
        // Redirect page 0's frame to page 1: reads alias the other page.
        m.poke(0x8000, map.identity_pte(1)).unwrap();
        m.poke(map.virt_base + PAGE_BYTES, 0x5150).unwrap();
        assert_eq!(m.read_v(map.virt_base).unwrap(), 0x5150);
    }

    #[test]
    fn digest_tracks_page_maps() {
        let (m, _) = paged_mem();
        let mut plain = mem();
        plain.map("ptbl", 0x8000, 4, Perms::RW);
        plain.map("paged", 0x10_0000, (2 * PAGE_BYTES / 8) as usize, Perms::RW);
        for page in 0..2u64 {
            plain
                .poke(0x8000 + page * 8, (0x10_0000 + page * PAGE_BYTES) | 3)
                .unwrap();
        }
        assert_ne!(m.digest(), plain.digest(), "maps are part of the layout");
    }
}
