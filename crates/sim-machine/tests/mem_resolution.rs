//! Address resolution against a linear-scan oracle.
//!
//! `Memory` resolves an address with one index into a page table. The
//! oracle below is the algorithm it replaced — scan every region for the one
//! that contains the address, scan every page map for the one that covers
//! it — over nothing but the public description (`regions()`,
//! `page_maps()`) and a flat `Vec<u64>` per region. For arbitrary layouts
//! (page-aligned and not, sub-page regions, several regions in one page,
//! gaps, page maps whose PTEs are present, absent, read-only, redirected or
//! garbage — and rewritten between accesses) and arbitrary addresses
//! (unaligned ones, region edges, `u64::MAX`), every access path must return
//! exactly what the oracle returns, leave exactly the contents the oracle
//! leaves, and never panic.
//!
//! The sequences also take images of the memory and move contents between
//! them and the live memory with `clone_from` — from an older image, from a
//! sibling that was written to on its own, onto a memory with another
//! layout — which must be `clone` as far as the oracle can tell: the
//! destination reads what the source read, and no store made afterwards on
//! either side shows on the other.

use proptest::prelude::*;
use sim_machine::{
    DataWindow, FetchWindow, MemError, Memory, PageMap, Perms, Region, PAGE_BYTES, PTE_FRAME_MASK,
    PTE_PRESENT, PTE_RW,
};

const PERMS: [Perms; 6] = [
    Perms::R,
    Perms::RW,
    Perms::RX,
    Perms::RWX,
    Perms {
        read: false,
        write: false,
        exec: false,
    },
    // Write-only: a store succeeds where a load does not.
    Perms {
        read: false,
        write: true,
        exec: false,
    },
];

/// One region to place after the previous one: `(gap in words, align the
/// base up to a page first, length in words, permission index)`.
type Chunk = (u64, bool, usize, usize);

fn arb_chunk() -> impl Strategy<Value = Chunk> {
    (
        prop_oneof![Just(0u64), 1u64..16, 500u64..1100],
        any::<bool>(),
        prop_oneof![1usize..8, 1usize..600, 500usize..1600],
        0usize..PERMS.len(),
    )
}

/// Lay the chunks out from `start`, mapping them in an order picked by
/// `shuffle` (so `map` has to sort).
fn build_layout(start: u64, chunks: &[Chunk], shuffle: u64) -> Memory {
    let mut placed = Vec::new();
    let mut cursor = start;
    for (i, &(gap, align, words, perms)) in chunks.iter().enumerate() {
        cursor += gap * 8;
        if align {
            cursor = cursor.next_multiple_of(PAGE_BYTES);
        }
        placed.push((format!("r{i}"), cursor, words, PERMS[perms]));
        cursor += words as u64 * 8;
    }
    let n = placed.len();
    placed.rotate_left(shuffle as usize % n);
    if shuffle & (1 << 32) != 0 {
        placed.reverse();
    }
    let mut mem = Memory::new();
    for (name, base, words, perms) in &placed {
        mem.map(name, *base, *words, *perms);
    }
    mem
}

/// The pre-page-table algorithm, over the public description only.
struct Oracle {
    regions: Vec<Region>,
    maps: Vec<PageMap>,
    /// Contents, one flat vector per entry of `regions`.
    words: Vec<Vec<u64>>,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Read,
    Write,
    Fetch,
    Raw,
}

impl Oracle {
    fn of(mem: &Memory) -> Oracle {
        Oracle {
            regions: mem.regions().to_vec(),
            maps: mem.page_maps().to_vec(),
            words: mem
                .regions()
                .iter()
                .map(|r| mem.region_words(&r.name).unwrap())
                .collect(),
        }
    }

    /// This layout holding other contents.
    fn holding(&self, words: Vec<Vec<u64>>) -> Oracle {
        Oracle {
            regions: self.regions.clone(),
            maps: self.maps.clone(),
            words,
        }
    }

    fn access(&self, addr: u64, kind: Kind) -> Result<(usize, usize), MemError> {
        if !addr.is_multiple_of(8) {
            return Err(MemError::Unaligned { addr });
        }
        let ridx = self
            .regions
            .iter()
            .position(|r| addr >= r.base && addr - r.base < r.len_bytes())
            .ok_or(MemError::Unmapped { addr })?;
        let r = &self.regions[ridx];
        let ok = match kind {
            Kind::Read => r.perms.read,
            Kind::Write => r.perms.write,
            Kind::Fetch => r.perms.exec,
            Kind::Raw => true,
        };
        if !ok {
            return Err(MemError::Protection { addr });
        }
        Ok((ridx, ((addr - r.base) / 8) as usize))
    }

    fn load(&self, addr: u64, kind: Kind) -> Result<u64, MemError> {
        let (r, w) = self.access(addr, kind)?;
        Ok(self.words[r][w])
    }

    fn store(&mut self, addr: u64, kind: Kind, value: u64) -> Result<(), MemError> {
        let (r, w) = self.access(addr, kind)?;
        self.words[r][w] = value;
        Ok(())
    }

    fn translate(&self, addr: u64, write: bool) -> Result<u64, MemError> {
        let Some(map) = self.maps.iter().find(|m| m.covers(addr)) else {
            return Ok(addr);
        };
        let pte = self.load(map.pte_addr(addr), Kind::Raw)?;
        if pte & PTE_PRESENT == 0 {
            return Err(MemError::Unmapped { addr });
        }
        if write && pte & PTE_RW == 0 {
            return Err(MemError::Protection { addr });
        }
        Ok((pte & PTE_FRAME_MASK) | (addr & (PAGE_BYTES - 1)))
    }
}

/// Images of the live memory taken along a sequence, each beside what the
/// oracle held when it was taken (or last rebuilt), and the `clone_from`
/// traffic between them and the live memory.
struct Images {
    taken: Vec<(Memory, Vec<Vec<u64>>)>,
    /// A memory with another layout: nothing of it can be kept.
    foreign: Memory,
}

impl Images {
    fn new() -> Images {
        let mut foreign = Memory::new();
        foreign.map("foreign", 0x3000, 700, Perms::RW);
        foreign.poke(0x3008, 0xf0e1).unwrap();
        Images {
            taken: Vec::new(),
            foreign,
        }
    }

    /// One of five things, by `op`: take an image; roll the live memory
    /// back to an older image; rebuild an older image from the live memory;
    /// rebuild the live memory from a sibling (a clone of an older image
    /// that took a poke of its own); rebuild a memory of another layout
    /// from the live one and carry on with that.
    fn op(
        &mut self,
        op: u8,
        mem: &mut Memory,
        oracle: &mut Oracle,
        (addr, value, raw): (u64, u64, u64),
    ) {
        let nr = self.taken.len();
        if op == 0 || nr == 0 {
            // Share every page, so the next write to one copies it.
            self.taken.push((mem.clone(), oracle.words.clone()));
            return;
        }
        let pick = raw as usize % nr;
        match op {
            1 => {
                let (image, words) = &self.taken[pick];
                mem.clone_from(image);
                prop_assert!(mem == image, "rolled back to image {}", pick);
                prop_assert_eq!(mem.digest(), image.digest());
                oracle.words.clone_from(words);
            }
            2 => {
                let (image, words) = &mut self.taken[pick];
                image.clone_from(mem);
                prop_assert!(image == mem, "image {} rebuilt from live", pick);
                words.clone_from(&oracle.words);
            }
            3 => {
                let (image, words) = &self.taken[pick];
                let mut sibling = image.clone();
                let mut theirs = oracle.holding(words.clone());
                prop_assert_eq!(
                    sibling.poke(addr, value),
                    theirs.store(addr, Kind::Raw, value),
                    "sibling poke {:#x}",
                    addr
                );
                mem.clone_from(&sibling);
                prop_assert!(*mem == sibling, "rebuilt from a sibling of image {}", pick);
                oracle.words.clone_from(&theirs.words);
                self.taken.push((sibling, theirs.words));
            }
            _ => {
                let mut other = self.foreign.clone();
                other.clone_from(mem);
                prop_assert!(other == *mem, "rebuilt over another layout");
                prop_assert_eq!(other.digest(), mem.digest());
                *mem = other;
            }
        }
    }

    /// Every image still holds what it held when it was taken or last
    /// rebuilt, whatever was stored to the live memory and to the other
    /// images since; and the foreign memory was never written through.
    fn check(&self, oracle: &Oracle) {
        for (i, (image, words)) in self.taken.iter().enumerate() {
            for (r, words) in oracle.regions.iter().zip(words) {
                prop_assert_eq!(
                    &image.region_words(&r.name).unwrap(),
                    words,
                    "image {} {}",
                    i,
                    r.name
                );
            }
        }
        prop_assert_eq!(self.foreign.peek(0x3008), Ok(0xf0e1));
    }
}

/// An address worth probing, derived from the layout: `pick` chooses the
/// family, `raw` the member.
fn probe_addr(o: &Oracle, pick: u8, raw: u64) -> u64 {
    let r = &o.regions[raw as usize % o.regions.len()];
    let end = r.base + r.len_bytes();
    let inside = r.base + (raw >> 8) % r.len_bytes();
    match pick % 12 {
        0 => raw,
        1 => inside & !7,
        2 => inside,
        3 => r.base.wrapping_sub(8),
        4 => end - 8,
        5 => end,
        6 => end + (raw >> 8) % (2 * PAGE_BYTES),
        7 => [
            0,
            7,
            8,
            u64::MAX,
            u64::MAX - 7,
            1 << 32,
            (1 << 32) - 8,
            1 << 63,
        ][raw as usize % 8],
        8 => (raw >> 8) % (end + 4 * PAGE_BYTES),
        // Inside a page-mapped range (when there is one).
        _ => match o.maps.get(raw as usize % 2) {
            Some(m) => m.virt_base + ((raw >> 8) % (m.nr_pages as u64 * PAGE_BYTES + 16)),
            None => inside & !7,
        },
    }
}

/// A PTE of the shape `pick` names, for virtual page `page_base`.
fn make_pte(o: &Oracle, pick: u8, raw: u64, page_base: u64) -> u64 {
    let other = &o.regions[raw as usize % o.regions.len()];
    match pick % 7 {
        0 | 1 => page_base | PTE_PRESENT | PTE_RW,
        2 => page_base | PTE_RW,
        3 => page_base | PTE_PRESENT,
        // Redirected: to another region's first page, writable or not.
        4 => (other.base & PTE_FRAME_MASK) | PTE_PRESENT | (raw & PTE_RW),
        // Redirected above the table.
        5 => (page_base ^ (1 << 40)) | PTE_PRESENT | PTE_RW,
        _ => raw,
    }
}

/// Add up to two page maps over the layout, their PTE arrays somewhere in
/// (or hanging off the end of, or nowhere near) a region, and fill the PTE
/// words that are mapped.
fn add_page_maps(mem: &mut Memory, specs: &[(u64, u32, u64, u8)], ptes: &[(u8, u64)]) {
    let o = Oracle::of(mem);
    let last = o.regions.last().unwrap();
    let span_pages = (last.base + last.len_bytes()).div_ceil(PAGE_BYTES) + 4;
    let mut next_free_page = 0;
    for &(at, nr_pages, ptbl_raw, ptbl_pick) in specs {
        let first = next_free_page + at % span_pages;
        next_free_page = first + nr_pages as u64;
        let holder = &o.regions[ptbl_raw as usize % o.regions.len()];
        let ptbl_base = match ptbl_pick % 8 {
            // Unmapped PTE array, unaligned PTE array: the walk itself faults.
            0 => last.base + last.len_bytes() + PAGE_BYTES,
            1 => holder.base + 4,
            // Anywhere in a region — the array may run off its end.
            _ => holder.base + ((ptbl_raw >> 8) % holder.len_words() as u64) * 8,
        };
        let map = PageMap {
            virt_base: first * PAGE_BYTES,
            nr_pages,
            ptbl_base,
        };
        for page in 0..nr_pages {
            let (pick, raw) = ptes[(page as usize + at as usize) % ptes.len()];
            let pte = make_pte(&o, pick, raw, map.virt_base + page as u64 * PAGE_BYTES);
            // Unmapped or unaligned PTE slots stay as they are.
            let _ = mem.poke(map.ptbl_base + page as u64 * 8, pte);
        }
        mem.add_page_map(map);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_access_path_matches_the_linear_scan(
        layout in (
            prop_oneof![Just(0u64), Just(8u64), Just(0xff8u64), Just(0x1000u64), Just(0x7_f000u64)],
            proptest::collection::vec(arb_chunk(), 1..9),
            any::<u64>(),
        ),
        maps in proptest::collection::vec((any::<u64>(), 1u32..5, any::<u64>(), any::<u8>()), 0..3),
        ptes in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..8),
        ops in proptest::collection::vec((0u8..9, any::<u8>(), any::<u64>(), any::<u64>()), 1..200),
    ) {
        let (start, chunks, shuffle) = layout;
        let mut mem = build_layout(start, &chunks, shuffle);
        add_page_maps(&mut mem, &maps, &ptes);
        let mut oracle = Oracle::of(&mem);
        prop_assert_eq!(oracle.maps.len(), maps.len());

        for (op, pick, raw, value) in ops {
            let addr = probe_addr(&oracle, pick, raw);
            match op {
                0 => prop_assert_eq!(mem.read(addr), oracle.load(addr, Kind::Read), "read {:#x}", addr),
                1 => prop_assert_eq!(mem.fetch(addr), oracle.load(addr, Kind::Fetch), "fetch {:#x}", addr),
                2 => prop_assert_eq!(mem.peek(addr), oracle.load(addr, Kind::Raw), "peek {:#x}", addr),
                3 => prop_assert_eq!(
                    mem.write(addr, value),
                    oracle.store(addr, Kind::Write, value),
                    "write {:#x}", addr
                ),
                4 => prop_assert_eq!(
                    mem.poke(addr, value),
                    oracle.store(addr, Kind::Raw, value),
                    "poke {:#x}", addr
                ),
                5 => {
                    let write = value & 1 == 1;
                    prop_assert_eq!(
                        mem.translate(addr, write),
                        oracle.translate(addr, write),
                        "translate {:#x} write={}", addr, write
                    );
                }
                6 => {
                    let expect = oracle.translate(addr, false).and_then(|pa| oracle.load(pa, Kind::Read));
                    prop_assert_eq!(mem.read_v(addr), expect, "read_v {:#x}", addr);
                }
                7 => {
                    let expect = oracle
                        .translate(addr, true)
                        .and_then(|pa| oracle.store(pa, Kind::Write, value));
                    prop_assert_eq!(mem.write_v(addr, value), expect, "write_v {:#x}", addr);
                }
                _ => {
                    let expect = oracle
                        .regions
                        .iter()
                        .find(|r| r.contains(addr))
                        .map(|r| r.name.as_str());
                    prop_assert_eq!(mem.region_at(addr).map(|r| r.name.as_str()), expect);
                }
            }
        }

        // The stores landed where the oracle put them and nowhere else.
        for (r, words) in oracle.regions.iter().zip(&oracle.words) {
            prop_assert_eq!(&mem.region_words(&r.name).unwrap(), words, "{}", r.name);
        }
    }

    /// One [`FetchWindow`] carried through a whole sequence — what
    /// `Machine::run` does — must fetch what a table walk per fetch would:
    /// addresses that stay on the last page (the next word, the previous
    /// one, any offset, aligned or not), addresses that leave it, and
    /// writes, pokes, region restores, snapshots of the page and
    /// `clone_from` in either direction in between.
    #[test]
    fn one_fetch_window_matches_the_linear_scan(
        layout in (
            prop_oneof![Just(8u64), Just(0xff8u64), Just(0x1000u64), Just(0x7_f000u64)],
            proptest::collection::vec(arb_chunk(), 1..7),
            any::<u64>(),
        ),
        text in (prop_oneof![Just(0u64), 1u64..16], any::<bool>(), prop_oneof![1usize..8, 1usize..600, 500usize..1600], 2usize..4),
        ops in proptest::collection::vec((0u8..14, any::<u8>(), any::<u64>(), any::<u64>()), 1..300),
    ) {
        let (start, mut chunks, shuffle) = layout;
        // At least one executable region, RX or RWX, anywhere in the order.
        chunks.insert(shuffle as usize % (chunks.len() + 1), text);
        let mut mem = build_layout(start, &chunks, shuffle);
        let boot = mem.clone();
        let boot_words = Oracle::of(&boot).words;
        let mut oracle = Oracle::of(&mem);
        let mut near = FetchWindow::default();
        let mut images = Images::new();
        let mut last = oracle.regions.iter().find(|r| r.perms.exec).unwrap().base;

        for (op, pick, raw, value) in ops {
            let page = last & !(PAGE_BYTES - 1);
            let addr = match pick % 8 {
                0 | 1 => last.wrapping_add(8),
                2 => last.wrapping_sub(8),
                3 => page | (raw & (PAGE_BYTES - 1)),
                4 => page | (raw & (PAGE_BYTES - 8)),
                _ => probe_addr(&oracle, pick / 8, raw),
            };
            match op {
                0..=5 => {
                    let got = mem.fetch_near(&mut near, addr);
                    prop_assert_eq!(got, oracle.load(addr, Kind::Fetch), "fetch_near {:#x} after {:#x}", addr, last);
                    prop_assert_eq!(got, mem.fetch(addr));
                    if got.is_ok() {
                        last = addr;
                    }
                }
                6 => prop_assert_eq!(
                    mem.write(addr, value),
                    oracle.store(addr, Kind::Write, value),
                    "write {:#x}", addr
                ),
                7 => prop_assert_eq!(
                    mem.poke(addr, value),
                    oracle.store(addr, Kind::Raw, value),
                    "poke {:#x}", addr
                ),
                8 => {
                    // Back to boot contents: whole pages are swapped for the
                    // boot image's, partial ones copied over.
                    let r = oracle.regions.iter().position(|r| r.contains(last)).unwrap();
                    mem.restore_region(&oracle.regions[r].name, &boot);
                    oracle.words[r].clone_from(&boot_words[r]);
                }
                _ => images.op(op - 9, &mut mem, &mut oracle, (addr, value, raw)),
            }
        }

        for (r, words) in oracle.regions.iter().zip(&oracle.words) {
            prop_assert_eq!(&mem.region_words(&r.name).unwrap(), words, "{}", r.name);
        }
        images.check(&oracle);
    }

    /// One [`DataWindow`] carried through a whole sequence — what
    /// `Machine::run` does — must load and store what a page walk and a
    /// table lookup per access would: addresses that stay on a page just
    /// accessed (aligned or not, inside its region or past it), addresses
    /// that leave it, and in between stores onto the PTE that governs the
    /// page — through the window and around it — region restores,
    /// snapshots and `clone_from` in either direction.
    #[test]
    fn one_data_window_matches_the_linear_scan(
        layout in (
            prop_oneof![Just(8u64), Just(0xff8u64), Just(0x1000u64), Just(0x7_f000u64)],
            proptest::collection::vec(arb_chunk(), 1..7),
            any::<u64>(),
        ),
        maps in proptest::collection::vec((any::<u64>(), 1u32..5, any::<u64>(), any::<u8>()), 1..3),
        ptes in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..8),
        ops in proptest::collection::vec((0u8..16, any::<u8>(), any::<u64>(), any::<u64>()), 1..300),
    ) {
        let (start, chunks, shuffle) = layout;
        let mut mem = build_layout(start, &chunks, shuffle);
        add_page_maps(&mut mem, &maps, &ptes);
        let boot = mem.clone();
        let boot_words = Oracle::of(&boot).words;
        let mut oracle = Oracle::of(&mem);
        let mut near = DataWindow::default();
        let mut images = Images::new();
        // The virtual address last accessed successfully.
        let mut last = oracle.maps[0].virt_base;

        for (op, pick, raw, value) in ops {
            let page = last & !(PAGE_BYTES - 1);
            // The PTE governing `last`, or some page's if no map covers it.
            let pte_of_last = match oracle.maps.iter().find(|m| m.covers(last)) {
                Some(m) => m.pte_addr(last),
                None => {
                    let m = &oracle.maps[raw as usize % oracle.maps.len()];
                    m.ptbl_base + ((raw >> 8) % m.nr_pages as u64) * 8
                }
            };
            let (addr, value) = match pick % 8 {
                0 => (last.wrapping_add(8), value),
                1 => (last.wrapping_sub(8), value),
                2 => (page | (raw & (PAGE_BYTES - 1)), value),
                3 => (page | (raw & (PAGE_BYTES - 8)), value),
                // A new PTE of some shape over the old one.
                4 | 5 => (pte_of_last, make_pte(&oracle, (value >> 8) as u8, value >> 16, page)),
                6 => (probe_addr(&oracle, 9, raw), value),
                _ => (probe_addr(&oracle, pick / 8, raw), value),
            };
            match op {
                0..=3 => {
                    let got = mem.read_near(&mut near, addr);
                    let expect = oracle.translate(addr, false).and_then(|pa| oracle.load(pa, Kind::Read));
                    prop_assert_eq!(got, expect, "read_near {:#x} after {:#x}", addr, last);
                    prop_assert_eq!(got, mem.read_v(addr));
                    if got.is_ok() {
                        last = addr;
                    }
                }
                4..=6 => {
                    // Also says whether the store landed in an executable
                    // region: the physical address's, by its permissions.
                    let got = mem.write_near(&mut near, addr, value);
                    let expect = oracle.translate(addr, true).and_then(|pa| {
                        oracle.store(pa, Kind::Write, value)?;
                        let (r, _) = oracle.access(pa, Kind::Write)?;
                        Ok(oracle.regions[r].perms.exec)
                    });
                    prop_assert_eq!(got, expect, "write_near {:#x} after {:#x}", addr, last);
                    if got.is_ok() {
                        last = addr;
                    }
                }
                7 | 8 => prop_assert_eq!(
                    mem.write(addr, value),
                    oracle.store(addr, Kind::Write, value),
                    "write {:#x}", addr
                ),
                9 => prop_assert_eq!(
                    mem.poke(addr, value),
                    oracle.store(addr, Kind::Raw, value),
                    "poke {:#x}", addr
                ),
                10 => {
                    // Back to boot contents: the region the last access
                    // went to, or the one holding its PTE.
                    let at = if raw & 1 == 0 { last } else { pte_of_last };
                    let r = oracle
                        .regions
                        .iter()
                        .position(|r| r.contains(at))
                        .unwrap_or(raw as usize % oracle.regions.len());
                    mem.restore_region(&oracle.regions[r].name, &boot);
                    oracle.words[r].clone_from(&boot_words[r]);
                }
                _ => images.op(op - 11, &mut mem, &mut oracle, (addr, value, raw)),
            }
        }

        for (r, words) in oracle.regions.iter().zip(&oracle.words) {
            prop_assert_eq!(&mem.region_words(&r.name).unwrap(), words, "{}", r.name);
        }
        images.check(&oracle);
    }

    /// `load_image` is `poke` word by word: same words written, same first
    /// failing address, whatever pages and regions the image straddles.
    #[test]
    fn load_image_is_poke_word_by_word(
        layout in (
            prop_oneof![Just(8u64), Just(0xff8u64), Just(0x1000u64)],
            proptest::collection::vec(arb_chunk(), 1..6),
            any::<u64>(),
        ),
        pick in any::<u8>(),
        raw in any::<u64>(),
        image in proptest::collection::vec(any::<u64>(), 0..1400),
    ) {
        let (start, chunks, shuffle) = layout;
        let mut mem = build_layout(start, &chunks, shuffle);
        let mut oracle = Oracle::of(&mem);
        let addr = probe_addr(&oracle, pick, raw);
        let expect = image.iter().enumerate().try_for_each(|(i, &w)| {
            oracle.store(addr.wrapping_add(i as u64 * 8), Kind::Raw, w)
        });
        prop_assert_eq!(mem.load_image(addr, &image), expect, "load_image @ {:#x}", addr);
        for (r, words) in oracle.regions.iter().zip(&oracle.words) {
            prop_assert_eq!(&mem.region_words(&r.name).unwrap(), words, "{}", r.name);
        }
    }
}

/// Two regions in one page, each with its own permissions; the words
/// between and after them are unmapped.
#[test]
fn regions_sharing_a_page_keep_their_own_bounds_and_perms() {
    let mut m = Memory::new();
    m.map("b", 0x1100, 4, Perms::RW);
    m.map("a", 0x1000, 4, Perms::RX);
    m.map("c", 0x1ff8, 2, Perms::R); // straddles into the next page
    m.map("d", 0x1200, 4, Perms::RWX);
    assert_eq!(m.fetch(0x1018), Ok(0));
    assert_eq!(
        m.write(0x1018, 1),
        Err(MemError::Protection { addr: 0x1018 })
    );
    assert_eq!(m.read(0x1020), Err(MemError::Unmapped { addr: 0x1020 }));
    assert_eq!(m.write(0x1118, 7), Ok(()));
    assert_eq!(m.read(0x1118), Ok(7));
    // "Landed in an executable region" is the region's answer, not the
    // page's: false beside `a` and `d`, true in `d`, from the checked path
    // and then from the window.
    let mut near = DataWindow::default();
    assert_eq!(m.write_near(&mut near, 0x1110, 8), Ok(false));
    assert_eq!(m.write_near(&mut near, 0x1118, 7), Ok(false));
    assert_eq!(m.write_near(&mut near, 0x1200, 9), Ok(true));
    assert_eq!(m.write_near(&mut near, 0x1208, 9), Ok(true));
    assert_eq!(m.write_near(&mut near, 0x1118, 7), Ok(false));
    assert_eq!(m.read(0x1120), Err(MemError::Unmapped { addr: 0x1120 }));
    assert_eq!(m.read(0x1ff8), Ok(0));
    assert_eq!(m.read(0x2000), Ok(0));
    assert_eq!(m.read(0x2008), Err(MemError::Unmapped { addr: 0x2008 }));
    assert_eq!(m.region_at(0x2007).unwrap().name, "c");
}

#[test]
#[should_panic(expected = "ends above")]
fn mapping_above_the_address_limit_panics() {
    Memory::new().map("high", sim_machine::ADDR_LIMIT - 8, 2, Perms::RW);
}
