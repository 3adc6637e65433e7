//! Copy-on-write pages against a deep-copy model.
//!
//! A `Memory` clone shares every page with its source until one of them
//! writes. Here a parent and several clones are driven through interleaved
//! writes, pokes, deltas and region restores while a model keeps one plain
//! `Vec<u64>` per region per handle — no sharing at all. After every step
//! each handle must read exactly as its model does (no write is ever
//! visible through another handle), and everything that compares two
//! images — `==`, `digest`, `for_each_diff`, `delta_from` → `apply_delta`,
//! `restore_region` — must agree with the word-by-word answer over the
//! models, whether the pages involved are shared, unshared but equal, or
//! unshared and different.

use proptest::prelude::*;
use sim_machine::{fold64, Machine, Memory, MemoryDelta, Perms};

/// Name, base, words. Two sub-page regions in one page, a region that is
/// exactly one page, an unaligned one that straddles three, and a
/// read-only one (pokes and restores still reach it).
const LAYOUT: [(&str, u64, usize, Perms); 5] = [
    ("small.a", 0x1000, 8, Perms::RW),
    ("small.b", 0x1800, 16, Perms::RW),
    ("page", 0x4000, 512, Perms::RW),
    ("straddle", 0x8f00, 1100, Perms::RW),
    ("text", 0x2_0000, 600, Perms::RX),
];

fn boot_memory() -> Memory {
    let mut m = Memory::new();
    for (name, base, words, perms) in LAYOUT {
        m.map(name, base, words, perms);
    }
    // Not all zero: the shared zero page must not be the only thing tested.
    for (_, base, words, _) in LAYOUT {
        for w in (0..words).step_by(97) {
            m.poke(base + w as u64 * 8, w as u64 + 1).unwrap();
        }
    }
    m
}

/// One handle's contents, region by region (`LAYOUT` order, which is also
/// base order).
type Model = Vec<Vec<u64>>;

fn model_of(m: &Memory) -> Model {
    LAYOUT
        .iter()
        .map(|(name, ..)| m.region_words(name).unwrap())
        .collect()
}

/// `Memory::digest` as documented, over the model.
fn model_digest(model: &Model) -> u64 {
    let mut h = fold64(0x6d65_6d6f_7279, LAYOUT.len() as u64);
    for ((name, base, words, _), contents) in LAYOUT.iter().zip(model) {
        h = fold64(h, *base);
        h = fold64(h, *words as u64);
        for b in name.bytes() {
            h = fold64(h, b as u64);
        }
        for &w in contents {
            h = fold64(h, w);
        }
    }
    h
}

/// Word-by-word `(region, word, ours, theirs)` for every difference.
fn model_diff(ours: &Model, theirs: &Model) -> Vec<(usize, usize, u64, u64)> {
    let mut out = Vec::new();
    for (r, (a, b)) in ours.iter().zip(theirs).enumerate() {
        for (w, (&x, &y)) in a.iter().zip(b).enumerate() {
            if x != y {
                out.push((r, w, x, y));
            }
        }
    }
    out
}

fn check_pair(a: &Memory, ma: &Model, b: &Memory, mb: &Model) {
    let expect = model_diff(ma, mb);
    let mut got = Vec::new();
    a.for_each_diff(b, |r, w, x, y| got.push((r, w, x, y)));
    assert_eq!(got, expect, "for_each_diff");
    assert_eq!(a == b, expect.is_empty(), "PartialEq");
    assert_eq!(a.digest() == b.digest(), expect.is_empty(), "digest");
    let delta = a.delta_from(b);
    let expect_delta = MemoryDelta {
        words: expect
            .iter()
            .map(|&(r, w, x, _)| (r as u32, w as u32, x))
            .collect(),
    };
    assert_eq!(delta, expect_delta, "delta_from");
    let mut rebuilt = b.clone();
    rebuilt.apply_delta(&delta);
    assert!(rebuilt == *a, "delta round trip");
    assert_eq!(model_of(&rebuilt), *ma);
    assert_eq!(
        model_of(b),
        *mb,
        "apply_delta on a clone reached its source"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn clones_never_see_each_others_writes(
        ops in proptest::collection::vec(
            (0u8..12, (any::<u8>(), any::<u8>()), 0usize..LAYOUT.len(), any::<u32>(), 0u64..3),
            1..120,
        ),
    ) {
        let mut handles = vec![boot_memory()];
        let mut models = vec![model_of(&handles[0])];

        for (op, (h, other), region, word, value) in ops {
            let h = h as usize % handles.len();
            let other = other as usize % handles.len();
            let (name, base, words, perms) = LAYOUT[region];
            let word = word as usize % words;
            let addr = base + word as u64 * 8;
            match op {
                // Writes dominate; a small value domain makes "written back
                // to what it was" (unshared but equal) common.
                0..=3 => {
                    let r = handles[h].write(addr, value);
                    prop_assert_eq!(r.is_ok(), perms.write);
                    if r.is_ok() {
                        models[h][region][word] = value;
                    }
                }
                4 | 5 => {
                    handles[h].poke(addr, value).unwrap();
                    models[h][region][word] = value;
                }
                // Copy what another handle holds there: equal content on
                // (most likely) an unshared page.
                6 => {
                    let v = handles[other].peek(addr).unwrap();
                    handles[h].poke(addr, v).unwrap();
                    models[h][region][word] = v;
                }
                7 if handles.len() < 6 => {
                    let c = handles[h].clone();
                    prop_assert!(c == handles[h]);
                    handles.push(c);
                    models.push(models[h].clone());
                }
                // Bring `h` to `other`'s state through a delta.
                8 => {
                    let d = handles[other].delta_from(&handles[h]);
                    handles[h].apply_delta(&d);
                    models[h] = models[other].clone();
                }
                9 | 10 => {
                    let expect = models[h][region]
                        .iter()
                        .zip(&models[other][region])
                        .filter(|(a, b)| a != b)
                        .count();
                    let image = handles[other].clone();
                    prop_assert_eq!(handles[h].restore_region(name, &image), expect);
                    models[h][region] = models[other][region].clone();
                }
                // Drop a clone: its pages go, everyone else's stay.
                _ if handles.len() > 1 && h != 0 => {
                    handles.remove(h);
                    models.remove(h);
                }
                _ => {}
            }
            for (m, model) in handles.iter().zip(&models) {
                prop_assert_eq!(&model_of(m), model);
            }
        }

        for (m, model) in handles.iter().zip(&models) {
            prop_assert_eq!(m.digest(), model_digest(model));
        }
        for i in 0..handles.len() {
            for j in 0..handles.len() {
                check_pair(&handles[i], &models[i], &handles[j], &models[j]);
            }
        }
    }
}

/// The three kinds of page a comparison meets, spelled out.
#[test]
fn shared_equal_and_different_pages_compare_by_content() {
    let base = boot_memory();
    let mut a = base.clone();
    // Shared: nothing written.
    assert!(a == base && a.delta_from(&base).is_empty());
    // Unshared and different.
    a.poke(0x4008, 0xdead).unwrap();
    assert!(a != base);
    assert_eq!(a.delta_from(&base).words, vec![(2, 1, 0xdead)]);
    assert_eq!(base.peek(0x4008), Ok(0), "write leaked into the source");
    // Unshared but equal again: no diff, equal digests.
    a.poke(0x4008, 0).unwrap();
    assert!(a == base && a.delta_from(&base).is_empty());
    assert_eq!(a.digest(), base.digest());
    // restore_region reports only words that differed.
    a.poke(0x4010, 5).unwrap();
    a.poke(0x8f00, 6).unwrap();
    assert_eq!(a.restore_region("page", &base), 1);
    assert_eq!(a.restore_region("page", &base), 0);
    assert_eq!(a.restore_region("straddle", &base), 1);
    assert!(a == base);
}

/// Campaign workers clone from one `&GoldenTrace` on several threads.
#[test]
fn memory_and_machine_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Memory>();
    assert_send_sync::<Machine>();
}
