//! Key hygiene of rekey construction: no block freed while
//! [`Rekeyer::join`] or [`Rekeyer::batch`] runs, or while its output is
//! dropped, may still hold a key the tree was given.
//!
//! A scanning allocator watches every block released (or moved by
//! `realloc`) on this thread while a construction runs, and a
//! [`KeySource`] that records every key it hands out names what to look
//! for. The sealer concatenates the new keys it seals into one plaintext
//! buffer; a copy of that buffer freed without a wipe (say, as the key of
//! a bundle cache) trips the scan.

use kg_core::batch::BatchEvent;
use kg_core::ids::UserId;
use kg_core::rekey::{KeyCipher, Rekeyer, Strategy};
use kg_core::tree::KeyTree;
use kg_crypto::drbg::HmacDrbg;
use kg_crypto::KeySource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

thread_local! {
    /// Whether this thread is inside a watched construction.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Every 8-byte key handed out so far, sorted.
    static NEEDLES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Blocks freed while still holding a needle.
    static LEAKS: Cell<u64> = const { Cell::new(0) };
}

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

/// Count a block about to be released if it still holds a needle.
fn scan(block: &[u8]) {
    let hit = NEEDLES.with(|n| {
        let needles = n.borrow();
        block
            .windows(8)
            .map(|w| u64::from_ne_bytes(w.try_into().expect("8-byte window")))
            .any(|w| needles.binary_search(&w).is_ok())
    });
    if hit {
        LEAKS.with(|l| l.set(l.get() + 1));
    }
}

struct Scanning;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping only writes or reads blocks the caller owns, and allocates
// nothing while it does.
//
// While tracking, a block is handed out zeroed (and a grown block's new
// tail is zeroed), so a hit is key material written during the
// construction, never stale bytes of the memory's earlier owner.
unsafe impl GlobalAlloc for Scanning {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            return System.alloc_zeroed(layout);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracking() {
            scan(std::slice::from_raw_parts(ptr, layout.size()));
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !tracking() {
            return System.realloc(ptr, layout, new_size);
        }
        scan(std::slice::from_raw_parts(ptr, layout.size()));
        let grown = System.realloc(ptr, layout, new_size);
        if !grown.is_null() && new_size > layout.size() {
            grown.add(layout.size()).write_bytes(0, new_size - layout.size());
        }
        grown
    }
}

#[global_allocator]
static GLOBAL: Scanning = Scanning;

/// A key source that records every key it hands out as a needle.
struct Recording(HmacDrbg);

impl KeySource for Recording {
    fn generate(&mut self, len: usize) -> Vec<u8> {
        let key = self.0.generate(len);
        let needle = u64::from_ne_bytes(key.as_slice().try_into().expect("8-byte DES key"));
        NEEDLES.with(|n| {
            let mut n = n.borrow_mut();
            let at = n.binary_search(&needle).unwrap_or_else(|at| at);
            n.insert(at, needle);
        });
        key
    }
}

/// Build and drop `ev`'s output under every strategy (and through the
/// join construction where `join` says the event is one it accepts),
/// returning the blocks freed with a key still in them.
fn leaks(ev: &BatchEvent, join: bool, interval: &mut u64) -> u64 {
    *interval += 1;
    let mut total = 0;
    for strategy in Strategy::EVERY {
        for as_join in [false, true].into_iter().filter(|&j| !j || join) {
            LEAKS.with(|l| l.set(0));
            TRACKING.with(|t| t.set(true));
            let rk = Rekeyer::new(KeyCipher::des_cbc(), *interval);
            let out = if as_join { rk.join(ev, strategy) } else { rk.batch(ev, strategy) };
            drop(out);
            TRACKING.with(|t| t.set(false));
            total += LEAKS.with(Cell::get);
        }
    }
    total
}

#[test]
fn rekey_construction_frees_no_key_material() {
    let mut src = Recording(HmacDrbg::from_seed(0x5EA1));
    let mut interval = 0;
    let mut tree = KeyTree::new(4, 8, &mut src);
    let mut leaked = 0;
    for u in 0..48 {
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(u), ik, &mut src).expect("join");
        leaked += leaks(&ev, true, &mut interval);
    }
    for i in 0..6u64 {
        let ev = tree.leave(UserId(i * 7), &mut src).expect("leave");
        leaked += leaks(&ev, false, &mut interval);
        let ev = tree.refresh_group_key(&mut src);
        leaked += leaks(&ev, true, &mut interval);
        let joins: Vec<_> =
            (0..3).map(|j| (UserId(100 + 3 * i + j), src.generate_key(8))).collect();
        let ev = tree.apply_batch(&joins, &[UserId(i * 7 + 1), UserId(i * 7 + 3)], &mut src);
        leaked += leaks(&ev.expect("mixed interval"), false, &mut interval);
    }
    assert_eq!(leaked, 0, "blocks freed while still holding a key the tree was given");
}
