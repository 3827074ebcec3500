//! Allocation guard for the per-call fixed cost of the entropy-coded
//! compress path.
//!
//! A 1–16 KiB call is where the fleet's call-count mass sits, and there a
//! table build that allocates per item costs more than the call's parse and
//! coding together. The bounds here are a small multiple of what the flat
//! package-merge and the reused matcher scratch need; the set-carrying
//! package-merge this guards against allocated about ten thousand times for
//! one 256-symbol table.
//!
//! Its own integration test because `#[global_allocator]` is per binary.
//! Counts are per thread, so the harness and other tests cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

#[test]
fn huffman_table_build_allocates_a_handful_of_arrays() {
    let text = cdpu::corpus::generate(cdpu::corpus::CorpusKind::MarkovText, 64 << 10, 3);
    let mut freqs = vec![1u32; 256];
    for &b in &text {
        freqs[b as usize] += 1;
    }
    let n = allocations_in(|| cdpu::entropy::huffman::HuffmanTable::from_frequencies(&freqs));
    assert!(n <= 16, "a full 256-symbol table build allocated {n} times");
}

#[test]
fn small_zstd_call_allocates_per_stage_not_per_symbol() {
    let text = cdpu::corpus::generate(cdpu::corpus::CorpusKind::MarkovText, 4 << 10, 3);
    // The first call on a thread sizes the matcher's scratch tables.
    let warm = cdpu::zstd::compress(&text);
    let n = allocations_in(|| cdpu::zstd::compress(&text));
    assert!(n <= 200, "zstd::compress of 4 KiB allocated {n} times");
    assert_eq!(cdpu::zstd::decompress(&warm).unwrap(), text);
}
