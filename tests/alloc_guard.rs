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

/// The ceiling is the 76 allocations measured for this call plus a margin.
#[test]
fn small_zstd_call_allocates_per_stage_not_per_symbol() {
    let text = cdpu::corpus::generate(cdpu::corpus::CorpusKind::MarkovText, 4 << 10, 3);
    // The first call on a thread sizes the matcher's scratch tables.
    let warm = cdpu::zstd::compress(&text);
    let n = allocations_in(|| cdpu::zstd::compress(&text));
    assert!(n <= 90, "zstd::compress of 4 KiB allocated {n} times");
    assert_eq!(cdpu::zstd::decompress(&warm).unwrap(), text);
}

/// A random literal section is proven raw before any Huffman table is
/// built. The whole warm call measured 10 allocations; a table build alone
/// makes at least six (package-merge's leaves, lengths, flags and two level
/// buffers, then the canonical codes), so a build would break the ceiling.
#[test]
fn small_random_zstd_call_builds_no_huffman_table() {
    let random = cdpu::corpus::generate(cdpu::corpus::CorpusKind::Random, 4 << 10, 3);
    let warm = cdpu::zstd::compress(&random);
    let n = allocations_in(|| cdpu::zstd::compress(&random));
    assert!(n <= 12, "zstd::compress of 4 random KiB allocated {n} times");
    assert_eq!(cdpu::zstd::decompress(&warm).unwrap(), random);
}

/// Warm decode allocates per block — a code book or two and the FSE tables —
/// and nothing per call or per symbol: output, staging and the Flate-class
/// decode tables live in scratch that only grows. Ceilings are the counts
/// measured before the decoders shared one staged path.
#[test]
fn warm_decompress_into_allocates_per_block_only() {
    for (len, flate_max, zstd_max) in [(4usize << 10, 9, 17), (200 << 10, 12, 34)] {
        let text = cdpu::corpus::generate(cdpu::corpus::CorpusKind::MarkovText, len, 3);
        let mut scratch = cdpu::lz77::window::DecoderScratch::new();

        let frame = cdpu::flate::compress(&text);
        assert_eq!(cdpu::flate::decompress_into(&frame, &mut scratch).unwrap(), text);
        let n = allocations_in(|| cdpu::flate::decompress_into(&frame, &mut scratch).is_ok());
        assert!(n <= flate_max, "warm flate::decompress_into of {len} bytes allocated {n} times");

        let frame = cdpu::zstd::compress(&text);
        assert_eq!(cdpu::zstd::decompress_into(&frame, &mut scratch).unwrap(), text);
        let n = allocations_in(|| cdpu::zstd::decompress_into(&frame, &mut scratch).is_ok());
        assert!(n <= zstd_max, "warm zstd::decompress_into of {len} bytes allocated {n} times");
    }
}
