//! Traced run: prints the per-layer metrics of one workload and writes its
//! wall-time Chrome trace and layer ledger under `.bench_out/`.
//!
//! `perfbench-traced --workload <name> --seed <n> --seconds <s>`

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::time::Instant;

/// The system allocator, counting every allocation while
/// [`perfbench::alloc_count`] is on. Only this binary installs it, so the
/// untraced end-to-end run pays nothing for it.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        perfbench::alloc_count::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        perfbench::alloc_count::record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        perfbench::alloc_count::record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() -> ExitCode {
    let start = Instant::now();
    let result = perfbench::Args::parse(std::env::args().skip(1))
        .and_then(|args| perfbench::layers::traced(&args, start));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}
