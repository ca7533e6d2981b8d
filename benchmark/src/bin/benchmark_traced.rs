//! The same program under a counting allocator (traced runs).

use opaque_benchmark::alloc::{AllocCounters, CountingAlloc};

static COUNTERS: AllocCounters = AllocCounters::new();

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc(&COUNTERS);

fn main() -> std::process::ExitCode {
    opaque_benchmark::main(Some(&COUNTERS))
}
