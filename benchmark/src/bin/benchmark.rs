//! The benchmark under the system allocator (untraced runs and tools).

fn main() -> std::process::ExitCode {
    opaque_benchmark::main(None)
}
