//! Regenerates the paper's Figure 5 series (single-threaded overheads).
//!
//! Accepts the same flags as the other `fig*` binaries (`--quick`,
//! `--paper`, `--duration-ms`, …); the per-point duration determines the
//! iteration count (see [`harness::figures::fig5_iters`]).

fn main() {
    let opts = harness::figures::opts_or_exit(std::env::args().skip(1));
    let rows = harness::figures::fig5(harness::figures::fig5_iters(&opts));
    harness::figures::print_rows(&rows);
}
