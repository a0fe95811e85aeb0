//! Regenerates the paper's §4.4.2 ablations (see DESIGN.md for the experiment index).

fn main() {
    let opts = harness::figures::opts_from_args(std::env::args().skip(1));
    let rows = harness::figures::ablation(harness::figures::fig5_iters(&opts));
    harness::figures::print_rows(&rows);
}
