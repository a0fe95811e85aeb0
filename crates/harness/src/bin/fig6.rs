//! Regenerates the paper's Fig6 series (see DESIGN.md for the experiment index).

fn main() {
    let opts = harness::figures::opts_or_exit(std::env::args().skip(1));
    let rows = harness::figures::fig6(&opts);
    harness::figures::print_rows(&rows);
}
