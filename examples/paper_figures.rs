//! Regenerates the paper's figures: `cargo run --release --example
//! paper_figures [fig3|fig5|fig6|fig7|ablations|all]`.
//!
//! Prints each figure's data with the paper's reported values alongside,
//! exactly as EXPERIMENTS.md holds it; `all` puts a blank line between
//! figures.

use sc_metrics::report::{FIGURES, render_figure};

fn main() {
    // SC_TRACE=trace.jsonl streams every instrumented event to a file.
    let _obs = sc_metrics::trace::obs_from_env();
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let figures: Vec<String> = FIGURES
        .iter()
        .filter(|&&name| which == name || which == "all")
        .filter_map(|name| render_figure(name, 2017))
        .collect();
    print!("{}", figures.join("\n"));
}
