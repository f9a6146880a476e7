//! The paper's figures across commits: EXPERIMENTS.md holds, in one
//! `<!-- paper_figures NAME -->` … `<!-- /paper_figures -->` block per
//! figure, exactly the text `sc_metrics::report::render_figure` returns
//! at seed 2017 — what `examples/paper_figures.rs` prints. A change that
//! is not a calibration change must leave every block alone; one that
//! means to move a cell re-blesses the blocks, and nothing else in the
//! file, with `SC_BLESS=1 cargo test --test figure_golden` (and, for
//! Fig. 7, `SC_BLESS=1 cargo test --release --test figure_golden --
//! --ignored`) and says which cell moved.
//!
//! Fig. 7 sweeps four methods up to 180 clients — 42 s in a debug build
//! — so its block is checked by an `#[ignore]`d test that
//! `scripts/check.sh` runs in release.

mod common;

use common::blessing;
use sc_metrics::report::render_figure;

const SEED: u64 = 2017;
const DOC: &str = "EXPERIMENTS.md";

/// Where the text of EXPERIMENTS.md's `name` block lies: between the
/// fence under `<!-- paper_figures name -->` and the fence above
/// `<!-- /paper_figures -->`.
fn block(doc: &str, name: &str) -> std::ops::Range<usize> {
    let open = format!("<!-- paper_figures {name} -->\n```\n");
    let mut starts = doc.match_indices(&open).map(|(i, _)| i + open.len());
    let start = starts.next().unwrap_or_else(|| panic!("{DOC} has no `{name}` block"));
    assert!(starts.next().is_none(), "{DOC} has two `{name}` blocks");
    let end = start + doc[start..].find("```\n").unwrap_or(doc.len() - start);
    assert!(
        doc[end..].starts_with("```\n<!-- /paper_figures -->"),
        "{DOC}'s `{name}` block is not closed by a fence and `<!-- /paper_figures -->`"
    );
    start..end
}

/// Checks each named block of EXPERIMENTS.md against what its figure
/// renders, or rewrites just those blocks under `SC_BLESS`.
fn check_blocks(names: &[&str]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(DOC);
    let mut doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    for name in names {
        let text = render_figure(name, SEED).expect("a figure paper_figures prints");
        let at = block(&doc, name);
        if blessing() {
            doc.replace_range(at, &text);
        } else {
            assert_eq!(&doc[at], text, "{DOC}'s `{name}` block moved; if intended, re-bless with SC_BLESS=1");
        }
    }
    if blessing() {
        std::fs::write(&path, doc).expect("write EXPERIMENTS.md");
    }
}

#[test]
fn figures_match_experiments_md() {
    check_blocks(&["fig3", "fig5", "fig6", "ablations"]);
}

#[test]
#[ignore = "42 s in a debug build; scripts/check.sh runs it with --release -- --ignored"]
fn fig7_matches_experiments_md() {
    check_blocks(&["fig7"]);
}
