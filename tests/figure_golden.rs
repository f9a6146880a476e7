//! The paper's figures across commits: `tests/golden/figure_digests.txt`
//! pins the SHA-256 of exactly what `examples/paper_figures.rs` prints
//! for each figure at its seed (2017), one line per figure. A change
//! that is not a calibration change must leave every line alone; one
//! that means to move a cell re-blesses with
//! `SC_BLESS=1 cargo test --test figure_golden` (and, for Fig. 7,
//! `SC_BLESS=1 cargo test --release --test figure_golden -- --ignored`)
//! and says which cell moved.
//!
//! Fig. 7 sweeps four methods up to 150 clients — 42 s in a debug build
//! — so its line is the file's second half, checked by an `#[ignore]`d
//! test that `scripts/check.sh` runs in release.

mod common;

use common::{blessing, digest_line, golden_path};
use sc_metrics::report::{render_ablations, render_fig3, render_fig5, render_fig6, render_fig7};
use sc_metrics::{
    FIG7_CLIENTS, Method, ablation_agility, ablation_blinding, ablation_ss_keepalive, fig3_survey,
    fig5_all, fig6_all, fig7_method,
};

const SEED: u64 = 2017;
const FILE: &str = "figure_digests.txt";

/// Checks one half of the file — Fig. 7's line or all the others —
/// against `actual`, or rewrites that half under `SC_BLESS`, leaving
/// the other as it is.
fn check_half(fig7: bool, actual: &str) {
    let golden = std::fs::read_to_string(golden_path(FILE)).unwrap_or_default();
    let (mine, other): (String, String) =
        golden.split_inclusive('\n').partition(|l| l.starts_with("fig7 ") == fig7);
    if blessing() {
        let whole = if fig7 { other + actual } else { actual.to_string() + &other };
        std::fs::write(golden_path(FILE), whole).expect("write golden digests");
        return;
    }
    assert_eq!(actual, mine, "{FILE} moved; if intended, re-bless with SC_BLESS=1");
}

#[test]
fn figure_digests_match_golden() {
    let ablations = render_ablations(
        &ablation_blinding(SEED),
        ablation_agility(SEED),
        &ablation_ss_keepalive(SEED, &[1, 10, 120]),
    );
    let mut actual = String::new();
    actual.push_str(&digest_line("fig3", render_fig3(&fig3_survey(371, SEED)).as_bytes()));
    actual.push_str(&digest_line("fig5", render_fig5(&fig5_all(SEED, 10)).as_bytes()));
    actual.push_str(&digest_line("fig6", render_fig6(&fig6_all(SEED)).as_bytes()));
    actual.push_str(&digest_line("ablations", ablations.as_bytes()));
    check_half(false, &actual);
}

#[test]
#[ignore = "42 s in a debug build; scripts/check.sh runs it with --release -- --ignored"]
fn fig7_digest_matches_golden() {
    let curves: Vec<_> =
        [Method::NativeVpn, Method::OpenVpn, Method::Shadowsocks, Method::ScholarCloud]
            .into_iter()
            .map(|m| (m, fig7_method(m, SEED, &FIG7_CLIENTS)))
            .collect();
    check_half(true, &digest_line("fig7", render_fig7(&curves).as_bytes()));
}
