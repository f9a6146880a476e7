//! Regenerates the paper's figures: `cargo run --release --example
//! paper_figures [fig3|fig5|fig6|fig7|ablations|all]`.
//!
//! Prints each figure's data with the paper's reported values alongside.

use sc_metrics::{
    FIG7_CLIENTS, Method, ablation_agility, ablation_blinding, ablation_ss_keepalive, fig3_survey,
    fig5_all, fig6_all, fig7_method,
};
use sc_metrics::report::{render_ablations, render_fig3, render_fig5, render_fig6, render_fig7};

fn main() {
    // SC_TRACE=trace.jsonl streams every instrumented event to a file.
    let _obs = sc_metrics::trace::obs_from_env();
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let seed = 2017;

    if which == "fig3" || which == "all" {
        println!("{}", render_fig3(&fig3_survey(371, seed)));
        println!("(shares converge to the paper's with larger samples; try 100000)\n");
    }
    if which == "fig5" || which == "all" {
        let rows = fig5_all(seed, 10);
        println!("{}", render_fig5(&rows));
        println!("paper: PLT subs — VPNs 1.2–1.5 s, Tor 2.8 s, SS 3.7 s, SC 1.3 s;");
        println!("       PLT first — Tor ≈15 s (≤20 s), SC 2.1 s;");
        println!("       RTT — Tor ≈330 ms, others in the 100–700 ms band;");
        println!("       PLR — Tor 4.4%, SS 0.77%, native VPN 0.21%, SC 0.22%\n");
    }
    if which == "fig6" || which == "all" {
        let rows = fig6_all(seed);
        println!("{}", render_fig6(&rows));
        println!("paper: direct ≈19 KB; tunnels add 8–14 KB; CPU 3.07→3.62%;");
        println!("       memory before: Tor ≈70% above Chrome; after: +30…+90 MB\n");
    }
    if which == "fig7" || which == "all" {
        let methods = [
            Method::NativeVpn,
            Method::OpenVpn,
            Method::Shadowsocks,
            Method::ScholarCloud,
        ];
        let curves: Vec<_> = methods
            .into_iter()
            .map(|m| (m, fig7_method(m, seed, &FIG7_CLIENTS)))
            .collect();
        println!("{}", render_fig7(&curves));
        println!("paper: Shadowsocks knees past 60 clients; others grow linearly;");
        println!("       OpenVPN and ScholarCloud grow most gently\n");
    }
    if which == "ablations" || which == "all" {
        print!(
            "{}",
            render_ablations(
                &ablation_blinding(seed),
                ablation_agility(seed),
                &ablation_ss_keepalive(seed, &[1, 10, 120]),
            )
        );
    }
}
