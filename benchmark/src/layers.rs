//! The per-layer metric table: every name `--trace 1` prints, with its
//! unit. A layer is a crate. (`BENCHMARK.json` also gives each row a
//! direction; per-layer rows have no bound, so the harness needs none.)
//!
//! Every workload prints every row. A row whose layer the workload does
//! not exercise reads 0 (no cache lookups on `transport_matrix`, no
//! simulator events on `obs_trace_replay`); the README marks those
//! cells, which are the benchmark's predicted nulls.

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// `layer.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric { name, unit }
}

/// Every per-layer metric, in print order.
pub const LAYER_METRICS: [LayerMetric; 72] = [
    // simnet
    m("simnet.events_per_load", "1"),
    m("simnet.timers_per_load", "1"),
    m("simnet.packets_per_load", "1"),
    m("simnet.queue_depth_hwm", "count"),
    m("simnet.alloc_bytes_per_event", "B"),
    m("simnet.drops_loss_per_kload", "1"),
    m("simnet.drops_censor_per_kload", "1"),
    m("simnet.drops_queue_per_kload", "1"),
    m("simnet.plr_pct", "%"),
    m("simnet.events_per_s", "1/s"),
    m("simnet.event_loop_self_ns_per_event", "ns"),
    m("simnet.tcp_self_ns_per_event", "ns"),
    m("simnet.bare_tcp_events_per_s", "1/s"),
    // gfw
    m("gfw.classify_self_ns_per_packet", "ns"),
    m("gfw.interference_per_kload", "1"),
    m("gfw.classify_http_ns", "ns"),
    m("gfw.classify_tls_ns", "ns"),
    // scholarcloud
    m("scholarcloud.proxy_self_ns_per_load", "ns"),
    m("scholarcloud.shed_share", "share"),
    m("scholarcloud.failovers_per_kload", "1"),
    m("scholarcloud.status_503_per_kload", "1"),
    m("scholarcloud.frame_roundtrip_ns", "ns"),
    // crypto
    m("crypto.blind_bytemap_mib_per_s", "MiB/s"),
    m("crypto.aes256_cfb_mib_per_s", "MiB/s"),
    m("crypto.sha256_mib_per_s", "MiB/s"),
    // netproto
    m("netproto.http_parse_ns", "ns"),
    m("netproto.pac_decide_ns", "ns"),
    m("netproto.pac_parse_us", "us"),
    // cache
    m("cache.self_ns_per_lookup", "ns"),
    m("cache.hit_share", "share"),
    m("cache.coalesced_share", "share"),
    m("cache.evictions_per_kload", "1"),
    m("cache.revalidations_per_kload", "1"),
    m("cache.peer_fetch_share", "share"),
    m("cache.upstream_fetches_per_kload", "1"),
    m("cache.lookup_hit_ns", "ns"),
    m("cache.insert_evict_ns", "ns"),
    m("cache.singleflight_63_waiters_ns", "ns"),
    // tunnels
    m("tunnels.loads_per_s.native_vpn", "1/s"),
    m("tunnels.loads_per_s.openvpn", "1/s"),
    m("tunnels.loads_per_s.shadowsocks", "1/s"),
    m("tunnels.loads_per_s.tor", "1/s"),
    m("tunnels.events_per_load.native_vpn", "1"),
    m("tunnels.events_per_load.openvpn", "1"),
    m("tunnels.events_per_load.shadowsocks", "1"),
    m("tunnels.events_per_load.tor", "1"),
    m("tunnels.sim_plt_p50_ms.native_vpn", "sim_ms"),
    m("tunnels.sim_plt_p50_ms.openvpn", "sim_ms"),
    m("tunnels.sim_plt_p50_ms.shadowsocks", "sim_ms"),
    m("tunnels.sim_plt_p50_ms.tor", "sim_ms"),
    m("tunnels.sim_plt_first_p50_ms.tor", "sim_ms"),
    // web
    m("web.sim_plt_first_p50_ms", "sim_ms"),
    m("web.client_wire_kib_per_load", "KiB"),
    m("web.conns_per_load", "1"),
    m("web.throttled_per_kload", "1"),
    m("web.proxy_failovers_per_kload", "1"),
    // obs
    m("obs.trace_kib_per_load", "KiB"),
    m("obs.trace_events_per_load", "1"),
    m("obs.emit_overhead_pct", "%"),
    m("obs.parse_mib_per_s", "MiB/s"),
    m("obs.analyze_kevents_per_s", "1/s"),
    m("obs.render_report_ms", "ms"),
    m("obs.render_json_ms", "ms"),
    m("obs.stitched_share", "share"),
    m("obs.attribution_coverage", "share"),
    m("obs.slo_alerts_fired", "count"),
    m("obs.prof_overhead_pct", "%"),
    // metrics
    m("metrics.build_scenario_ms", "ms"),
    m("metrics.peak_live_kib_per_load", "KiB"),
    // bench (harness self-check)
    m("bench.kernel_ms", "ms"),
    m("bench.rep_wall_iqr_pct", "%"),
    m("bench.loads_per_s_median", "1/s"),
];

/// The `tunnels.<what>.<method>` row name for a matrix method label.
pub fn tunnel_row(what: &str, label: &str) -> &'static str {
    let want = format!("tunnels.{what}.{label}");
    LAYER_METRICS
        .iter()
        .map(|m| m.name)
        .find(|n| *n == want)
        .unwrap_or_else(|| panic!("no per-layer row named {want}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{Better, END_TO_END};
    use crate::workloads::{Workload, MATRIX_METHODS};
    use sc_obs::analyze::{parse_json, Json};

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry without {key}"))
    }

    /// `BENCHMARK.json` names what the driver expects the benchmark to
    /// print; the tables in this package are what it prints.
    #[test]
    fn benchmark_json_lists_exactly_what_is_printed() {
        let json = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .to_vec()
        };

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| field(w, "name").to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            let better = if m.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(entry, "better"), better, "{}", m.name);
            // The driver varies the seed, so its bound is never tighter
            // than the same-seed one.
            let bound = entry.get("bound").and_then(Json::as_f64).expect("a bound");
            assert!(bound >= m.bound && bound <= 0.25, "{}: {bound}", m.name);
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), LAYER_METRICS.len());
        for (entry, m) in per_layer.iter().zip(LAYER_METRICS) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
        }
    }

    #[test]
    fn names_are_unique_and_cover_every_matrix_method() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        for (label, _) in MATRIX_METHODS {
            for what in ["loads_per_s", "events_per_load", "sim_plt_p50_ms"] {
                tunnel_row(what, label);
            }
        }
    }
}
