//! The inspect-everything-every-packet GFW, as shipped before inspection
//! became evidence-driven: every fingerprint and payload filter re-scans
//! the flow's whole capture on every packet. Kept as the oracle the
//! differential property below holds the engine to — same verdicts, same
//! injected packets, same counters, same classes, same RNG draws, packet
//! by packet. The code is the old code over the same state types, but for
//! the keyword comparison (see the note there) and the adaptive hook's
//! extra argument, which here always says "the evidence may have changed".

use rand::Rng;
use sc_crypto::entropy::PayloadStats;
use sc_dns::forge_response;
use sc_simnet::addr::SocketAddr;
use sc_simnet::middlebox::{MbCtx, Verdict};
use sc_simnet::packet::{L4, Packet, proto};
use sc_simnet::time::SimTime;

use super::{GfwMiddlebox, GfwState, POISON_ADDR, trace_drop};
use crate::classify::{
    CAPTURE_LIMIT, FlowRecord, TIMING_WINDOW, TrafficClass, is_openvpn_frame, ports,
};
use crate::config::GfwConfig;

/// Feeds one packet's evidence; runs every fingerprint while unclassified.
fn observe(rec: &mut FlowRecord, pkt: &Packet, now: SimTime, config: &GfwConfig) {
    let payload = pkt.l4.payload();
    let from_client = pkt
        .src_socket()
        .is_some_and(|s| s == rec.client);
    if from_client && !payload.is_empty() {
        if rec.early_bytes.len() < CAPTURE_LIMIT {
            let take = (CAPTURE_LIMIT - rec.early_bytes.len()).min(payload.len());
            rec.early_bytes.extend_from_slice(&payload[..take]);
        }
        if rec.timings.len() < TIMING_WINDOW {
            rec.timings.push(now);
            rec.sizes.push(payload.len());
        } else {
            rec.timings.rotate_left(1);
            rec.sizes.rotate_left(1);
            *rec.timings.last_mut().expect("window nonempty") = now;
            *rec.sizes.last_mut().expect("window nonempty") = payload.len();
        }
    }
    if matches!(rec.class, TrafficClass::Unknown | TrafficClass::Tls | TrafficClass::Suspect) {
        reclassify(rec, pkt, config);
    }
}

fn reclassify(rec: &mut FlowRecord, pkt: &Packet, config: &GfwConfig) {
    // Port/protocol fingerprints first (cheapest).
    match &pkt.l4 {
        L4::Raw { protocol, .. } => {
            match *protocol {
                proto::GRE => rec.class = TrafficClass::Pptp,
                proto::ESP => rec.class = TrafficClass::L2tp,
                _ => {}
            }
            return;
        }
        L4::Udp(u) => {
            if u.dst_port == ports::L2TP || u.src_port == ports::L2TP {
                rec.class = TrafficClass::L2tp;
                return;
            }
            if (u.dst_port == ports::OPENVPN || u.src_port == ports::OPENVPN)
                && is_openvpn_frame(&u.payload)
            {
                rec.class = TrafficClass::OpenVpn;
                return;
            }
        }
        L4::Tcp(t) => {
            if t.dst_port == ports::PPTP || t.src_port == ports::PPTP {
                rec.class = TrafficClass::Pptp;
                return;
            }
        }
    }

    if rec.early_bytes.is_empty() {
        return;
    }

    // Learned byte signatures (GFW rule updates).
    for sig in &config.learned_signatures {
        if !sig.is_empty()
            && rec
                .early_bytes
                .windows(sig.len())
                .any(|w| w == sig.as_slice())
        {
            rec.class = TrafficClass::LearnedSignature;
            return;
        }
    }

    // TLS: SNI visible in the ClientHello.
    if sc_netproto::sniff_sni(&rec.early_bytes).is_some() {
        // Meek rides inside TLS; the behavioral check below may still
        // upgrade the class, so mark Tls rather than returning final.
        rec.class = TrafficClass::Tls;
        if rec.is_meek_poll_pattern() {
            rec.class = TrafficClass::Meek;
        }
        return;
    }

    // Plaintext HTTP.
    if rec.early_bytes.starts_with(b"GET ")
        || rec.early_bytes.starts_with(b"POST ")
        || rec.early_bytes.starts_with(b"CONNECT ")
        || rec.early_bytes.starts_with(b"HEAD ")
    {
        rec.class = TrafficClass::Http;
        return;
    }

    // "Fully encrypted traffic" heuristic: high entropy, few printable
    // bytes, no recognizable header — the fingerprint that catches
    // Shadowsocks (and would catch naive custom tunnels).
    if rec.early_bytes.len() >= 64 {
        let stats = PayloadStats::analyze(&rec.early_bytes);
        if stats.looks_like_random() {
            rec.class = TrafficClass::Suspect;
        }
    }
}

/// The pre-caching `GfwMiddlebox::process`, over the same state.
pub(super) fn process(st: &mut GfwState, pkt: &Packet, ctx: &mut MbCtx<'_>) -> Verdict {

    // --- IP blacklist (cheapest check, applied to both directions) ---
    if st.config.ip_blocked(pkt.dst) || st.config.ip_blocked(pkt.src) {
        st.counters.ip_blocked += 1;
        trace_drop(ctx.now, "gfw-ip-block", pkt, 0);
        return Verdict::Drop("gfw-ip-block");
    }

    // --- DNS poisoning ---
    if let L4::Udp(u) = &pkt.l4 {
        if u.dst_port == sc_dns::DNS_PORT {
            if let Ok(query) = sc_dns::DnsMessage::decode(&u.payload) {
                if !query.is_response
                    && GfwConfig::domain_matches(&st.config.dns_blocklist, &query.qname)
                {
                    if let Some(forged) = forge_response(&u.payload, POISON_ADDR, 600) {
                        // Spoofed answer "from" the queried server.
                        let reply = Packet::udp(
                            SocketAddr::new(pkt.dst, u.dst_port),
                            SocketAddr::new(pkt.src, u.src_port),
                            forged,
                        );
                        ctx.inject(reply);
                    }
                    st.counters.dns_poisoned += 1;
                    trace_drop(ctx.now, "gfw-dns-poison", pkt, 0);
                    return Verdict::Drop("gfw-dns-poison");
                }
            }
        }
    }

    // --- Flow classification ---
    let now = ctx.now;
    let Some(rec) = st.flows.entry(pkt) else {
        // No ports (GRE/ESP): tunnel data channels, covered by the VPN
        // policy directly.
        let class = match pkt.l4.protocol() {
            sc_simnet::packet::proto::GRE => TrafficClass::Pptp,
            sc_simnet::packet::proto::ESP => TrafficClass::L2tp,
            _ => TrafficClass::Unknown,
        };
        let policy = st.config.policy_for(class);
        if policy.block {
            trace_drop(ctx.now, "gfw-block", pkt, 0);
            return Verdict::Drop("gfw-block");
        }
        if policy.drop_prob > 0.0 && ctx.rng.gen::<f64>() < policy.drop_prob {
            st.counters.throttled += 1;
            trace_drop(ctx.now, "gfw-throttle", pkt, 0);
            return Verdict::Drop("gfw-throttle");
        }
        return Verdict::Forward;
    };
    observe(rec, pkt, now, &st.config);

    // Upgrade suspects whose server was since confirmed.
    if rec.class == TrafficClass::Suspect && st.confirmed.contains(&rec.server) {
        rec.class = TrafficClass::ShadowsocksConfirmed;
    }

    // --- Adaptive censor: evidence accrual, fingerprint learning,
    // campaign scheduling. Strict no-op (no draws, no events) when
    // the knob is off, keeping pre-adaptive traces byte-identical.
    if st.config.adaptive.is_some() {
        let crate::config::GfwConfig { adaptive, learned_signatures, .. } =
            &mut st.config;
        let acfg = adaptive.as_ref().expect("checked above");
        let mut draw = || ctx.rng.gen::<f64>();
        crate::adaptive::process_flow(
            &mut st.adaptive,
            acfg,
            learned_signatures,
            &mut st.probe_queue,
            &mut st.replay_preambles,
            &mut st.counters,
            rec,
            true,
            now,
            &mut draw,
        );
    }

    // --- Keyword filtering on plaintext HTTP ---
    if rec.class == TrafficClass::Http && !st.config.http_keywords.is_empty() {
        let haystack = rec.early_bytes.to_ascii_lowercase();
        let hit = st
            .config
            .http_keywords
            .iter()
            .any(|k| {
                // (The shipped code compared against `k` verbatim, so a
                // keyword configured with an uppercase letter never
                // matched; that bug is fixed on both sides.)
                let k = k.to_ascii_lowercase();
                !k.is_empty() && haystack.windows(k.len()).any(|w| w == k.as_bytes())
            });
        if hit {
            if let Some((a, b)) = GfwMiddlebox::spoof_rst(pkt) {
                ctx.inject(a);
                ctx.inject(b);
            }
            st.counters.keyword_resets += 1;
            trace_drop(ctx.now, "gfw-keyword", pkt, 2);
            return Verdict::Drop("gfw-keyword");
        }
    }

    // --- embedded-TLS scan inside HTTP bodies ---
    // The GFW inspects HTTP payloads (the keyword filter above is one
    // face of that); the same scanner spots a TLS ClientHello carried
    // inside an upload body — i.e. a naive HTTP-covered tunnel whose
    // payload is NOT blinded — and resets it when the SNI is blocked.
    if rec.class == TrafficClass::Http && !st.config.sni_blocklist.is_empty() {
        let bytes = &rec.early_bytes;
        let mut embedded_hit = false;
        for off in 0..bytes.len().saturating_sub(42) {
            if bytes[off] == 22 && bytes[off + 1] == 3 && bytes[off + 2] == 3 {
                if let Some(sni) = sc_netproto::sniff_sni(&bytes[off..]) {
                    if GfwConfig::domain_matches(&st.config.sni_blocklist, &sni) {
                        embedded_hit = true;
                        break;
                    }
                }
            }
        }
        if embedded_hit {
            if let Some((a, b)) = GfwMiddlebox::spoof_rst(pkt) {
                ctx.inject(a);
                ctx.inject(b);
            }
            st.counters.embedded_sni_resets += 1;
            trace_drop(ctx.now, "gfw-embedded-sni", pkt, 2);
            return Verdict::Drop("gfw-embedded-sni");
        }
    }

    // --- SNI filtering on TLS ---
    if matches!(rec.class, TrafficClass::Tls | TrafficClass::Meek) {
        if let Some(sni) = sc_netproto::sniff_sni(&rec.early_bytes) {
            if GfwConfig::domain_matches(&st.config.sni_blocklist, &sni) {
                if let Some((a, b)) = GfwMiddlebox::spoof_rst(pkt) {
                    ctx.inject(a);
                    ctx.inject(b);
                }
                st.counters.sni_resets += 1;
                trace_drop(ctx.now, "gfw-sni", pkt, 2);
                return Verdict::Drop("gfw-sni");
            }
        }
    }

    // --- Active probing of suspects ---
    if rec.class == TrafficClass::Suspect
        && st.config.active_probing
        && !rec.probe_requested
        && !st.probed.contains(&rec.server)
    {
        rec.probe_requested = true;
        st.probed.insert(rec.server);
        st.probe_queue.push_back(rec.server);
        st.counters.probes_requested += 1;
        sc_obs::event(now.as_micros(), sc_obs::Level::Info, "gfw", "probe", "requested", |f| {
            f.field("server", rec.server.to_string());
        });
    }

    // --- Per-class policy (throttling) ---
    let policy = st.config.policy_for(rec.class);
    // Spatiotemporal inconsistency: an adaptive deployment enforces
    // learned signatures on some paths while others drift open for a
    // drift period at a time (Ensafi et al.). Static rules (IP, DNS,
    // SNI, keywords) are unaffected.
    if policy.interferes() && rec.class == TrafficClass::LearnedSignature {
        if let Some(acfg) = &st.config.adaptive {
            let mut draw = || ctx.rng.gen::<f64>();
            let (enforcing, rolled) = st.adaptive.region_enforcing(
                acfg,
                rec.client,
                now,
                &mut draw,
            );
            if let Some(region) = rolled {
                sc_obs::event(
                    now.as_micros(),
                    sc_obs::Level::Info,
                    "gfw",
                    "adaptive",
                    "region_drift",
                    |f| {
                        f.field("region", region as u64).field("enforcing", if enforcing { 1u64 } else { 0 });
                    },
                );
            }
            if !enforcing {
                return Verdict::Forward;
            }
        }
    }
    if policy.block {
        trace_drop(ctx.now, "gfw-block", pkt, 0);
        return Verdict::Drop("gfw-block");
    }
    if policy.rst {
        if let Some((a, b)) = GfwMiddlebox::spoof_rst(pkt) {
            ctx.inject(a);
            ctx.inject(b);
        }
        trace_drop(ctx.now, "gfw-rst", pkt, 2);
        return Verdict::Drop("gfw-rst");
    }
    if policy.drop_prob > 0.0 && ctx.rng.gen::<f64>() < policy.drop_prob {
        st.counters.throttled += 1;
        trace_drop(ctx.now, "gfw-throttle", pkt, 0);
        return Verdict::Drop("gfw-throttle");
    }
    Verdict::Forward
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand::rngs::SmallRng;
    use sc_simnet::addr::Addr;
    use sc_simnet::middlebox::Middlebox;
    use sc_simnet::packet::{TcpFlags, TcpSegmentBody};
    use sc_simnet::time::SimDuration;

    use super::super::{GfwHandle, new_gfw};
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use crate::classify::FlowKey;
    use crate::config::Policy;

    /// Flows 0–3 are one client talking HTTP, TLS, a high port and
    /// UDP/1194; flows 4–8 are distinct clients of one cover server (the
    /// fan-in the adaptive censor scores, spread over its regions).
    const FLOWS: u8 = 9;

    fn endpoints(flow: u8) -> (bool, SocketAddr, SocketAddr) {
        let client = |host: u8| SocketAddr::new(Addr::new(10, 0, 0, host), 40_000 + flow as u16);
        let server = |host: u8, port: u16| SocketAddr::new(Addr::new(99, 0, 0, host), port);
        match flow {
            0 => (false, client(1), server(1, 80)),
            1 => (false, client(1), server(1, 443)),
            2 => (false, client(1), server(1, 8388)),
            3 => (true, client(1), server(9, 1194)),
            _ => (false, client(flow), server(7, 8443)),
        }
    }

    fn packet(flow: u8, from_client: bool, payload: Vec<u8>) -> Packet {
        let (udp, client, server) = endpoints(flow);
        let (src, dst) = if from_client { (client, server) } else { (server, client) };
        let payload = Bytes::from(payload);
        if udp {
            return Packet::udp(src, dst, payload);
        }
        let body = TcpSegmentBody { seq: 7, ack: 9, flags: TcpFlags::ACK, window: 0, payload };
        Packet::tcp(src, dst, body)
    }

    fn noise(n: usize, salt: u8) -> Vec<u8> {
        let mut x = 0x9e37_79b9u32 ^ salt as u32;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    fn client_hello(sni: &str) -> Vec<u8> {
        sc_netproto::TlsClient::new(sni, 7).start_handshake().to_vec()
    }

    const COVER_HEAD: &[u8] = b"POST /api/sync HTTP/1.1\r\nHost: cdn.example\r\n\
        Content-Type: application/octet-stream\r\n\r\n";

    /// The payload menu: every shape a fingerprint or filter keys on, in
    /// sizes that straddle `CAPTURE_LIMIT` after two or three packets.
    fn payload(sel: u8, n: usize) -> Vec<u8> {
        match sel {
            0 => Vec::new(), // bare ACK
            1 => b"GET /search?q=weather HTTP/1.1\r\nHost: s\r\n\r\n".to_vec(),
            2 => b"GET /search?q=falun HTTP/1.1\r\nHost: s\r\n\r\n".to_vec(),
            3 => [COVER_HEAD, &noise(n, 3)].concat(),
            4 => [COVER_HEAD, &client_hello("scholar.google.com"), &noise(n, 4)].concat(),
            5 => client_hello("www.bing.com"),
            6 => client_hello("scholar.google.com"),
            7 => vec![0x17; 300], // a meek poll
            8 => noise(n, 8),
            9 => [&[0x38][..], &noise(n, 9)].concat(), // OpenVPN hard-reset opcode
            10 => vec![b'a'; n],
            _ => b"X-Note: Tiananmen-1989\r\n".to_vec(),
        }
    }
    const PAYLOADS: u8 = 12;

    const GAPS: [SimDuration; 5] = [
        SimDuration::from_micros(300),
        SimDuration::from_millis(100),
        SimDuration::from_millis(100),
        SimDuration::from_secs(3),
        SimDuration::from_secs(12),
    ];

    fn adaptive() -> AdaptiveConfig {
        AdaptiveConfig {
            learn_after_flows: 2,
            signature_ttl: SimDuration::from_secs(10),
            suspicion_threshold: 4,
            campaign_waves: 2,
            regions: 2,
            leniency: 0.5,
            drift_period: SimDuration::from_secs(5),
            ..AdaptiveConfig::default()
        }
    }

    /// Throttles steep enough that the policy draw matters in a short
    /// sequence.
    fn base_config() -> GfwConfig {
        let mut cfg = GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16));
        cfg.policies.meek = Policy::throttle(0.3);
        cfg.policies.shadowsocks = Policy::throttle(0.3);
        cfg.policies.openvpn = Policy::throttle(0.2);
        cfg.policies.learned_signature = Policy::throttle(0.4);
        cfg
    }

    /// Everything a later packet's treatment can depend on.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        counters: super::super::GfwCounters,
        flows: Vec<Option<(TrafficClass, usize, bool, bool)>>,
        probe_queue: Vec<SocketAddr>,
        probed: std::collections::BTreeSet<SocketAddr>,
        learned_signatures: Vec<Vec<u8>>,
        replay_preambles: std::collections::BTreeMap<SocketAddr, Vec<u8>>,
        adaptive: (u64, u64, u64, Option<SimTime>),
    }

    fn snapshot(st: &GfwState) -> Snapshot {
        Snapshot {
            counters: st.counters,
            flows: (0..FLOWS)
                .map(|f| {
                    let key = FlowKey::from_packet(&packet(f, true, Vec::new())).unwrap();
                    st.flows.get(&key).map(|r| {
                        (r.class, r.early_bytes.len(), r.probe_requested, r.adaptive_noted)
                    })
                })
                .collect(),
            probe_queue: st.probe_queue.iter().copied().collect(),
            probed: st.probed.clone(),
            learned_signatures: st.config.learned_signatures.clone(),
            replay_preambles: st.replay_preambles.clone(),
            adaptive: (
                st.adaptive.campaigns_launched,
                st.adaptive.signatures_learned,
                st.adaptive.signatures_expired,
                st.adaptive.first_detection,
            ),
        }
    }

    /// The engine and the oracle side by side: same rules, same seed,
    /// same packets, same mid-run events.
    struct Pair {
        engine: GfwHandle,
        oracle: GfwHandle,
        engine_rng: SmallRng,
        oracle_rng: SmallRng,
        now: SimTime,
    }

    impl Pair {
        fn new(config: GfwConfig, seed: u64) -> Pair {
            Pair {
                engine: new_gfw(config.clone()),
                oracle: new_gfw(config),
                engine_rng: SmallRng::seed_from_u64(seed),
                oracle_rng: SmallRng::seed_from_u64(seed),
                now: SimTime::ZERO,
            }
        }

        /// A rule push (or any other config mutation) on both sides.
        fn configure(&self, f: impl Fn(&mut GfwConfig)) {
            f(self.engine.borrow_mut().config_mut());
            f(self.oracle.borrow_mut().config_mut());
        }

        /// What the active prober does when a server fails its probe.
        fn confirm(&self, server: SocketAddr) {
            for side in [&self.engine, &self.oracle] {
                let mut st = side.borrow_mut();
                st.confirmed.insert(server);
                st.flows.confirm_server(server);
                st.counters.servers_confirmed += 1;
            }
        }

        /// One packet through both; they must agree on the verdict, the
        /// injected packets, every counter and flow, and the RNG state
        /// (hence the number of draws). Returns what they agreed on.
        fn send(&mut self, pkt: &Packet) -> (Verdict, Vec<Packet>) {
            let mut ctx = MbCtx { now: self.now, rng: &mut self.engine_rng, inject: Vec::new() };
            let verdict = GfwMiddlebox::new(self.engine.clone()).process(pkt, &mut ctx);
            let injected = ctx.inject;
            let mut ctx = MbCtx { now: self.now, rng: &mut self.oracle_rng, inject: Vec::new() };
            let expected = process(&mut self.oracle.borrow_mut(), pkt, &mut ctx);
            assert_eq!(verdict, expected, "verdict for {pkt:?}");
            assert_eq!(injected, ctx.inject, "injected packets for {pkt:?}");
            assert_eq!(
                snapshot(&self.engine.borrow()),
                snapshot(&self.oracle.borrow()),
                "state after {pkt:?}"
            );
            assert_eq!(self.engine_rng, self.oracle_rng, "RNG draws for {pkt:?}");
            (verdict, injected)
        }
    }

    proptest! {
        /// Arbitrary interleavings of flows, directions, payload shapes
        /// and mid-run rule changes: the engine is indistinguishable
        /// from the oracle after every packet.
        #[test]
        fn engine_matches_the_per_packet_oracle(
            seed: u64,
            start_adaptive: bool,
            start_bare: bool,
            steps in prop::collection::vec(
                (0u8..24, 0u8..FLOWS, 0u8..4, 0u8..PAYLOADS, 1usize..1400, 0usize..GAPS.len()),
                1..80,
            ),
        ) {
            let mut cfg = base_config();
            if start_adaptive {
                cfg.adaptive = Some(adaptive());
            }
            if start_bare {
                cfg.http_keywords.clear();
                cfg.sni_blocklist.clear();
            }
            let mut pair = Pair::new(cfg, seed);
            for (kind, flow, dir, sel, n, gap) in steps {
                pair.now += GAPS[gap];
                match kind {
                    // A keyword pushed (mixed case on purpose) or expired.
                    16 => pair.configure(|c| c.http_keywords = vec!["Falun".into()]),
                    17 => pair.configure(|c| c.http_keywords = vec!["tiananmen-1989".into()]),
                    18 => pair.configure(|c| c.http_keywords.clear()),
                    // The SNI list pushed or withdrawn.
                    19 => pair.configure(|c| {
                        if c.sni_blocklist.is_empty() {
                            c.sni_blocklist.push("google.com".into());
                        } else {
                            c.sni_blocklist.clear();
                        }
                    }),
                    // A learned signature pushed or expired by hand.
                    20 => pair.configure(|c| {
                        if c.learned_signatures.is_empty() {
                            c.learned_signatures.push(b"POST /api/sync".to_vec());
                        } else {
                            c.learned_signatures.clear();
                        }
                    }),
                    21 => pair.confirm(endpoints(flow).2),
                    22 => pair.configure(|c| c.adaptive = Some(adaptive())),
                    23 => pair.configure(|c| c.adaptive = None),
                    // A run of like packets at a steady gap: captures fill
                    // and timing windows settle (the meek detector's diet).
                    12..=15 => {
                        for _ in 0..2 + n % 11 {
                            pair.send(&packet(flow, dir != 0, payload(sel, n)));
                            pair.now += GAPS[gap];
                        }
                    }
                    // Mostly client→server, so captures grow.
                    _ => {
                        pair.send(&packet(flow, dir != 0, payload(sel, n)));
                    }
                }
            }
        }
    }

    fn reset_by(rule: &'static str, outcome: &(Verdict, Vec<Packet>)) -> bool {
        outcome.0 == Verdict::Drop(rule) && outcome.1.len() == 2
    }

    #[test]
    fn rule_pushed_after_the_capture_filled_resets_the_next_packet() {
        let mut pair = Pair::new(GfwConfig::default(), 1);
        assert_eq!(pair.send(&packet(0, true, payload(2, 0))).0, Verdict::Forward);
        for _ in 0..2 {
            assert_eq!(pair.send(&packet(0, true, payload(10, 1399))).0, Verdict::Forward);
        }
        let key = FlowKey::from_packet(&packet(0, true, Vec::new())).unwrap();
        assert_eq!(pair.engine.borrow().flows.get(&key).unwrap().early_bytes.len(), CAPTURE_LIMIT);
        // More traffic, both ways, leaves the full capture alone.
        assert_eq!(pair.send(&packet(0, true, payload(10, 500))).0, Verdict::Forward);
        assert_eq!(pair.send(&packet(0, false, payload(10, 1399))).0, Verdict::Forward);

        pair.configure(|c| c.http_keywords.push("falun".into()));
        // Even a bare ACK from the server is reset now, and keeps being.
        assert!(reset_by("gfw-keyword", &pair.send(&packet(0, false, Vec::new()))));
        assert!(reset_by("gfw-keyword", &pair.send(&packet(0, true, payload(10, 100)))));
        assert_eq!(pair.engine.borrow().counters.keyword_resets, 2);

        // The rule expires: the flow is let through again.
        pair.configure(|c| c.http_keywords.clear());
        assert_eq!(pair.send(&packet(0, false, Vec::new())).0, Verdict::Forward);
    }

    #[test]
    fn opcode_from_the_server_overrides_a_cached_sni_verdict() {
        let mut pair = Pair::new(base_config(), 5);
        let hello = packet(3, true, client_hello("scholar.google.com"));
        assert!(matches!(pair.send(&hello).0, Verdict::Drop("gfw-sni")));
        // The capture does not change, the class does: UDP/1194 with an
        // OpenVPN opcode is a port fingerprint, read off every packet.
        let outcome = pair.send(&packet(3, false, payload(9, 20)));
        assert_ne!(outcome.0, Verdict::Drop("gfw-sni"));
        let key = FlowKey::from_packet(&hello).unwrap();
        assert_eq!(pair.engine.borrow().flows.get(&key).unwrap().class, TrafficClass::OpenVpn);
    }

    #[test]
    fn meek_pattern_forming_after_the_capture_filled_is_still_caught() {
        let mut pair = Pair::new(base_config(), 6);
        pair.send(&packet(1, true, client_hello("www.bing.com")));
        // A bulk upload fills the capture and the timing window.
        for _ in 0..14 {
            pair.now += SimDuration::from_micros(300);
            pair.send(&packet(1, true, payload(10, 1399)));
        }
        let key = FlowKey::from_packet(&packet(1, true, Vec::new())).unwrap();
        let class = |pair: &Pair| pair.engine.borrow().flows.get(&key).unwrap().class;
        assert_eq!(class(&pair), TrafficClass::Tls);
        // Then the flow settles into small polls 100 ms apart.
        for _ in 0..14 {
            pair.now += SimDuration::from_millis(100);
            pair.send(&packet(1, true, payload(7, 0)));
            pair.send(&packet(1, false, payload(10, 900)));
        }
        assert_eq!(class(&pair), TrafficClass::Meek);
    }

    #[test]
    fn keyword_case_does_not_matter_on_either_side() {
        let cfg = GfwConfig { http_keywords: vec!["Falun".into()], ..GfwConfig::default() };
        let mut pair = Pair::new(cfg, 1);
        assert!(reset_by("gfw-keyword", &pair.send(&packet(0, true, payload(2, 0)))));
        let shouted = b"GET /search?q=FALUN HTTP/1.1\r\nHost: s\r\n\r\n".to_vec();
        assert!(reset_by("gfw-keyword", &pair.send(&packet(4, true, shouted))));
        assert_eq!(pair.send(&packet(5, true, payload(1, 0))).0, Verdict::Forward);
    }

    #[test]
    fn learned_signature_pushed_mid_flow_reclassifies_on_the_next_packet() {
        let mut pair = Pair::new(base_config(), 3);
        let class = |pair: &Pair| {
            let key = FlowKey::from_packet(&packet(4, true, Vec::new())).unwrap();
            pair.engine.borrow().flows.get(&key).unwrap().class
        };
        // Too short and too shapeless for any fingerprint to settle.
        pair.send(&packet(4, true, [&[0u8; 8][..], b"POST /api/sync"].concat()));
        assert_eq!(class(&pair), TrafficClass::Unknown);
        // The flow is re-read under the new rules by its next packet,
        // whatever that packet carries.
        pair.configure(|c| c.learned_signatures.push(b"POST /api/sync".to_vec()));
        pair.send(&packet(4, false, Vec::new()));
        assert_eq!(class(&pair), TrafficClass::LearnedSignature);
    }
}
