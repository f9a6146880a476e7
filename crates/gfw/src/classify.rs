//! Flow classification: the DPI half of the GFW.
//!
//! A flow record accumulates the first payload bytes and per-packet timing
//! of each transit TCP/UDP flow; classifiers run protocol fingerprints over
//! that evidence. Classification is sticky — once a flow is identified it
//! keeps its class (real DPI boxes cache verdicts in a flow table).
//!
//! So is inspection: every payload scanner is a pure function of the
//! capture, the timing window and the rule lists, so each runs only on a
//! packet that changed one of those, and the record remembers what the
//! last scan concluded (`Inspection`). Only the port/opcode
//! fingerprints, which read the packet at hand, run per packet.

use sc_crypto::entropy::PayloadStats;
use sc_netproto::scan;
use sc_netproto::tls::sniff_sni;
use sc_simnet::addr::SocketAddr;
use sc_simnet::hash::FixedMap;
use sc_simnet::packet::{L4, Packet, proto};
use sc_simnet::time::SimTime;

use crate::config::GfwConfig;

/// Well-known ports the fingerprints key on.
pub mod ports {
    /// PPTP control channel.
    pub const PPTP: u16 = 1723;
    /// L2TP.
    pub const L2TP: u16 = 1701;
    /// OpenVPN.
    pub const OPENVPN: u16 = 1194;
}

/// What the GFW believes a flow is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Not yet classified.
    Unknown,
    /// Plaintext HTTP.
    Http,
    /// TLS with an innocuous SNI.
    Tls,
    /// PPTP (control or GRE data).
    Pptp,
    /// L2TP/IPsec.
    L2tp,
    /// OpenVPN framing.
    OpenVpn,
    /// Tor's meek transport (behavioral fingerprint).
    Meek,
    /// High-entropy headerless stream, awaiting probe confirmation.
    Suspect,
    /// Probe-confirmed Shadowsocks-style proxy.
    ShadowsocksConfirmed,
    /// Early bytes matched a learned signature (rule update).
    LearnedSignature,
}

/// A bidirectional flow key (endpoints sorted so both directions map to
/// the same record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Lexicographically smaller endpoint.
    pub a: SocketAddr,
    /// Lexicographically larger endpoint.
    pub b: SocketAddr,
    /// IP protocol number.
    pub protocol: u8,
}

impl FlowKey {
    /// Builds the normalized key for a packet, if it has ports.
    pub fn from_packet(pkt: &Packet) -> Option<FlowKey> {
        let src = pkt.src_socket()?;
        let dst = pkt.dst_socket()?;
        let (a, b) = if src <= dst { (src, dst) } else { (dst, src) };
        Some(FlowKey { a, b, protocol: pkt.l4.protocol() })
    }
}

/// Maximum bytes of early payload retained per flow for fingerprinting.
pub const CAPTURE_LIMIT: usize = 2048;
/// Packets of timing history kept for the behavioral (meek) detector.
pub(crate) const TIMING_WINDOW: usize = 12;

/// What the payload filters (keyword, embedded-TLS SNI, SNI) concluded
/// about a flow's capture under the rules in force at the last scan.
/// The engine enforces it on every packet of the flow until a scan
/// replaces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inspection {
    /// Nothing to act on.
    Clean,
    /// The capture opens with a ClientHello whose SNI is allowed (the
    /// meek detector keeps watching such flows).
    TlsHello,
    /// Plaintext HTTP containing a blocked keyword.
    Keyword,
    /// Plaintext HTTP carrying a ClientHello with a blocked SNI.
    EmbeddedSni,
    /// A ClientHello with a blocked SNI.
    BlockedSni,
}

/// Evidence accumulated about one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Current classification.
    pub class: TrafficClass,
    /// First payload bytes in the client→server direction.
    pub early_bytes: Vec<u8>,
    /// The "server" endpoint (destination of the first packet seen).
    pub server: SocketAddr,
    /// The "client" endpoint.
    pub client: SocketAddr,
    /// Arrival times of recent client→server data packets.
    pub timings: Vec<SimTime>,
    /// Sizes of recent client→server data packets.
    pub sizes: Vec<usize>,
    /// Whether a probe has been requested for this flow.
    pub probe_requested: bool,
    /// Whether the adaptive censor has already counted this flow's
    /// evidence (set on the first captured payload; never read when the
    /// adaptive subsystem is off).
    pub adaptive_noted: bool,
    /// The payload filters' conclusion about `early_bytes`, current as
    /// of `rules_epoch` (see [`observe`](Self::observe)).
    pub(crate) inspection: Inspection,
    /// The rules epoch `inspection` and `class` were last derived under.
    rules_epoch: u32,
}

impl FlowRecord {
    fn new(client: SocketAddr, server: SocketAddr) -> Self {
        FlowRecord {
            class: TrafficClass::Unknown,
            early_bytes: Vec::new(),
            server,
            client,
            timings: Vec::new(),
            sizes: Vec::new(),
            probe_requested: false,
            adaptive_noted: false,
            // Nothing captured yet, so nothing to be stale about.
            inspection: Inspection::Clean,
            rules_epoch: 0,
        }
    }

    /// Feeds one packet's evidence. Fingerprints (while unclassified) and
    /// payload filters run only if this packet changed what they read:
    /// the capture grew, the timing window moved, or `rules_epoch`
    /// differs from the epoch of the last scan. Returns whether the
    /// capture or the rules changed.
    pub(crate) fn observe(
        &mut self,
        pkt: &Packet,
        now: SimTime,
        config: &GfwConfig,
        rules_epoch: u32,
    ) -> bool {
        let payload = pkt.l4.payload();
        let from_client = pkt
            .src_socket()
            .is_some_and(|s| s == self.client);
        let captured = self.early_bytes.len();
        let same_rules = self.rules_epoch == rules_epoch;
        let mut changed = !same_rules;
        self.rules_epoch = rules_epoch;
        let mut window_moved = false;
        if from_client && !payload.is_empty() {
            if self.early_bytes.len() < CAPTURE_LIMIT {
                let take = (CAPTURE_LIMIT - self.early_bytes.len()).min(payload.len());
                self.early_bytes.extend_from_slice(&payload[..take]);
                changed = true;
            }
            if self.timings.len() < TIMING_WINDOW {
                self.timings.push(now);
                self.sizes.push(payload.len());
            } else {
                self.timings.rotate_left(1);
                self.sizes.rotate_left(1);
                *self.timings.last_mut().expect("window nonempty") = now;
                *self.sizes.last_mut().expect("window nonempty") = payload.len();
            }
            window_moved = true;
        }
        let class_before = self.class;
        if matches!(self.class, TrafficClass::Unknown | TrafficClass::Tls | TrafficClass::Suspect)
            && !self.port_fingerprint(pkt)
            && !self.early_bytes.is_empty()
        {
            if changed {
                self.payload_fingerprint(config);
            } else if window_moved
                && self.class == TrafficClass::Tls
                && matches!(self.inspection, Inspection::TlsHello | Inspection::BlockedSni)
                && self.is_meek_poll_pattern()
            {
                // Same capture, same rules: the fingerprints would pick
                // the ClientHello branch again; only the timing moved.
                self.class = TrafficClass::Meek;
            }
        }
        if changed || self.class != class_before {
            // Under the last scan's rules and class only the capture can
            // have grown, so the filters look at what the packet added.
            let grown_from = (same_rules && self.class == class_before).then_some(captured);
            self.inspection = self.inspect(config, grown_from);
        }
        changed
    }

    /// Port/protocol fingerprints (cheapest; they read the packet at
    /// hand, so they run per packet). Returns whether the packet settled
    /// the question — matched, or has no payload fingerprints to try.
    fn port_fingerprint(&mut self, pkt: &Packet) -> bool {
        match &pkt.l4 {
            L4::Raw { protocol, .. } => {
                match *protocol {
                    proto::GRE => self.class = TrafficClass::Pptp,
                    proto::ESP => self.class = TrafficClass::L2tp,
                    _ => {}
                }
                return true;
            }
            L4::Udp(u) => {
                if u.dst_port == ports::L2TP || u.src_port == ports::L2TP {
                    self.class = TrafficClass::L2tp;
                    return true;
                }
                if (u.dst_port == ports::OPENVPN || u.src_port == ports::OPENVPN)
                    && is_openvpn_frame(&u.payload)
                {
                    self.class = TrafficClass::OpenVpn;
                    return true;
                }
            }
            L4::Tcp(t) => {
                if t.dst_port == ports::PPTP || t.src_port == ports::PPTP {
                    self.class = TrafficClass::Pptp;
                    return true;
                }
            }
        }
        false
    }

    /// Payload fingerprints over the (non-empty) capture.
    fn payload_fingerprint(&mut self, config: &GfwConfig) {
        // Learned byte signatures (GFW rule updates).
        for sig in &config.learned_signatures {
            if !sig.is_empty() && scan::find(&self.early_bytes, sig).is_some() {
                self.class = TrafficClass::LearnedSignature;
                return;
            }
        }

        // TLS: SNI visible in the ClientHello.
        if sniff_sni(&self.early_bytes).is_some() {
            // Meek rides inside TLS; the behavioral check below may still
            // upgrade the class, so mark Tls rather than returning final.
            self.class = TrafficClass::Tls;
            if self.is_meek_poll_pattern() {
                self.class = TrafficClass::Meek;
            }
            return;
        }

        // Plaintext HTTP.
        if self.early_bytes.starts_with(b"GET ")
            || self.early_bytes.starts_with(b"POST ")
            || self.early_bytes.starts_with(b"CONNECT ")
            || self.early_bytes.starts_with(b"HEAD ")
        {
            self.class = TrafficClass::Http;
            return;
        }

        // "Fully encrypted traffic" heuristic: high entropy, few printable
        // bytes, no recognizable header — the fingerprint that catches
        // Shadowsocks (and would catch naive custom tunnels).
        if self.early_bytes.len() >= 64 {
            let stats = PayloadStats::analyze(&self.early_bytes);
            if stats.looks_like_random() {
                self.class = TrafficClass::Suspect;
            }
        }
    }

    /// The payload filters: keyword and embedded-TLS scans over
    /// plaintext HTTP, the SNI filter over TLS. `grown_from` is the
    /// capture's length at the last scan when that scan ran under the
    /// same rules and class, so that only the capture has grown since.
    fn inspect(&self, config: &GfwConfig, grown_from: Option<usize>) -> Inspection {
        let bytes = &self.early_bytes;
        match self.class {
            TrafficClass::Http => {
                // A capture only grows, so a keyword hit stays a hit, and
                // after a clean scan only a keyword that ends in the new
                // bytes can be there.
                let seen = match (grown_from, self.inspection) {
                    (Some(_), Inspection::Keyword) => return Inspection::Keyword,
                    (Some(seen), Inspection::Clean) => seen,
                    _ => 0,
                };
                let keyword_hit = config.http_keywords.iter().any(|k| {
                    let from = seen.saturating_sub(k.len().saturating_sub(1));
                    !k.is_empty() && scan::find_ignore_ascii_case(&bytes[from..], k.as_bytes()).is_some()
                });
                if keyword_hit {
                    return Inspection::Keyword;
                }
                // The GFW inspects HTTP payloads (the keyword filter is
                // one face of that); the same scanner spots a TLS
                // ClientHello carried inside an upload body — i.e. a naive
                // HTTP-covered tunnel whose payload is NOT blinded. A
                // candidate is a handshake record header (22, version 3.3)
                // more than 42 bytes from the end of the capture.
                if !config.sni_blocklist.is_empty() && bytes.len() > 42 {
                    let starts = &bytes[..bytes.len() - 40];
                    let mut from = 0;
                    while let Some(at) = scan::find(&starts[from..], &[22, 3, 3]).map(|i| from + i) {
                        if let Some(sni) = sniff_sni(&bytes[at..]) {
                            if GfwConfig::domain_matches(&config.sni_blocklist, &sni) {
                                return Inspection::EmbeddedSni;
                            }
                        }
                        from = at + 1;
                    }
                }
                Inspection::Clean
            }
            TrafficClass::Tls | TrafficClass::Meek => match sniff_sni(bytes) {
                Some(sni) if GfwConfig::domain_matches(&config.sni_blocklist, &sni) => {
                    Inspection::BlockedSni
                }
                Some(_) => Inspection::TlsHello,
                None => Inspection::Clean,
            },
            _ => Inspection::Clean,
        }
    }

    /// Behavioral meek detector: a TLS flow whose client sends a sustained
    /// run of small, regularly spaced requests (the transport's HTTP
    /// long-poll loop) — unlike bursty human browsing.
    pub(crate) fn is_meek_poll_pattern(&self) -> bool {
        if self.timings.len() < 8 {
            return false;
        }
        let gaps: Vec<u64> = self
            .timings
            .iter()
            .zip(&self.timings[1..])
            .map(|(&earlier, &later)| (later - earlier).as_micros())
            .collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        if mean < 20_000.0 {
            return false; // sub-20 ms gaps: bulk transfer, not polling
        }
        let var = gaps
            .iter()
            .map(|&g| (g as f64 - mean) * (g as f64 - mean))
            .sum::<f64>()
            / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        let small = self.sizes.iter().filter(|&&s| s < 600).count();
        cv < 0.35 && small * 10 >= self.sizes.len() * 8
    }
}

/// The flow table: bounded map from flow key to record.
#[derive(Debug, Default)]
pub struct FlowTable {
    flows: FixedMap<FlowKey, FlowRecord>,
}

/// Cap on tracked flows; oldest-by-insertion beyond this are evicted
/// wholesale (real DPI hardware has the same pressure).
pub const FLOW_TABLE_CAP: usize = 100_000;

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Observes a packet, creating the flow record if new, and returns a
    /// mutable reference to the record. Scan results are cached per flow,
    /// so `config`'s rule lists must not change between calls on one
    /// table; the engine, whose rules do change, versions them (see
    /// [`GfwState::config_mut`](crate::engine::GfwState::config_mut)).
    pub fn observe(
        &mut self,
        pkt: &Packet,
        now: SimTime,
        config: &GfwConfig,
    ) -> Option<&mut FlowRecord> {
        self.observe_at(pkt, now, config, 0).map(|(rec, _)| rec)
    }

    /// [`observe`](Self::observe) under a rules epoch: a record last
    /// scanned under another epoch is re-scanned. Also returns whether
    /// this packet changed the record's capture or its rules.
    pub(crate) fn observe_at(
        &mut self,
        pkt: &Packet,
        now: SimTime,
        config: &GfwConfig,
        rules_epoch: u32,
    ) -> Option<(&mut FlowRecord, bool)> {
        let rec = self.entry(pkt)?;
        let changed = rec.observe(pkt, now, config, rules_epoch);
        Some((rec, changed))
    }

    /// The record of the packet's flow, created (evicting under
    /// pressure) if new. `None` for packets without ports.
    pub(crate) fn entry(&mut self, pkt: &Packet) -> Option<&mut FlowRecord> {
        let key = FlowKey::from_packet(pkt)?;
        if self.flows.len() >= FLOW_TABLE_CAP && !self.flows.contains_key(&key) {
            self.flows.clear(); // blunt eviction under pressure
        }
        Some(self.flows.entry(key).or_insert_with(|| {
            FlowRecord::new(
                pkt.src_socket().expect("keyed flows have ports"),
                pkt.dst_socket().expect("keyed flows have ports"),
            )
        }))
    }

    /// Looks up a flow by key.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        self.flows.get(key)
    }

    /// Marks every flow whose server endpoint matches as confirmed proxy.
    pub fn confirm_server(&mut self, server: SocketAddr) {
        for rec in self.flows.values_mut() {
            if rec.server == server && rec.class == TrafficClass::Suspect {
                rec.class = TrafficClass::ShadowsocksConfirmed;
            }
        }
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

/// OpenVPN data-channel framing check: our implementation (like the real
/// one) starts each datagram with an opcode/key-id byte from a small set.
pub(crate) fn is_openvpn_frame(payload: &[u8]) -> bool {
    match payload.first() {
        // P_CONTROL_HARD_RESET_CLIENT_V2 (0x38), server (0x40), P_DATA_V1
        // (0x30), P_ACK_V1 (0x28) — shifted opcodes as on the real wire.
        Some(0x38) | Some(0x40) | Some(0x30) | Some(0x28) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sc_simnet::addr::Addr;
    use sc_simnet::packet::TcpSegmentBody;

    fn tcp_packet(src_port: u16, dst_port: u16, payload: &[u8]) -> Packet {
        Packet::tcp(
            SocketAddr::new(Addr::new(10, 0, 0, 1), src_port),
            SocketAddr::new(Addr::new(99, 0, 0, 1), dst_port),
            TcpSegmentBody {
                seq: 0,
                ack: 0,
                flags: sc_simnet::packet::TcpFlags::ACK,
                window: 0,
                payload: Bytes::copy_from_slice(payload),
            },
        )
    }

    /// The flow table is the GFW's biggest allocation. The cached
    /// inspection state fits what used to be padding, and the write-only
    /// packet counter went: 96 bytes, down from 104.
    #[test]
    fn flow_record_did_not_grow() {
        assert!(std::mem::size_of::<FlowRecord>() <= 96, "{}", std::mem::size_of::<FlowRecord>());
    }

    #[test]
    fn flow_key_is_direction_independent() {
        let fwd = tcp_packet(5000, 443, b"x");
        let mut rev = fwd.clone();
        std::mem::swap(&mut rev.src, &mut rev.dst);
        if let L4::Tcp(t) = &mut rev.l4 {
            std::mem::swap(&mut t.src_port, &mut t.dst_port);
        }
        assert_eq!(FlowKey::from_packet(&fwd), FlowKey::from_packet(&rev));
    }

    #[test]
    fn classifies_http() {
        let cfg = GfwConfig::default();
        let mut table = FlowTable::new();
        let pkt = tcp_packet(5000, 80, b"GET /scholar HTTP/1.1\r\nHost: x\r\n\r\n");
        let rec = table.observe(&pkt, SimTime::ZERO, &cfg).unwrap();
        assert_eq!(rec.class, TrafficClass::Http);
    }

    fn keywords(words: &[&str]) -> GfwConfig {
        GfwConfig { http_keywords: words.iter().map(|w| w.to_string()).collect(), ..GfwConfig::default() }
    }

    #[test]
    fn a_keyword_split_across_two_packets_is_found() {
        let cfg = keywords(&["Tiananmen"]);
        let mut table = FlowTable::new();
        let first = table.observe(&tcp_packet(5000, 80, b"GET /search?q=tian"), SimTime::ZERO, &cfg).unwrap();
        assert_eq!((first.class, first.inspection), (TrafficClass::Http, Inspection::Clean));
        let rec = table.observe(&tcp_packet(5000, 80, b"ANMEN HTTP/1.1\r\n\r\n"), SimTime::ZERO, &cfg).unwrap();
        assert_eq!(rec.inspection, Inspection::Keyword);
    }

    #[test]
    fn a_rules_epoch_bump_rescans_the_whole_capture() {
        let mut table = FlowTable::new();
        let head = tcp_packet(5000, 80, b"GET /search?q=falun HTTP/1.1\r\nHost: s\r\n");
        let more = tcp_packet(5000, 80, b"Accept: */*\r\n");
        let rec = table.observe_at(&head, SimTime::ZERO, &keywords(&[]), 0).unwrap().0;
        assert_eq!(rec.inspection, Inspection::Clean);
        // The keyword is pushed. Under the old epoch only what a packet
        // adds is looked at (which is why a rule push must bump it)…
        let pushed = keywords(&["falun"]);
        let rec = table.observe_at(&more, SimTime::ZERO, &pushed, 0).unwrap().0;
        assert_eq!(rec.inspection, Inspection::Clean);
        // …and under a new one the whole capture is, from its first byte.
        let rec = table.observe_at(&more, SimTime::ZERO, &pushed, 1).unwrap().0;
        assert_eq!(rec.inspection, Inspection::Keyword);
    }

    #[test]
    fn a_keyword_inspection_survives_growth() {
        let cfg = keywords(&["falun"]);
        let mut table = FlowTable::new();
        let rec = table.observe(&tcp_packet(5000, 80, b"GET /q=falun HTTP/1.1\r\n"), SimTime::ZERO, &cfg).unwrap();
        assert_eq!(rec.inspection, Inspection::Keyword);
        for _ in 0..4 {
            let rec = table.observe(&tcp_packet(5000, 80, &[b'x'; 600]), SimTime::ZERO, &cfg).unwrap();
            assert_eq!(rec.inspection, Inspection::Keyword);
        }
        let key = FlowKey::from_packet(&tcp_packet(5000, 80, b"")).unwrap();
        assert_eq!(table.get(&key).unwrap().early_bytes.len(), CAPTURE_LIMIT);
    }

    #[test]
    fn classifies_pptp_and_gre() {
        let cfg = GfwConfig::default();
        let mut table = FlowTable::new();
        let rec_class = {
            let pkt = tcp_packet(5000, ports::PPTP, b"\x00\x9c\x00\x01");
            table.observe(&pkt, SimTime::ZERO, &cfg).unwrap().class
        };
        assert_eq!(rec_class, TrafficClass::Pptp);
        // GRE has no ports, so no flow key — handled at engine level.
        let gre = Packet::raw(Addr::new(10, 0, 0, 1), Addr::new(99, 0, 0, 1), proto::GRE, Bytes::new());
        assert!(FlowKey::from_packet(&gre).is_none());
    }

    #[test]
    fn classifies_tls_by_client_hello() {
        let cfg = GfwConfig::default();
        let mut table = FlowTable::new();
        let mut client = sc_netproto::tls::TlsClient::new("www.bing.com", 7);
        let hello = client.start_handshake();
        let pkt = tcp_packet(5000, 443, &hello);
        let rec = table.observe(&pkt, SimTime::ZERO, &cfg).unwrap();
        assert_eq!(rec.class, TrafficClass::Tls);
    }

    #[test]
    fn high_entropy_headerless_stream_is_suspect() {
        let cfg = GfwConfig::default();
        let mut table = FlowTable::new();
        // Simulate Shadowsocks first bytes: IV + AES-CFB ciphertext.
        use sc_crypto::aes::{Aes, KeySize};
        use sc_crypto::modes::Cfb;
        let mut cfb = Cfb::new(Aes::new(KeySize::Aes256, &[9; 32]).unwrap(), [1; 16]);
        let mut data = vec![0u8; 600];
        cfb.encrypt(&mut data);
        let pkt = tcp_packet(5000, 8388, &data);
        let rec = table.observe(&pkt, SimTime::ZERO, &cfg).unwrap();
        assert_eq!(rec.class, TrafficClass::Suspect);
    }

    #[test]
    fn http_like_cover_traffic_is_not_suspect() {
        let cfg = GfwConfig::default();
        let mut table = FlowTable::new();
        // ScholarCloud-style cover: printable HTTP header + binary body.
        let mut payload = b"POST /api/sync HTTP/1.1\r\nHost: cdn.example\r\nContent-Type: application/octet-stream\r\nContent-Length: 400\r\n\r\n".to_vec();
        payload.extend(std::iter::repeat(0xA7u8).take(100));
        let pkt = tcp_packet(5000, 8443, &payload);
        let rec = table.observe(&pkt, SimTime::ZERO, &cfg).unwrap();
        assert_eq!(rec.class, TrafficClass::Http);
    }

    #[test]
    fn learned_signature_overrides() {
        let mut cfg = GfwConfig::default();
        cfg.learned_signatures.push(b"POST /api/sync".to_vec());
        let mut table = FlowTable::new();
        let pkt = tcp_packet(5000, 8443, b"POST /api/sync HTTP/1.1\r\n\r\n");
        let rec = table.observe(&pkt, SimTime::ZERO, &cfg).unwrap();
        assert_eq!(rec.class, TrafficClass::LearnedSignature);
    }

    #[test]
    fn meek_poll_pattern_detected() {
        let cfg = GfwConfig::default();
        let mut table = FlowTable::new();
        let mut client = sc_netproto::tls::TlsClient::new("ajax.aliyun-front.example", 7);
        let hello = client.start_handshake();
        // ClientHello then 10 small uniform polls 100 ms apart.
        let mut class = TrafficClass::Unknown;
        let pkt = tcp_packet(5000, 443, &hello);
        table.observe(&pkt, SimTime::ZERO, &cfg);
        for i in 1..=10u64 {
            let poll = tcp_packet(5000, 443, &vec![0x17u8; 300]);
            let t = SimTime::from_micros(i * 100_000);
            class = table.observe(&poll, t, &cfg).unwrap().class;
        }
        assert_eq!(class, TrafficClass::Meek);
    }

    #[test]
    fn bulk_tls_is_not_meek() {
        let cfg = GfwConfig::default();
        let mut table = FlowTable::new();
        let mut client = sc_netproto::tls::TlsClient::new("cdn.example", 7);
        let hello = client.start_handshake();
        table.observe(&tcp_packet(5000, 443, &hello), SimTime::ZERO, &cfg);
        // Large segments, sub-millisecond apart: a download, not polling.
        let mut class = TrafficClass::Unknown;
        for i in 1..=10u64 {
            let seg = tcp_packet(5000, 443, &vec![0x17u8; 1400]);
            class = table
                .observe(&seg, SimTime::from_micros(i * 500), &cfg)
                .unwrap()
                .class;
        }
        assert_eq!(class, TrafficClass::Tls);
    }

    #[test]
    fn confirm_server_upgrades_suspects() {
        let cfg = GfwConfig::default();
        let mut table = FlowTable::new();
        let mut data = vec![0u8; 600];
        use sc_crypto::aes::{Aes, KeySize};
        use sc_crypto::modes::Ctr;
        Ctr::new(Aes::new(KeySize::Aes256, &[3; 32]).unwrap(), [0; 16]).apply(&mut data);
        let pkt = tcp_packet(5000, 8388, &data);
        table.observe(&pkt, SimTime::ZERO, &cfg);
        let server = SocketAddr::new(Addr::new(99, 0, 0, 1), 8388);
        table.confirm_server(server);
        let key = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(table.get(&key).unwrap().class, TrafficClass::ShadowsocksConfirmed);
    }
}
