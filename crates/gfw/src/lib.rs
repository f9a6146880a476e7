//! # sc-gfw
//!
//! A simulated Great Firewall: the censorship substrate the paper's
//! measurements run against. It reproduces the GFW's documented techniques
//! (§1, §5 of the paper):
//!
//! * **IP blocking** — blacklisted prefixes dropped at the border.
//! * **DNS poisoning** — forged answers injected for blocked names
//!   ([`sc_dns::forge_response`]).
//! * **Keyword filtering** — plaintext HTTP containing blocked keywords is
//!   reset (spoofed RSTs to both ends).
//! * **Deep packet inspection** — protocol fingerprints (TLS SNI, OpenVPN
//!   opcodes, PPTP/GRE, L2TP/ESP), a "fully encrypted traffic" entropy
//!   heuristic that catches Shadowsocks, a behavioral long-poll detector
//!   for Tor's meek transport, and updatable byte signatures.
//! * **Active probing** — suspects are probed with garbage; servers that
//!   go silent are confirmed as proxies ([`prober::ActiveProber`]).
//! * **Throttling policies** — per-class packet drop probabilities,
//!   calibrated to the paper's Figure 5c loss rates.
//! * **Reactive censorship** ([`adaptive`]) — per-destination suspicion
//!   scoring, scheme-fingerprint learning with rule churn, probing
//!   campaigns with replayed preambles, confirm-time IP blacklisting,
//!   and per-region/per-time enforcement drift. Off by default: every
//!   pre-adaptive trace stays byte-identical.
//!
//! The data plane is [`engine::GfwMiddlebox`] (attach to the border
//! router); the control plane is [`prober::ActiveProber`] (install as an
//! app on the same node); both share a [`engine::GfwHandle`].

#![warn(missing_docs)]

pub mod adaptive;
pub mod classify;
pub mod config;
pub mod engine;
pub mod faults;
pub mod prober;

pub use adaptive::{AdaptiveConfig, AdaptiveState, FingerprintOutcome};
pub use classify::{FlowKey, FlowRecord, FlowTable, TrafficClass};
pub use config::{ClassPolicies, GfwConfig, Policy};
pub use engine::{GfwCounters, GfwHandle, GfwMiddlebox, GfwState, new_gfw};
pub use faults::{blacklist_ip, unblacklist_ip};
pub use prober::{ActiveProber, ProbeVerdict};

#[cfg(test)]
mod tests {
    use super::*;
    use sc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const CLIENT: Addr = Addr::new(10, 0, 0, 1);
    const RESOLVER_UP: Addr = Addr::new(99, 0, 0, 53);
    const SERVER: Addr = Addr::new(99, 0, 0, 1);
    const GOOGLE: Addr = Addr::new(99, 2, 0, 1);

    /// client — border(GFW) — {server, google, upstream-dns}
    fn topology(config: GfwConfig) -> (Sim, NodeId, NodeId, GfwHandle) {
        let mut sim = Sim::new(77);
        let client = sim.add_node("client", CLIENT);
        let border = sim.add_node("border", Addr::new(172, 16, 0, 1));
        let server = sim.add_node("server", SERVER);
        let google = sim.add_node("google", GOOGLE);
        let dns = sim.add_node("dns-up", RESOLVER_UP);
        let d10 = LinkConfig::with_delay(SimDuration::from_millis(10));
        let d60 = LinkConfig::with_delay(SimDuration::from_millis(60));
        sim.add_link(client, border, d10);
        sim.add_link(border, server, d60);
        sim.add_link(border, google, d60);
        sim.add_link(border, dns, d60);
        sim.compute_routes();
        let gfw = new_gfw(config);
        sim.set_middlebox(border, Box::new(GfwMiddlebox::new(gfw.clone())));
        sim.install_app(border, Box::new(ActiveProber::new(gfw.clone())));
        (sim, client, server, gfw)
    }

    /// Generic one-connection client driving raw bytes.
    struct RawClient {
        server: SocketAddr,
        to_send: Vec<Vec<u8>>,
        outcome: Rc<RefCell<RawOutcome>>,
        handle: Option<TcpHandle>,
        sent: usize,
    }

    #[derive(Default)]
    struct RawOutcome {
        connected: bool,
        reset: bool,
        connect_failed: bool,
        received: Vec<u8>,
    }

    impl App for RawClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.handle = Some(ctx.tcp_connect(self.server));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            let Some(h) = self.handle else { return };
            match ev {
                AppEvent::Tcp(eh, TcpEvent::Connected) if eh == h => {
                    self.outcome.borrow_mut().connected = true;
                    if let Some(first) = self.to_send.first().cloned() {
                        ctx.tcp_send_bytes(h, first);
                        self.sent = 1;
                        ctx.set_timer(SimDuration::from_millis(100), 1);
                    }
                }
                AppEvent::TimerFired(1) => {
                    if let Some(next) = self.to_send.get(self.sent).cloned() {
                        ctx.tcp_send_bytes(h, next);
                        self.sent += 1;
                        ctx.set_timer(SimDuration::from_millis(100), 1);
                    }
                }
                AppEvent::Tcp(eh, TcpEvent::DataReceived) if eh == h => {
                    let data = ctx.tcp_recv_all(h);
                    self.outcome.borrow_mut().received.extend_from_slice(&data);
                }
                AppEvent::Tcp(eh, TcpEvent::Reset) if eh == h => {
                    self.outcome.borrow_mut().reset = true;
                }
                AppEvent::Tcp(eh, TcpEvent::ConnectFailed) if eh == h => {
                    self.outcome.borrow_mut().connect_failed = true;
                }
                _ => {}
            }
        }
    }

    /// A server with Shadowsocks probe behaviour: reads whatever arrives
    /// and never writes a byte (undecryptable input is silently consumed).
    struct SilentCloser;
    impl App for SilentCloser {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_listen(8388);
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            if let AppEvent::Tcp(h, TcpEvent::DataReceived) = ev {
                let _ = ctx.tcp_recv_all(h);
            }
        }
    }

    /// A server that answers anything with an HTTP decoy (ScholarCloud's
    /// probe resistance).
    struct HttpDecoy;
    impl App for HttpDecoy {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_listen(8443);
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            if let AppEvent::Tcp(h, TcpEvent::DataReceived) = ev {
                let _ = ctx.tcp_recv_all(h);
                ctx.tcp_send(h, b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n");
                ctx.tcp_close(h);
            }
        }
    }

    fn high_entropy(len: usize, seed: u8) -> Vec<u8> {
        use sc_crypto::aes::{Aes, KeySize};
        use sc_crypto::modes::Ctr;
        let mut data = vec![0u8; len];
        Ctr::new(Aes::new(KeySize::Aes256, &[seed; 32]).unwrap(), [seed; 16]).apply(&mut data);
        data
    }

    #[test]
    fn ip_blacklist_blocks_google_direct() {
        let cfg = GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16));
        let (mut sim, client, _server, gfw) = topology(cfg);
        let outcome = Rc::new(RefCell::new(RawOutcome::default()));
        sim.install_app(
            client,
            Box::new(RawClient {
                server: SocketAddr::new(GOOGLE, 443),
                to_send: vec![],
                outcome: outcome.clone(),
                handle: None,
                sent: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(60));
        assert!(outcome.borrow().connect_failed, "SYNs must be black-holed");
        assert!(gfw.borrow().counters.ip_blocked > 0);
    }

    #[test]
    fn dns_queries_for_blocked_names_are_poisoned() {
        use sc_dns::{DnsMessage, ResolveOutcome, StubResolver};
        struct Lookup {
            stub: StubResolver,
            got: Rc<RefCell<Option<ResolveOutcome>>>,
        }
        impl App for Lookup {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.stub.bind(ctx);
                self.stub.resolve("scholar.google.com", 0, ctx);
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                if let AppEvent::Udp { socket, payload, .. } = ev {
                    if let Some(r) = self.stub.on_datagram(socket, &payload, ctx.now()) {
                        *self.got.borrow_mut() = Some(r.outcome);
                    }
                }
            }
        }
        let cfg = GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16));
        let (mut sim, client, _server, gfw) = topology(cfg);
        // Authoritative server past the border holds the real record.
        let dns_node = sim.node_by_addr(RESOLVER_UP).unwrap();
        let mut zone = sc_dns::Zone::new();
        zone.insert("scholar.google.com", GOOGLE, 300);
        sim.install_app(dns_node, Box::new(sc_dns::AuthoritativeServer::new(zone)));
        let got = Rc::new(RefCell::new(None));
        sim.install_app(
            client,
            Box::new(Lookup { stub: StubResolver::new(RESOLVER_UP), got: got.clone() }),
        );
        sim.run_for(SimDuration::from_secs(5));
        match got.borrow().clone().expect("should get an answer") {
            ResolveOutcome::Resolved(addrs) => {
                assert_eq!(addrs, vec![engine::POISON_ADDR], "answer must be the forged one");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(gfw.borrow().counters.dns_poisoned, 1);
        // The forged message must parse as a normal response.
        let q = DnsMessage::query(1, "scholar.google.com");
        assert!(sc_dns::forge_response(&q.encode(), engine::POISON_ADDR, 60).is_some());
    }

    #[test]
    fn keyword_in_plaintext_http_triggers_reset() {
        let mut cfg = GfwConfig::default();
        cfg.http_keywords = vec!["falun".into()];
        let (mut sim, client, server, gfw) = topology(cfg);
        struct Sink;
        impl App for Sink {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_listen(80);
            }
            fn on_event(&mut self, _ev: AppEvent, _ctx: &mut Ctx<'_>) {}
        }
        sim.install_app(server, Box::new(Sink));
        let outcome = Rc::new(RefCell::new(RawOutcome::default()));
        sim.install_app(
            client,
            Box::new(RawClient {
                server: SocketAddr::new(SERVER, 80),
                to_send: vec![b"GET /search?q=falun HTTP/1.1\r\nHost: s\r\n\r\n".to_vec()],
                outcome: outcome.clone(),
                handle: None,
                sent: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(10));
        assert!(outcome.borrow().connected, "handshake is clean");
        assert!(outcome.borrow().reset, "keyword must reset the connection");
        assert_eq!(gfw.borrow().counters.keyword_resets, 1);
    }

    #[test]
    fn innocent_http_passes_keyword_filter() {
        let mut cfg = GfwConfig::default();
        cfg.http_keywords = vec!["falun".into()];
        let (mut sim, client, server, gfw) = topology(cfg);
        struct Responder;
        impl App for Responder {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_listen(80);
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                if let AppEvent::Tcp(h, TcpEvent::DataReceived) = ev {
                    let _ = ctx.tcp_recv_all(h);
                    ctx.tcp_send(h, b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
                }
            }
        }
        sim.install_app(server, Box::new(Responder));
        let outcome = Rc::new(RefCell::new(RawOutcome::default()));
        sim.install_app(
            client,
            Box::new(RawClient {
                server: SocketAddr::new(SERVER, 80),
                to_send: vec![b"GET /weather HTTP/1.1\r\nHost: s\r\n\r\n".to_vec()],
                outcome: outcome.clone(),
                handle: None,
                sent: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(10));
        assert!(!outcome.borrow().reset);
        assert!(outcome.borrow().received.starts_with(b"HTTP/1.1 200"));
        assert_eq!(gfw.borrow().counters.keyword_resets, 0);
    }

    #[test]
    fn blocked_sni_triggers_reset() {
        let mut cfg = GfwConfig::default();
        cfg.sni_blocklist = vec!["google.com".into()];
        let (mut sim, client, server, gfw) = topology(cfg);
        struct Sink;
        impl App for Sink {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_listen(443);
            }
            fn on_event(&mut self, _ev: AppEvent, _ctx: &mut Ctx<'_>) {}
        }
        sim.install_app(server, Box::new(Sink));
        let mut tls = sc_netproto::TlsClient::new("scholar.google.com", 9);
        let hello = tls.start_handshake();
        let outcome = Rc::new(RefCell::new(RawOutcome::default()));
        sim.install_app(
            client,
            Box::new(RawClient {
                server: SocketAddr::new(SERVER, 443),
                to_send: vec![hello.to_vec()],
                outcome: outcome.clone(),
                handle: None,
                sent: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(10));
        assert!(outcome.borrow().reset, "blocked SNI must reset");
        assert_eq!(gfw.borrow().counters.sni_resets, 1);
    }

    #[test]
    fn active_probe_confirms_silent_server_and_throttles() {
        let mut cfg = GfwConfig::default();
        // Exaggerated throttle so the assertion is deterministic in a
        // short run; calibration-accurate rates are exercised in
        // sc-metrics' experiments.
        cfg.policies.shadowsocks = Policy::throttle(0.2);
        let (mut sim, client, server, gfw) = topology(cfg);
        sim.install_app(server, Box::new(SilentCloser));
        // Client sends Shadowsocks-shaped traffic: headerless high entropy.
        let payloads: Vec<Vec<u8>> = (0..200).map(|i| high_entropy(600, i as u8)).collect();
        let outcome = Rc::new(RefCell::new(RawOutcome::default()));
        sim.install_app(
            client,
            Box::new(RawClient {
                server: SocketAddr::new(SERVER, 8388),
                to_send: payloads,
                outcome: outcome.clone(),
                handle: None,
                sent: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(60));
        let st = gfw.borrow();
        assert_eq!(st.counters.probes_requested, 1);
        assert!(
            st.confirmed.contains(&SocketAddr::new(SERVER, 8388)),
            "silent server must be confirmed"
        );
        assert!(st.counters.throttled > 0, "confirmed flow must be throttled");
    }

    #[test]
    fn http_decoy_server_survives_probe() {
        let cfg = GfwConfig::default();
        let (mut sim, client, server, gfw) = topology(cfg);
        sim.install_app(server, Box::new(HttpDecoy));
        let payloads: Vec<Vec<u8>> = (0..200).map(|i| high_entropy(600, i as u8)).collect();
        let outcome = Rc::new(RefCell::new(RawOutcome::default()));
        sim.install_app(
            client,
            Box::new(RawClient {
                server: SocketAddr::new(SERVER, 8443),
                to_send: payloads,
                outcome: outcome.clone(),
                handle: None,
                sent: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(60));
        let st = gfw.borrow();
        assert_eq!(st.counters.probes_requested, 1, "suspect should be probed");
        assert!(
            !st.confirmed.contains(&SocketAddr::new(SERVER, 8443)),
            "HTTP decoy must stay unconfirmed"
        );
        assert_eq!(st.counters.throttled, 0, "no policy applies to innocents");
    }

    #[test]
    fn probing_can_be_disabled() {
        let mut cfg = GfwConfig::default();
        cfg.active_probing = false;
        let (mut sim, client, server, gfw) = topology(cfg);
        sim.install_app(server, Box::new(SilentCloser));
        let payloads: Vec<Vec<u8>> = (0..50).map(|i| high_entropy(600, i as u8)).collect();
        let outcome = Rc::new(RefCell::new(RawOutcome::default()));
        sim.install_app(
            client,
            Box::new(RawClient {
                server: SocketAddr::new(SERVER, 8388),
                to_send: payloads,
                outcome,
                handle: None,
                sent: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(gfw.borrow().counters.probes_requested, 0);
        assert!(gfw.borrow().confirmed.is_empty());
    }
}
