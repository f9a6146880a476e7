//! # sc-simnet
//!
//! A deterministic, discrete-event network simulator: the substrate on
//! which the ScholarCloud reproduction measures page load time, RTT, and
//! packet loss under censorship.
//!
//! ## Architecture
//!
//! * [`sim::Sim`] — the engine: event queue, clock, seeded RNG, statistics.
//! * [`hash`] — the fixed-state hasher behind every per-packet map.
//! * [`node::Node`] — hosts/routers with TCP ([`tcp`]), UDP, raw protocols.
//! * [`link`] — links with propagation delay, bandwidth, queues, base loss.
//! * [`middlebox`] — the in-path inspection hook the GFW attaches to.
//! * [`api`] — the event-driven [`api::App`] trait every protocol endpoint
//!   (browser, proxy, VPN server, origin server…) implements, and
//!   [`api::Io`], the one surface through which the apps that relay or
//!   serve TCP (proxies, tunnel endpoints, browser, origin, DNS stub)
//!   touch the network: `sim::Ctx` implements it for a run.
//! * [`scripted`] — [`scripted::ScriptedIo`], the other `Io`: a scripted
//!   world that records what an app does, so any crate's unit tests can
//!   drive an app with no simulator.
//!
//! Loss — whether from links or censor verdicts — is repaired by the real
//! TCP retransmission machinery, so censorship degrades application
//! metrics the same way the paper observed.
//!
//! ## Example
//!
//! ```
//! use sc_simnet::prelude::*;
//! use bytes::Bytes;
//!
//! struct Echo;
//! impl App for Echo {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.udp_bind(7);
//!     }
//!     fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
//!         if let AppEvent::Udp { socket, from, payload } = ev {
//!             ctx.udp_send(socket, from, payload);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(1);
//! let a = sim.add_node("client", Addr::new(10, 0, 0, 1));
//! let b = sim.add_node("server", Addr::new(99, 0, 0, 1));
//! sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_millis(25)));
//! sim.compute_routes();
//! sim.install_app(b, Box::new(Echo));
//! sim.run_for(SimDuration::from_secs(1));
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod api;
pub mod faults;
pub mod hash;
pub mod link;
pub mod middlebox;
pub mod node;
pub mod packet;
mod queue;
pub mod ramp;
pub mod scripted;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod time;

/// The payload type of the public API ([`AppEvent::Udp`](api::AppEvent),
/// [`Io::tcp_recv_all`](api::Io::tcp_recv_all), [`IntoChunks`](api::IntoChunks)),
/// for crates that hold payloads without a dependency of their own.
pub use bytes;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::addr::{Addr, SocketAddr};
    pub use crate::api::{App, AppEvent, AppId, IntoChunks, Io, PacketTunnel, TcpEvent, TcpHandle, UdpHandle};
    pub use crate::faults::{Fault, FaultPlan};
    pub use crate::link::{LinkConfig, LinkId, NodeId};
    pub use crate::middlebox::{MbCtx, Middlebox, Verdict};
    pub use crate::packet::{L4, Packet, TcpFlags, TcpSegmentBody, proto};
    pub use crate::sim::{Ctx, Sim};
    pub use crate::stats::DropReason;
    pub use crate::time::{SimDuration, SimTime};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use bytes::Bytes;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A TCP server that accepts connections and echoes whatever arrives.
    struct EchoServer {
        port: u16,
    }

    impl App for EchoServer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            assert!(ctx.tcp_listen(self.port));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            if let AppEvent::Tcp(h, TcpEvent::DataReceived) = ev {
                let data = ctx.tcp_recv_all(h);
                ctx.tcp_send(h, &data);
            }
        }
    }

    #[derive(Default, Clone)]
    struct ClientLog {
        connected_at: Option<SimTime>,
        received: Vec<u8>,
        failed: bool,
        peer_closed: bool,
    }

    /// A client that connects, sends a blob, and records what comes back.
    struct BlobClient {
        server: SocketAddr,
        blob: Vec<u8>,
        handle: Option<TcpHandle>,
        log: Rc<RefCell<ClientLog>>,
    }

    impl App for BlobClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.handle = Some(ctx.tcp_connect(self.server));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            let h = self.handle.unwrap();
            match ev {
                AppEvent::Tcp(eh, TcpEvent::Connected) if eh == h => {
                    self.log.borrow_mut().connected_at = Some(ctx.now());
                    ctx.tcp_send(h, &self.blob.clone());
                }
                AppEvent::Tcp(eh, TcpEvent::DataReceived) if eh == h => {
                    let data = ctx.tcp_recv_all(h);
                    self.log.borrow_mut().received.extend_from_slice(&data);
                }
                AppEvent::Tcp(eh, TcpEvent::ConnectFailed | TcpEvent::Reset) if eh == h => {
                    self.log.borrow_mut().failed = true;
                }
                AppEvent::Tcp(eh, TcpEvent::PeerClosed) if eh == h => {
                    self.log.borrow_mut().peer_closed = true;
                }
                _ => {}
            }
        }
    }

    fn two_node_sim(loss: f64, delay_ms: u64, seed: u64) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(seed);
        let a = sim.add_node("client", Addr::new(10, 0, 0, 1));
        let b = sim.add_node("server", Addr::new(99, 0, 0, 1));
        sim.add_link(
            a,
            b,
            LinkConfig::with_delay(SimDuration::from_millis(delay_ms)).loss(loss),
        );
        sim.compute_routes();
        (sim, a, b)
    }

    #[test]
    fn tcp_handshake_takes_one_rtt() {
        let (mut sim, a, b) = two_node_sim(0.0, 50, 7);
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        let log = Rc::new(RefCell::new(ClientLog::default()));
        sim.install_app(
            a,
            Box::new(BlobClient {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 80),
                blob: vec![],
                handle: None,
                log: log.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(2));
        let connected = log.borrow().connected_at.expect("should connect");
        // One RTT = 100 ms (plus negligible serialization).
        let ms = connected.as_micros() as f64 / 1000.0;
        assert!((100.0..110.0).contains(&ms), "handshake took {ms} ms");
    }

    #[test]
    fn tcp_echo_roundtrip_lossless() {
        let (mut sim, a, b) = two_node_sim(0.0, 10, 3);
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        let log = Rc::new(RefCell::new(ClientLog::default()));
        let blob: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        sim.install_app(
            a,
            Box::new(BlobClient {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 80),
                blob: blob.clone(),
                handle: None,
                log: log.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(log.borrow().received, blob);
        assert!(!log.borrow().failed);
    }

    #[test]
    fn tcp_survives_five_percent_loss() {
        let (mut sim, a, b) = two_node_sim(0.05, 20, 11);
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        let log = Rc::new(RefCell::new(ClientLog::default()));
        let blob: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 256) as u8).collect();
        sim.install_app(
            a,
            Box::new(BlobClient {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 80),
                blob: blob.clone(),
                handle: None,
                log: log.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(log.borrow().received.len(), blob.len(), "transfer incomplete");
        assert_eq!(log.borrow().received, blob, "data corrupted by retransmission");
        // Loss must actually have occurred for this test to mean anything.
        assert!(sim.stats.total_drops() > 0);
    }

    #[test]
    fn connect_to_closed_port_fails_fast() {
        let (mut sim, a, _b) = two_node_sim(0.0, 10, 5);
        let log = Rc::new(RefCell::new(ClientLog::default()));
        sim.install_app(
            a,
            Box::new(BlobClient {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 81), // nothing listens
                blob: vec![1, 2, 3],
                handle: None,
                log: log.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(5));
        assert!(log.borrow().failed, "RST should fail the connect");
        assert!(log.borrow().connected_at.is_none());
    }

    #[test]
    fn connect_through_black_hole_times_out() {
        // A middlebox that drops everything: connect must eventually fail
        // via SYN retry exhaustion, not hang forever.
        struct BlackHole;
        impl Middlebox for BlackHole {
            fn process(&mut self, _pkt: &Packet, _ctx: &mut MbCtx<'_>) -> Verdict {
                Verdict::Drop("black-hole")
            }
        }
        let mut sim = Sim::new(13);
        let a = sim.add_node("client", Addr::new(10, 0, 0, 1));
        let r = sim.add_node("router", Addr::new(10, 0, 0, 254));
        let b = sim.add_node("server", Addr::new(99, 0, 0, 1));
        sim.add_link(a, r, LinkConfig::with_delay(SimDuration::from_millis(5)));
        sim.add_link(r, b, LinkConfig::with_delay(SimDuration::from_millis(5)));
        sim.compute_routes();
        sim.set_middlebox(r, Box::new(BlackHole));
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        let log = Rc::new(RefCell::new(ClientLog::default()));
        sim.install_app(
            a,
            Box::new(BlobClient {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 80),
                blob: vec![],
                handle: None,
                log: log.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(120));
        assert!(log.borrow().failed, "SYN retries should exhaust");
        let censored = sim.stats.censor_drops();
        assert!(censored > 0, "drops should be attributed to the middlebox");
    }

    #[test]
    fn udp_echo_and_rtt() {
        struct UdpEcho;
        impl App for UdpEcho {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.udp_bind(9);
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                if let AppEvent::Udp { socket, from, payload } = ev {
                    ctx.udp_send(socket, from, payload);
                }
            }
        }
        struct UdpPing {
            server: SocketAddr,
            sock: Option<UdpHandle>,
            echo_at: Rc<RefCell<Option<SimTime>>>,
        }
        impl App for UdpPing {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let s = ctx.udp_bind(0).unwrap();
                self.sock = Some(s);
                ctx.udp_send(s, self.server, Bytes::from_static(b"ping"));
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                if let AppEvent::Udp { .. } = ev {
                    *self.echo_at.borrow_mut() = Some(ctx.now());
                }
            }
        }
        let (mut sim, a, b) = two_node_sim(0.0, 30, 17);
        sim.install_app(b, Box::new(UdpEcho));
        let echo_at = Rc::new(RefCell::new(None));
        sim.install_app(
            a,
            Box::new(UdpPing {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 9),
                sock: None,
                echo_at: echo_at.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(1));
        let t = echo_at.borrow().expect("echo should arrive");
        let ms = t.as_micros() as f64 / 1000.0;
        assert!((60.0..62.0).contains(&ms), "UDP RTT was {ms} ms");
    }

    #[test]
    fn multi_hop_routing_works() {
        // a - r1 - r2 - b : BFS routes should carry traffic end to end.
        let mut sim = Sim::new(23);
        let a = sim.add_node("a", Addr::new(10, 0, 0, 1));
        let r1 = sim.add_node("r1", Addr::new(10, 0, 0, 254));
        let r2 = sim.add_node("r2", Addr::new(99, 0, 0, 254));
        let b = sim.add_node("b", Addr::new(99, 0, 0, 1));
        let d = LinkConfig::with_delay(SimDuration::from_millis(10));
        sim.add_link(a, r1, d);
        sim.add_link(r1, r2, d);
        sim.add_link(r2, b, d);
        sim.compute_routes();
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        let log = Rc::new(RefCell::new(ClientLog::default()));
        sim.install_app(
            a,
            Box::new(BlobClient {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 80),
                blob: b"over the rivers".to_vec(),
                handle: None,
                log: log.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(log.borrow().received, b"over the rivers");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let (mut sim, a, b) = two_node_sim(0.03, 15, seed);
            sim.install_app(b, Box::new(EchoServer { port: 80 }));
            let log = Rc::new(RefCell::new(ClientLog::default()));
            sim.install_app(
                a,
                Box::new(BlobClient {
                    server: SocketAddr::new(Addr::new(99, 0, 0, 1), 80),
                    blob: vec![9; 30_000],
                    handle: None,
                    log: log.clone(),
                }),
            );
            sim.run_for(SimDuration::from_secs(60));
            (sim.stats.packets_sent, sim.stats.total_drops())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds should differ (overwhelmingly likely)");
    }

    fn blob_client(
        sim: &mut Sim,
        a: NodeId,
        blob: Vec<u8>,
    ) -> Rc<RefCell<ClientLog>> {
        let log = Rc::new(RefCell::new(ClientLog::default()));
        sim.install_app(
            a,
            Box::new(BlobClient {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 80),
                blob,
                handle: None,
                log: log.clone(),
            }),
        );
        log
    }

    #[test]
    fn blackholed_link_drops_everything_then_recovers() {
        let (mut sim, a, b) = two_node_sim(0.0, 10, 41);
        let link = sc_link_of(&sim, a);
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        // Down from the start; back up at t = 12 s. SYN retries (RTO
        // doubling: 1, 3, 7, 15 s…) span the outage, so the retry at
        // t = 15 s lands and the echo completes.
        sim.install_fault_plan(
            FaultPlan::new()
                .at(SimTime::ZERO, Fault::LinkDown(link))
                .at(SimTime::from_secs(12), Fault::LinkUp(link)),
        );
        let log = blob_client(&mut sim, a, b"late but whole".to_vec());
        sim.run_for(SimDuration::from_secs(10));
        assert!(log.borrow().connected_at.is_none(), "nothing crosses a dead link");
        assert!(sim.stats.drops.get(&DropReason::LinkDown).copied().unwrap_or(0) > 0);
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(log.borrow().received, b"late but whole");
    }

    #[test]
    fn loss_one_is_a_dead_path() {
        let (mut sim, a, b) = two_node_sim(1.0, 10, 43);
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        let log = blob_client(&mut sim, a, vec![1, 2, 3]);
        sim.run_for(SimDuration::from_secs(120));
        assert!(log.borrow().failed, "SYN retries must exhaust on loss = 1.0");
        assert_eq!(sim.stats.packets_delivered, 0);
        assert!(sim.stats.drops.get(&DropReason::LinkLoss).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn partition_cuts_traffic_and_heals() {
        let (mut sim, a, b) = two_node_sim(0.0, 10, 47);
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        sim.install_fault_plan(
            FaultPlan::new()
                .at(SimTime::ZERO, Fault::Partition { left: vec![a], right: vec![b] })
                .at(SimTime::from_secs(20), Fault::HealPartitions),
        );
        let log = blob_client(&mut sim, a, b"across the cut".to_vec());
        sim.run_for(SimDuration::from_secs(15));
        assert!(log.borrow().connected_at.is_none());
        assert!(sim.stats.drops.get(&DropReason::Partitioned).copied().unwrap_or(0) > 0);
        assert!(sim.stats.fault_drops() > 0);
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(log.borrow().received, b"across the cut");
    }

    #[test]
    fn crashed_node_drops_and_restart_serves_again() {
        let (mut sim, a, b) = two_node_sim(0.0, 10, 53);
        sim.install_app(b, Box::new(EchoServer { port: 80 }));
        sim.install_fault_plan(
            FaultPlan::new().at(SimTime::ZERO, Fault::NodeCrash(b)),
        );
        let log = blob_client(&mut sim, a, vec![7; 10]);
        sim.run_for(SimDuration::from_secs(90));
        assert!(!sim.node_is_up(b));
        assert!(log.borrow().connected_at.is_none(), "crashed node must not accept");
        assert!(sim.stats.drops.get(&DropReason::NodeDown).copied().unwrap_or(0) > 0);
        // Restart and connect fresh: the listener survives in app state.
        sim.install_fault_plan(
            FaultPlan::new().at(sim.now(), Fault::NodeRestart(b)),
        );
        let log2 = blob_client(&mut sim, a, b"after restart".to_vec());
        sim.run_for(SimDuration::from_secs(30));
        assert!(sim.node_is_up(b));
        assert_eq!(log2.borrow().received, b"after restart");
    }

    #[test]
    fn flapping_link_is_deterministic_and_settles_up() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            let a = sim.add_node("client", Addr::new(10, 0, 0, 1));
            let b = sim.add_node("server", Addr::new(99, 0, 0, 1));
            // Slow enough that the transfer is still in flight when the
            // flapping starts at t = 1 s.
            let link = sim.add_link(
                a,
                b,
                LinkConfig::with_delay(SimDuration::from_millis(10)).bandwidth_bps(2_000_000),
            );
            sim.compute_routes();
            sim.install_app(b, Box::new(EchoServer { port: 80 }));
            sim.install_fault_plan(FaultPlan::new().at(
                SimTime::from_secs(1),
                Fault::LinkFlap {
                    link,
                    mean_down: SimDuration::from_millis(200),
                    mean_up: SimDuration::from_millis(800),
                    until: SimTime::from_secs(20),
                },
            ));
            let log = blob_client(&mut sim, a, vec![9; 400_000]);
            sim.run_for(SimDuration::from_secs(120));
            let received = log.borrow().received.len();
            let failed = log.borrow().failed;
            (sim.link_is_up(link), received, failed, sim.stats.packets_sent, sim.stats.total_drops())
        };
        let (up, len, failed, sent, drops) = run(61);
        assert!(up, "link must settle up after the flap window");
        assert!(!failed, "the connection must survive the flap");
        assert_eq!(len, 400_000, "TCP must repair the flap losses");
        assert!(drops > 0, "the flap must actually have dropped packets");
        assert_eq!((up, len, failed, sent, drops), run(61), "same seed, same flap schedule");
    }

    /// The (single) link attached to `n` in a two-node topology.
    /// What the tunnel exits lean on: they dial upstream and send at
    /// once, with no buffer of their own. `tcp_send` in `SynSent` queues
    /// on the connection; the handshake's ACK flushes it. A dial that
    /// fails, or one the app closes first, takes the queue with it.
    #[test]
    fn bytes_sent_before_connected_arrive_once_in_order_after_the_handshake() {
        #[derive(Default)]
        struct Sunk {
            bytes: Vec<u8>,
            first_at: Option<SimTime>,
        }
        struct Sink(Rc<RefCell<Sunk>>);
        impl App for Sink {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                assert!(ctx.tcp_listen(80));
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                if let AppEvent::Tcp(h, TcpEvent::DataReceived) = ev {
                    let mut sunk = self.0.borrow_mut();
                    sunk.first_at.get_or_insert(ctx.now());
                    sunk.bytes.extend_from_slice(&ctx.tcp_recv_all(h));
                }
            }
        }
        /// Dials `port`, sends two chunks before the handshake, closes
        /// at once if `close_early`, and sends a third on `Connected`.
        struct EarlySender {
            port: u16,
            close_early: bool,
            events: Rc<RefCell<Vec<TcpEvent>>>,
        }
        impl App for EarlySender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let h = ctx.tcp_connect(SocketAddr::new(Addr::new(99, 0, 0, 1), self.port));
                assert_eq!(ctx.tcp_send(h, &[1u8; 3000]), Some(3000));
                assert_eq!(ctx.tcp_send(h, &[2u8; 10]), Some(10));
                if self.close_early {
                    ctx.tcp_close(h);
                }
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                let AppEvent::Tcp(h, ev) = ev else { return };
                match ev {
                    TcpEvent::Connected => {
                        ctx.tcp_send(h, &[3u8; 5]);
                    }
                    TcpEvent::ConnectFailed => assert_eq!(ctx.tcp_send(h, b"late"), None),
                    _ => {}
                }
                self.events.borrow_mut().push(ev);
            }
        }
        let run = |port: u16, close_early: bool| {
            let (mut sim, a, b) = two_node_sim(0.0, 10, 41);
            let sunk = Rc::new(RefCell::new(Sunk::default()));
            let events = Rc::new(RefCell::new(Vec::new()));
            sim.install_app(b, Box::new(Sink(sunk.clone())));
            sim.install_app(a, Box::new(EarlySender { port, close_early, events: events.clone() }));
            sim.run_for(SimDuration::from_secs(30));
            (sunk.take(), events.take())
        };

        let (sunk, events) = run(80, false);
        let expected: Vec<u8> = [&[1u8; 3000][..], &[2u8; 10], &[3u8; 5]].concat();
        assert_eq!(sunk.bytes, expected, "once, in order");
        assert_eq!(events.first(), Some(&TcpEvent::Connected));
        // SYN, SYN-ACK, then the ACK and the data behind it: three
        // one-way trips of 10 ms before the first byte lands.
        let first_ms = sunk.first_at.expect("data arrived").as_micros() / 1000;
        assert!((30..35).contains(&first_ms), "first byte at {first_ms} ms");

        let (sunk, events) = run(81, false); // nothing listens: RST
        assert_eq!(events, [TcpEvent::ConnectFailed]);
        assert!(sunk.bytes.is_empty(), "a failed dial delivers nothing");

        let (sunk, events) = run(80, true);
        assert!(events.is_empty(), "a connection closed in SynSent is silent: {events:?}");
        assert!(sunk.bytes.is_empty(), "closing before the handshake drops the queue");
    }

    fn sc_link_of(sim: &Sim, n: NodeId) -> LinkId {
        sim.node(n).links[0]
    }

    #[test]
    fn graceful_close_reaches_peer() {
        struct CloseServer;
        impl App for CloseServer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_listen(80);
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                match ev {
                    AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                        let _ = ctx.tcp_recv_all(h);
                        ctx.tcp_send(h, b"bye");
                        ctx.tcp_close(h);
                    }
                    _ => {}
                }
            }
        }
        let (mut sim, a, b) = two_node_sim(0.0, 10, 31);
        sim.install_app(b, Box::new(CloseServer));
        let log = Rc::new(RefCell::new(ClientLog::default()));
        sim.install_app(
            a,
            Box::new(BlobClient {
                server: SocketAddr::new(Addr::new(99, 0, 0, 1), 80),
                blob: b"hello".to_vec(),
                handle: None,
                log: log.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(log.borrow().received, b"bye");
        assert!(log.borrow().peer_closed, "FIN should reach the client");
    }
}
