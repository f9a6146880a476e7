//! The remote proxy: authenticates the cover preamble, deblinds the
//! stream, dials the whitelisted target (resolving names outside the
//! wall), and relays. Anything that fails authentication — garbage, web
//! crawlers, the GFW's active prober — gets an nginx-style 400 decoy.

use bytes::{Bytes, BytesMut};
use sc_crypto::hmac::HmacKey;
use sc_netproto::socks::TargetAddr;
use sc_simnet::addr::SocketAddr;
use sc_simnet::api::{App, AppEvent, Io, TcpEvent, TcpHandle};
use sc_simnet::hash::{FixedMap, FixedSet};
use sc_tunnels::names::NameMap;

use crate::config::{ScConfig, REMOTE_PORT};
use crate::frame::{could_be_preamble, decoy_response, Hello, StreamCodec, StreamHeader};

enum ClientConn {
    AwaitHello { buf: Vec<u8> },
    /// The hello authenticated and its nonce is spent; `buf` is what came
    /// after it, short of a whole stream header.
    AwaitHeader { hello: Hello, buf: Vec<u8> },
    Relaying { rx: StreamCodec, tx: StreamCodec, upstream: TcpHandle, span: sc_obs::SpanId },
    Decoyed,
}

/// The remote proxy app. Install on the foreign VM node.
pub struct RemoteProxy {
    config: ScConfig,
    /// `config.secret` as the preamble MAC takes it, prepared once.
    preamble_key: HmacKey,
    names: NameMap,
    conns: FixedMap<TcpHandle, ClientConn>,
    upstreams: FixedMap<TcpHandle, TcpHandle>,
    /// Session nonces already accepted, with the cover generation their
    /// hello verified under. A valid preamble whose nonce was seen before
    /// is a *replay* — the adaptive censor capturing and re-sending a real
    /// client's bytes to see whether we authenticate them. Replays get the
    /// decoy, so a replayed preamble looks exactly like garbage and the
    /// probe concludes "innocent web server". Only the current generation
    /// and the one before it verify, and they differ in parity, so
    /// generation `g` is kept in slot `g % 2` and replaces the older
    /// generation there.
    seen_nonces: [(u32, FixedSet<u64>); 2],
}

impl RemoteProxy {
    /// Creates the proxy; `names` is the uncensored DNS view.
    pub fn new(config: ScConfig, names: NameMap) -> Self {
        RemoteProxy {
            preamble_key: HmacKey::new(&config.secret),
            config,
            names,
            conns: FixedMap::default(),
            upstreams: FixedMap::default(),
            seen_nonces: [(0, FixedSet::default()), (1, FixedSet::default())],
        }
    }

    fn serve_decoy(&mut self, h: TcpHandle, reason: &'static str, io: &mut impl Io) {
        io.tcp_send_bytes(h, Bytes::from(decoy_response()));
        io.tcp_close(h);
        self.conns.insert(h, ClientConn::Decoyed);
        // Decoys served to hostile-looking connections (garbage, bad
        // MACs, replays) are probe sightings the operator's domestic side
        // can act on; decoys to authenticated-but-misdirected tunnels
        // (off-whitelist targets) are not.
        if matches!(reason, "not_preamble" | "bad_preamble_auth" | "replayed_preamble") {
            self.config.interference.note_probe();
        }
        sc_obs::event(
            io.now().as_micros(),
            sc_obs::Level::Info,
            "scholarcloud",
            "remote",
            "auth_fail",
            |f| {
                f.field("reason", reason);
            },
        );
    }

    /// Spends a hello's nonce: `false` if it was spent before (a replay).
    fn spend_nonce(&mut self, hello: &Hello) -> bool {
        let oldest_live = self.config.scheme.generation().saturating_sub(1);
        if self.seen_nonces.iter().any(|(g, spent)| *g >= oldest_live && spent.contains(&hello.nonce)) {
            return false;
        }
        let (g, spent) = &mut self.seen_nonces[(hello.generation % 2) as usize];
        if *g != hello.generation {
            *g = hello.generation;
            spent.clear();
        }
        spent.insert(hello.nonce)
    }

    /// Reads as far into a new connection's stream as has arrived: the
    /// hello is parsed and its nonce spent once, then the stream header
    /// is awaited for as many segments as it takes.
    fn advance(&mut self, h: TcpHandle, io: &mut impl Io) {
        let Some(conn) = self.conns.get_mut(&h) else { return };
        let (hello, wire) = match std::mem::replace(conn, ClientConn::Decoyed) {
            ClientConn::AwaitHello { mut buf } => {
                match Hello::parse(&self.preamble_key, self.config.scheme.generation(), &buf) {
                    Ok(None) if could_be_preamble(&buf) => {
                        *conn = ClientConn::AwaitHello { buf };
                        return;
                    }
                    Ok(None) => return self.serve_decoy(h, "not_preamble", io),
                    Err(()) => return self.serve_decoy(h, "bad_preamble_auth", io),
                    Ok(Some((hello, used))) => {
                        if !self.spend_nonce(&hello) {
                            return self.serve_decoy(h, "replayed_preamble", io);
                        }
                        buf.drain(..used);
                        (hello, buf)
                    }
                }
            }
            ClientConn::AwaitHeader { hello, buf } => (hello, buf),
            relaying_or_decoyed => {
                *conn = relaying_or_decoyed;
                return;
            }
        };
        // Which codec the domestic side built is said only in the stream
        // header, which is encoded with it.
        match StreamCodec::accept(&self.config.secret, &hello, &wire) {
            Some((header, leftover, rx, tx)) => self.begin_relay(h, header, rx, tx, leftover, io),
            // A header is a u16 length and that many bytes: past that,
            // waiting for more cannot make one.
            None if wire.len() > 2 + usize::from(u16::MAX) => self.serve_decoy(h, "bad_stream_header", io),
            None => {
                self.conns.insert(h, ClientConn::AwaitHeader { hello, buf: wire });
            }
        }
    }

    fn begin_relay(
        &mut self,
        h: TcpHandle,
        header: StreamHeader,
        rx: StreamCodec,
        tx: StreamCodec,
        leftover: Vec<u8>,
        io: &mut impl Io,
    ) {
        // Whitelist enforcement happens here too: the remote proxy only
        // dials whitelisted hosts, so a compromised domestic proxy cannot
        // widen the service's scope.
        let dest = match &header.target {
            TargetAddr::Domain(name, port) => {
                if !self.config.whitelisted(name) {
                    self.serve_decoy(h, "off_whitelist", io);
                    return;
                }
                match self.names.resolve(name) {
                    Some(a) => SocketAddr::new(a, *port),
                    None => {
                        self.serve_decoy(h, "unresolvable", io);
                        return;
                    }
                }
            }
            // Literal addresses cannot be whitelist-checked; refuse them.
            TargetAddr::Ip(_, _) => {
                self.serve_decoy(h, "ip_literal", io);
                return;
            }
        };
        let upstream = io.tcp_connect(dest);
        self.upstreams.insert(upstream, h);
        // TCP holds what is sent before the handshake completes.
        io.tcp_send_bytes(upstream, Bytes::from(leftover));
        // Parent the relay span into the originating request's trace via
        // the in-band ids carried on the stream header.
        let span = sc_obs::span_start_ctx(
            io.now().as_micros(),
            sc_obs::Level::Debug,
            "scholarcloud",
            "remote",
            "relay",
            sc_obs::TraceCtx::new(sc_obs::TraceId(header.trace), sc_obs::SpanId(header.parent)),
            |f| {
                f.field("dest", dest);
            },
        );
        self.conns.insert(h, ClientConn::Relaying { rx, tx, upstream, span });
        sc_obs::event(
            io.now().as_micros(),
            sc_obs::Level::Info,
            "scholarcloud",
            "remote",
            "auth_ok",
            |f| {
                f.field("dest", dest);
            },
        );
    }

    /// Takes one event, over any [`Io`].
    fn handle(&mut self, ev: AppEvent, io: &mut impl Io) {
        let AppEvent::Tcp(h, tcp_ev) = ev else { return };

        // Upstream side.
        if let Some(&client) = self.upstreams.get(&h) {
            match tcp_ev {
                TcpEvent::DataReceived => {
                    let data = io.tcp_recv_all(h);
                    if let Some(ClientConn::Relaying { tx, .. }) = self.conns.get_mut(&client) {
                        // The hop's one copy: a received chunk is shared
                        // with its sender's retransmit queue, so the codec
                        // works on a buffer of its own, built once, which
                        // is then handed on whole.
                        let mut wire = BytesMut::from(&data[..]);
                        tx.encode(&mut wire);
                        io.tcp_send_bytes(client, wire.freeze());
                    }
                }
                TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                    io.tcp_close(client);
                    self.upstreams.remove(&h);
                    if let Some(ClientConn::Relaying { span, .. }) = self.conns.get_mut(&client) {
                        let ok = !matches!(tcp_ev, TcpEvent::ConnectFailed);
                        sc_obs::span_end(io.now().as_micros(), *span, |f| {
                            f.field("ok", ok);
                        });
                        *span = sc_obs::SpanId::NONE;
                    }
                }
                _ => {}
            }
            return;
        }

        // Client (domestic proxy or prober) side.
        match tcp_ev {
            TcpEvent::Accepted { .. } => {
                self.conns.insert(h, ClientConn::AwaitHello { buf: Vec::new() });
            }
            TcpEvent::DataReceived => {
                let data = io.tcp_recv_all(h);
                match self.conns.get_mut(&h) {
                    Some(ClientConn::AwaitHello { buf } | ClientConn::AwaitHeader { buf, .. }) => {
                        buf.extend_from_slice(&data);
                        self.advance(h, io);
                    }
                    Some(ClientConn::Relaying { rx, upstream, .. }) => {
                        let upstream = *upstream;
                        let mut plain = BytesMut::from(&data[..]);
                        rx.decode(&mut plain);
                        io.tcp_send_bytes(upstream, plain.freeze());
                    }
                    _ => {}
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                if let Some(ClientConn::Relaying { upstream, span, .. }) = self.conns.remove(&h) {
                    io.tcp_close(upstream);
                    self.upstreams.remove(&upstream);
                    sc_obs::span_end(io.now().as_micros(), span, |f| {
                        f.field("ok", true);
                    });
                }
            }
            _ => {}
        }
    }
}

impl App for RemoteProxy {
    fn on_start(&mut self, ctx: &mut sc_simnet::sim::Ctx<'_>) {
        ctx.tcp_listen(REMOTE_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut sc_simnet::sim::Ctx<'_>) {
        let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Remote);
        self.handle(ev, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FRONT_HOST;
    use sc_simnet::addr::Addr;
    use sc_simnet::scripted::{Call, ScriptedIo};

    /// What a domestic proxy sends a remote to open a stream to `target`:
    /// an authentic preamble, then the encoded stream header and `tail`.
    fn stream_to(cfg: &ScConfig, target: TargetAddr, tail: &[u8]) -> Vec<u8> {
        let hello = Hello { scheme: cfg.scheme.get(), nonce: 7, generation: cfg.scheme.generation() };
        let mut preamble = String::new();
        hello.encode_into(&HmacKey::new(&cfg.secret), FRONT_HOST, &mut preamble);
        let header = StreamHeader { is_tls: true, trace: 0, parent: 0, target };
        let mut rest = [&header.encode()[..], tail].concat();
        StreamCodec::pair(&cfg.secret, &hello, false).0.encode(&mut rest);
        [preamble.as_bytes(), &rest].concat()
    }

    /// A remote whose uncensored DNS knows no name takes `wire` on a new
    /// connection; what it did.
    fn serve(wire: Vec<u8>) -> Vec<Call> {
        let cfg = ScConfig::new(Addr::new(10, 1, 0, 1), Addr::new(99, 0, 0, 40));
        let mut remote = RemoteProxy::new(cfg, NameMap::default());
        let mut io = ScriptedIo::default();
        let h = TcpHandle(1);
        let peer = SocketAddr::new(Addr::new(10, 1, 0, 1), 40_000);
        remote.handle(AppEvent::Tcp(h, TcpEvent::Accepted { peer }), &mut io);
        io.inbox.insert(h, wire);
        remote.handle(AppEvent::Tcp(h, TcpEvent::DataReceived), &mut io);
        io.calls
    }

    /// One decoy, then a close, and nothing dialled.
    fn assert_decoyed(calls: Vec<Call>, why: &str) {
        let h = TcpHandle(1);
        assert_eq!(calls, [Call::Send(h, vec![Bytes::from(decoy_response())]), Call::Close(h)], "{why}");
    }

    #[test]
    fn an_ip_literal_target_is_decoyed() {
        let cfg = ScConfig::new(Addr::new(10, 1, 0, 1), Addr::new(99, 0, 0, 40));
        let wire = stream_to(&cfg, TargetAddr::Ip(Addr::new(99, 2, 0, 1), 443), b"");
        assert_decoyed(serve(wire), "a literal cannot be whitelist-checked");
    }

    #[test]
    fn an_unresolvable_whitelisted_target_is_decoyed() {
        let cfg = ScConfig::new(Addr::new(10, 1, 0, 1), Addr::new(99, 0, 0, 40));
        assert!(cfg.whitelisted("scholar.google.com"));
        let wire = stream_to(&cfg, TargetAddr::Domain("scholar.google.com".into(), 443), b"");
        assert_decoyed(serve(wire), "no address for the name");
    }

    #[test]
    fn a_stream_header_that_cannot_parse_is_decoyed_once_its_length_is_past() {
        let cfg = ScConfig::new(Addr::new(10, 1, 0, 1), Addr::new(99, 0, 0, 40));
        let hello = Hello { scheme: cfg.scheme.get(), nonce: 7, generation: cfg.scheme.generation() };
        let mut wire = String::new();
        hello.encode_into(&HmacKey::new(&cfg.secret), FRONT_HOST, &mut wire);
        let preamble = wire.len();
        let mut wire = wire.into_bytes();
        // Short of a u16 length's worth, the header may yet arrive.
        wire.resize(preamble + 2 + usize::from(u16::MAX), 0xff);
        assert!(serve(wire.clone()).is_empty(), "still waiting for the header");
        wire.push(0xff);
        assert_decoyed(serve(wire), "past any header's length");
    }

    #[test]
    fn a_nonce_is_spent_once_while_its_generation_verifies_and_older_sets_go() {
        let cfg = ScConfig::new(Addr::new(10, 1, 0, 1), Addr::new(99, 0, 0, 40));
        let mut remote = RemoteProxy::new(cfg.clone(), NameMap::new([("scholar.google.com", Addr::new(99, 2, 0, 1))]));
        let hello = |nonce, generation| Hello { scheme: cfg.scheme.get(), nonce, generation };
        assert!(remote.spend_nonce(&hello(7, 0)));
        assert!(!remote.spend_nonce(&hello(7, 0)), "a replay");
        cfg.scheme.rotate_fresh_at(0);
        // Generation 0 still verifies, so its nonces stay spent, under
        // either generation's cover.
        assert!(!remote.spend_nonce(&hello(7, 1)));
        assert!(remote.spend_nonce(&hello(8, 1)));
        cfg.scheme.rotate_fresh_at(0);
        // Generation 0 no longer verifies: its set makes way for
        // generation 2's, and generation 1's stays.
        assert!(remote.spend_nonce(&hello(9, 2)));
        assert_eq!(remote.seen_nonces[0], (2, FixedSet::from_iter([9])));
        assert!(!remote.spend_nonce(&hello(8, 2)));
        cfg.scheme.rotate_fresh_at(0);
        // A set left behind by a generation that no longer verifies is
        // not consulted before its slot is reused.
        assert!(remote.spend_nonce(&hello(8, 3)));
    }
}
