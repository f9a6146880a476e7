//! The remote proxy: authenticates the cover preamble, deblinds the
//! stream, dials the whitelisted target (resolving names outside the
//! wall), and relays. Anything that fails authentication — garbage, web
//! crawlers, the GFW's active prober — gets an nginx-style 400 decoy.

use std::collections::{HashMap, HashSet};

use sc_crypto::hmac::HmacKey;
use sc_netproto::socks::TargetAddr;
use sc_simnet::addr::SocketAddr;
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;
use sc_tunnels::names::NameMap;

use crate::config::{ScConfig, REMOTE_PORT};
use crate::frame::{could_be_preamble, decoy_response, Hello, StreamCodec, StreamHeader};

enum ClientConn {
    AwaitHello { buf: Vec<u8> },
    Relaying { rx: StreamCodec, tx: StreamCodec, upstream: TcpHandle, span: sc_obs::SpanId },
    Decoyed,
}

/// The remote proxy app. Install on the foreign VM node.
pub struct RemoteProxy {
    config: ScConfig,
    /// `config.secret` as the preamble MAC takes it, prepared once.
    preamble_key: HmacKey,
    names: NameMap,
    conns: HashMap<TcpHandle, ClientConn>,
    upstreams: HashMap<TcpHandle, TcpHandle>,
    /// Session nonces already accepted. A valid preamble whose nonce was
    /// seen before is a *replay* — the adaptive censor capturing and
    /// re-sending a real client's bytes to see whether we authenticate
    /// them. Replays get the decoy, so a replayed preamble looks exactly
    /// like garbage and the probe concludes "innocent web server".
    seen_nonces: HashSet<u64>,
    /// Authenticated tunnels served (diagnostics).
    pub tunnels: u64,
    /// Decoys served to unauthenticated connections (diagnostics: probes
    /// land here).
    pub decoys: u64,
}

impl RemoteProxy {
    /// Creates the proxy; `names` is the uncensored DNS view.
    pub fn new(config: ScConfig, names: NameMap) -> Self {
        RemoteProxy {
            preamble_key: HmacKey::new(&config.secret),
            config,
            names,
            conns: HashMap::new(),
            upstreams: HashMap::new(),
            seen_nonces: HashSet::new(),
            tunnels: 0,
            decoys: 0,
        }
    }

    fn serve_decoy(&mut self, h: TcpHandle, reason: &'static str, ctx: &mut Ctx<'_>) {
        ctx.tcp_send_bytes(h, decoy_response());
        ctx.tcp_close(h);
        self.conns.insert(h, ClientConn::Decoyed);
        self.decoys += 1;
        // Decoys served to hostile-looking connections (garbage, bad
        // MACs, replays) are probe sightings the operator's domestic side
        // can act on; decoys to authenticated-but-misdirected tunnels
        // (off-whitelist targets) are not.
        if matches!(reason, "not_preamble" | "bad_preamble_auth" | "replayed_preamble") {
            self.config.interference.note_probe();
        }
        sc_obs::counter_add("scholarcloud.decoys_served", 1);
        sc_obs::event(
            ctx.now().as_micros(),
            sc_obs::Level::Info,
            "scholarcloud",
            "remote",
            "auth_fail",
            |ev| ev.field("reason", reason),
        );
    }

    fn advance(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        if let Some(ClientConn::AwaitHello { buf }) = self.conns.get_mut(&h) {
            let snapshot = std::mem::take(buf);
            match Hello::parse(&self.preamble_key, self.config.scheme.generation(), &snapshot) {
                Ok(None) => {
                    if !could_be_preamble(&snapshot) {
                        self.serve_decoy(h, "not_preamble", ctx);
                        return;
                    }
                    if let Some(ClientConn::AwaitHello { buf }) = self.conns.get_mut(&h) {
                        *buf = snapshot;
                    }
                    return;
                }
                Err(()) => {
                    self.serve_decoy(h, "bad_preamble_auth", ctx);
                    return;
                }
                Ok(Some((hello, used))) => {
                    if !self.seen_nonces.insert(hello.nonce) {
                        self.serve_decoy(h, "replayed_preamble", ctx);
                        return;
                    }
                    // Which codec the domestic side built is said only in
                    // the stream header, which is encoded with it.
                    if let Some((header, leftover, rx, tx)) =
                        StreamCodec::accept(&self.config.secret, &hello, &snapshot[used..])
                    {
                        self.begin_relay(h, header, rx, tx, leftover, ctx);
                        return;
                    }
                    // Header incomplete: stash raw bytes and wait. We must
                    // re-run from scratch next time, so keep hello + rest.
                    let mut restored = snapshot;
                    self.conns.insert(h, ClientConn::AwaitHello { buf: Vec::new() });
                    if let Some(ClientConn::AwaitHello { buf }) = self.conns.get_mut(&h) {
                        buf.append(&mut restored);
                    }
                }
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
        ctx: &mut Ctx<'_>,
    ) {
        // Whitelist enforcement happens here too: the remote proxy only
        // dials whitelisted hosts, so a compromised domestic proxy cannot
        // widen the service's scope.
        let dest = match &header.target {
            TargetAddr::Domain(name, port) => {
                if !self.config.whitelisted(name) {
                    self.serve_decoy(h, "off_whitelist", ctx);
                    return;
                }
                match self.names.resolve(name) {
                    Some(a) => SocketAddr::new(a, *port),
                    None => {
                        self.serve_decoy(h, "unresolvable", ctx);
                        return;
                    }
                }
            }
            // Literal addresses cannot be whitelist-checked; refuse them.
            TargetAddr::Ip(_, _) => {
                self.serve_decoy(h, "ip_literal", ctx);
                return;
            }
        };
        let upstream = ctx.tcp_connect(dest);
        self.upstreams.insert(upstream, h);
        // TCP holds what is sent before the handshake completes.
        ctx.tcp_send_bytes(upstream, leftover);
        // Parent the relay span into the originating request's trace via
        // the in-band ids carried on the stream header.
        let span = sc_obs::span_start_ctx(
            ctx.now().as_micros(),
            sc_obs::Level::Debug,
            "scholarcloud",
            "remote",
            "relay",
            sc_obs::TraceCtx::new(sc_obs::TraceId(header.trace), sc_obs::SpanId(header.parent)),
            || vec![("dest", sc_obs::Value::String(dest.to_string()))],
        );
        self.conns.insert(h, ClientConn::Relaying { rx, tx, upstream, span });
        self.tunnels += 1;
        sc_obs::counter_add("scholarcloud.remote_tunnels", 1);
        sc_obs::event(
            ctx.now().as_micros(),
            sc_obs::Level::Info,
            "scholarcloud",
            "remote",
            "auth_ok",
            |ev| ev.field("dest", dest.to_string()),
        );
    }
}

impl App for RemoteProxy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(REMOTE_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Remote);
        let AppEvent::Tcp(h, tcp_ev) = ev else { return };

        // Upstream side.
        if let Some(&client) = self.upstreams.get(&h) {
            match tcp_ev {
                TcpEvent::DataReceived => {
                    let data = ctx.tcp_recv_all(h);
                    if let Some(ClientConn::Relaying { tx, .. }) = self.conns.get_mut(&client) {
                        // The hop's one copy: a received chunk is shared
                        // with its sender's retransmit queue, so the codec
                        // works on a buffer of its own, which is then
                        // handed on whole.
                        let mut wire = data.to_vec();
                        tx.encode(&mut wire);
                        ctx.tcp_send_bytes(client, wire);
                    }
                }
                TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                    ctx.tcp_close(client);
                    self.upstreams.remove(&h);
                    if let Some(ClientConn::Relaying { span, .. }) = self.conns.get_mut(&client) {
                        let ok = !matches!(tcp_ev, TcpEvent::ConnectFailed);
                        sc_obs::span_end(ctx.now().as_micros(), *span, || vec![("ok", ok.into())]);
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
                sc_obs::counter_add("scholarcloud.remote_accepts", 1);
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                match self.conns.get_mut(&h) {
                    Some(ClientConn::AwaitHello { buf }) => {
                        buf.extend_from_slice(&data);
                        self.advance(h, ctx);
                    }
                    Some(ClientConn::Relaying { rx, upstream, .. }) => {
                        let upstream = *upstream;
                        let mut plain = data.to_vec();
                        rx.decode(&mut plain);
                        ctx.tcp_send_bytes(upstream, plain);
                    }
                    _ => {}
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                if let Some(ClientConn::Relaying { upstream, span, .. }) = self.conns.remove(&h) {
                    ctx.tcp_close(upstream);
                    self.upstreams.remove(&upstream);
                    sc_obs::span_end(ctx.now().as_micros(), span, || vec![("ok", true.into())]);
                }
            }
            _ => {}
        }
    }
}
