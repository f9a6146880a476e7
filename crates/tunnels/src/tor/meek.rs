//! The meek pluggable transport, server side: an HTTPS endpoint that looks
//! like an ordinary CDN-fronted web service. Clients POST their upstream
//! cell bytes and receive pending downstream bytes in the response — a
//! long-poll loop whose regular cadence is exactly what the simulated
//! GFW's behavioral detector fingerprints.
//!
//! The gateway bridges each meek session onto a loopback TCP connection to
//! the OR relay running on the same node (the Tor bridge).

use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
use sc_netproto::tls::TlsServer;
use sc_obs::prof::{self, Subsystem};
use sc_simnet::addr::SocketAddr;
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::hash::FixedMap;
use sc_simnet::sim::Ctx;
use sc_simnet::time::SimDuration;

use super::relay::OR_PORT;

/// The HTTPS port the gateway fronts on.
pub const MEEK_PORT: u16 = 443;
/// How long the gateway holds a poll open waiting for downstream bytes.
pub const HOLD_TIME: SimDuration = SimDuration::from_millis(300);
/// The request path meek uses.
pub const MEEK_PATH: &str = "/meek";

struct ClientConn {
    tls: TlsServer,
    http: HttpParser,
    /// Session this connection's pending poll belongs to, if holding.
    holding_for: Option<u64>,
}

struct Session {
    /// Loopback connection into the co-located OR relay.
    or_conn: TcpHandle,
    /// Downstream bytes awaiting the next poll.
    downstream: Vec<u8>,
    /// Connection currently holding an open poll, if any.
    held_poll: Option<TcpHandle>,
}

/// The meek server/gateway app. Runs on the bridge node next to an
/// [`OrRelay`](super::relay::OrRelay).
pub struct MeekGateway {
    entropy: u64,
    conns: FixedMap<TcpHandle, ClientConn>,
    sessions: FixedMap<u64, Session>,
    or_to_session: FixedMap<TcpHandle, u64>,
}

impl MeekGateway {
    /// Creates a gateway.
    pub fn new(entropy: u64) -> Self {
        MeekGateway {
            entropy,
            conns: FixedMap::default(),
            sessions: FixedMap::default(),
            or_to_session: FixedMap::default(),
        }
    }

    fn respond(&mut self, conn: TcpHandle, session_id: u64, ctx: &mut Ctx<'_>) {
        let Some(session) = self.sessions.get_mut(&session_id) else { return };
        let body = std::mem::take(&mut session.downstream);
        session.held_poll = None;
        let resp = HttpResponse::new(200, body).header("Content-Type", "application/octet-stream");
        let (head, body) = resp.into_parts();
        let wire = {
            let Some(c) = self.conns.get_mut(&conn) else { return };
            c.holding_for = None;
            let _prof = prof::scope(Subsystem::Crypto);
            c.tls.send(&[&head, &body])
        };
        ctx.tcp_send_bytes(conn, wire);
    }

    fn handle_request(&mut self, conn: TcpHandle, req: HttpRequest, ctx: &mut Ctx<'_>) {
        if req.method() != "POST" || !req.target().starts_with(MEEK_PATH) {
            let wire = {
                let Some(c) = self.conns.get_mut(&conn) else { return };
                c.tls.send(&[&HttpResponse::new(404, Vec::new()).into_parts().0])
            };
            ctx.tcp_send_bytes(conn, wire);
            return;
        }
        let session_id: u64 = req
            .header_value("X-Session-Id")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        // Create the session (and its loopback OR link) on first use.
        if !self.sessions.contains_key(&session_id) {
            let or_conn = ctx.tcp_connect(SocketAddr::new(ctx.addr(), OR_PORT));
            self.or_to_session.insert(or_conn, session_id);
            self.sessions.insert(
                session_id,
                Session {
                    or_conn,
                    downstream: Vec::new(),
                    held_poll: None,
                },
            );
        }
        let session = self.sessions.get_mut(&session_id).expect("just inserted");
        // Ship upstream bytes into the OR link (TCP holds them while the
        // link is still connecting).
        if !req.body.is_empty() {
            ctx.tcp_send_bytes(session.or_conn, req.body);
        }
        // Answer: immediately if downstream bytes wait, else hold.
        if !session.downstream.is_empty() {
            self.respond(conn, session_id, ctx);
        } else {
            session.held_poll = Some(conn);
            if let Some(c) = self.conns.get_mut(&conn) {
                c.holding_for = Some(session_id);
            }
            // Token encodes the session so the timer can release the hold.
            ctx.set_timer(HOLD_TIME, session_id);
        }
    }
}

impl App for MeekGateway {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(MEEK_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        match ev {
            AppEvent::TimerFired(session_id) => {
                // Release a held poll even if no data arrived (empty 200),
                // so the client's poll loop keeps its cadence.
                let held = self
                    .sessions
                    .get(&session_id)
                    .and_then(|s| s.held_poll);
                if let Some(conn) = held {
                    self.respond(conn, session_id, ctx);
                }
            }
            AppEvent::Tcp(h, tcp_ev) => {
                // OR-link side.
                if let Some(&session_id) = self.or_to_session.get(&h) {
                    match tcp_ev {
                        TcpEvent::DataReceived => {
                            let data = ctx.tcp_recv_all(h);
                            let held = {
                                let Some(s) = self.sessions.get_mut(&session_id) else { return };
                                s.downstream.extend_from_slice(&data);
                                s.held_poll
                            };
                            if let Some(conn) = held {
                                self.respond(conn, session_id, ctx);
                            }
                        }
                        TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                            self.or_to_session.remove(&h);
                            self.sessions.remove(&session_id);
                        }
                        _ => {}
                    }
                    return;
                }
                // HTTPS client side.
                match tcp_ev {
                    TcpEvent::Accepted { .. } => {
                        self.conns.insert(
                            h,
                            ClientConn {
                                tls: TlsServer::new(self.entropy ^ h.0 as u64),
                                http: HttpParser::new(),
                                holding_for: None,
                            },
                        );
                    }
                    TcpEvent::DataReceived => {
                        let data = ctx.tcp_recv_all(h);
                        let (wire_out, requests) = {
                            let Some(c) = self.conns.get_mut(&h) else { return };
                            let out = {
                                let _prof = prof::scope(Subsystem::Crypto);
                                c.tls.on_bytes(&data)
                            };
                            let Ok(out) = out else {
                                ctx.tcp_abort(h);
                                return;
                            };
                            let mut requests = Vec::new();
                            if !out.plaintext.is_empty() {
                                if let Ok(msgs) = c.http.push_bytes(out.plaintext) {
                                    for m in msgs {
                                        if let HttpMessage::Request(r) = m {
                                            requests.push(r);
                                        }
                                    }
                                }
                            }
                            (out.wire, requests)
                        };
                        if !wire_out.is_empty() {
                            ctx.tcp_send_bytes(h, wire_out);
                        }
                        for req in requests {
                            self.handle_request(h, req, ctx);
                        }
                    }
                    TcpEvent::PeerClosed | TcpEvent::Reset => {
                        if let Some(c) = self.conns.remove(&h) {
                            if let Some(sid) = c.holding_for {
                                if let Some(s) = self.sessions.get_mut(&sid) {
                                    s.held_poll = None;
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}
