//! The Tor directory server: serves the network consensus over HTTP.
//! Its only measurable role in the reproduction is the bootstrap
//! transfer the client must complete before building a circuit — a large
//! part of Tor Browser's slow first start.

use std::collections::HashMap;

use sc_netproto::http::{HttpMessage, HttpParser, HttpResponse};
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;

/// Default directory port.
pub const DIR_PORT: u16 = 9030;

/// Size of the served consensus document (bytes). Real microdescriptor
/// consensuses are in the single-digit megabytes; we default to a scaled
/// 600 KB so bootstrap costs realistic round trips without dominating
/// multi-scenario test time.
pub const DEFAULT_CONSENSUS_LEN: usize = 600 * 1024;

/// The directory server app.
pub struct DirectoryServer {
    consensus_len: usize,
    parsers: HashMap<TcpHandle, HttpParser>,
}

impl DirectoryServer {
    /// Creates a directory serving a consensus of the default size.
    pub fn new() -> Self {
        Self::with_consensus_len(DEFAULT_CONSENSUS_LEN)
    }

    /// Creates a directory serving a consensus of `len` bytes.
    pub fn with_consensus_len(len: usize) -> Self {
        DirectoryServer { consensus_len: len, parsers: HashMap::new() }
    }
}

impl Default for DirectoryServer {
    fn default() -> Self {
        Self::new()
    }
}

impl App for DirectoryServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(DIR_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let AppEvent::Tcp(h, tcp_ev) = ev else { return };
        match tcp_ev {
            TcpEvent::Accepted { .. } => {
                self.parsers.insert(h, HttpParser::new());
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                let Some(parser) = self.parsers.get_mut(&h) else { return };
                let Ok(msgs) = parser.push_bytes(data) else {
                    ctx.tcp_abort(h);
                    return;
                };
                for msg in msgs {
                    if let HttpMessage::Request(req) = msg {
                        if req.method() == "GET" && req.target().starts_with("/certs") {
                            // Authority certificates: small but a full
                            // round trip of the bootstrap sequence.
                            let body = vec![b'c'; 64 * 1024];
                            let resp = HttpResponse::new(200, body)
                                .header("Content-Type", "text/plain");
                            ctx.tcp_send_bytes(h, resp.into_wire());
                        } else if req.method() == "GET"
                            && (req.target().starts_with("/consensus")
                                || req.target().starts_with("/descriptors"))
                        {
                            // A synthetic consensus: repeated descriptor
                            // lines, compressible and printable like the
                            // real thing.
                            let line = b"r relay4096 9001 onion-router descriptor line\n";
                            // Room for the line that overshoots: the buffer is
                            // sent as it is, so it must not double to fit it.
                            let mut body = Vec::with_capacity(self.consensus_len + line.len());
                            while body.len() < self.consensus_len {
                                body.extend_from_slice(line);
                            }
                            body.truncate(self.consensus_len);
                            let resp = HttpResponse::new(200, body)
                                .header("Content-Type", "text/plain");
                            ctx.tcp_send_bytes(h, resp.into_wire());
                        } else {
                            ctx.tcp_send_bytes(h, HttpResponse::new(404, Vec::new()).into_wire());
                        }
                    }
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                self.parsers.remove(&h);
            }
            _ => {}
        }
    }
}
