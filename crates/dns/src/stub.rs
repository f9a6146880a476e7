//! A stub resolver helper that apps (the browser, proxies) embed to issue
//! DNS queries and match up responses, with a local cache — the cache whose
//! cold state is one of the paper's three reasons first-time page loads are
//! slower (§4.3).

use std::collections::BTreeMap;

use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::UdpHandle;
use sc_simnet::hash::FixedMap;
use sc_simnet::sim::Ctx;
use sc_simnet::time::SimTime;

use crate::message::{DnsMessage, Rcode};
use crate::server::DNS_PORT;

/// Outcome of a resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveOutcome {
    /// Addresses, most-preferred first.
    Resolved(Vec<Addr>),
    /// The name does not exist (or the server failed).
    Failed(Rcode),
}

/// A completed resolution event returned by [`StubResolver::on_datagram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The name that was queried.
    pub name: String,
    /// The outcome.
    pub outcome: ResolveOutcome,
    /// Opaque context supplied at [`StubResolver::resolve`] time.
    pub token: u64,
    /// Whether the answer came from the local cache.
    pub from_cache: bool,
}

#[derive(Debug, Clone)]
struct CachedAnswer {
    outcome: ResolveOutcome,
    expires: SimTime,
}

/// An embeddable stub resolver. The owning app routes UDP datagrams from
/// the resolver's socket into [`StubResolver::on_datagram`].
#[derive(Debug)]
pub struct StubResolver {
    server: SocketAddr,
    sock: Option<UdpHandle>,
    next_id: u16,
    pending: BTreeMap<u16, (String, u64)>,
    cache: FixedMap<String, CachedAnswer>,
    /// Number of queries answered from cache.
    pub cache_hits: u64,
}

impl StubResolver {
    /// Creates a stub pointing at a resolver address (port 53).
    pub fn new(server: Addr) -> Self {
        StubResolver {
            server: SocketAddr::new(server, DNS_PORT),
            sock: None,
            next_id: 1,
            pending: BTreeMap::new(),
            cache: FixedMap::default(),
            cache_hits: 0,
        }
    }

    /// Binds the stub's socket; call from the app's `on_start`.
    pub fn bind(&mut self, ctx: &mut Ctx<'_>) {
        self.sock = ctx.udp_bind(0);
    }

    /// The socket handle, once bound.
    pub fn socket(&self) -> Option<UdpHandle> {
        self.sock
    }

    /// Starts (or short-circuits) a resolution. If the name is cached the
    /// result is returned immediately; otherwise a query goes out and the
    /// result arrives later via [`StubResolver::on_datagram`].
    ///
    /// # Panics
    ///
    /// Panics if [`StubResolver::bind`] has not been called.
    pub fn resolve(&mut self, name: &str, token: u64, ctx: &mut Ctx<'_>) -> Option<Resolution> {
        let sock = self.sock.expect("StubResolver::bind not called");
        let key = name.to_ascii_lowercase();
        if let Some(hit) = self.cache.get(&key) {
            if hit.expires > ctx.now() {
                self.cache_hits += 1;
                return Some(Resolution {
                    name: key,
                    outcome: hit.outcome.clone(),
                    token,
                    from_cache: true,
                });
            }
            self.cache.remove(&key);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        self.pending.insert(id, (key.clone(), token));
        ctx.udp_send(sock, self.server, DnsMessage::query(id, &key).encode());
        None
    }

    /// Feeds a datagram that arrived on the stub's socket. Returns the
    /// completed resolution if the datagram was a matching response.
    pub fn on_datagram(&mut self, socket: UdpHandle, payload: &[u8], now: SimTime) -> Option<Resolution> {
        if Some(socket) != self.sock {
            return None;
        }
        let msg = DnsMessage::decode(payload).ok()?;
        if !msg.is_response {
            return None;
        }
        let (name, token) = self.pending.remove(&msg.id)?;
        let outcome = if msg.rcode == Rcode::NoError && !msg.answers.is_empty() {
            ResolveOutcome::Resolved(msg.answers.iter().map(|a| a.addr).collect())
        } else {
            ResolveOutcome::Failed(msg.rcode)
        };
        let ttl = msg.answers.iter().map(|a| a.ttl).min().unwrap_or(30);
        self.cache.insert(
            name.clone(),
            CachedAnswer {
                outcome: outcome.clone(),
                expires: now + sc_simnet::time::SimDuration::from_secs(ttl as u64),
            },
        );
        Some(Resolution { name, outcome, token, from_cache: false })
    }

    /// Whether any queries are awaiting answers.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Retransmits every outstanding query, in query-id order (the owner
    /// calls this from a retry timer; real stub resolvers retransmit after
    /// ~1 s).
    ///
    /// # Panics
    ///
    /// Panics if [`StubResolver::bind`] has not been called.
    pub fn retry_pending(&mut self, ctx: &mut Ctx<'_>) {
        let sock = self.sock.expect("StubResolver::bind not called");
        for (&id, (name, _)) in &self.pending {
            ctx.udp_send(sock, self.server, DnsMessage::query(id, name).encode());
        }
    }
}
