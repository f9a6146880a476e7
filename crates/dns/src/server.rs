//! DNS servers: an authoritative zone server and a caching recursive
//! resolver, both as [`App`]s on simulated nodes.

use bytes::Bytes;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{App, AppEvent, Io, UdpHandle};
use sc_simnet::hash::FixedMap;
use sc_simnet::sim::Ctx;
use sc_simnet::time::SimTime;

use crate::message::{ARecord, DnsMessage, Rcode};

/// The standard DNS port.
pub const DNS_PORT: u16 = 53;

/// A zone: name → addresses. Names are stored lowercase.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    records: FixedMap<String, Vec<ARecord>>,
}

impl Zone {
    /// Creates an empty zone.
    pub fn new() -> Self {
        Zone::default()
    }

    /// Adds an A record.
    pub fn insert(&mut self, name: &str, addr: Addr, ttl: u32) -> &mut Self {
        self.records
            .entry(name.to_ascii_lowercase())
            .or_default()
            .push(ARecord { addr, ttl });
        self
    }

    /// Looks up a name.
    pub fn lookup(&self, name: &str) -> Option<&[ARecord]> {
        self.records.get(&name.to_ascii_lowercase()).map(Vec::as_slice)
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the zone has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// An authoritative DNS server answering from a static [`Zone`].
#[derive(Debug)]
pub struct AuthoritativeServer {
    zone: Zone,
}

impl AuthoritativeServer {
    /// Creates a server for `zone`.
    pub fn new(zone: Zone) -> Self {
        AuthoritativeServer { zone }
    }
}

impl App for AuthoritativeServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(DNS_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let AppEvent::Udp { socket, from, payload } = ev else { return };
        let Ok(query) = DnsMessage::decode(&payload) else { return };
        if query.is_response {
            return;
        }
        let reply = match self.zone.lookup(&query.qname) {
            Some(records) => DnsMessage::response(&query, Rcode::NoError, records.to_vec()),
            None => DnsMessage::response(&query, Rcode::NxDomain, vec![]),
        };
        ctx.udp_send(socket, from, reply.encode());
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    answers: Vec<ARecord>,
    rcode: Rcode,
    expires: SimTime,
}

/// A caching recursive resolver. Queries it cannot answer from cache are
/// forwarded to an upstream (authoritative) server; responses are cached
/// by TTL.
///
/// In the China topology this is the ISP resolver *inside* the GFW, so
/// queries for blocked names cross the border and can be poisoned in
/// flight — the resolver faithfully caches the forged answer, which is why
/// DNS poisoning is so effective.
#[derive(Debug)]
pub struct RecursiveResolver {
    upstream: Addr,
    cache: FixedMap<String, CacheEntry>,
    /// In-flight upstream queries: upstream-id → (client, client-id).
    pending: FixedMap<u16, (SocketAddr, u16)>,
    next_id: u16,
    sock: Option<UdpHandle>,
    /// Cache hits (diagnostics).
    pub hits: u64,
    /// Cache misses (diagnostics).
    pub misses: u64,
}

impl RecursiveResolver {
    /// Creates a resolver forwarding to `upstream`.
    pub fn new(upstream: Addr) -> Self {
        RecursiveResolver {
            upstream,
            cache: FixedMap::default(),
            pending: FixedMap::default(),
            next_id: 1,
            sock: None,
            hits: 0,
            misses: 0,
        }
    }
}

impl App for RecursiveResolver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sock = ctx.udp_bind(DNS_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let AppEvent::Udp { socket, from, payload } = ev else { return };
        let Ok(msg) = DnsMessage::decode(&payload) else { return };

        if !msg.is_response {
            // Client query: cache or forward.
            if let Some(entry) = self.cache.get(&msg.qname) {
                if entry.expires > ctx.now() {
                    self.hits += 1;
                    let reply = DnsMessage::response(&msg, entry.rcode, entry.answers.clone());
                    ctx.udp_send(socket, from, reply.encode());
                    return;
                }
                self.cache.remove(&msg.qname);
            }
            self.misses += 1;
            let upstream_id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            self.pending.insert(upstream_id, (from, msg.id));
            let fwd = DnsMessage::query(upstream_id, &msg.qname);
            ctx.udp_send(socket, SocketAddr::new(self.upstream, DNS_PORT), fwd.encode());
        } else {
            // Upstream response: cache + relay to the waiting client.
            // (First answer wins — which is precisely what makes on-path
            // DNS injection effective: the forged answer races the real
            // one and usually arrives first.)
            let Some((client, client_id)) = self.pending.remove(&msg.id) else { return };
            let ttl = msg.answers.iter().map(|a| a.ttl).min().unwrap_or(60);
            self.cache.insert(
                msg.qname.clone(),
                CacheEntry {
                    answers: msg.answers.clone(),
                    rcode: msg.rcode,
                    expires: ctx.now() + sc_simnet::time::SimDuration::from_secs(ttl as u64),
                },
            );
            let mut relayed = msg.clone();
            relayed.id = client_id;
            ctx.udp_send(socket, client, relayed.encode());
        }
    }
}

/// Builds a forged response to a query observed on the wire — the GFW's
/// DNS-injection primitive. Returns `None` if the bytes are not a query.
pub fn forge_response(query_bytes: &[u8], fake_addr: Addr, ttl: u32) -> Option<Bytes> {
    let msg = DnsMessage::decode(query_bytes).ok()?;
    if msg.is_response {
        return None;
    }
    let forged = DnsMessage::response(&msg, Rcode::NoError, vec![ARecord { addr: fake_addr, ttl }]);
    Some(forged.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_lookup_is_case_insensitive() {
        let mut z = Zone::new();
        z.insert("Scholar.Google.com", Addr::new(99, 2, 0, 1), 300);
        assert!(z.lookup("scholar.google.COM").is_some());
        assert!(z.lookup("example.com").is_none());
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    fn forge_response_matches_query_id() {
        let q = DnsMessage::query(0xbeef, "scholar.google.com");
        let forged = forge_response(&q.encode(), Addr::new(1, 2, 3, 4), 600).unwrap();
        let parsed = DnsMessage::decode(&forged).unwrap();
        assert_eq!(parsed.id, 0xbeef);
        assert!(parsed.is_response);
        assert_eq!(parsed.answers[0].addr, Addr::new(1, 2, 3, 4));
    }

    #[test]
    fn forge_ignores_responses() {
        let q = DnsMessage::query(1, "x.y");
        let r = DnsMessage::response(&q, Rcode::NoError, vec![]);
        assert!(forge_response(&r.encode(), Addr::new(1, 1, 1, 1), 60).is_none());
        assert!(forge_response(b"junk", Addr::new(1, 1, 1, 1), 60).is_none());
    }
}
