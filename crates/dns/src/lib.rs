//! # sc-dns
//!
//! The DNS substrate for the ScholarCloud reproduction: wire format
//! ([`message`]), authoritative + caching recursive servers ([`server`]),
//! and an embeddable stub resolver with a client-side cache ([`stub`]).
//!
//! DNS matters to the paper twice over:
//!
//! 1. **DNS poisoning** is one of the GFW's blocking techniques — the
//!    censor forges answers for blocked names as the query crosses the
//!    border ([`server::forge_response`] is the injection primitive the
//!    GFW middlebox uses).
//! 2. **Cold DNS caches** are the first of the paper's three reasons that
//!    first-time page loads are much slower than subsequent ones (§4.3).
//!
//! ## Example
//!
//! ```
//! use sc_dns::message::{ARecord, DnsMessage, Rcode};
//! use sc_simnet::addr::Addr;
//!
//! let q = DnsMessage::query(1, "scholar.google.com");
//! let r = DnsMessage::response(
//!     &q,
//!     Rcode::NoError,
//!     vec![ARecord { addr: Addr::new(99, 2, 0, 1), ttl: 300 }],
//! );
//! assert_eq!(DnsMessage::decode(&r.encode()).unwrap(), r);
//! ```

#![warn(missing_docs)]

pub mod message;
pub mod server;
pub mod stub;

pub use message::{ARecord, DnsMessage, Rcode};
pub use server::{AuthoritativeServer, RecursiveResolver, Zone, DNS_PORT, forge_response};
pub use stub::{Resolution, ResolveOutcome, StubResolver};

#[cfg(test)]
mod tests {
    use super::*;
    use sc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// App that resolves one name via a stub resolver and logs the result.
    struct ResolveOnce {
        stub: StubResolver,
        name: String,
        result: Rc<RefCell<Option<Resolution>>>,
        resolved_at: Rc<RefCell<Option<SimTime>>>,
    }

    impl App for ResolveOnce {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.stub.bind(ctx);
            if let Some(r) = self.stub.resolve(&self.name, 0, ctx) {
                *self.result.borrow_mut() = Some(r);
                *self.resolved_at.borrow_mut() = Some(ctx.now());
            }
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            if let AppEvent::Udp { socket, payload, .. } = ev {
                if let Some(r) = self.stub.on_datagram(socket, &payload, ctx.now()) {
                    *self.result.borrow_mut() = Some(r);
                    *self.resolved_at.borrow_mut() = Some(ctx.now());
                }
            }
        }
    }

    fn dns_topology() -> (Sim, NodeId, NodeId, NodeId) {
        // client — resolver — authoritative
        let mut sim = Sim::new(5);
        let client = sim.add_node("client", Addr::new(10, 0, 0, 1));
        let resolver = sim.add_node("resolver", Addr::new(10, 0, 0, 53));
        let auth = sim.add_node("auth", Addr::new(99, 0, 0, 53));
        sim.add_link(client, resolver, LinkConfig::with_delay(SimDuration::from_millis(5)));
        sim.add_link(resolver, auth, LinkConfig::with_delay(SimDuration::from_millis(80)));
        sim.compute_routes();
        (sim, client, resolver, auth)
    }

    #[test]
    fn end_to_end_recursive_resolution() {
        let (mut sim, client, resolver, auth) = dns_topology();
        let mut zone = Zone::new();
        zone.insert("scholar.google.com", Addr::new(99, 2, 0, 1), 300);
        sim.install_app(auth, Box::new(AuthoritativeServer::new(zone)));
        sim.install_app(resolver, Box::new(RecursiveResolver::new(Addr::new(99, 0, 0, 53))));
        let result = Rc::new(RefCell::new(None));
        let at = Rc::new(RefCell::new(None));
        sim.install_app(
            client,
            Box::new(ResolveOnce {
                stub: StubResolver::new(Addr::new(10, 0, 0, 53)),
                name: "scholar.google.com".into(),
                result: result.clone(),
                resolved_at: at.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(2));
        let r = result.borrow().clone().expect("should resolve");
        assert_eq!(
            r.outcome,
            ResolveOutcome::Resolved(vec![Addr::new(99, 2, 0, 1)])
        );
        assert!(!r.from_cache);
        // Full path: 2*(5+80) ms = 170 ms.
        let ms = at.borrow().unwrap().as_micros() as f64 / 1000.0;
        assert!((170.0..175.0).contains(&ms), "resolution took {ms} ms");
    }

    #[test]
    fn nxdomain_propagates() {
        let (mut sim, client, resolver, auth) = dns_topology();
        sim.install_app(auth, Box::new(AuthoritativeServer::new(Zone::new())));
        sim.install_app(resolver, Box::new(RecursiveResolver::new(Addr::new(99, 0, 0, 53))));
        let result = Rc::new(RefCell::new(None));
        let at = Rc::new(RefCell::new(None));
        sim.install_app(
            client,
            Box::new(ResolveOnce {
                stub: StubResolver::new(Addr::new(10, 0, 0, 53)),
                name: "nonexistent.example".into(),
                result: result.clone(),
                resolved_at: at,
            }),
        );
        sim.run_for(SimDuration::from_secs(2));
        let r = result.borrow().clone().expect("should get an answer");
        assert_eq!(r.outcome, ResolveOutcome::Failed(Rcode::NxDomain));
    }

    /// Two apps on the same client node resolving the same name in
    /// sequence: the second should be served from the resolver cache and
    /// be much faster (the paper's first-time vs subsequent distinction).
    #[test]
    fn resolver_cache_makes_second_lookup_fast() {
        let (mut sim, client, resolver, auth) = dns_topology();
        let mut zone = Zone::new();
        zone.insert("scholar.google.com", Addr::new(99, 2, 0, 1), 300);
        sim.install_app(auth, Box::new(AuthoritativeServer::new(zone)));
        sim.install_app(resolver, Box::new(RecursiveResolver::new(Addr::new(99, 0, 0, 53))));

        let r1 = Rc::new(RefCell::new(None));
        let at1 = Rc::new(RefCell::new(None));
        sim.install_app(
            client,
            Box::new(ResolveOnce {
                stub: StubResolver::new(Addr::new(10, 0, 0, 53)),
                name: "scholar.google.com".into(),
                result: r1.clone(),
                resolved_at: at1.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(1));
        // Second, independent stub (cold local cache, warm resolver cache).
        let r2 = Rc::new(RefCell::new(None));
        let at2 = Rc::new(RefCell::new(None));
        let start2 = sim.now();
        sim.install_app(
            client,
            Box::new(ResolveOnce {
                stub: StubResolver::new(Addr::new(10, 0, 0, 53)),
                name: "scholar.google.com".into(),
                result: r2.clone(),
                resolved_at: at2.clone(),
            }),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert!(r2.borrow().is_some());
        let d2 = at2.borrow().unwrap() - start2;
        // Cache hit path is client↔resolver only: ~10 ms, not ~170 ms.
        assert!(d2.as_millis() <= 12, "cached lookup took {d2}");
    }

    /// The stub's own cache answers synchronously.
    #[test]
    fn stub_cache_hit_is_synchronous() {
        struct DoubleResolve {
            stub: StubResolver,
            hits: Rc<RefCell<u64>>,
        }
        impl App for DoubleResolve {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.stub.bind(ctx);
                self.stub.resolve("a.example", 1, ctx);
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                if let AppEvent::Udp { socket, payload, .. } = ev {
                    if self.stub.on_datagram(socket, &payload, ctx.now()).is_some() {
                        // Resolve again: must be a synchronous cache hit.
                        let r = self.stub.resolve("a.example", 2, ctx);
                        assert!(r.is_some_and(|r| r.from_cache));
                        *self.hits.borrow_mut() = self.stub.cache_hits;
                    }
                }
            }
        }
        let (mut sim, client, resolver, auth) = dns_topology();
        let mut zone = Zone::new();
        zone.insert("a.example", Addr::new(99, 9, 9, 9), 300);
        sim.install_app(auth, Box::new(AuthoritativeServer::new(zone)));
        sim.install_app(resolver, Box::new(RecursiveResolver::new(Addr::new(99, 0, 0, 53))));
        let hits = Rc::new(RefCell::new(0));
        sim.install_app(
            client,
            Box::new(DoubleResolve { stub: StubResolver::new(Addr::new(10, 0, 0, 53)), hits: hits.clone() }),
        );
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(*hits.borrow(), 1);
    }

    /// The retry timer resends what is pending in query-id order, not in
    /// the order of the map that holds it.
    #[test]
    fn retried_queries_go_out_in_query_id_order() {
        struct ResolveMany {
            stub: StubResolver,
        }
        impl App for ResolveMany {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.stub.bind(ctx);
                for i in 0..32 {
                    self.stub.resolve(&format!("n{i}.example"), i, ctx);
                }
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                if let AppEvent::TimerFired(_) = ev {
                    self.stub.retry_pending(ctx);
                }
            }
        }
        /// Records the id of every query it is sent and answers none.
        struct Silent {
            ids: Rc<RefCell<Vec<u16>>>,
        }
        impl App for Silent {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.udp_bind(DNS_PORT);
            }
            fn on_event(&mut self, ev: AppEvent, _ctx: &mut Ctx<'_>) {
                if let AppEvent::Udp { payload, .. } = ev {
                    self.ids.borrow_mut().push(DnsMessage::decode(&payload).unwrap().id);
                }
            }
        }
        let (mut sim, client, resolver, _) = dns_topology();
        let ids = Rc::new(RefCell::new(Vec::new()));
        sim.install_app(resolver, Box::new(Silent { ids: ids.clone() }));
        sim.install_app(client, Box::new(ResolveMany { stub: StubResolver::new(Addr::new(10, 0, 0, 53)) }));
        sim.run_for(SimDuration::from_secs(2));
        let sent_then_retried: Vec<u16> = (1..=32).chain(1..=32).collect();
        assert_eq!(*ids.borrow(), sent_then_retried);
    }
}
