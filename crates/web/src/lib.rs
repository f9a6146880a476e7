//! # sc-web
//!
//! The web substrate of the reproduction: a [`page`] model sized to the
//! paper's ~19 KB Google Scholar access, an [`origin`] server reproducing
//! Figure 4's session structure (HTTPS redirect on port 80, TLS on 443, a
//! separate first-visit account-recording host, and one service core that
//! requests queue for, for the scalability experiment), and a [`browser`] that
//! loads pages over any access method and measures page load time.

#![warn(missing_docs)]

pub mod browser;
pub mod origin;
pub mod page;

pub use browser::{Browser, BrowserConfig, LoadLog, PageLoadResult, ProxyPolicy, new_load_log};
pub use origin::OriginServer;
pub use page::{PageSpec, Resource};

#[cfg(test)]
mod tests {
    use super::*;
    use sc_dns::{AuthoritativeServer, RecursiveResolver, Zone};
    use sc_simnet::prelude::*;

    const CLIENT: Addr = Addr::new(10, 0, 0, 1);
    const RESOLVER: Addr = Addr::new(10, 0, 0, 53);
    const AUTH: Addr = Addr::new(99, 0, 0, 53);
    const SCHOLAR: Addr = Addr::new(99, 2, 0, 1);
    const ACCOUNTS: Addr = Addr::new(99, 2, 0, 2);

    fn topology() -> (Sim, NodeId) {
        topology_serving(PageSpec::google_scholar())
    }

    /// The test network, its Scholar origin serving `page`.
    fn topology_serving(page: PageSpec) -> (Sim, NodeId) {
        let mut sim = Sim::new(3);
        let client = sim.add_node("client", CLIENT);
        let cernet = sim.add_node("cernet", Addr::new(10, 0, 0, 254));
        let resolver = sim.add_node("resolver", RESOLVER);
        let border = sim.add_node("border", Addr::new(172, 16, 0, 1));
        let us = sim.add_node("us", Addr::new(99, 0, 0, 254));
        let auth = sim.add_node("auth-dns", AUTH);
        let scholar = sim.add_node("scholar", SCHOLAR);
        let accounts = sim.add_node("accounts", ACCOUNTS);
        let lan = LinkConfig::with_delay(SimDuration::from_millis(2));
        sim.add_link(client, cernet, lan);
        sim.add_link(resolver, cernet, lan);
        sim.add_link(cernet, border, LinkConfig::with_delay(SimDuration::from_millis(5)));
        sim.add_link(border, us, LinkConfig::with_delay(SimDuration::from_millis(60)));
        sim.add_link(us, auth, lan);
        sim.add_link(us, scholar, lan);
        sim.add_link(us, accounts, lan);
        sim.compute_routes();

        let mut zone = Zone::new();
        zone.insert("scholar.google.com", SCHOLAR, 300);
        zone.insert("accounts.google.com", ACCOUNTS, 300);
        let auth_node = sim.node_by_addr(AUTH).unwrap();
        sim.install_app(auth_node, Box::new(AuthoritativeServer::new(zone)));
        let resolver_node = sim.node_by_addr(RESOLVER).unwrap();
        sim.install_app(resolver_node, Box::new(RecursiveResolver::new(AUTH)));

        let scholar_node = sim.node_by_addr(SCHOLAR).unwrap();
        sim.install_app(
            scholar_node,
            Box::new(OriginServer::new("scholar.google.com", page, 11)),
        );
        let accounts_node = sim.node_by_addr(ACCOUNTS).unwrap();
        sim.install_app(
            accounts_node,
            Box::new(OriginServer::new(
                "accounts.google.com",
                PageSpec::endpoints("accounts.google.com", &[("/recordlogin", 400)]),
                12,
            )),
        );
        (sim, client)
    }

    #[test]
    fn direct_page_loads_first_and_subsequent() {
        let (mut sim, client) = topology();
        let log = new_load_log();
        let mut cfg = BrowserConfig::scholar(RESOLVER, ProxyPolicy::Direct);
        cfg.loads = 3;
        cfg.interval = SimDuration::from_secs(60);
        sim.install_app(client, Box::new(Browser::new(cfg, None, log.clone())));
        sim.run_for(SimDuration::from_secs(200));
        let log = log.borrow();
        assert_eq!(log.len(), 3, "should complete 3 loads: {log:?}");
        assert!(log.iter().all(|r| !r.failed), "loads failed: {log:?}");
        let first = log[0].plt.unwrap();
        let second = log[1].plt.unwrap();
        assert!(log[0].first_time && !log[1].first_time);
        // Cold DNS + account connection make the first load slower.
        assert!(
            first > second,
            "first-time PLT {first} should exceed subsequent {second}"
        );
        // RTT probe should be close to the 2*(2+5+60+2)=138 ms path RTT.
        let rtt = log[1].rtt.expect("rtt sampled");
        assert!(
            (120..200).contains(&rtt.as_millis()),
            "unexpected rtt {rtt}"
        );
        // First load opens more connections (accounts host).
        assert!(log[0].connections > log[1].connections);
    }

    #[test]
    fn load_times_out_when_server_is_black_holed() {
        let (mut sim, client) = topology();
        struct Hole;
        impl Middlebox for Hole {
            fn process(&mut self, pkt: &Packet, _ctx: &mut MbCtx<'_>) -> Verdict {
                if pkt.dst == SCHOLAR || pkt.src == SCHOLAR {
                    Verdict::Drop("hole")
                } else {
                    Verdict::Forward
                }
            }
        }
        let border = sim.node_by_addr(Addr::new(172, 16, 0, 1)).unwrap();
        sim.set_middlebox(border, Box::new(Hole));
        let log = new_load_log();
        let mut cfg = BrowserConfig::scholar(RESOLVER, ProxyPolicy::Direct);
        cfg.loads = 1;
        cfg.timeout = SimDuration::from_secs(20);
        sim.install_app(client, Box::new(Browser::new(cfg, None, log.clone())));
        sim.run_for(SimDuration::from_secs(60));
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert!(log[0].failed, "black-holed load must fail: {log:?}");
    }

    #[test]
    fn a_retry_after_past_the_deadline_fails_the_load_without_overflow() {
        const PROXY: Addr = Addr::new(10, 0, 0, 80);
        /// Answers every CONNECT with `503` and the largest `Retry-After`
        /// a `u64` holds.
        struct Refuser;
        impl App for Refuser {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                assert!(ctx.tcp_listen(8080));
            }
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
                if let AppEvent::Tcp(h, TcpEvent::DataReceived) = ev {
                    ctx.tcp_recv_all(h);
                    let refusal = format!(
                        "HTTP/1.1 503 Service Unavailable\r\nRetry-After: {}\r\nContent-Length: 0\r\n\r\n",
                        u64::MAX
                    );
                    ctx.tcp_send(h, refusal.as_bytes());
                    ctx.tcp_close(h);
                }
            }
        }
        let (mut sim, client) = topology();
        let proxy = sim.add_node("proxy", PROXY);
        let cernet = sim.node_by_addr(Addr::new(10, 0, 0, 254)).unwrap();
        sim.add_link(proxy, cernet, LinkConfig::with_delay(SimDuration::from_millis(2)));
        sim.compute_routes();
        sim.install_app(proxy, Box::new(Refuser));
        let log = new_load_log();
        let pac = sc_netproto::pac::PacFile::new(["scholar.google.com"], SocketAddr::new(PROXY, 8080));
        let mut cfg = BrowserConfig::scholar(RESOLVER, ProxyPolicy::Pac(pac));
        cfg.loads = 1;
        cfg.timeout = SimDuration::from_secs(20);
        sim.install_app(client, Box::new(Browser::new(cfg, None, log.clone())));
        sim.run_for(SimDuration::from_secs(60));
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert!(log[0].failed && log[0].throttled, "the refused load fails at its deadline: {log:?}");
        assert_eq!(log[0].proxy_status, Some(503));
    }

    /// Loads twice a Scholar page whose manifest names `host`, which no
    /// DNS query can carry: both loads are logged as failed, and the
    /// simulation runs on past the first.
    fn bad_manifest_host_fails_each_load(host: &str) {
        let mut page = PageSpec::google_scholar();
        let bad = Resource { host: host.into(), path: "/bad".into(), len: 100, first_visit_only: false };
        page.resources.push(bad);
        let (mut sim, client) = topology_serving(page);
        let log = new_load_log();
        let mut cfg = BrowserConfig::scholar(RESOLVER, ProxyPolicy::Direct);
        cfg.loads = 2;
        sim.install_app(client, Box::new(Browser::new(cfg, None, log.clone())));
        sim.run_for(SimDuration::from_secs(150));
        let log = log.borrow();
        assert_eq!(log.len(), 2, "both loads end: {log:?}");
        assert!(log.iter().all(|r| r.failed && r.plt.is_none()), "a bad host fails its load: {log:?}");
    }

    #[test]
    fn an_empty_manifest_host_fails_the_load() {
        bad_manifest_host_fails_each_load("");
    }

    #[test]
    fn a_manifest_host_too_long_for_dns_fails_the_load() {
        bad_manifest_host_fails_each_load(&"a".repeat(300));
    }

    #[test]
    fn ready_gate_delays_first_load() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (mut sim, client) = topology();
        let ready = Rc::new(Cell::new(false));
        let flag = ready.clone();
        let gate = Rc::new(move || flag.get());
        let log = new_load_log();
        let mut cfg = BrowserConfig::scholar(RESOLVER, ProxyPolicy::Direct);
        cfg.loads = 1;
        sim.install_app(client, Box::new(Browser::new(cfg, Some(gate), log.clone())));
        sim.run_for(SimDuration::from_secs(5));
        assert!(log.borrow().is_empty(), "must wait for the gate");
        ready.set(true);
        sim.run_for(SimDuration::from_secs(30));
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert!(!log[0].failed);
        // The first load's clock starts at browser launch, so the gated
        // wait (≥5 s) is part of the measured first-time PLT — exactly how
        // the paper attributes Tor's bootstrap to its first load.
        assert!(log[0].started == SimTime::ZERO);
        assert!(log[0].plt.unwrap() >= SimDuration::from_secs(5));
    }

    #[test]
    fn repeated_loads_hold_interval_cadence() {
        let (mut sim, client) = topology();
        let log = new_load_log();
        let mut cfg = BrowserConfig::scholar(RESOLVER, ProxyPolicy::Direct);
        cfg.loads = 4;
        cfg.interval = SimDuration::from_secs(30);
        sim.install_app(client, Box::new(Browser::new(cfg, None, log.clone())));
        sim.run_for(SimDuration::from_secs(150));
        let log = log.borrow();
        assert_eq!(log.len(), 4);
        for pair in log.windows(2) {
            let gap = pair[1].started - pair[0].started;
            let ms = gap.as_millis() as i64;
            assert!((29_500..31_500).contains(&ms), "cadence drifted: {gap}");
        }
    }
}
