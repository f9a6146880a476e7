//! Stage unit tests: the scripted world, `sc_simnet::scripted::ScriptedIo`,
//! drives a stage (or the whole driver) with no simulator and no topology.

use std::rc::Rc;

use bytes::Bytes;
use sc_cache::CacheConfig;
use sc_netproto::http::{HttpRequest, HttpResponse};
use sc_netproto::socks::TargetAddr;
use sc_obs::{SpanId, TraceCtx, TraceId};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{AppEvent, TcpEvent, TcpHandle};
use sc_simnet::scripted::{Call, ScriptedIo};
use sc_simnet::time::SimDuration;

use super::admit::{stream_header, Request};
use super::establish::{Establish, Up};
use super::gateway::{Gateway, Parsed};
use super::io::Timer;
use super::relay::{Ending, Relay};
use super::remotes::Remotes;
use super::{DomesticProxy, Step};
use crate::config::{RotationPolicy, ScConfig};
use crate::frame::{Hello, StreamCodec};
use crate::resilience::BREAKER_THRESHOLD;

/// Counts what the stages allocate, for the copy-budget test.
#[global_allocator]
static COUNTING: sc_obs::prof::CountingAlloc = sc_obs::prof::CountingAlloc;

const CLIENT: Addr = Addr::new(10, 0, 0, 7);

fn config() -> ScConfig {
    ScConfig::new(Addr::new(10, 1, 0, 1), Addr::new(99, 0, 0, 40))
}

fn connect_request(browser: usize, tctx: TraceCtx) -> Request {
    Request {
        browser: TcpHandle(browser),
        client: CLIENT,
        header: stream_header("scholar.google.com", 443, true, tctx),
        initial_plain: Vec::new(),
        is_connect: true,
        tctx,
    }
}

/// A pool whose single remote's breaker is open, and the establish
/// stage in front of it.
fn dark_pool(io: &mut ScriptedIo) -> (Establish, Remotes) {
    let cfg = Rc::new(config());
    let mut remotes = Remotes::new(cfg.clone());
    for _ in 0..BREAKER_THRESHOLD {
        remotes.failed(0, io);
    }
    assert!(remotes.pick(io.now, None).is_none(), "the breaker must be open");
    (Establish::new(cfg), remotes)
}

/// Parks `browser` (admitted now) and returns what parking came to.
fn park(
    est: &mut Establish,
    remotes: &mut Remotes,
    browser: usize,
    cap: usize,
    io: &mut ScriptedIo,
) -> Step {
    est.enter(connect_request(browser, TraceCtx::NONE), false, SpanId::NONE, io.now);
    est.try_attempt(TcpHandle(browser), cap, remotes, io)
}

#[test]
fn timer_tokens_round_trip() {
    let h = TcpHandle(123_456);
    for timer in [
        Timer::ProbeTick,
        Timer::QueueTick,
        Timer::ElasticTick,
        Timer::ConnectDeadline(h),
        Timer::ProbeDeadline(h),
        Timer::Retry(h),
        Timer::PeerDeadline(h),
    ] {
        assert_eq!(Timer::from_token(timer.token()), Some(timer));
    }
    assert_eq!(Timer::from_token(u64::MAX), None);
}

/// The bug this pins: parked requests used to be retried in the hash
/// order of the pending table, so with two or more parked the nonce
/// draws and remote picks — the trace — depended on `RandomState`.
#[test]
fn parked_requests_retry_oldest_first() {
    let mut io = ScriptedIo::default();
    let (mut est, mut remotes) = dark_pool(&mut io);
    // Park order 9, 3, 5: neither handle order nor any hash order.
    for browser in [9, 3, 5] {
        assert!(matches!(park(&mut est, &mut remotes, browser, 8, &mut io), Step::Parked { .. }));
        io.advance(SimDuration::from_millis(10));
    }
    // Two parked at the same instant tie-break on the handle.
    for browser in [8, 4] {
        park(&mut est, &mut remotes, browser, 8, &mut io);
    }

    // A probe proves the remote healthy again.
    remotes.probe_round(&mut io);
    let probe = *io.connects().last().expect("the dark remote is probed");
    assert!(remotes.on_probe_event(probe, TcpEvent::Connected, &mut io));

    let order = est.parked();
    assert_eq!(order, [9, 3, 5, 4, 8].map(TcpHandle));
    let before = io.connects().len();
    for browser in order {
        assert!(matches!(est.try_attempt(browser, 8, &mut remotes, &mut io), Step::Done));
    }
    assert_eq!(io.connects().len(), before + 5, "every parked request got its attempt");
    assert!(est.parked().is_empty());
}

#[test]
fn park_overflow_sheds_the_oldest_first() {
    let mut io = ScriptedIo::default();
    let (mut est, mut remotes) = dark_pool(&mut io);
    for browser in [7, 2] {
        let parked = park(&mut est, &mut remotes, browser, 2, &mut io);
        let Step::Parked { overflow, expired, .. } = parked else { panic!("a dark pool parks") };
        assert!(overflow.is_empty() && !expired);
        io.advance(SimDuration::from_millis(10));
    }
    // The third exceeds the cap of two: the oldest (7, not the lowest
    // handle) goes.
    let Step::Parked { browser, overflow, expired } = park(&mut est, &mut remotes, 5, 2, &mut io)
    else {
        panic!("a dark pool parks")
    };
    assert_eq!((browser, overflow, expired), (TcpHandle(5), vec![TcpHandle(7)], false));
    // Each parked request armed one re-check.
    let rechecks = io.calls.iter().filter(|c| matches!(c, Call::Timer(t) if matches!(Timer::from_token(*t), Some(Timer::Retry(_))))).count();
    assert_eq!(rechecks, 3);
}

/// Drives a browser's CONNECT through the whole proxy and returns the
/// remote-side handle of its first attempt.
fn connect_through(proxy: &mut DomesticProxy, browser: TcpHandle, io: &mut ScriptedIo) -> TcpHandle {
    let peer = SocketAddr::new(CLIENT, 40_000);
    proxy.route(AppEvent::Tcp(browser, TcpEvent::Accepted { peer }), io);
    io.inbox.insert(browser, HttpRequest::connect("scholar.google.com:443").encode());
    proxy.route(AppEvent::Tcp(browser, TcpEvent::DataReceived), io);
    *io.connects().last().expect("an admitted CONNECT starts an attempt")
}

fn assert_drained(proxy: &DomesticProxy) {
    let held: Vec<_> = proxy.occupancy().into_iter().filter(|(_, n)| *n > 0).collect();
    assert!(held.is_empty(), "proxy still holds {held:?}");
}

#[test]
fn a_denied_retry_is_a_502_not_a_retry() {
    let mut cfg = config();
    cfg.admission.retry_budget_frac = 0.0;
    cfg.admission.retry_budget_burst = 0.0;
    let mut proxy = DomesticProxy::new(cfg);
    let mut io = ScriptedIo::default();
    let browser = TcpHandle(1);
    let attempt = connect_through(&mut proxy, browser, &mut io);

    proxy.route(AppEvent::Tcp(attempt, TcpEvent::ConnectFailed), &mut io);

    assert!(io.sent(browser).starts_with("HTTP/1.1 502"), "{}", io.sent(browser));
    assert!(io.calls.contains(&Call::Close(browser)));
    assert!(!io.calls.contains(&Call::Timer(Timer::Retry(browser).token())), "no retry was scheduled");
    assert_eq!(io.connects().len(), 1, "no second attempt");
    assert_drained(&proxy);
}

#[test]
fn a_granted_retry_backs_off_and_fails_over() {
    let mut proxy = DomesticProxy::new(config().with_remotes(&[
        Addr::new(99, 0, 0, 40),
        Addr::new(99, 0, 0, 41),
    ]));
    let mut io = ScriptedIo::default();
    let browser = TcpHandle(1);
    let first = connect_through(&mut proxy, browser, &mut io);
    proxy.route(AppEvent::Tcp(first, TcpEvent::ConnectFailed), &mut io);
    assert!(io.calls.contains(&Call::Timer(Timer::Retry(browser).token())));
    assert!(io.sent(browser).is_empty(), "the browser hears nothing while retrying");

    proxy.route(AppEvent::TimerFired(Timer::Retry(browser).token()), &mut io);
    let second = *io.connects().last().unwrap();
    assert_ne!(first, second);
    proxy.route(AppEvent::Tcp(second, TcpEvent::Connected), &mut io);
    assert!(io.sent(browser).starts_with("HTTP/1.1 200"), "the 200 waits for the tunnel");

    // Browser closes: the stream ends, the slot comes back, nothing
    // is left behind.
    proxy.route(AppEvent::Tcp(browser, TcpEvent::PeerClosed), &mut io);
    assert!(io.calls.contains(&Call::Close(second)));
    assert_drained(&proxy);
}

fn gateway_get(gw: &mut Gateway, browser: usize, trace: u64, io: &mut ScriptedIo) -> Step {
    let tctx = TraceCtx::new(TraceId(trace), SpanId(trace));
    let req = HttpRequest::get("scholar.google.com", "http://scholar.google.com/paper")
        .header(sc_obs::TRACE_HEADER, &tctx.header_value());
    gw.request(TcpHandle(browser), CLIENT, req, |_, _| None, io)
}

#[test]
fn a_port_that_is_not_a_port_is_a_400_not_port_80() {
    let request = |target: &str| {
        let mut io = ScriptedIo::default();
        let mut gw = Gateway::new(Rc::new(config()));
        let req = HttpRequest::get("scholar.google.com", target);
        let step = gw.request(TcpHandle(1), CLIENT, req, |_, _| None, &mut io);
        (step, io, gw)
    };
    for target in [
        "http://scholar.google.com:99999/x",
        "http://scholar.google.com:abc/",
        "scholar.google.com/x",
    ] {
        let (step, io, gw) = request(target);
        assert!(matches!(step, Step::Done), "{target}: nothing is fetched");
        assert!(io.sent(TcpHandle(1)).starts_with("HTTP/1.1 400"), "{target}");
        assert_eq!(gw.occupancy().map(|(_, n)| n), [0, 0, 0], "{target}");
    }
    let (step, ..) = request("http://scholar.google.com:8081/x");
    let dialled = TargetAddr::Domain("scholar.google.com".into(), 8081);
    assert!(
        matches!(&step, Step::Admit(req) if req.header.target == dialled),
        "a port that is one is dialled as given"
    );
}

/// A whitelisted name of `len` bytes.
fn scholar_host(len: usize) -> String {
    format!("{}.scholar.google.com", "a".repeat(len - ".scholar.google.com".len()))
}

/// A stream header's length byte says at most 255: a longer host is
/// refused where it enters — a CONNECT, a gateway request in either
/// form — instead of being sent to the remote misframed.
#[test]
fn a_host_longer_than_a_stream_header_can_carry_is_a_400() {
    for (len, admitted) in [(255, true), (256, false), (319, false)] {
        let host = scholar_host(len);
        assert!(config().whitelisted(&host), "{len}: the whitelist alone lets it through");

        let mut proxy = DomesticProxy::new(config());
        let mut io = ScriptedIo::default();
        let browser = TcpHandle(1);
        proxy.route(AppEvent::Tcp(browser, TcpEvent::Accepted { peer: SocketAddr::new(CLIENT, 40_000) }), &mut io);
        io.inbox.insert(browser, HttpRequest::connect(&format!("{host}:443")).encode());
        proxy.route(AppEvent::Tcp(browser, TcpEvent::DataReceived), &mut io);
        assert_eq!(io.connects().len(), usize::from(admitted), "CONNECT to a {len}-byte host");
        assert_eq!(io.sent(browser).starts_with("HTTP/1.1 400"), !admitted, "CONNECT to a {len}-byte host");

        for req in [
            HttpRequest::get(&host, &format!("http://{host}/paper")),
            HttpRequest::get(&host, "/paper"),
        ] {
            let mut io = ScriptedIo::default();
            let mut gw = Gateway::new(Rc::new(config()));
            let step = gw.request(TcpHandle(1), CLIENT, req, |_, _| None, &mut io);
            assert_eq!(matches!(step, Step::Admit(_)), admitted, "gateway GET for a {len}-byte host");
            assert_eq!(io.sent(TcpHandle(1)).starts_with("HTTP/1.1 400"), !admitted, "{len}");
        }
    }
}

/// A leader with two waiters coalesced behind its upstream fetch.
fn flight_of_three(io: &mut ScriptedIo) -> Gateway {
    flight_of_three_on(Rc::new(config()), io)
}

fn flight_of_three_on(cfg: Rc<ScConfig>, io: &mut ScriptedIo) -> Gateway {
    let mut gw = Gateway::new(cfg);
    let led = gateway_get(&mut gw, 1, 0xa1, io);
    assert!(matches!(led, Step::Admit(req) if req.browser == TcpHandle(1)), "first request leads");
    for (browser, trace) in [(2, 0xa2), (3, 0xa3)] {
        assert!(matches!(gateway_get(&mut gw, browser, trace, io), Step::Done), "waiters park");
    }
    assert_eq!(gw.occupancy().map(|(_, n)| n), [1, 2, 1]);
    gw
}

#[test]
fn a_departing_leader_promotes_exactly_one_waiter_under_its_own_trace() {
    let mut io = ScriptedIo::default();
    let mut gw = flight_of_three(&mut io);

    let Step::Admit(replayed) = gw.browser_gone(TcpHandle(1), io.now) else {
        panic!("the first waiter takes over the fetch")
    };
    assert_eq!(replayed.browser, TcpHandle(2));
    assert_eq!(replayed.tctx, TraceCtx::new(TraceId(0xa2), SpanId(0xa2)));
    assert_eq!(replayed.header.trace, 0xa2);
    assert!(!replayed.is_connect);
    assert!(String::from_utf8_lossy(&replayed.initial_plain).starts_with("GET /paper "));
    // One fetch (the promoted one), one waiter still parked behind it.
    assert_eq!(gw.occupancy().map(|(_, n)| n), [1, 1, 1]);
    assert!(io.calls.is_empty(), "nobody has been answered yet");

    // A departing waiter just leaves.
    assert!(matches!(gw.browser_gone(TcpHandle(3), io.now), Step::Done));
    assert_eq!(gw.occupancy().map(|(_, n)| n), [1, 0, 1]);
}

#[test]
fn a_failed_leader_fans_its_status_to_every_waiter() {
    let mut io = ScriptedIo::default();
    let mut gw = flight_of_three(&mut io);

    let closed = gw.fail_waiters(TcpHandle(1), 502, &mut io);

    assert_eq!(closed, [2, 3].map(TcpHandle));
    for waiter in closed {
        assert!(io.sent(waiter).starts_with("HTTP/1.1 502"), "{}", io.sent(waiter));
        assert!(io.calls.contains(&Call::Close(waiter)));
    }
    assert!(io.sent(TcpHandle(1)).is_empty(), "the leader is answered by whoever failed it");
    assert_eq!(gw.occupancy().map(|(_, n)| n), [0, 0, 0]);
}

/// The body chunk of the one answer sent to `h`: `[head, body]`.
fn body_sent(io: &ScriptedIo, h: usize) -> Bytes {
    let mut sends = io.calls.iter().filter_map(|c| match c {
        Call::Send(to, chunks) if *to == TcpHandle(h) => Some(chunks),
        _ => None,
    });
    let (Some(chunks), None) = (sends.next(), sends.next()) else { panic!("one answer to {h}") };
    assert_eq!(chunks.len(), 2, "an answer is handed over as head and body");
    chunks[1].clone()
}

/// Bytes `f` allocates, under this test binary's counting allocator.
/// Tests run on other threads at the same time and what they allocate
/// is counted too, so the least of three runs is taken: a copy made by
/// `f` is made every time, a neighbour's allocation is not.
fn allocated_by(mut f: impl FnMut()) -> u64 {
    let mut least = u64::MAX;
    for _ in 0..3 {
        let before = sc_obs::prof::alloc_stats().allocated_bytes;
        f();
        least = least.min(sc_obs::prof::alloc_stats().allocated_bytes - before);
    }
    least
}

/// The copy budget of the gateway tier (DESIGN.md §6p), counted: a
/// coalesced settle stores the body and answers the leader and both
/// waiters, and a later hit answers a fourth requester, without the body
/// being copied once — the response, the cache entry and all four
/// answers are one allocation.
#[test]
fn a_settled_fetch_and_a_cache_hit_share_the_body_they_were_given() {
    const BODY: usize = 1 << 20;
    let big_cache = || {
        let cache = CacheConfig { capacity_bytes: 4 * BODY, ..CacheConfig::default() };
        Rc::new(config().with_cache(cache))
    };
    // The origin's answer reaches the leader's fetch segment by segment.
    let page = HttpResponse::new(200, vec![b'p'; BODY])
        .header("ETag", "\"v1\"")
        .header("Cache-Control", "public, max-age=60");
    let wire = Bytes::from(page.encode());
    let settle_one = |io: &mut ScriptedIo| {
        let mut gw = flight_of_three_on(big_cache(), io);
        let mut parsed = None;
        for at in (0..wire.len()).step_by(1460) {
            match gw.upstream_data(TcpHandle(1), wire.slice(at..wire.len().min(at + 1460))) {
                Parsed::More => {}
                Parsed::Response(resp) => parsed = Some(resp),
                _ => panic!("the fetch is the leader's and the stream is HTTP"),
            }
        }
        (gw, parsed.expect("a whole response"))
    };

    // The parser assembled the body once, into a buffer of its length.
    let mut io = ScriptedIo::default();
    let (mut gw, resp) = settle_one(&mut io);
    let assembled = resp.body.clone();
    gw.settle(TcpHandle(1), resp, false, &mut io);
    for requester in [1, 2, 3] {
        assert_eq!(body_sent(&io, requester).as_ptr(), assembled.as_ptr(), "answer to {requester}");
    }
    // A fourth requester hits the entry: the same allocation again.
    assert!(matches!(gateway_get(&mut gw, 4, 0xa4, &mut io), Step::Done));
    assert_eq!(body_sent(&io, 4).as_ptr(), assembled.as_ptr(), "the hit");
    assert_eq!(gw.occupancy().map(|(_, n)| n), [0, 0, 0]);

    // And by the allocator's count: settling and hitting allocate heads,
    // keys and spans — a small fraction of one body between them.
    let ready: Vec<_> = (0..3)
        .map(|_| {
            let mut io = ScriptedIo::default();
            let (gw, resp) = settle_one(&mut io);
            (gw, resp, io)
        })
        .collect();
    let (mut ready, mut settled) = (ready.into_iter(), Vec::with_capacity(3));
    let settling = allocated_by(|| {
        let (mut gw, resp, mut io) = ready.next().expect("three runs");
        gw.settle(TcpHandle(1), resp, false, &mut io);
        settled.push((gw, io));
    });
    assert!(settling < BODY as u64 / 16, "settle allocated {settling} B around a {BODY} B body");
    let mut settled = settled.iter_mut();
    let hitting = allocated_by(|| {
        let (gw, io) = settled.next().expect("three runs");
        assert!(matches!(gateway_get(gw, 4, 0xa4, io), Step::Done));
    });
    assert!(hitting < BODY as u64 / 16, "a hit allocated {hitting} B around a {BODY} B body");
}

/// An established CONNECT stream on remote handle 50 for browser 1.
fn open_stream(stream_resume: bool, io: &mut ScriptedIo) -> (Relay, Remotes) {
    let mut cfg = config();
    cfg.rotation = stream_resume.then(RotationPolicy::default);
    let cfg = Rc::new(cfg);
    let hello = Hello { scheme: cfg.scheme.get(), nonce: 1, generation: 0 };
    let (tx, rx) = StreamCodec::pair(&cfg.secret, &hello, false);
    let up = Up {
        req: connect_request(1, TraceCtx::NONE),
        remote_idx: 0,
        remote: cfg.remotes[0],
        attempts: 1,
        resumed: false,
        tx,
        rx,
        up_bytes: 0,
        service: SimDuration::ZERO,
    };
    let mut relay = Relay::new(cfg.clone());
    relay.open(TcpHandle(50), up, io);
    (relay, Remotes::new(cfg))
}

#[test]
fn a_reset_before_the_first_downstream_byte_resumes_from_the_replay_buffer() {
    let mut io = ScriptedIo::default();
    let (mut relay, mut remotes) = open_stream(true, &mut io);
    relay.upstream(TcpHandle(50), b"client hello", &mut io);
    relay.upstream(TcpHandle(50), b", more", &mut io);

    assert!(relay.ending_for(TcpHandle(50), false) == Ending::Clean);
    let how = relay.ending_for(TcpHandle(50), true);
    assert!(how == Ending::Resumed);
    let ended = relay.end(TcpHandle(50), how, &mut remotes, &mut io).expect("stream exists");
    let replay = ended.replay.expect("a resumed stream hands back its replay");
    assert_eq!(replay.req.initial_plain, b"client hello, more");
    assert_eq!((replay.req.browser, replay.attempts, ended.remote_idx), (TcpHandle(1), 1, 0));
    assert_eq!(relay.occupancy(), [("streams", 0)]);
}

#[test]
fn a_reset_after_a_downstream_byte_is_final() {
    let mut io = ScriptedIo::default();
    let (mut relay, mut remotes) = open_stream(true, &mut io);
    relay.upstream(TcpHandle(50), b"client hello", &mut io);
    io.inbox.insert(TcpHandle(50), b"server hello".to_vec());
    let (browser, plain) = relay.downstream(TcpHandle(50), &remotes, &mut io).unwrap();
    assert_eq!((browser, plain.len()), (TcpHandle(1), 12));

    let how = relay.ending_for(TcpHandle(50), true);
    assert!(how == Ending::Reset);
    let ended = relay.end(TcpHandle(50), how, &mut remotes, &mut io).unwrap();
    assert!(ended.replay.is_none());
}

#[test]
fn without_stream_resume_a_reset_is_final() {
    let mut io = ScriptedIo::default();
    let (relay, _) = open_stream(false, &mut io);
    assert!(relay.ending_for(TcpHandle(50), true) == Ending::Reset);
}

/// Drives a plain-HTTP GET through the whole proxy up to an established
/// upstream fetch; returns the remote-side handle.
fn gateway_fetch_through(
    proxy: &mut DomesticProxy,
    browser: TcpHandle,
    io: &mut ScriptedIo,
) -> TcpHandle {
    let peer = SocketAddr::new(CLIENT, 40_000);
    proxy.route(AppEvent::Tcp(browser, TcpEvent::Accepted { peer }), io);
    let get = HttpRequest::get("scholar.google.com", "http://scholar.google.com/paper");
    io.inbox.insert(browser, get.encode());
    proxy.route(AppEvent::Tcp(browser, TcpEvent::DataReceived), io);
    let remote = *io.connects().last().expect("a cache miss goes upstream");
    proxy.route(AppEvent::Tcp(remote, TcpEvent::Connected), io);
    remote
}

/// The established stream held the request's admission slot, and a
/// response that is not HTTP used to end the stream without ever
/// handing it back.
#[test]
fn a_garbled_upstream_response_is_a_502_and_frees_the_slot() {
    let cfg = config();
    // What the remote would send under the attempt's session: the fake's
    // first draw is the nonce.
    let hello = Hello { scheme: cfg.scheme.get(), nonce: 1, generation: cfg.scheme.generation() };
    let (_, mut remote_tx) = StreamCodec::pair(&cfg.secret, &hello, true);
    let mut garbage = b"\x00\x01 not http \r\n\r\n".to_vec();
    remote_tx.encode(&mut garbage);

    let mut proxy = DomesticProxy::new(cfg);
    let mut io = ScriptedIo::default();
    let browser = TcpHandle(1);
    let remote = gateway_fetch_through(&mut proxy, browser, &mut io);
    io.inbox.insert(remote, garbage);
    proxy.route(AppEvent::Tcp(remote, TcpEvent::DataReceived), &mut io);

    assert!(io.calls.contains(&Call::Abort(remote)));
    assert!(io.sent(browser).starts_with("HTTP/1.1 502"), "{}", io.sent(browser));
    assert_drained(&proxy);
}

/// Garbage on a gateway connection with a fetch in flight used to drop
/// the connection but leave its pending request (and slot) behind.
#[test]
fn garbage_on_a_gateway_conn_tears_its_request_down() {
    let mut proxy = DomesticProxy::new(config());
    let mut io = ScriptedIo::default();
    let browser = TcpHandle(1);
    let peer = SocketAddr::new(CLIENT, 40_000);
    proxy.route(AppEvent::Tcp(browser, TcpEvent::Accepted { peer }), &mut io);
    let get = HttpRequest::get("scholar.google.com", "http://scholar.google.com/paper");
    io.inbox.insert(browser, get.encode());
    proxy.route(AppEvent::Tcp(browser, TcpEvent::DataReceived), &mut io);
    let attempt = *io.connects().last().unwrap();

    io.inbox.insert(browser, b"\x16\x03\x01 definitely not http\r\n\r\n".to_vec());
    proxy.route(AppEvent::Tcp(browser, TcpEvent::DataReceived), &mut io);

    assert!(io.calls.contains(&Call::Abort(browser)));
    assert!(io.calls.contains(&Call::Abort(attempt)), "the in-flight attempt goes too");
    assert_drained(&proxy);
}

#[test]
fn a_miss_on_another_shards_key_becomes_a_hop_with_the_fetch_registered() {
    let mut io = ScriptedIo::default();
    let mut gw = Gateway::new(Rc::new(config()));
    let tctx = TraceCtx::new(TraceId(7), SpanId(7));
    let req = HttpRequest::get("scholar.google.com", "http://scholar.google.com/paper")
        .header(sc_obs::TRACE_HEADER, &tctx.header_value());
    let Step::Hop(miss) = gw.request(TcpHandle(1), CLIENT, req, |_, _| Some(2), &mut io) else {
        panic!("a key owned by shard 2 is fetched from shard 2")
    };
    assert_eq!((miss.leader, miss.owner, miss.port), (TcpHandle(1), 2, 80));
    assert_eq!(miss.key, ("scholar.google.com".to_string(), "/paper".to_string()));
    assert_eq!(gw.occupancy().map(|(_, n)| n), [1, 0, 1], "waiters can coalesce behind the hop");
    // The hop failed: the same fetch goes upstream under the leader.
    let fallback = gw.fall_back_upstream(TcpHandle(1), io.now);
    assert!(matches!(fallback, Step::Admit(req) if req.browser == TcpHandle(1) && !req.is_connect));
}
