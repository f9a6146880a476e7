//! Micro rows: one layer's public functions on fixed inputs, with no
//! other layer above or below, so a layer-local change can be sized
//! before it is looked for in a workload.
//!
//! Each row runs [`BATCHES`] batches of a fixed iteration count and
//! reports the fastest batch (identical work per batch, so anything
//! above the minimum is interference). Inputs are 16 KiB buffers or
//! messages the stack itself encodes; none depends on the seed.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use sc_cache::{CacheConfig, CacheKey, CachedResponse, ContentCache, Lookup, Role, Singleflight};
use sc_core::{Hello, StreamCodec, StreamHeader};
use sc_crypto::aes::{Aes, KeySize};
use sc_crypto::blinding::BlindingScheme;
use sc_crypto::modes::Cfb;
use sc_crypto::sha256::sha256;
use sc_gfw::{FlowTable, GfwConfig};
use sc_netproto::pac::PacFile;
use sc_netproto::{HttpParser, HttpRequest, HttpResponse, TargetAddr, TlsClient};
use sc_simnet::prelude::*;

use crate::spans;

/// Batches per micro row.
pub const BATCHES: usize = 10;

/// Buffer size of the byte-throughput rows.
const BUF: usize = 16 * 1024;

/// One micro result.
#[derive(Debug, Clone, Copy)]
pub struct MicroRow {
    /// Metric name.
    pub name: &'static str,
    /// Value in the unit the per-layer table gives the row.
    pub value: f64,
}

/// Seconds per iteration of the fastest of `batches` batches of `iters`
/// calls to `op`.
fn fastest_s(name: &'static str, batches: usize, iters: u32, mut op: impl FnMut()) -> f64 {
    let span = spans::enter(name);
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    spans::exit(span);
    best / f64::from(iters)
}

fn ns(
    name: &'static str,
    span: &'static str,
    batches: usize,
    iters: u32,
    op: impl FnMut(),
) -> MicroRow {
    MicroRow {
        name,
        value: fastest_s(span, batches, iters, op) * 1e9,
    }
}

fn mib_per_s(
    name: &'static str,
    span: &'static str,
    batches: usize,
    iters: u32,
    op: impl FnMut(),
) -> MicroRow {
    let s = fastest_s(span, batches, iters, op);
    MicroRow {
        name,
        value: BUF as f64 / (1024.0 * 1024.0) / s,
    }
}

fn cache_key(i: usize) -> CacheKey {
    (
        "scholar.google.com".to_string(),
        format!("/citations?page={i}"),
    )
}

fn cache_response() -> CachedResponse {
    CachedResponse {
        status: 200,
        content_type: "text/html".to_string(),
        etag: "\"deadbeefdeadbeef\"".to_string(),
        max_age: Some(300),
        body: vec![0x42; BUF],
    }
}

fn filled_cache(entries: usize, capacity: usize) -> ContentCache {
    let ttl = SimDuration::from_secs(600);
    let mut cache = ContentCache::new(CacheConfig {
        capacity_bytes: capacity,
        default_ttl: ttl,
        host_ttl: Vec::new(),
    });
    for i in 0..entries {
        cache.insert(cache_key(i), cache_response(), ttl, SimTime::ZERO);
    }
    cache
}

struct EchoServer;

impl App for EchoServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(80);
    }
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        if let AppEvent::Tcp(h, TcpEvent::DataReceived) = ev {
            let data = ctx.tcp_recv_all(h);
            ctx.tcp_send(h, &data);
        }
    }
}

struct EchoClient {
    peer: SocketAddr,
    got: Rc<RefCell<usize>>,
}

impl App for EchoClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_connect(self.peer);
    }
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        match ev {
            AppEvent::Tcp(h, TcpEvent::Connected) => {
                ctx.tcp_send(h, &vec![7u8; ECHO_BYTES]);
            }
            AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                *self.got.borrow_mut() += ctx.tcp_recv_all(h).len();
            }
            _ => {}
        }
    }
}

const ECHO_BYTES: usize = 200_000;

/// Two nodes, one lossy link, a 200 KB echo: the event loop and TCP
/// with no application stack above. Returns events dispatched.
fn bare_tcp_echo() -> u64 {
    let server = Addr::new(99, 0, 0, 1);
    let mut sim = Sim::new(7);
    let a = sim.add_node("a", Addr::new(10, 0, 0, 1));
    let s = sim.add_node("s", server);
    sim.add_link(
        a,
        s,
        LinkConfig::with_delay(SimDuration::from_millis(20)).loss(0.002),
    );
    sim.compute_routes();
    sim.install_app(s, Box::new(EchoServer));
    let got = Rc::new(RefCell::new(0));
    sim.install_app(
        a,
        Box::new(EchoClient {
            peer: SocketAddr::new(server, 80),
            got: got.clone(),
        }),
    );
    sim.run_for(SimDuration::from_secs(60));
    assert_eq!(*got.borrow(), ECHO_BYTES, "the echo must complete");
    sim.stats.events_processed
}

/// Runs every micro row. Measured runs use [`BATCHES`] batches and the
/// iteration counts below (a batch takes 3–15 ms on the reference box);
/// `--smoke` runs one batch of a tenth of the iterations.
pub fn run_all(smoke: bool) -> Vec<MicroRow> {
    let batches = if smoke { 1 } else { BATCHES };
    let n = |iters: u32| if smoke { (iters / 10).max(1) } else { iters };
    let mut rows = Vec::new();
    let data = vec![0xa5u8; BUF];
    let now = SimTime::from_secs(1);

    // --- simnet ---
    let events = bare_tcp_echo();
    let s = fastest_s("micro.simnet.bare_tcp", batches, n(3), || {
        black_box(bare_tcp_echo());
    });
    rows.push(MicroRow {
        name: "simnet.bare_tcp_events_per_s",
        value: events as f64 / s,
    });

    // --- gfw ---
    let cfg = GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16));
    let packet = |port: u16, payload: &[u8]| {
        Packet::tcp(
            SocketAddr::new(Addr::new(10, 0, 0, 1), 40_000),
            SocketAddr::new(Addr::new(99, 0, 0, 1), port),
            TcpSegmentBody {
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 0,
                payload: Bytes::copy_from_slice(payload),
            },
        )
    };
    let http = packet(80, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n");
    let tls = packet(443, &TlsClient::new("cdn.example", 7).start_handshake());
    for (name, span, pkt) in [
        ("gfw.classify_http_ns", "micro.gfw.classify_http", &http),
        ("gfw.classify_tls_ns", "micro.gfw.classify_tls", &tls),
    ] {
        rows.push(ns(name, span, batches, n(20_000), || {
            let mut table = FlowTable::new();
            black_box(table.observe(black_box(pkt), SimTime::ZERO, &cfg));
        }));
    }

    // --- scholarcloud ---
    // One tunnel frame as the paper shape sends it: stream header out
    // and back, and a 16 KiB TLS payload blinded by the domestic side
    // and unblinded by the remote side.
    let secret = b"scholarcloud-operator-secret-2016";
    let hello = Hello {
        scheme: BlindingScheme::ByteMap,
        nonce: 0x5c5c_5c5c,
        generation: 0,
    };
    let header = StreamHeader {
        is_tls: true,
        trace: 1,
        parent: 2,
        target: TargetAddr::Domain("scholar.google.com".into(), 443),
    };
    let mut domestic = StreamCodec::new(secret, &hello, false, 0);
    let mut remote = StreamCodec::new(secret, &hello, false, 0);
    rows.push(ns(
        "scholarcloud.frame_roundtrip_ns",
        "micro.scholarcloud.frame",
        batches,
        n(400),
        || {
            let wire = header.encode();
            black_box(StreamHeader::decode(&wire));
            let mut buf = data.clone();
            domestic.encode(&mut buf);
            remote.decode(&mut buf);
            black_box(buf);
        },
    ));

    // --- crypto ---
    let bytemap = BlindingScheme::ByteMap.instantiate(b"key");
    rows.push(mib_per_s(
        "crypto.blind_bytemap_mib_per_s",
        "micro.crypto.blind",
        batches,
        n(400),
        || {
            let mut buf = data.clone();
            bytemap.encode(&mut buf, 0);
            black_box(buf);
        },
    ));
    let aes = Aes::new(KeySize::Aes256, &[7; 32]).expect("32-byte key");
    rows.push(mib_per_s(
        "crypto.aes256_cfb_mib_per_s",
        "micro.crypto.aes",
        batches,
        n(20),
        || {
            let mut cfb = Cfb::new(aes.clone(), [1; 16]);
            let mut buf = data.clone();
            cfb.encrypt(&mut buf);
            black_box(buf);
        },
    ));
    rows.push(mib_per_s(
        "crypto.sha256_mib_per_s",
        "micro.crypto.sha256",
        batches,
        n(100),
        || {
            black_box(sha256(black_box(&data)));
        },
    ));

    // --- netproto ---
    // A gateway request and its 16 KiB response, as the stack encodes
    // them, pushed through one parser each.
    let request = HttpRequest::get("scholar.google.com", "/scholar?q=censorship")
        .header("Sc-Trace", "00-0123456789abcdef-0123456789abcdef")
        .encode();
    let response = HttpResponse::new(200, data.clone())
        .header("Cache-Control", "max-age=20")
        .header("ETag", "\"deadbeefdeadbeef\"")
        .encode();
    rows.push(ns(
        "netproto.http_parse_ns",
        "micro.netproto.http_parse",
        batches,
        n(2_000),
        || {
            let mut parser = HttpParser::new();
            black_box(
                parser
                    .push(black_box(&request))
                    .expect("an encoded request parses"),
            );
            let mut parser = HttpParser::new();
            black_box(
                parser
                    .push(black_box(&response))
                    .expect("an encoded response parses"),
            );
        },
    ));
    let pac = PacFile::new(
        ["scholar.google.com", "accounts.google.com"],
        SocketAddr::new(Addr::new(10, 1, 0, 1), 8080),
    );
    rows.push(ns(
        "netproto.pac_decide_ns",
        "micro.netproto.pac_decide",
        batches,
        n(50_000),
        || {
            black_box(pac.decide(black_box("scholar.google.com")));
        },
    ));
    let js = pac.to_javascript();
    let parse_s = fastest_s("micro.netproto.pac_parse", batches, n(5_000), || {
        black_box(PacFile::parse(black_box(&js)).expect("a rendered PAC parses"));
    });
    rows.push(MicroRow {
        name: "netproto.pac_parse_us",
        value: parse_s * 1e6,
    });

    // --- cache ---
    let mut cache = filled_cache(64, 16 * 1024 * 1024);
    let hot = cache_key(17);
    rows.push(ns(
        "cache.lookup_hit_ns",
        "micro.cache.lookup_hit",
        batches,
        n(20_000),
        || match cache.lookup(black_box(&hot), now) {
            Lookup::Fresh(resp) => {
                black_box(resp.body.clone());
            }
            _ => unreachable!("the entry was inserted with a 600 s TTL"),
        },
    ));
    let mut churn = filled_cache(8, 9 * BUF);
    let mut i = 0usize;
    rows.push(ns(
        "cache.insert_evict_ns",
        "micro.cache.insert_evict",
        batches,
        n(10_000),
        || {
            i += 1;
            black_box(churn.insert(
                cache_key(i % 1024),
                cache_response(),
                SimDuration::from_secs(600),
                now,
            ));
        },
    ));
    let mut flights: Singleflight<usize> = Singleflight::new();
    let key = cache_key(0);
    rows.push(ns(
        "cache.singleflight_63_waiters_ns",
        "micro.cache.singleflight",
        batches,
        n(2_500),
        || {
            assert!(matches!(flights.begin(&key, 0), Role::Leader));
            for w in 1..=63 {
                assert!(matches!(flights.begin(&key, w), Role::Waiter));
            }
            black_box(
                flights
                    .complete(&key)
                    .expect("the flight is open")
                    .waiters
                    .len(),
            );
        },
    ));
    rows
}
