//! Micro-benchmarks of the substrates: crypto throughput, blinding codecs,
//! TCP bulk transfer in the simulator and the bare receive path, GFW flow
//! classification (first packet and established flow), and the PAC
//! evaluator.

use bytes::Bytes;
use criterion::{Criterion, Throughput, criterion_group, criterion_main};
use sc_crypto::aes::{Aes, KeySize};
use sc_crypto::blinding::BlindingScheme;
use sc_crypto::hmac::{HmacKey, hmac_sha256};
use sc_crypto::modes::{Cfb, Ctr};
use sc_crypto::sha256::sha256;
use sc_gfw::{FlowTable, GfwConfig};
use sc_netproto::pac::PacFile;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::packet::{Packet, TcpFlags, TcpSegmentBody};
use sc_simnet::time::SimTime;

fn crypto_benches(c: &mut Criterion) {
    // Which kernels the rows below ran on: a number from a box with
    // SHA-NI/AES-NI and one from a box without are not the same row.
    println!(
        "crypto backends: sha256 {}, aes {}",
        sc_crypto::sha256::backend(),
        sc_crypto::aes::backend()
    );
    let mut g = c.benchmark_group("crypto");
    let data = vec![0xa5u8; 16 * 1024];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("aes256_cfb_encrypt_16k", |b| {
        let aes = Aes::new(KeySize::Aes256, &[7; 32]).unwrap();
        b.iter(|| {
            let mut cfb = Cfb::new(aes.clone(), [1; 16]);
            let mut buf = data.clone();
            cfb.encrypt(&mut buf);
            buf
        })
    });
    g.bench_function("aes256_ctr_16k", |b| {
        let aes = Aes::new(KeySize::Aes256, &[7; 32]).unwrap();
        b.iter(|| {
            let mut ctr = Ctr::new(aes.clone(), [1; 16]);
            let mut buf = data.clone();
            ctr.apply(&mut buf);
            buf
        })
    });
    g.bench_function("sha256_16k", |b| b.iter(|| sha256(&data)));
    g.bench_function("hmac_sha256_16k", |b| b.iter(|| hmac_sha256(&[3; 32], &data)));
    for scheme in BlindingScheme::rotation() {
        g.bench_function(format!("blind_{scheme:?}_16k"), |b| {
            let codec = scheme.instantiate(b"key");
            b.iter(|| {
                let mut buf = data.clone();
                codec.encode(&mut buf, 0);
                buf
            })
        });
    }
    // One TLS or VPN record's MAC under a session's prepared key: the
    // per-record cost once the pads are hashed at key set-up.
    let record = vec![0xa5u8; 1400];
    g.throughput(Throughput::Bytes(record.len() as u64));
    g.bench_function("hmac_sha256_1400_keyed", |b| {
        let key = HmacKey::new(&[3; 32]);
        b.iter(|| key.mac(&record))
    });
    g.finish();
}

/// One 1400-byte application record sealed by a connected client and
/// opened by its server: CTR + HMAC each way, the page-load data path's
/// unit of crypto work.
fn tls_benches(c: &mut Criterion) {
    let mut client = sc_netproto::TlsClient::new("scholar.google.com", 1);
    let mut server = sc_netproto::TlsServer::new(2);
    let hello = client.start_handshake();
    let s1 = server.on_bytes(&hello).expect("client hello");
    let c1 = client.on_bytes(&s1.wire).expect("server hello");
    let s2 = server.on_bytes(&c1.wire).expect("client finished");
    client.on_bytes(&s2.wire).expect("server finished");
    let plain = vec![0x5au8; 1400];
    let mut g = c.benchmark_group("tls");
    g.throughput(Throughput::Bytes(plain.len() as u64));
    g.bench_function("seal_open_1400", |b| {
        b.iter(|| {
            let wire = client.send(&[&plain]);
            server.on_bytes(&wire).expect("record opens").plaintext
        })
    });
    g.finish();
}

fn gfw_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("gfw");
    let cfg = GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16));
    let mk_packet = |port: u16, payload: &[u8]| {
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
    let http = mk_packet(80, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n");
    let mut tls_client = sc_netproto::TlsClient::new("cdn.example", 7);
    let tls = mk_packet(443, &tls_client.start_handshake());
    g.bench_function("classify_http_packet", |b| {
        b.iter(|| {
            let mut table = FlowTable::new();
            table.observe(&http, SimTime::ZERO, &cfg);
        })
    });
    g.bench_function("classify_tls_packet", |b| {
        b.iter(|| {
            let mut table = FlowTable::new();
            table.observe(&tls, SimTime::ZERO, &cfg);
        })
    });

    // What a workload pays per packet once a flow is established (the
    // two rows above time a flow's *first* packet): the whole middlebox
    // on an HTTP-class flow whose 2 KiB capture is full, for one
    // server→client MSS data packet and the bare ACK that answers it.
    g.bench_function("established_http_flow_packet", |b| {
        use rand::SeedableRng;
        use sc_simnet::middlebox::{MbCtx, Middlebox};
        let mut gfw = sc_gfw::GfwMiddlebox::new(sc_gfw::new_gfw(cfg.clone()));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut pass = |pkt: &Packet| {
            let mut ctx = MbCtx { now: SimTime::ZERO, rng: &mut rng, inject: Vec::new() };
            gfw.process(pkt, &mut ctx)
        };
        pass(&http);
        for _ in 0..2 {
            pass(&mk_packet(80, &[b'a'; 1400]));
        }
        let mut data = mk_packet(80, &[b'b'; 1400]);
        std::mem::swap(&mut data.src, &mut data.dst);
        if let sc_simnet::packet::L4::Tcp(t) = &mut data.l4 {
            std::mem::swap(&mut t.src_port, &mut t.dst_port);
        }
        let ack = mk_packet(80, b"");
        b.iter(|| (pass(&data), pass(&ack)))
    });
    g.finish();
}

fn pac_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("pac");
    let pac = PacFile::new(
        ["scholar.google.com", "www.google.com"],
        SocketAddr::new(Addr::new(10, 1, 0, 1), 8080),
    );
    g.bench_function("decide", |b| b.iter(|| pac.decide("scholar.google.com")));
    let js = pac.to_javascript();
    g.bench_function("parse", |b| b.iter(|| PacFile::parse(&js).unwrap()));
    g.finish();
}

fn tcp_transfer_bench(c: &mut Criterion) {
    use sc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

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
    struct Sender {
        got: Rc<RefCell<usize>>,
        h: Option<TcpHandle>,
    }
    impl App for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.h = Some(ctx.tcp_connect(SocketAddr::new(Addr::new(99, 0, 0, 1), 80)));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            match ev {
                AppEvent::Tcp(h, TcpEvent::Connected) => {
                    ctx.tcp_send(h, &vec![7u8; 200_000]);
                }
                AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                    *self.got.borrow_mut() += ctx.tcp_recv_all(h).len();
                }
                _ => {}
            }
        }
    }

    let mut g = c.benchmark_group("simnet");
    g.sample_size(20);
    g.bench_function("tcp_echo_200k_with_loss", |b| {
        b.iter(|| {
            let mut sim = Sim::new(7);
            let a = sim.add_node("a", Addr::new(10, 0, 0, 1));
            let s = sim.add_node("s", Addr::new(99, 0, 0, 1));
            sim.add_link(
                a,
                s,
                LinkConfig::with_delay(SimDuration::from_millis(20)).loss(0.002),
            );
            sim.compute_routes();
            sim.install_app(s, Box::new(EchoServer));
            let got = Rc::new(RefCell::new(0));
            sim.install_app(a, Box::new(Sender { got: got.clone(), h: None }));
            sim.run_for(SimDuration::from_secs(60));
            assert_eq!(*got.borrow(), 200_000);
        })
    });
    g.finish();
}

/// The receive path of one connection, without a simulator around it:
/// 64 KiB arriving as in-order MSS segments, then drained in one `recv`.
fn tcp_buffer_bench(c: &mut Criterion) {
    use sc_simnet::api::{AppEvent, AppId, TcpEvent};
    use sc_simnet::packet::{L4, TcpSegment};
    use sc_simnet::tcp::{Effects, MSS, TcpLayer};

    const SEGMENTS: usize = 47;
    let (client, server) = (Addr::new(10, 0, 0, 1), Addr::new(99, 0, 0, 1));
    let segment = |seq: u64, ack: u64, flags: TcpFlags, payload: Bytes| TcpSegment {
        src_port: 40_000,
        dst_port: 80,
        seq,
        ack,
        flags,
        window: 1 << 20,
        payload,
    };
    let mut tcp = TcpLayer::new();
    tcp.listen(80, AppId(0));
    let mut fx = Effects::default();
    tcp.on_segment(client, server, segment(100, 0, TcpFlags::SYN, Bytes::new()), SimTime::ZERO, &mut fx);
    let ack = match &fx.out[0].l4 {
        L4::Tcp(syn_ack) => syn_ack.seq + 1,
        other => panic!("expected a SYN-ACK, got {other:?}"),
    };
    let mut fx = Effects::default();
    tcp.on_segment(client, server, segment(101, ack, TcpFlags::ACK, Bytes::new()), SimTime::ZERO, &mut fx);
    let conn = fx
        .app_events
        .iter()
        .find_map(|(_, ev)| match ev {
            AppEvent::Tcp(h, TcpEvent::Accepted { .. }) => Some(*h),
            _ => None,
        })
        .expect("handshake completes");

    let chunk = Bytes::from(vec![0xa5u8; MSS]);
    let mut seq = 101;
    let mut g = c.benchmark_group("tcp");
    g.throughput(Throughput::Bytes((SEGMENTS * MSS) as u64));
    g.bench_function("recv_all_64k", |b| {
        b.iter(|| {
            for _ in 0..SEGMENTS {
                let mut fx = Effects::default();
                let seg = segment(seq, ack, TcpFlags::ACK, chunk.clone());
                tcp.on_segment(client, server, seg, SimTime::ZERO, &mut fx);
                seq += MSS as u64;
            }
            let got = tcp.recv(conn, usize::MAX);
            assert_eq!(got.len(), SEGMENTS * MSS);
            got
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    crypto_benches,
    tls_benches,
    gfw_benches,
    pac_benches,
    tcp_transfer_bench,
    tcp_buffer_bench
);
criterion_main!(benches);
