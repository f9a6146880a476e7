//! What a TLS record costs the allocator, counted: a record is sealed
//! into one buffer sized from its parts, and opened in one buffer — its
//! own, allocated once at the length its header announces — which is
//! then handed out as the plaintext. One test, so that no other thread
//! allocates while it counts.

use sc_netproto::{TlsClient, TlsServer};
use sc_obs::prof::{alloc_stats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = alloc_stats().allocations;
    let r = f();
    (alloc_stats().allocations - before, r)
}

#[test]
fn a_record_is_one_allocation_to_seal_and_one_to_open() {
    let mut client = TlsClient::new("scholar.google.com", 1);
    let mut server = TlsServer::new(2);
    let hello = client.start_handshake();
    let s1 = server.on_bytes(&hello).unwrap();
    let c1 = client.on_bytes(&s1.wire).unwrap();
    let s2 = server.on_bytes(&c1.wire).unwrap();
    assert!(client.on_bytes(&s2.wire).unwrap().handshake_complete);

    let (head, body) = (b"HTTP/1.1 200 OK\r\nContent-Length: 3000\r\n\r\n".as_slice(), vec![7u8; 3000]);
    let (n, wire) = allocs(|| server.send(&[head, &body]));
    assert_eq!(n, 1, "sealed into a buffer sized from the parts");

    // Whole inside one push: copied once, into the buffer handed out.
    let (n, out) = allocs(|| client.on_bytes(&wire).unwrap());
    assert_eq!((n, out.plaintext.len()), (1, head.len() + body.len()), "opened whole");
    drop(out);

    // Across segments: one buffer at the announced length, whatever
    // number of segments fill it.
    let wire = server.send(&[&vec![b'r'; 20_000]]);
    let (n, plain) = allocs(|| {
        let mut plain = bytes::Bytes::new();
        for segment in wire.chunks(1460) {
            let out = client.on_bytes(segment).unwrap();
            assert!(plain.is_empty(), "one record, handed out once");
            plain = out.plaintext;
        }
        plain
    });
    assert_eq!((n, plain.len()), (1, 20_000), "opened in segments");

    // Two records completed by one push (rare: a sender's record is
    // one message): one buffer each, the list of those after the first,
    // and one to hand them out end to end.
    let both = [server.send(&[b"first"]), server.send(&[b"second"])].concat();
    let (n, out) = allocs(|| client.on_bytes(&both).unwrap());
    assert_eq!((n, &out.plaintext[..]), (4, &b"firstsecond"[..]));
}
