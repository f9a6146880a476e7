//! What an HTTP head costs the allocator, counted: a head is one buffer
//! from its first byte to the wire. Building a request or a response is
//! one allocation, handing it to the wire is none, and a head parsed out
//! of a pushed chunk is one — its body a view of the chunk. One test, so
//! that no other thread allocates while it counts.

use bytes::Bytes;
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
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
fn a_head_is_one_allocation_built_parsed_or_sent() {
    const TRACE: &str = "00000000000007e1-000000000000002a";
    let body = Bytes::from(vec![7u8; 3000]);

    // Built: the browser's conditional GET through the gateway.
    let (n, req) = allocs(|| {
        HttpRequest::new("GET", format_args!("http://{}{}", "scholar.google.com", "/js/scholar.js"))
            .header("Host", "scholar.google.com")
            .header_fmt("Sc-Trace", TRACE)
            .header("If-None-Match", "\"9f8e7d6c5b4a3928\"")
    });
    assert_eq!(n, 1, "a built request");
    let (n, wire) = allocs(|| req.into_wire());
    assert_eq!(n, 0, "a request handed to the wire");

    // Built: the origin's page, its body shared.
    let (n, resp) = allocs(|| {
        HttpResponse::new(200, body.clone())
            .header("Content-Type", "text/html")
            .header("ETag", "\"9f8e7d6c5b4a3928\"")
            .header("Last-Modified", "Wed, 01 Mar 2017 07:00:00 GMT")
            .header_fmt("Cache-Control", format_args!("public, max-age={}", 86_400))
    });
    assert_eq!(n, 1, "a built response");
    let (n, [head, sent]) = allocs(|| resp.into_wire());
    assert_eq!(n, 0, "a response handed to the wire");
    assert_eq!(sent.as_ptr(), body.as_ptr());
    let (n, (part, _)) = allocs(|| HttpResponse::new(304, Vec::new()).header("ETag", "\"v1\"").into_parts());
    assert_eq!(n, 1, "a bodiless response built and handed to a TLS record");
    assert!(part.ends_with(b"Content-Length: 0\r\n\r\n"));

    // Parsed: each head out of the chunk it arrived in, once — the
    // response's body a view of that chunk.
    let mut parser = HttpParser::new();
    let request = Bytes::from(wire.concat());
    let (n, msgs) = allocs(|| parser.push_bytes(request).unwrap());
    assert_eq!((n, msgs.len()), (1, 1), "a parsed request");
    let response = Bytes::from([&head[..], &sent[..]].concat());
    let (n, msgs) = allocs(|| parser.push_bytes(response.clone()).unwrap());
    assert_eq!((n, msgs.len()), (1, 1), "a parsed response");
    let Some(HttpMessage::Response(parsed)) = msgs.into_iter().next() else { panic!("a response") };
    assert_eq!(parsed.body.as_ptr(), response[head.len()..].as_ptr());
    // And sent on as it was parsed: nothing more.
    let (n, _) = allocs(|| parsed.into_wire());
    assert_eq!(n, 0, "a parsed response handed to the wire");
}
