//! The ScholarCloud inter-proxy wire protocol.
//!
//! A domestic→remote connection looks, to an on-path observer, like an
//! ordinary HTTP upload: a printable request head (the *cover preamble*)
//! followed by an octet-stream body. The body is the user's traffic,
//! passed through a confidential [`Blinder`] (and encrypted with a
//! session key when it is not already TLS).
//!
//! The preamble carries an HMAC proof of the shared secret. Anything that
//! fails the proof — including the GFW's active prober — receives a bland
//! HTTP 400 decoy, which is why probing never confirms a ScholarCloud
//! remote (§3, "message blinding"; probe resistance).

use std::fmt;
use std::rc::Rc;

use bytes::BufMut;
use sc_crypto::blinding::{Blinder, BlindingScheme};
use sc_crypto::hmac::{ct_eq, hkdf_expand_into, hkdf_extract, HmacKey};
use sc_crypto::sha256::sha256;
use sc_crypto::modes::Ctr;
use sc_crypto::{Aes, KeySize};
use sc_netproto::scan;
use sc_netproto::socks::TargetAddr;
use sc_obs::prof::{self, Subsystem};

/// Each blinding scheme fronts as a different innocuous endpoint, so a
/// censor signature written against one scheme's cover does not match the
/// next (the paper's agility argument).
pub fn cover_path(scheme: BlindingScheme) -> &'static str {
    match scheme {
        BlindingScheme::Identity => "/raw",
        BlindingScheme::ByteMap => "/api/sync",
        BlindingScheme::XorRolling => "/cdn/upload",
        BlindingScheme::NibbleSwap => "/static/blob",
    }
}

/// Path segments the generation-derived covers are assembled from:
/// boring CDN/API vocabulary, so any derived endpoint reads like the
/// upload path of yet another web app.
const COVER_DIRS: [&str; 16] = [
    "api", "cdn", "static", "assets", "media", "files", "data", "svc", "app", "edge", "img",
    "pkg", "ext", "feeds", "hooks", "gw",
];
const COVER_LEAVES: [&str; 16] = [
    "sync", "upload", "blob", "push", "batch", "ingest", "beacon", "report", "submit", "store",
    "put", "send", "collect", "track", "log", "events",
];

/// The cover endpoint for a scheme at a given rotation *generation*,
/// written where it goes (`Display`).
///
/// Generation 0 is the fixed paths every pre-adaptive trace was pinned
/// against; later generations derive a fresh innocuous path from the
/// scheme and the generation counter. This is the half of the agility
/// argument a 3-scheme codec rotation alone cannot deliver: an adaptive
/// censor fingerprints the cover preamble, and with a finite set of
/// covers it eventually holds a live signature for every one of them.
/// The operator controls both proxies, so each detection-driven
/// rotation can front an endpoint the censor has never seen — the
/// censor's classifier restarts from zero while the old signature
/// starves out its TTL.
#[derive(Debug, Clone, Copy)]
pub struct CoverPath {
    /// The scheme the cover fronts.
    pub scheme: BlindingScheme,
    /// The rotation generation.
    pub generation: u32,
}

impl fmt::Display for CoverPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.generation == 0 {
            return f.write_str(cover_path(self.scheme));
        }
        let (dir, leaf, tag) = derived_cover(self.scheme, self.generation);
        write!(f, "/{dir}/{leaf}-{}", std::str::from_utf8(&tag).expect("hex digits are ASCII"))
    }
}

/// The pieces of a derived (generation > 0) cover path
/// `/{dir}/{leaf}-{tag}`: two words and four hex digits, all drawn from
/// one digest of the scheme and the generation.
fn derived_cover(scheme: BlindingScheme, generation: u32) -> (&'static str, &'static str, [u8; 4]) {
    const LABEL: &[u8] = b"scholarcloud-cover-v1";
    let mut msg = [0u8; LABEL.len() + 1 + 4];
    msg[..LABEL.len()].copy_from_slice(LABEL);
    msg[LABEL.len()] = scheme.wire_id();
    msg[LABEL.len() + 1..].copy_from_slice(&generation.to_le_bytes());
    let d = sha256(&msg);
    let hex = |nibble: u8| b"0123456789abcdef"[usize::from(nibble)];
    let tag = [hex(d[2] >> 4), hex(d[2] & 0x0f), hex(d[3] >> 4), hex(d[3] & 0x0f)];
    (COVER_DIRS[(d[0] & 0x0f) as usize], COVER_LEAVES[(d[1] & 0x0f) as usize], tag)
}

/// Whether `path` is `scheme`'s cover at `generation`: what
/// [`CoverPath`] renders, compared piece by piece without rendering it.
fn is_cover_path(path: &str, scheme: BlindingScheme, generation: u32) -> bool {
    if generation == 0 {
        return path == cover_path(scheme);
    }
    let (dir, leaf, tag) = derived_cover(scheme, generation);
    let rest = path.strip_prefix('/').and_then(|p| p.strip_prefix(dir));
    let rest = rest.and_then(|p| p.strip_prefix('/')).and_then(|p| p.strip_prefix(leaf));
    rest.and_then(|p| p.strip_prefix('-')).is_some_and(|p| p.as_bytes() == tag)
}

/// Room a preamble needs besides its front host: the longest cover path
/// and the fixed header lines.
pub const PREAMBLE_ROOM: usize = 192;

/// The parsed cover preamble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Blinding scheme for the rest of the stream.
    pub scheme: BlindingScheme,
    /// Session nonce (keys are derived from secret + nonce).
    pub nonce: u64,
    /// Cover-path generation (see [`CoverPath`]). Carried by the
    /// path itself, not the MAC: it selects cover dressing only — keys
    /// derive from secret + nonce regardless.
    pub generation: u32,
}

/// The preamble's `X-Trace` value: the first twelve bytes of the MAC over
/// scheme and nonce, as 24 lower-case hex digits.
fn mac_hex(key: &HmacKey, scheme: BlindingScheme, nonce: u64) -> [u8; 24] {
    let mut mac = key.start();
    mac.update(&[scheme.wire_id()]);
    mac.update(&nonce.to_be_bytes());
    let mut hex = [0u8; 24];
    for (pair, byte) in hex.chunks_exact_mut(2).zip(mac.finalize()) {
        pair[0] = b"0123456789abcdef"[usize::from(byte >> 4)];
        pair[1] = b"0123456789abcdef"[usize::from(byte & 0x0f)];
    }
    hex
}

impl Hello {
    /// Writes the cover preamble (a complete HTTP request head) into
    /// `out`. `key` is the operator secret, prepared once by whoever holds
    /// it.
    pub fn encode_into(&self, key: &HmacKey, front_host: &str, out: &mut impl fmt::Write) {
        let mac = mac_hex(key, self.scheme, self.nonce);
        write!(
            out,
            "POST {} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/octet-stream\r\nX-Req-Id: {:016x}\r\nX-Trace: {}\r\nTransfer-Encoding: chunked\r\n\r\n",
            CoverPath { scheme: self.scheme, generation: self.generation },
            front_host,
            self.nonce,
            std::str::from_utf8(&mac).expect("hex digits are ASCII"),
        )
        .expect("writing to a buffer is infallible");
    }

    /// Attempts to parse and authenticate a preamble from the start of a
    /// stream. Returns the hello and bytes consumed, `Ok(None)` if more
    /// data is needed, or `Err(())` if the head is complete but invalid
    /// (serve the decoy).
    ///
    /// `generation` is the receiver's current cover-path generation;
    /// the previous generation is also accepted so flows already in
    /// flight when a rotation lands still authenticate. Anything older
    /// — including an active prober replaying a long-captured preamble
    /// — no longer parses and gets the decoy.
    #[allow(clippy::result_unit_err)]
    pub fn parse(
        key: &HmacKey,
        generation: u32,
        data: &[u8],
    ) -> Result<Option<(Hello, usize)>, ()> {
        let Some(head_end) = scan::find(data, b"\r\n\r\n") else {
            // An absurdly long "head" is not a preamble.
            return if data.len() > 4096 { Err(()) } else { Ok(None) };
        };
        let head = std::str::from_utf8(&data[..head_end]).map_err(|_| ())?;
        let mut lines = head.split("\r\n");
        let start = lines.next().ok_or(())?;
        let path = start.strip_prefix("POST ").and_then(|s| s.strip_suffix(" HTTP/1.1")).ok_or(())?;
        let (scheme, generation) = [
            BlindingScheme::Identity,
            BlindingScheme::ByteMap,
            BlindingScheme::XorRolling,
            BlindingScheme::NibbleSwap,
        ]
        .into_iter()
        .flat_map(|s| {
            [generation, generation.saturating_sub(1)].map(move |g| (s, g))
        })
        .find(|&(s, g)| is_cover_path(path, s, g))
        .ok_or(())?;
        let mut nonce = None;
        let mut trace = None;
        for line in lines {
            if let Some(v) = line.strip_prefix("X-Req-Id: ") {
                nonce = u64::from_str_radix(v.trim(), 16).ok();
            } else if let Some(v) = line.strip_prefix("X-Trace: ") {
                trace = Some(v.trim());
            }
        }
        let (Some(nonce), Some(trace)) = (nonce, trace) else { return Err(()) };
        let expect = mac_hex(key, scheme, nonce);
        if !ct_eq(&expect, trace.as_bytes()) {
            return Err(());
        }
        Ok(Some((Hello { scheme, nonce, generation }, head_end + 4)))
    }
}

/// Derives the session key for a hello.
pub fn session_key(secret: &[u8], nonce: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    let prk = hkdf_extract(&nonce.to_be_bytes(), secret);
    hkdf_expand_into(&prk, b"scholarcloud-session", &mut key);
    key
}

/// The per-stream header inside the tunnel: whether the payload is
/// already TLS (in which case ScholarCloud does not re-encrypt) and the
/// target the remote proxy should dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// Payload is already end-to-end encrypted (HTTPS).
    pub is_tls: bool,
    /// End-to-end trace id of the originating browser request (0 when
    /// the stream is untraced). Carried in-band so the remote proxy can
    /// parent its relay span into the same trace tree.
    pub trace: u64,
    /// Span id on the domestic side that caused this stream (0 when
    /// tracing is disabled).
    pub parent: u64,
    /// Where the remote proxy should connect.
    pub target: TargetAddr,
}

impl StreamHeader {
    /// Bytes [`encode_into`](Self::encode_into) writes.
    pub fn encoded_len(&self) -> usize {
        2 + 17 + self.target.encoded_len()
    }

    /// Appends flag(1) ‖ trace(8) ‖ parent(8) ‖ target (SOCKS format),
    /// length-prefixed, to `out`. The trace fields are fixed width — zero
    /// when untraced — so traced and untraced runs frame identically.
    pub fn encode_into(&self, out: &mut impl BufMut) {
        let len = u16::try_from(self.encoded_len() - 2).expect("a SOCKS target is at most 259 bytes");
        out.put_u16(len);
        out.put_u8(self.is_tls as u8);
        out.put_u64(self.trace);
        out.put_u64(self.parent);
        self.target.encode_into(out);
    }

    /// [`encode_into`](Self::encode_into) a buffer of its own, sized once.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes from the front of `data`; returns header + bytes consumed,
    /// or `None` if incomplete/invalid.
    pub fn decode(data: &[u8]) -> Option<(StreamHeader, usize)> {
        if data.len() < 2 {
            return None;
        }
        let len = u16::from_be_bytes([data[0], data[1]]) as usize;
        if len < 18 || data.len() < 2 + len {
            return None;
        }
        let is_tls = match data[2] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let trace = u64::from_be_bytes(data[3..11].try_into().ok()?);
        let parent = u64::from_be_bytes(data[11..19].try_into().ok()?);
        let (target, used) = TargetAddr::decode(&data[19..2 + len])?;
        if used != len - 17 {
            return None;
        }
        Some((StreamHeader { is_tls, trace, parent, target }, 2 + len))
    }
}

/// The symmetric stream codec used on each side of the tunnel: blinding
/// always; encryption only when the payload is not already TLS.
pub struct StreamCodec {
    /// Shared with the codec of the tunnel's other direction: a blinder
    /// is keyed by the session, not by the direction, and keeps no state.
    blinder: Rc<dyn Blinder>,
    /// Boxed: a key schedule is 240 bytes, and codecs sit inline in
    /// per-stream state that mostly carries TLS (no cipher here).
    cipher: Option<Box<Ctr>>,
    encode_pos: u64,
    decode_pos: u64,
}

impl core::fmt::Debug for StreamCodec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamCodec")
            .field("scheme", &self.blinder.scheme())
            .field("encrypting", &self.cipher.is_some())
            .finish()
    }
}

/// Direction byte of the domestic→remote cipher stream.
const UP: u8 = 0;
/// Direction byte of the remote→domestic cipher stream.
const DOWN: u8 = 1;

/// The session's blinder: one HKDF and one keyed derivation (for
/// `ByteMap`, a 256-entry permutation and its inverse) per tunnel end,
/// in one allocation.
fn session_blinder(secret: &[u8], hello: &Hello) -> Rc<dyn Blinder> {
    hello.scheme.instantiate(&session_key(secret, hello.nonce))
}

/// The session's AES key schedule; each direction runs its own counter
/// stream over a copy of it.
fn session_aes(secret: &[u8], hello: &Hello) -> Aes {
    Aes::new(KeySize::Aes256, &session_key(secret, hello.nonce ^ 0xd1d1_d1d1)).expect("32-byte key")
}

impl StreamCodec {
    fn from_parts(blinder: Rc<dyn Blinder>, aes: Option<Aes>, dir: u8) -> Self {
        let cipher = aes.map(|aes| {
            let mut nonce = [0u8; 16];
            nonce[0] = dir;
            Box::new(Ctr::new(aes, nonce))
        });
        StreamCodec { blinder, cipher, encode_pos: 0, decode_pos: 0 }
    }

    /// Creates the codec for one direction of one stream.
    ///
    /// `dir` distinguishes the two directions so they use independent
    /// cipher streams. An end that needs both takes [`pair`](Self::pair),
    /// which derives the key material once.
    pub fn new(secret: &[u8], hello: &Hello, encrypt: bool, dir: u8) -> Self {
        let _prof = prof::scope(Subsystem::Crypto);
        let aes = encrypt.then(|| session_aes(secret, hello));
        Self::from_parts(session_blinder(secret, hello), aes, dir)
    }

    /// Both codecs of one end of a tunnel, `(up, down)`: `up` is the
    /// domestic→remote direction (the domestic proxy encodes with it, the
    /// remote decodes), `down` the other. The key material — blinder and
    /// AES schedule — is derived once and shared.
    pub fn pair(secret: &[u8], hello: &Hello, encrypt: bool) -> (Self, Self) {
        let _prof = prof::scope(Subsystem::Crypto);
        let blinder = session_blinder(secret, hello);
        let aes = encrypt.then(|| session_aes(secret, hello));
        (Self::from_parts(blinder.clone(), aes.clone(), UP), Self::from_parts(blinder, aes, DOWN))
    }

    /// The remote end's [`pair`](Self::pair), made from the first bytes
    /// after the preamble. The domestic side encrypts exactly when the
    /// payload is not TLS, but says so only inside the stream header,
    /// which is already encoded; the header's strict framing settles it:
    /// `wire` is read as blinded-only, then as blinded ciphertext, and the
    /// reading whose header agrees with how it was read is the stream.
    /// Returns the header, the plaintext that followed it, and
    /// `(up, down)` with `up` advanced past `wire`; `None` while the
    /// header is incomplete.
    pub fn accept(secret: &[u8], hello: &Hello, wire: &[u8]) -> Option<(StreamHeader, Vec<u8>, Self, Self)> {
        let _prof = prof::scope(Subsystem::Crypto);
        let blinder = session_blinder(secret, hello);
        for encrypt in [false, true] {
            let aes = encrypt.then(|| session_aes(secret, hello));
            let mut up = Self::from_parts(blinder.clone(), aes.clone(), UP);
            let mut plain = wire.to_vec();
            up.decode(&mut plain);
            if let Some((header, used)) = StreamHeader::decode(&plain) {
                if header.is_tls != encrypt {
                    plain.drain(..used);
                    return Some((header, plain, up, Self::from_parts(blinder, aes, DOWN)));
                }
            }
        }
        None
    }

    /// Transforms plaintext into wire bytes (encrypt-then-blind).
    pub fn encode(&mut self, data: &mut [u8]) {
        let _prof = prof::scope(Subsystem::Crypto);
        if let Some(c) = self.cipher.as_mut() {
            c.apply(data);
        }
        self.blinder.encode(data, self.encode_pos);
        self.encode_pos += data.len() as u64;
    }

    /// Transforms wire bytes back into plaintext (deblind-then-decrypt).
    ///
    /// Note: each direction needs its own codec; `decode` here exists for
    /// the peer's symmetric instance.
    pub fn decode(&mut self, data: &mut [u8]) {
        let _prof = prof::scope(Subsystem::Crypto);
        self.blinder.decode(data, self.decode_pos);
        self.decode_pos += data.len() as u64;
        if let Some(c) = self.cipher.as_mut() {
            c.apply(data);
        }
    }
}

/// Whether `buf` could still grow into a valid cover preamble. The remote
/// proxy serves the decoy as soon as this returns `false`, so probes (48
/// bytes of garbage) are answered like a web server instead of hanging —
/// hanging is exactly the signature the GFW's prober confirms.
pub fn could_be_preamble(buf: &[u8]) -> bool {
    if buf.len() > 4096 {
        return false;
    }
    let prefix = b"POST /";
    let n = buf.len().min(prefix.len());
    buf[..n] == prefix[..n]
}

/// The decoy response served to anything that fails authentication.
pub fn decoy_response() -> Vec<u8> {
    b"HTTP/1.1 400 Bad Request\r\nServer: nginx/1.10.3\r\nContent-Type: text/html\r\nContent-Length: 166\r\nConnection: close\r\n\r\n<html>\r\n<head><title>400 Bad Request</title></head>\r\n<body bgcolor=\"white\">\r\n<center><h1>400 Bad Request</h1></center>\r\n<hr><center>nginx/1.10.3</center>\r\n</body>\r\n</html>"
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_simnet::addr::Addr;

    const SECRET: &[u8] = b"shared-operator-secret";

    fn key() -> HmacKey {
        HmacKey::new(SECRET)
    }

    fn preamble(hello: &Hello, key: &HmacKey, front_host: &str) -> Vec<u8> {
        let mut out = String::new();
        hello.encode_into(key, front_host, &mut out);
        out.into_bytes()
    }

    #[test]
    fn hello_roundtrip() {
        let hello = Hello { scheme: BlindingScheme::ByteMap, nonce: 0xdead_beef, generation: 0 };
        let wire = preamble(&hello, &key(), "cdn.front.example");
        let (parsed, used) = Hello::parse(&key(), 0, &wire).unwrap().unwrap();
        assert_eq!(parsed, hello);
        assert_eq!(used, wire.len());
        // The preamble must look like printable HTTP to DPI.
        assert!(wire.starts_with(b"POST /api/sync HTTP/1.1\r\n"));
        let stats = sc_crypto::entropy::PayloadStats::analyze(&wire);
        assert!(stats.printable > 0.95);
    }

    #[test]
    fn mac_hex_is_the_first_twelve_mac_bytes_in_lower_case_hex() {
        for nonce in [0, 7, 0xdead_beef, u64::MAX] {
            let mut mac = key().start();
            mac.update(&[BlindingScheme::XorRolling.wire_id()]);
            mac.update(&nonce.to_be_bytes());
            let formatted: String = mac.finalize()[..12].iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(mac_hex(&key(), BlindingScheme::XorRolling, nonce), formatted.as_bytes());
        }
    }

    #[test]
    fn hello_rejects_wrong_secret() {
        let hello = Hello { scheme: BlindingScheme::ByteMap, nonce: 7, generation: 0 };
        let wire = preamble(&hello, &key(), "h");
        assert!(Hello::parse(&HmacKey::new(b"other-secret"), 0, &wire).is_err());
    }

    #[test]
    fn hello_rejects_garbage_and_honest_http() {
        assert!(Hello::parse(&key(), 0, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").is_err());
        let garbage = vec![0xa7u8; 5000];
        assert!(Hello::parse(&key(), 0, &garbage).is_err());
        // Incomplete head: need more data.
        assert_eq!(Hello::parse(&key(), 0, b"POST /api/sync HTT").unwrap(), None);
    }

    #[test]
    fn each_scheme_has_distinct_cover_path() {
        let paths: std::collections::HashSet<&str> = BlindingScheme::rotation()
            .into_iter()
            .map(cover_path)
            .collect();
        assert_eq!(paths.len(), BlindingScheme::rotation().len());
    }

    /// The establish path writes preamble, stream header and early
    /// plaintext into one buffer sized up front: every cover's preamble
    /// fits the room it reserves, and a header is the length it says.
    #[test]
    fn a_preamble_and_a_header_fit_the_room_reserved_for_them() {
        let front = "cdn.front.example";
        for scheme in [
            BlindingScheme::Identity,
            BlindingScheme::ByteMap,
            BlindingScheme::XorRolling,
            BlindingScheme::NibbleSwap,
        ] {
            for generation in 0..256 {
                let hello = Hello { scheme, nonce: u64::MAX, generation };
                let wire = preamble(&hello, &key(), front);
                assert!(wire.len() <= PREAMBLE_ROOM + front.len(), "{scheme:?} at {generation}: {}", wire.len());
                assert_eq!(Hello::parse(&key(), generation, &wire).unwrap(), Some((hello, wire.len())));
            }
        }
        let header = StreamHeader {
            is_tls: false,
            trace: 1,
            parent: 2,
            target: TargetAddr::Domain("a".repeat(sc_netproto::socks::MAX_DOMAIN_LEN), 80),
        };
        let enc = header.encode();
        assert_eq!((enc.len(), enc.capacity()), (header.encoded_len(), header.encoded_len()));
        assert_eq!(StreamHeader::decode(&enc), Some((header, enc.len())));
    }

    #[test]
    fn stream_header_roundtrip() {
        for header in [
            StreamHeader {
                is_tls: true,
                trace: 0xfeed_face_cafe_f00d,
                parent: 42,
                target: TargetAddr::Domain("scholar.google.com".into(), 443),
            },
            StreamHeader {
                is_tls: false,
                trace: 0,
                parent: 0,
                target: TargetAddr::Ip(Addr::new(99, 2, 0, 1), 80),
            },
        ] {
            let enc = header.encode();
            let (dec, used) = StreamHeader::decode(&enc).unwrap();
            assert_eq!(dec, header);
            assert_eq!(used, enc.len());
        }
        assert!(StreamHeader::decode(&[0, 1]).is_none());
    }

    #[test]
    fn codec_roundtrip_with_and_without_encryption() {
        let hello = Hello { scheme: BlindingScheme::ByteMap, nonce: 99, generation: 0 };
        for encrypt in [false, true] {
            let mut a = StreamCodec::new(SECRET, &hello, encrypt, 0);
            let mut b = StreamCodec::new(SECRET, &hello, encrypt, 0);
            let plain = b"GET /scholar HTTP/1.1\r\nHost: scholar.google.com\r\n\r\n".to_vec();
            let mut wire = plain.clone();
            a.encode(&mut wire);
            assert_ne!(wire, plain);
            b.decode(&mut wire);
            assert_eq!(wire, plain, "encrypt={encrypt}");
        }
    }

    #[test]
    fn a_pair_is_the_two_single_direction_codecs() {
        let plain: Vec<u8> = (0..3000u32).map(|i| (i * 7 + (i >> 5)) as u8).collect();
        for scheme in [BlindingScheme::Identity, BlindingScheme::ByteMap, BlindingScheme::XorRolling, BlindingScheme::NibbleSwap] {
            let hello = Hello { scheme, nonce: 0x5eed, generation: 0 };
            for encrypt in [false, true] {
                // One end encodes, the other end's pair decodes.
                let (up, down) = StreamCodec::pair(SECRET, &hello, encrypt);
                let (peer_up, peer_down) = StreamCodec::pair(SECRET, &hello, encrypt);
                for (dir, mut paired, mut peer) in [(0, up, peer_up), (1, down, peer_down)] {
                    let mut single = StreamCodec::new(SECRET, &hello, encrypt, dir);
                    // Two writes each, so positions and keystream carry over.
                    for piece in [&plain[..1234], &plain[1234..]] {
                        let (mut a, mut b) = (piece.to_vec(), piece.to_vec());
                        paired.encode(&mut a);
                        single.encode(&mut b);
                        assert!(a == b, "{scheme:?} encrypt={encrypt} dir={dir}");
                        peer.decode(&mut a);
                        assert!(a == piece, "{scheme:?} encrypt={encrypt} dir={dir}");
                    }
                }
            }
        }
    }

    #[test]
    fn accept_builds_the_pair_the_stream_header_names() {
        let hello = Hello { scheme: BlindingScheme::ByteMap, nonce: 77, generation: 0 };
        for is_tls in [true, false] {
            let header = StreamHeader {
                is_tls,
                trace: 9,
                parent: 4,
                target: TargetAddr::Domain("scholar.google.com".into(), if is_tls { 443 } else { 80 }),
            };
            // The domestic end: header and first bytes through `up`.
            let (mut up, mut down) = StreamCodec::pair(SECRET, &hello, !is_tls);
            let early = b"GET /scholar?q=gfw HTTP/1.1\r\n\r\n";
            let mut wire = header.encode();
            wire.extend_from_slice(early);
            up.encode(&mut wire);

            let cut = header.encode().len() - 1;
            assert!(StreamCodec::accept(SECRET, &hello, &wire[..cut]).is_none(), "header incomplete");
            let (got, leftover, mut rx, mut tx) = StreamCodec::accept(SECRET, &hello, &wire).expect("complete");
            assert_eq!((got, &leftover[..]), (header, &early[..]));
            // Both directions carry on from where the first bytes left them.
            let mut more = b"second write".to_vec();
            up.encode(&mut more);
            rx.decode(&mut more);
            assert_eq!(more, b"second write");
            let mut reply = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
            tx.encode(&mut reply);
            assert_eq!(reply != b"HTTP/1.1 200 OK\r\n\r\n", hello.scheme != BlindingScheme::Identity);
            down.decode(&mut reply);
            assert_eq!(reply, b"HTTP/1.1 200 OK\r\n\r\n");
        }
    }

    #[test]
    fn blinded_tls_hides_client_hello() {
        // The core claim: a TLS ClientHello passed through the codec is no
        // longer recognizable by the GFW's SNI sniffer.
        let mut tls = sc_netproto::TlsClient::new("scholar.google.com", 5);
        let hello_bytes = tls.start_handshake();
        assert!(sc_netproto::sniff_sni(&hello_bytes).is_some());
        let hello = Hello { scheme: BlindingScheme::ByteMap, nonce: 3, generation: 0 };
        let mut codec = StreamCodec::new(SECRET, &hello, false, 0);
        let mut wire = hello_bytes.to_vec();
        codec.encode(&mut wire);
        assert!(sc_netproto::sniff_sni(&wire).is_none());
        // And no offset scan finds it either.
        let found = (0..wire.len().saturating_sub(42))
            .any(|off| sc_netproto::sniff_sni(&wire[off..]).is_some());
        assert!(!found);
    }

    #[test]
    fn decoy_looks_like_nginx() {
        let d = decoy_response();
        assert!(d.starts_with(b"HTTP/1.1 400"));
        assert!(String::from_utf8_lossy(&d).contains("nginx"));
    }

    #[test]
    fn session_keys_differ_by_nonce() {
        assert_ne!(session_key(SECRET, 1), session_key(SECRET, 2));
        assert_eq!(session_key(SECRET, 1), session_key(SECRET, 1));
    }
}
