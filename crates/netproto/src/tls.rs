//! A simulated TLS 1.2-style protocol: two-round-trip handshake with a
//! plaintext SNI (which the GFW's DPI reads — SNI filtering is one of its
//! techniques), Diffie–Hellman key agreement, transcript-bound Finished
//! MACs, and an encrypted record layer (AES-256-CTR + HMAC).
//!
//! The record framing is faithful enough that DPI can fingerprint it:
//! record type byte, version bytes, length, then ciphertext.

use bytes::{BufMut, Bytes, BytesMut};
use sc_crypto::aes::{Aes, KeySize};
use sc_crypto::dh::{PrivateKey, PublicKey};
use sc_crypto::hmac::{ct_eq, hkdf_expand_into, hkdf_extract, HmacKey, HmacSha256};
use sc_crypto::modes::Ctr;
use sc_crypto::sha256::Sha256;

/// TLS record content types (matching real TLS).
pub mod record_type {
    /// Handshake messages.
    pub const HANDSHAKE: u8 = 22;
    /// Application data.
    pub const APPLICATION_DATA: u8 = 23;
}

/// The record-layer version bytes (TLS 1.2 = 0x0303).
pub const VERSION: [u8; 2] = [0x03, 0x03];

/// Handshake message types.
mod hs_type {
    pub const CLIENT_HELLO: u8 = 1;
    pub const SERVER_HELLO: u8 = 2;
    pub const CLIENT_KEY_EXCHANGE: u8 = 16;
    pub const FINISHED: u8 = 20;
}

/// Errors from the TLS state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// A record was malformed.
    BadRecord,
    /// A handshake message arrived out of order or malformed.
    BadHandshake(&'static str),
    /// The Finished MAC did not verify.
    BadFinished,
    /// Record MAC failed (tampering or key mismatch).
    BadRecordMac,
}

impl core::fmt::Display for TlsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TlsError::BadRecord => write!(f, "malformed TLS record"),
            TlsError::BadHandshake(w) => write!(f, "bad TLS handshake: {w}"),
            TlsError::BadFinished => write!(f, "TLS finished verification failed"),
            TlsError::BadRecordMac => write!(f, "TLS record MAC failed"),
        }
    }
}

impl std::error::Error for TlsError {}

/// Output of feeding bytes into a TLS endpoint.
#[derive(Debug, Default)]
pub struct TlsOutput {
    /// Bytes to transmit to the peer (a handshake flight).
    pub wire: Bytes,
    /// Decrypted application data received: the buffer its record was
    /// opened in, when one record completed.
    pub plaintext: Bytes,
    /// True once the handshake completed (edge-triggered: set on the call
    /// that completes it).
    pub handshake_complete: bool,
}

/// Record header: type(1) || version(2) || length(4).
const HEADER_LEN: usize = 7;
/// Truncated HMAC tag closing every application record.
const TAG_LEN: usize = 8;
/// Longest record payload an endpoint accepts or emits. The largest any
/// in-tree sender emits is one whole HTTP response in a single record
/// (tens of KB for the page models); 16 MiB is far above that and far
/// below the 4 GiB a peer could otherwise make us buffer towards.
const MAX_RECORD_LEN: usize = 1 << 24;

/// Starts a record of `payload_len` payload bytes at the end of `out`:
/// the header, with room reserved for the payload.
fn start_record(out: &mut BytesMut, rtype: u8, payload_len: usize) {
    assert!(payload_len <= MAX_RECORD_LEN, "TLS record of {payload_len} bytes: the peer would refuse it");
    out.reserve(HEADER_LEN + payload_len);
    out.put_u8(rtype);
    out.put_slice(&VERSION);
    out.put_u32(payload_len as u32);
}

/// Appends a handshake record to `wire`, `message` writing its
/// `len`-byte payload where it goes. Returns the payload, for the
/// transcript.
fn handshake_record(wire: &mut BytesMut, len: usize, message: impl FnOnce(&mut BytesMut)) -> &[u8] {
    start_record(wire, record_type::HANDSHAKE, len);
    let start = wire.len();
    message(wire);
    debug_assert_eq!(wire.len() - start, len);
    &wire[start..]
}

/// A record's payload as the deframer hands it out.
enum Payload<'a> {
    /// Whole inside the bytes just pushed, and read where it lies.
    InPlace(&'a [u8]),
    /// Assembled across pushes in a buffer of its own, allocated at the
    /// length its header announced.
    Assembled(BytesMut),
}

impl Payload<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            Payload::InPlace(payload) => payload,
            Payload::Assembled(payload) => payload,
        }
    }

    /// The payload in a buffer of its own: the one it was assembled in,
    /// or one copy of what lay in place.
    fn into_buf(self) -> BytesMut {
        match self {
            Payload::InPlace(payload) => BytesMut::from(payload),
            Payload::Assembled(payload) => payload,
        }
    }
}

/// Incremental record deframer. It keeps only what a record that spans
/// pushes needs — the header seen so far, then a buffer for the payload
/// sized by it — so an idle endpoint holds no receive buffer at all.
#[derive(Debug, Default)]
struct RecordBuf {
    /// The current record's header, its first `header_len` bytes arrived.
    header: [u8; HEADER_LEN],
    header_len: usize,
    /// The current record's payload so far, once its header is complete
    /// and the payload did not arrive with it.
    body: Option<BytesMut>,
}

impl RecordBuf {
    /// The next record completed by `data`, which is consumed up to the
    /// end of it (all of it when none is).
    fn next_record<'a>(&mut self, data: &mut &'a [u8]) -> Result<Option<(u8, Payload<'a>)>, TlsError> {
        let body = match &mut self.body {
            Some(body) => body,
            None => {
                let take = (HEADER_LEN - self.header_len).min(data.len());
                self.header[self.header_len..self.header_len + take].copy_from_slice(&data[..take]);
                self.header_len += take;
                *data = &data[take..];
                if self.header_len < HEADER_LEN {
                    return Ok(None);
                }
                let len = self.announced()?;
                if len <= data.len() {
                    let (payload, rest) = data.split_at(len);
                    *data = rest;
                    self.header_len = 0;
                    return Ok(Some((self.header[0], Payload::InPlace(payload))));
                }
                self.body.insert(BytesMut::with_capacity(len))
            }
        };
        let want = body.capacity() - body.len();
        let take = want.min(data.len());
        body.put_slice(&data[..take]);
        *data = &data[take..];
        if take < want {
            return Ok(None);
        }
        self.header_len = 0;
        let body = self.body.take().expect("matched above");
        Ok(Some((self.header[0], Payload::Assembled(body))))
    }

    /// The payload length the complete header announces. Checked as soon
    /// as the header is readable, so an absurd length is refused before
    /// anything is buffered towards it.
    fn announced(&self) -> Result<usize, TlsError> {
        if self.header[1..3] != VERSION {
            return Err(TlsError::BadRecord);
        }
        let len = u32::from_be_bytes(self.header[3..7].try_into().expect("4 bytes"));
        usize::try_from(len).ok().filter(|&len| len <= MAX_RECORD_LEN).ok_or(TlsError::BadRecord)
    }
}

/// Application data opened by one `on_bytes` call: a single record's
/// plaintext is handed out as it is, several are concatenated once.
#[derive(Default)]
struct Plaintext {
    first: Bytes,
    rest: Vec<Bytes>,
}

impl Plaintext {
    fn push(&mut self, record: Bytes) {
        if self.first.is_empty() {
            self.first = record;
        } else if !record.is_empty() {
            self.rest.push(record);
        }
    }

    fn into_bytes(self) -> Bytes {
        if self.rest.is_empty() {
            return self.first;
        }
        let len = self.first.len() + self.rest.iter().map(Bytes::len).sum::<usize>();
        let mut all = BytesMut::with_capacity(len);
        all.put_slice(&self.first);
        for record in &self.rest {
            all.put_slice(record);
        }
        all.freeze()
    }
}

/// Session keys derived from the handshake: each direction's cipher
/// stream, and its MAC key with the padded-key blocks already hashed.
#[derive(Debug)]
struct SessionKeys {
    client_write: Ctr,
    server_write: Ctr,
    client_mac: HmacKey,
    server_mac: HmacKey,
}

/// Boxed so that an endpoint still in its handshake, and whatever embeds
/// one, does not carry room for two expanded key schedules.
fn derive_keys(
    shared: &[u8; 32],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> Box<SessionKeys> {
    let mut salt = [0u8; 64];
    salt[..32].copy_from_slice(client_random);
    salt[32..].copy_from_slice(server_random);
    // client key | server key | client MAC | server MAC | the two nonces.
    let mut okm = [0u8; 32 + 32 + 32 + 32 + 16 + 16];
    hkdf_expand_into(&hkdf_extract(&salt, shared), b"sc-tls key expansion", &mut okm);
    let cw = Aes::new(KeySize::Aes256, &okm[0..32]).expect("fixed-size key");
    let sw = Aes::new(KeySize::Aes256, &okm[32..64]).expect("fixed-size key");
    let cnonce: [u8; 16] = okm[128..144].try_into().expect("16 bytes");
    let snonce: [u8; 16] = okm[144..160].try_into().expect("16 bytes");
    Box::new(SessionKeys {
        client_write: Ctr::new(cw, cnonce),
        server_write: Ctr::new(sw, snonce),
        client_mac: HmacKey::new(&okm[64..96]),
        server_mac: HmacKey::new(&okm[96..128]),
    })
}

/// The Finished MAC of one side: HMAC(shared, transcript-hash || label).
fn finished_mac(shared: &[u8; 32], transcript: &Sha256, label: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(shared);
    mac.update(&transcript.clone().finalize());
    mac.update(label);
    mac.finalize()
}

/// A framed application record over the plaintext `parts` make end to
/// end (an HTTP head and its body, say), encrypt-then-MAC: header ||
/// ciphertext || HMAC-tag(8). The parts are written straight into the one
/// buffer the record is, sized from them, and encrypted there.
fn seal(ctr: &mut Ctr, mac_key: &HmacKey, parts: &[&[u8]]) -> Bytes {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let mut out = BytesMut::new();
    start_record(&mut out, record_type::APPLICATION_DATA, len + TAG_LEN);
    for part in parts {
        out.put_slice(part);
    }
    let ct = &mut out[HEADER_LEN..];
    ctr.apply(ct);
    let tag = mac_key.mac(ct);
    out.put_slice(&tag[..TAG_LEN]);
    out.freeze()
}

/// Checks an application record payload's tag over the ciphertext, then
/// decrypts it in its own buffer, which becomes the plaintext. A bad tag
/// releases nothing and leaves the cipher stream where it was.
fn open(ctr: &mut Ctr, mac_key: &HmacKey, payload: Payload<'_>) -> Result<Bytes, TlsError> {
    let Some(ct_len) = payload.as_slice().len().checked_sub(TAG_LEN) else {
        return Err(TlsError::BadRecordMac);
    };
    let (ct, tag) = payload.as_slice().split_at(ct_len);
    if !ct_eq(&mac_key.mac(ct)[..TAG_LEN], tag) {
        return Err(TlsError::BadRecordMac);
    }
    let mut body = payload.into_buf();
    ctr.apply(&mut body[..ct_len]);
    Ok(body.freeze().slice(..ct_len))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Start,
    AwaitServerHello,
    AwaitFinished,
    Connected,
}

/// Client side of the simulated TLS protocol.
#[derive(Debug)]
pub struct TlsClient {
    state: ClientState,
    server_name: String,
    records: RecordBuf,
    transcript: Sha256,
    client_random: [u8; 32],
    dh: PrivateKey,
    keys: Option<Box<SessionKeys>>,
    shared: Option<[u8; 32]>,
    server_random: Option<[u8; 32]>,
}

impl TlsClient {
    /// Creates a client that will present `server_name` in its plaintext
    /// SNI. `entropy` seeds randoms and the DH key deterministically.
    pub fn new(server_name: &str, entropy: u64) -> Self {
        let mut client_random = [0u8; 32];
        let seed = sc_crypto::sha256(&[&entropy.to_be_bytes()[..], b"client-random"].concat());
        client_random.copy_from_slice(&seed);
        TlsClient {
            state: ClientState::Start,
            server_name: server_name.to_string(),
            records: RecordBuf::default(),
            transcript: Sha256::new(),
            client_random,
            dh: PrivateKey::from_entropy(entropy ^ 0x5a5a_5a5a_5a5a_5a5a),
            keys: None,
            shared: None,
            server_random: None,
        }
    }

    /// Produces the ClientHello. Call exactly once, first.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start_handshake(&mut self) -> Bytes {
        assert_eq!(self.state, ClientState::Start, "start_handshake called twice");
        // ClientHello: type | random(32) | sni_len(2) | sni
        let sni = self.server_name.as_bytes();
        let mut wire = BytesMut::new();
        let hello = handshake_record(&mut wire, 35 + sni.len(), |hello| {
            hello.put_u8(hs_type::CLIENT_HELLO);
            hello.put_slice(&self.client_random);
            hello.put_u16(sni.len() as u16);
            hello.put_slice(sni);
        });
        self.transcript.update(hello);
        self.state = ClientState::AwaitServerHello;
        wire.freeze()
    }

    /// Encrypts application data — `parts`, end to end — as one record
    /// for the wire.
    ///
    /// # Panics
    ///
    /// Panics if the handshake has not completed.
    pub fn send(&mut self, parts: &[&[u8]]) -> Bytes {
        let keys = self.keys.as_mut().expect("TLS handshake not complete");
        seal(&mut keys.client_write, &keys.client_mac, parts)
    }

    /// Feeds bytes received from the peer.
    ///
    /// # Errors
    ///
    /// Returns a [`TlsError`] on protocol violations.
    pub fn on_bytes(&mut self, mut data: &[u8]) -> Result<TlsOutput, TlsError> {
        let (mut wire, mut plaintext) = (BytesMut::new(), Plaintext::default());
        let mut handshake_complete = false;
        while let Some((rtype, record)) = self.records.next_record(&mut data)? {
            let payload = record.as_slice();
            match (rtype, self.state) {
                (t, ClientState::AwaitServerHello) if t == record_type::HANDSHAKE => {
                    if payload.first() != Some(&hs_type::SERVER_HELLO) || payload.len() < 1 + 32 + 8 {
                        return Err(TlsError::BadHandshake("server hello"));
                    }
                    let mut server_random = [0u8; 32];
                    server_random.copy_from_slice(&payload[1..33]);
                    let server_pub = PublicKey::from_bytes(payload[33..41].try_into().unwrap())
                        .map_err(|_| TlsError::BadHandshake("server dh key"))?;
                    self.transcript.update(payload);
                    let shared = self.dh.agree(&server_pub);
                    self.server_random = Some(server_random);
                    self.shared = Some(shared);

                    // ClientKeyExchange: type | dh_pub(8)
                    wire.reserve(2 * HEADER_LEN + 9 + 33);
                    let public = self.dh.public_key().to_bytes();
                    let cke = handshake_record(&mut wire, 9, |cke| {
                        cke.put_u8(hs_type::CLIENT_KEY_EXCHANGE);
                        cke.put_slice(&public);
                    });
                    self.transcript.update(cke);

                    // Client Finished: HMAC(shared, transcript || "client")
                    let mac = finished_mac(&shared, &self.transcript, b"client");
                    let fin = handshake_record(&mut wire, 33, |fin| {
                        fin.put_u8(hs_type::FINISHED);
                        fin.put_slice(&mac);
                    });
                    self.transcript.update(fin);
                    self.state = ClientState::AwaitFinished;
                }
                (t, ClientState::AwaitFinished) if t == record_type::HANDSHAKE => {
                    if payload.first() != Some(&hs_type::FINISHED) {
                        return Err(TlsError::BadHandshake("expected finished"));
                    }
                    let shared = self.shared.expect("set with server hello");
                    let expect = finished_mac(&shared, &self.transcript, b"server");
                    if !ct_eq(&expect, &payload[1..]) {
                        return Err(TlsError::BadFinished);
                    }
                    self.keys = Some(derive_keys(
                        &shared,
                        &self.client_random,
                        &self.server_random.expect("set with server hello"),
                    ));
                    self.state = ClientState::Connected;
                    handshake_complete = true;
                }
                (t, ClientState::Connected) if t == record_type::APPLICATION_DATA => {
                    let keys = self.keys.as_mut().expect("connected implies keys");
                    plaintext.push(open(&mut keys.server_write, &keys.server_mac, record)?);
                }
                _ => return Err(TlsError::BadHandshake("unexpected record")),
            }
        }
        Ok(TlsOutput { wire: wire.freeze(), plaintext: plaintext.into_bytes(), handshake_complete })
    }

    /// Whether application data can flow.
    pub fn is_connected(&self) -> bool {
        self.state == ClientState::Connected
    }

    /// The SNI this client presents.
    pub fn server_name(&self) -> &str {
        &self.server_name
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    AwaitClientHello,
    AwaitKeyExchange,
    AwaitFinished,
    Connected,
}

/// Server side of the simulated TLS protocol.
#[derive(Debug)]
pub struct TlsServer {
    state: ServerState,
    records: RecordBuf,
    transcript: Sha256,
    server_random: [u8; 32],
    dh: PrivateKey,
    keys: Option<Box<SessionKeys>>,
    shared: Option<[u8; 32]>,
    client_random: Option<[u8; 32]>,
    sni: Option<String>,
}

impl TlsServer {
    /// Creates a server endpoint with deterministic entropy.
    pub fn new(entropy: u64) -> Self {
        let mut server_random = [0u8; 32];
        let seed = sc_crypto::sha256(&[&entropy.to_be_bytes()[..], b"server-random"].concat());
        server_random.copy_from_slice(&seed);
        TlsServer {
            state: ServerState::AwaitClientHello,
            records: RecordBuf::default(),
            transcript: Sha256::new(),
            server_random,
            dh: PrivateKey::from_entropy(entropy ^ 0xa5a5_a5a5_a5a5_a5a5),
            keys: None,
            shared: None,
            client_random: None,
            sni: None,
        }
    }

    /// The SNI the client presented (after the ClientHello).
    pub fn sni(&self) -> Option<&str> {
        self.sni.as_deref()
    }

    /// Whether application data can flow.
    pub fn is_connected(&self) -> bool {
        self.state == ServerState::Connected
    }

    /// Encrypts application data — `parts`, end to end — as one record
    /// for the wire.
    ///
    /// # Panics
    ///
    /// Panics if the handshake has not completed.
    pub fn send(&mut self, parts: &[&[u8]]) -> Bytes {
        let keys = self.keys.as_mut().expect("TLS handshake not complete");
        seal(&mut keys.server_write, &keys.server_mac, parts)
    }

    /// Feeds bytes received from the peer.
    ///
    /// # Errors
    ///
    /// Returns a [`TlsError`] on protocol violations.
    pub fn on_bytes(&mut self, mut data: &[u8]) -> Result<TlsOutput, TlsError> {
        let (mut wire, mut plaintext) = (BytesMut::new(), Plaintext::default());
        let mut handshake_complete = false;
        while let Some((rtype, record)) = self.records.next_record(&mut data)? {
            let payload = record.as_slice();
            match (rtype, self.state) {
                (t, ServerState::AwaitClientHello) if t == record_type::HANDSHAKE => {
                    if payload.first() != Some(&hs_type::CLIENT_HELLO) || payload.len() < 35 {
                        return Err(TlsError::BadHandshake("client hello"));
                    }
                    let mut client_random = [0u8; 32];
                    client_random.copy_from_slice(&payload[1..33]);
                    let sni_len = u16::from_be_bytes(payload[33..35].try_into().unwrap()) as usize;
                    if payload.len() != 35 + sni_len {
                        return Err(TlsError::BadHandshake("client hello sni"));
                    }
                    self.sni = Some(String::from_utf8_lossy(&payload[35..]).to_string());
                    self.client_random = Some(client_random);
                    self.transcript.update(payload);

                    // ServerHello: type | random(32) | dh_pub(8)
                    let public = self.dh.public_key().to_bytes();
                    let hello = handshake_record(&mut wire, 41, |hello| {
                        hello.put_u8(hs_type::SERVER_HELLO);
                        hello.put_slice(&self.server_random);
                        hello.put_slice(&public);
                    });
                    self.transcript.update(hello);
                    self.state = ServerState::AwaitKeyExchange;
                }
                (t, ServerState::AwaitKeyExchange) if t == record_type::HANDSHAKE => {
                    if payload.first() != Some(&hs_type::CLIENT_KEY_EXCHANGE) || payload.len() != 9 {
                        return Err(TlsError::BadHandshake("key exchange"));
                    }
                    let client_pub = PublicKey::from_bytes(payload[1..9].try_into().unwrap())
                        .map_err(|_| TlsError::BadHandshake("client dh key"))?;
                    self.transcript.update(payload);
                    self.shared = Some(self.dh.agree(&client_pub));
                    self.state = ServerState::AwaitFinished;
                }
                (t, ServerState::AwaitFinished) if t == record_type::HANDSHAKE => {
                    if payload.first() != Some(&hs_type::FINISHED) {
                        return Err(TlsError::BadHandshake("expected finished"));
                    }
                    let shared = self.shared.expect("set at key exchange");
                    let expect = finished_mac(&shared, &self.transcript, b"client");
                    if !ct_eq(&expect, &payload[1..]) {
                        return Err(TlsError::BadFinished);
                    }
                    self.transcript.update(payload);
                    // Server Finished.
                    let mac = finished_mac(&shared, &self.transcript, b"server");
                    handshake_record(&mut wire, 33, |fin| {
                        fin.put_u8(hs_type::FINISHED);
                        fin.put_slice(&mac);
                    });
                    self.keys = Some(derive_keys(
                        &shared,
                        &self.client_random.expect("set at client hello"),
                        &self.server_random,
                    ));
                    self.state = ServerState::Connected;
                    handshake_complete = true;
                }
                (t, ServerState::Connected) if t == record_type::APPLICATION_DATA => {
                    let keys = self.keys.as_mut().expect("connected implies keys");
                    plaintext.push(open(&mut keys.client_write, &keys.client_mac, record)?);
                }
                _ => return Err(TlsError::BadHandshake("unexpected record")),
            }
        }
        Ok(TlsOutput { wire: wire.freeze(), plaintext: plaintext.into_bytes(), handshake_complete })
    }
}

/// Extracts the SNI from raw bytes if they begin with a ClientHello —
/// the exact operation the GFW's SNI filter performs on passing traffic.
pub fn sniff_sni(data: &[u8]) -> Option<String> {
    // record header (7) + type(1) + random(32) + sni_len(2)
    if data.len() < 7 + 35 || data[0] != record_type::HANDSHAKE || data[1..3] != VERSION {
        return None;
    }
    let payload = &data[7..];
    if payload.first() != Some(&hs_type::CLIENT_HELLO) {
        return None;
    }
    let sni_len = u16::from_be_bytes(payload[33..35].try_into().ok()?) as usize;
    if payload.len() < 35 + sni_len {
        return None;
    }
    Some(String::from_utf8_lossy(&payload[35..35 + sni_len]).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake() -> (TlsClient, TlsServer) {
        let mut client = TlsClient::new("scholar.google.com", 1);
        let mut server = TlsServer::new(2);
        let ch = client.start_handshake();
        let s1 = server.on_bytes(&ch).unwrap();
        let c1 = client.on_bytes(&s1.wire).unwrap();
        let s2 = server.on_bytes(&c1.wire).unwrap();
        assert!(s2.handshake_complete);
        let c2 = client.on_bytes(&s2.wire).unwrap();
        assert!(c2.handshake_complete);
        (client, server)
    }

    #[test]
    fn full_handshake_and_data() {
        let (mut client, mut server) = handshake();
        assert!(client.is_connected() && server.is_connected());
        assert_eq!(server.sni(), Some("scholar.google.com"));

        let wire = client.send(&[b"GET / HTTP/1.1\r\n\r\n"]);
        let got = server.on_bytes(&wire).unwrap();
        assert_eq!(got.plaintext[..], b"GET / HTTP/1.1\r\n\r\n"[..]);

        let wire = server.send(&[b"HTTP/1.1 200 OK\r\n", b"\r\n"]);
        let got = client.on_bytes(&wire).unwrap();
        assert_eq!(got.plaintext[..], b"HTTP/1.1 200 OK\r\n\r\n"[..]);
    }

    #[test]
    fn multiple_records_roundtrip() {
        let (mut client, mut server) = handshake();
        let mut wire = Vec::new();
        for i in 0..10u8 {
            wire.extend(client.send(&[&[i; 100]]));
        }
        // Feed in odd-sized fragments.
        let mut plain = Vec::new();
        for chunk in wire.chunks(37) {
            plain.extend(server.on_bytes(chunk).unwrap().plaintext);
        }
        assert_eq!(plain.len(), 1000);
    }

    #[test]
    fn parts_seal_as_their_concatenation_into_a_buffer_sized_once() {
        let (mut by_parts, _) = handshake();
        let (mut whole, _) = handshake();
        let (head, body) = (b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n".as_slice(), vec![7u8; 5000]);
        let wire = by_parts.send(&[head, &body]);
        assert_eq!(wire, whole.send(&[&[head, &body].concat()]));
        assert_eq!(wire.len(), HEADER_LEN + head.len() + body.len() + TAG_LEN);
        // The room the record is written into is reserved by its header,
        // before the first part, at the record's whole length: the parts
        // and the tag then fill it without growing it (one allocation,
        // counted in tests/tls_allocations.rs).
        let mut record = BytesMut::new();
        start_record(&mut record, record_type::APPLICATION_DATA, head.len() + body.len() + TAG_LEN);
        assert_eq!(record.capacity(), wire.len(), "sized from the parts, never grown");
    }

    #[test]
    fn a_record_that_arrives_in_segments_is_buffered_in_room_reserved_once() {
        let (mut client, mut server) = handshake();
        let wire = client.send(&[&vec![b'r'; 20_000]]);
        let mut segments = wire.chunks(1460);
        assert!(server.on_bytes(segments.next().unwrap()).unwrap().plaintext.is_empty());
        let room = |server: &TlsServer| server.records.body.as_ref().map(|b| (b.capacity(), b.as_ptr()));
        let (capacity, at) = room(&server).expect("a body buffer once the header is read");
        assert_eq!(capacity, wire.len() - HEADER_LEN, "the header said how long");
        let mut segments = segments.peekable();
        let mut plain = Bytes::new();
        while let Some(segment) = segments.next() {
            let out = server.on_bytes(segment).unwrap();
            if segments.peek().is_some() {
                assert!(out.plaintext.is_empty());
                assert_eq!(room(&server), Some((capacity, at)), "never grown or moved");
            } else {
                plain = out.plaintext;
            }
        }
        assert_eq!(plain, vec![b'r'; 20_000]);
        assert_eq!(plain.as_ptr(), at, "the plaintext is the buffer the record was assembled in");
        assert!(server.records.body.is_none() && server.records.header_len == 0, "and nothing is kept");
    }

    /// Several records sent back to back open to the same plaintext
    /// however the bytes are cut: in one push, in two at every cut —
    /// inside a header, inside a payload, on a record's edge — and one
    /// byte at a time.
    #[test]
    fn records_cut_anywhere_open_as_their_concatenation() {
        let (mut client, _) = handshake();
        let sent: Vec<Vec<u8>> = vec![b"a".to_vec(), (0..=255).collect(), vec![b'x'; 40], Vec::new()];
        let wire: Vec<u8> = sent.iter().flat_map(|p| client.send(&[p]).to_vec()).collect();
        let expect = sent.concat();
        let open_in = |pieces: &mut dyn Iterator<Item = &[u8]>| {
            let (_, mut server) = handshake();
            let mut plain = Vec::new();
            for piece in pieces {
                plain.extend_from_slice(&server.on_bytes(piece).unwrap().plaintext);
            }
            assert!(server.records.body.is_none() && server.records.header_len == 0);
            plain
        };
        assert_eq!(open_in(&mut std::iter::once(&wire[..])), expect, "one push");
        for cut in 0..=wire.len() {
            let (front, back) = wire.split_at(cut);
            assert_eq!(open_in(&mut [front, back].into_iter()), expect, "cut at {cut}");
        }
        assert_eq!(open_in(&mut wire.chunks(1)), expect, "a byte at a time");
    }

    #[test]
    fn ciphertext_is_high_entropy() {
        let (mut client, _server) = handshake();
        let wire = client.send(&[&vec![b'A'; 4096]]);
        let stats = sc_crypto::entropy::PayloadStats::analyze(&wire[7..]);
        assert!(stats.entropy > 7.0, "entropy {}", stats.entropy);
    }

    #[test]
    fn sni_is_sniffable_from_client_hello() {
        let mut client = TlsClient::new("www.google.com", 3);
        let ch = client.start_handshake();
        assert_eq!(sniff_sni(&ch).as_deref(), Some("www.google.com"));
        // Application data must not leak an SNI.
        let (mut c, _s) = handshake();
        assert_eq!(sniff_sni(&c.send(&[b"data"])), None);
        assert_eq!(sniff_sni(b"short"), None);
    }

    #[test]
    fn tampered_record_fails_mac() {
        let (mut client, mut server) = handshake();
        let mut wire = client.send(&[b"secret"]).to_vec();
        let n = wire.len();
        wire[n - 9] ^= 0xff; // flip a ciphertext bit
        assert_eq!(server.on_bytes(&wire).unwrap_err(), TlsError::BadRecordMac);
    }

    #[test]
    fn a_tampered_record_releases_no_plaintext_and_moves_no_cipher_state() {
        let (mut client, mut server) = handshake();
        let wire = client.send(&[b"first"]);
        let second = client.send(&[b"second"]);
        for at in [HEADER_LEN, wire.len() - TAG_LEN - 1, wire.len() - 1] {
            let mut tampered = wire.to_vec();
            tampered[at] ^= 0x01;
            // Whole in one push, and assembled across two.
            assert_eq!(server.on_bytes(&tampered).unwrap_err(), TlsError::BadRecordMac);
            let (front, back) = tampered.split_at(HEADER_LEN + 2);
            assert!(server.on_bytes(front).unwrap().plaintext.is_empty());
            assert_eq!(server.on_bytes(back).unwrap_err(), TlsError::BadRecordMac);
        }
        // The genuine records still open: nothing of the cipher stream
        // was spent on the forgeries.
        let got = server.on_bytes(&[&wire[..], &second[..]].concat()).unwrap();
        assert_eq!(got.plaintext[..], b"firstsecond"[..]);
    }

    /// A header by itself, announcing `len` payload bytes to come.
    fn header_announcing(len: u32) -> Vec<u8> {
        let mut header = vec![record_type::APPLICATION_DATA];
        header.extend_from_slice(&VERSION);
        header.extend_from_slice(&len.to_be_bytes());
        header
    }

    #[test]
    fn oversized_record_is_refused_as_soon_as_its_header_is_read() {
        // Connected, and still in the handshake: nothing is buffered
        // towards a length no sender of ours would announce.
        let (mut client, mut server) = handshake();
        let mut fresh = TlsServer::new(9);
        for len in [u32::MAX, MAX_RECORD_LEN as u32 + 1] {
            let header = header_announcing(len);
            assert_eq!(server.on_bytes(&header).unwrap_err(), TlsError::BadRecord);
            assert_eq!(client.on_bytes(&header).unwrap_err(), TlsError::BadRecord);
            assert_eq!(fresh.on_bytes(&header).unwrap_err(), TlsError::BadRecord);
        }
        // The largest length allowed is only incomplete.
        let (_client, mut server) = handshake();
        let out = server.on_bytes(&header_announcing(MAX_RECORD_LEN as u32)).unwrap();
        assert!(out.plaintext.is_empty() && out.wire.is_empty());
    }

    #[test]
    fn tampered_finished_fails() {
        let mut client = TlsClient::new("h", 1);
        let mut server = TlsServer::new(2);
        let ch = client.start_handshake();
        let s1 = server.on_bytes(&ch).unwrap();
        let mut c1 = client.on_bytes(&s1.wire).unwrap().wire.to_vec();
        let n = c1.len();
        c1[n - 1] ^= 1; // corrupt client finished MAC
        assert_eq!(server.on_bytes(&c1).unwrap_err(), TlsError::BadFinished);
    }

    #[test]
    fn wrong_order_is_rejected() {
        let mut server = TlsServer::new(2);
        let (mut client, _s) = handshake();
        let appdata = client.send(&[b"x"]);
        assert!(matches!(
            server.on_bytes(&appdata).unwrap_err(),
            TlsError::BadHandshake(_)
        ));
    }

    #[test]
    #[should_panic(expected = "start_handshake called twice")]
    fn double_start_panics() {
        let mut client = TlsClient::new("h", 1);
        let _ = client.start_handshake();
        let _ = client.start_handshake();
    }
}
