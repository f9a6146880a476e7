//! Tor cells: fixed-size link frames and onion-encrypted relay payloads.
//!
//! Like real Tor, all link traffic is carried in fixed 512-byte cells; a
//! RELAY cell's payload is onion-encrypted, one AES-CTR layer per hop,
//! with a "recognized" marker that tells a hop the cell terminates there.

use bytes::{BufMut, Bytes, BytesMut};
use sc_crypto::modes::Ctr;
use sc_crypto::{Aes, KeySize};

/// Fixed cell size on the wire.
pub const CELL_SIZE: usize = 512;
/// Cell header: circuit id (4), command (1), payload length (2).
const CELL_HEADER: usize = 7;
/// Maximum relay-payload bytes per cell.
pub const CELL_PAYLOAD: usize = CELL_SIZE - CELL_HEADER;
/// Relay header: recognized marker (2), stream id (2), relay command (1),
/// data length (2).
const RELAY_HEADER: usize = 7;
/// Usable data bytes per RELAY DATA cell (payload minus relay header).
pub const RELAY_DATA_MAX: usize = CELL_PAYLOAD - RELAY_HEADER;

/// What follows a cell's payload on the wire.
static PADDING: [u8; CELL_SIZE] = [0; CELL_SIZE];

/// Link-level cell commands.
pub mod cmd {
    /// Create a circuit (payload: client DH public key).
    pub const CREATE: u8 = 1;
    /// Circuit created (payload: relay DH public key).
    pub const CREATED: u8 = 2;
    /// Onion-encrypted relay payload.
    pub const RELAY: u8 = 5;
    /// Tear down a circuit.
    pub const DESTROY: u8 = 6;
}

/// Relay-level commands (inside the onion).
pub mod relay_cmd {
    /// Extend the circuit to another relay.
    pub const EXTEND: u8 = 1;
    /// Extension completed (payload: next relay's DH public key).
    pub const EXTENDED: u8 = 2;
    /// Open a stream to a target.
    pub const BEGIN: u8 = 3;
    /// Stream opened.
    pub const CONNECTED: u8 = 4;
    /// Stream data.
    pub const DATA: u8 = 5;
    /// Stream closed.
    pub const END: u8 = 6;
}

/// The recognized marker prefixing a fully decrypted relay payload.
pub const RECOGNIZED: [u8; 2] = [0x5a, 0xa5];

/// A link cell: its [`CELL_SIZE`] wire bytes in one buffer — circuit id,
/// command, payload length, payload (≤ [`CELL_PAYLOAD`]) and zero
/// padding — read through accessors and changed in place. Onion layers
/// are applied to the payload where it lies, a relay forwards the buffer
/// it received after rewriting the circuit id, and sending freezes the
/// buffer: a cell is one allocation from where it is built or read to
/// where it leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    wire: BytesMut,
}

impl Cell {
    /// Builds a cell whose `len`-byte payload `write` appends.
    fn build(circ_id: u32, cmd: u8, len: usize, write: impl FnOnce(&mut BytesMut)) -> Cell {
        assert!(len <= CELL_PAYLOAD, "cell payload too large");
        let mut wire = BytesMut::with_capacity(CELL_SIZE);
        wire.put_u32(circ_id);
        wire.put_u8(cmd);
        wire.put_u16(len as u16);
        write(&mut wire);
        debug_assert_eq!(wire.len(), CELL_HEADER + len);
        wire.put_slice(&PADDING[CELL_HEADER + len..]);
        Cell { wire }
    }

    /// Builds a cell.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`CELL_PAYLOAD`].
    pub fn new(circ_id: u32, cmd: u8, payload: &[u8]) -> Self {
        Cell::build(circ_id, cmd, payload.len(), |w| w.put_slice(payload))
    }

    /// Builds a RELAY cell whose payload is the recognized relay payload
    /// RECOGNIZED ‖ stream_id ‖ rcmd ‖ len ‖ data, written straight into
    /// the cell.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`RELAY_DATA_MAX`].
    pub fn relay(circ_id: u32, stream_id: u16, rcmd: u8, data: &[u8]) -> Self {
        assert!(data.len() <= RELAY_DATA_MAX, "relay data too large");
        Cell::build(circ_id, cmd::RELAY, RELAY_HEADER + data.len(), |w| {
            w.put_slice(&RECOGNIZED);
            w.put_u16(stream_id);
            w.put_u8(rcmd);
            w.put_u16(data.len() as u16);
            w.put_slice(data);
        })
    }

    /// Parses one cell from exactly [`CELL_SIZE`] bytes, into a buffer of
    /// its own (the padding is written as zeros). `None` if the length
    /// field exceeds [`CELL_PAYLOAD`].
    pub fn decode(frame: &[u8; CELL_SIZE]) -> Option<Cell> {
        let len = u16::from_be_bytes([frame[5], frame[6]]) as usize;
        if len > CELL_PAYLOAD {
            return None;
        }
        let circ_id = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]);
        Some(Cell::build(circ_id, frame[4], len, |w| w.put_slice(&frame[CELL_HEADER..CELL_HEADER + len])))
    }

    /// Circuit identifier, scoped to the link the cell travels on.
    pub fn circ_id(&self) -> u32 {
        u32::from_be_bytes([self.wire[0], self.wire[1], self.wire[2], self.wire[3]])
    }

    /// Rewrites the circuit id, for the link the cell is forwarded on.
    pub fn set_circ_id(&mut self, circ_id: u32) {
        self.wire[..4].copy_from_slice(&circ_id.to_be_bytes());
    }

    /// Link command.
    pub fn cmd(&self) -> u8 {
        self.wire[4]
    }

    fn payload_end(&self) -> usize {
        CELL_HEADER + u16::from_be_bytes([self.wire[5], self.wire[6]]) as usize
    }

    /// The payload.
    pub fn payload(&self) -> &[u8] {
        &self.wire[CELL_HEADER..self.payload_end()]
    }

    /// The payload, for an onion layer to be applied where it lies.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let end = self.payload_end();
        &mut self.wire[CELL_HEADER..end]
    }

    /// The [`CELL_SIZE`] wire bytes.
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// The wire bytes as the buffer a send hands over: no copy.
    pub fn into_wire(self) -> Bytes {
        self.wire.freeze()
    }

    /// The data of the recognized relay payload this cell carries, as a
    /// view of the frozen cell: what a stream end hands on, not copied.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a recognized relay payload.
    pub fn into_relay_data(self) -> Bytes {
        let (_, _, data) = parse_relay_payload(self.payload()).expect("a recognized relay payload");
        let at = CELL_HEADER + RELAY_HEADER;
        let end = at + data.len();
        self.into_wire().slice(at..end)
    }
}

/// A cell whose length field exceeds [`CELL_PAYLOAD`]: a protocol
/// violation, after which nothing more on that stream can be framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedCell;

/// Incremental deframer for cell streams.
#[derive(Debug, Default)]
pub struct CellBuf {
    buf: Vec<u8>,
}

impl CellBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        CellBuf::default()
    }

    /// Feeds stream bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pops the next complete cell: `Ok(None)` when more bytes are
    /// needed, `Err` on a malformed cell. A malformed cell is not
    /// consumed, so every later call fails too: the caller aborts the
    /// connection, as tor-spec treats a protocol violation.
    pub fn next_cell(&mut self) -> Result<Option<Cell>, MalformedCell> {
        let Some(frame) = self.buf.first_chunk::<CELL_SIZE>() else { return Ok(None) };
        let cell = Cell::decode(frame).ok_or(MalformedCell)?;
        self.buf.drain(..CELL_SIZE);
        Ok(Some(cell))
    }
}

/// One onion layer: the key (expanded once) and counters shared with one
/// hop.
#[derive(Debug, Clone)]
pub struct OnionLayer {
    aes: Aes,
    fwd_counter: u64,
    bwd_counter: u64,
}

impl OnionLayer {
    /// Creates a layer from a shared secret.
    pub fn new(key: [u8; 32]) -> Self {
        let aes = Aes::new(KeySize::Aes256, &key).expect("32-byte key");
        OnionLayer { aes, fwd_counter: 0, bwd_counter: 0 }
    }

    fn apply(&self, counter: u64, dir: u8, data: &mut [u8]) {
        let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Crypto);
        let mut nonce = [0u8; 16];
        nonce[0] = dir;
        nonce[8..16].copy_from_slice(&counter.to_be_bytes());
        Ctr::new(self.aes.clone(), nonce).apply(data);
    }

    /// Applies the forward-direction transform (client → exit) and
    /// advances the forward counter.
    pub fn forward(&mut self, data: &mut [u8]) {
        let c = self.fwd_counter;
        self.fwd_counter += 1;
        self.apply(c, 0x0f, data);
    }

    /// Applies the backward-direction transform (exit → client) and
    /// advances the backward counter.
    pub fn backward(&mut self, data: &mut [u8]) {
        let c = self.bwd_counter;
        self.bwd_counter += 1;
        self.apply(c, 0xb0, data);
    }
}

/// Parses a recognized relay payload into (stream_id, cmd, data).
pub fn parse_relay_payload(payload: &[u8]) -> Option<(u16, u8, &[u8])> {
    if payload.len() < RELAY_HEADER || payload[0..2] != RECOGNIZED {
        return None;
    }
    let stream_id = u16::from_be_bytes(payload[2..4].try_into().ok()?);
    let rcmd = payload[4];
    let len = u16::from_be_bytes(payload[5..7].try_into().ok()?) as usize;
    if payload.len() < RELAY_HEADER + len {
        return None;
    }
    Some((stream_id, rcmd, &payload[RELAY_HEADER..RELAY_HEADER + len]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip() {
        let cell = Cell::new(42, cmd::RELAY, &[1, 2, 3]);
        let wire = cell.wire();
        assert_eq!(wire.len(), CELL_SIZE);
        let frame: &[u8; CELL_SIZE] = wire.try_into().unwrap();
        assert_eq!(Cell::decode(frame).unwrap(), cell);
        assert_eq!((cell.circ_id(), cell.cmd(), cell.payload()), (42, cmd::RELAY, [1, 2, 3].as_slice()));
    }

    #[test]
    fn a_forwarded_cell_is_rewritten_in_place() {
        let mut cell = Cell::relay(3, 9, relay_cmd::DATA, b"page bytes");
        let payload = cell.payload().to_vec();
        cell.set_circ_id(0x0102_0304);
        assert_eq!((cell.circ_id(), cell.cmd(), cell.payload()), (0x0102_0304, cmd::RELAY, payload.as_slice()));
        assert_eq!(&cell.wire()[..4], &[1, 2, 3, 4]);
        // A stream end hands on a view of the frozen cell, not a copy.
        let at = cell.wire().as_ptr().wrapping_add(2 * 7);
        let data = cell.into_relay_data();
        assert_eq!((data.as_ref(), data.as_ptr()), (b"page bytes".as_slice(), at));
    }

    /// Five cells of different lengths and commands, back to back.
    fn sample_stream() -> (Vec<Cell>, Vec<u8>) {
        let cells: Vec<Cell> = (0..5u8)
            .map(|i| Cell::new(u32::from(i) << 20 | 7, cmd::RELAY + i % 2, &vec![i; 10 + 90 * usize::from(i)]))
            .collect();
        let wire = cells.iter().flat_map(|c| c.wire().to_vec()).collect();
        (cells, wire)
    }

    #[test]
    fn cellbuf_reassembles_fragments() {
        let (cells, wire) = sample_stream();
        let mut buf = CellBuf::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(97) {
            buf.push(chunk);
            while let Some(c) = buf.next_cell().unwrap() {
                got.push(c);
            }
        }
        assert_eq!(got, cells);
    }

    #[test]
    fn cellbuf_yields_the_same_cells_at_every_split_point() {
        let (cells, wire) = sample_stream();
        for cut in 0..=wire.len() {
            let mut buf = CellBuf::new();
            let mut got = Vec::new();
            for piece in [&wire[..cut], &wire[cut..]] {
                buf.push(piece);
                while let Some(c) = buf.next_cell().unwrap() {
                    got.push(c);
                }
            }
            assert_eq!(got, cells, "split at {cut}");
        }
    }

    #[test]
    fn a_malformed_cell_stops_the_stream_it_is_in() {
        let mut bad = Cell::new(1, cmd::RELAY, &[]).wire().to_vec();
        bad[5..7].copy_from_slice(&(CELL_PAYLOAD as u16 + 1).to_be_bytes());
        let good = Cell::new(2, cmd::CREATE, &[9; 8]);
        let mut buf = CellBuf::new();
        buf.push(&[bad.as_slice(), good.wire()].concat());
        // Neither "need more bytes" nor the good cell behind it.
        assert_eq!(buf.next_cell(), Err(MalformedCell));
        assert_eq!(buf.next_cell(), Err(MalformedCell));
        // A cell that is only incomplete is not an error.
        let mut partial = CellBuf::new();
        partial.push(&bad[..CELL_SIZE - 1]);
        assert_eq!(partial.next_cell(), Ok(None));
    }

    #[test]
    fn three_layer_onion_roundtrip() {
        let mut client_layers = [
            OnionLayer::new([1; 32]),
            OnionLayer::new([2; 32]),
            OnionLayer::new([3; 32]),
        ];
        let mut hop_layers = [
            OnionLayer::new([1; 32]),
            OnionLayer::new([2; 32]),
            OnionLayer::new([3; 32]),
        ];
        let plain = Cell::relay(0, 7, relay_cmd::DATA, b"hello onion");
        // Client wraps: outermost layer is hop 1's.
        let mut wrapped = plain.payload().to_vec();
        for layer in client_layers.iter_mut().rev() {
            layer.forward(&mut wrapped);
        }
        // Hops peel in order.
        for (i, hop) in hop_layers.iter_mut().enumerate() {
            assert!(parse_relay_payload(&wrapped).is_none() || i == 3);
            hop.forward(&mut wrapped);
        }
        let (sid, rcmd, data) = parse_relay_payload(&wrapped).unwrap();
        assert_eq!((sid, rcmd, data), (7, relay_cmd::DATA, b"hello onion".as_slice()));

        // Backward: exit wraps, client peels.
        let plain_b = Cell::relay(0, 7, relay_cmd::DATA, b"reply");
        let mut wrapped_b = plain_b.payload().to_vec();
        // Each hop encrypts backward in path order exit→bridge.
        for hop in hop_layers.iter_mut().rev() {
            hop.backward(&mut wrapped_b);
        }
        for layer in client_layers.iter_mut() {
            layer.backward(&mut wrapped_b);
        }
        let (sid, rcmd, data) = parse_relay_payload(&wrapped_b).unwrap();
        assert_eq!((sid, rcmd, data), (7, relay_cmd::DATA, b"reply".as_slice()));
    }

    #[test]
    fn counters_keep_cells_independent() {
        let mut a = OnionLayer::new([9; 32]);
        let mut b = OnionLayer::new([9; 32]);
        let mut x1 = vec![0u8; 32];
        let mut x2 = vec![0u8; 32];
        a.forward(&mut x1);
        a.forward(&mut x2);
        assert_ne!(x1, x2, "same plaintext must differ across cells");
        // Peer with synced counters can decrypt both.
        b.forward(&mut x1);
        b.forward(&mut x2);
        assert_eq!(x1, vec![0u8; 32]);
        assert_eq!(x2, vec![0u8; 32]);
    }

    #[test]
    fn relay_payload_parse_rejects_unrecognized() {
        assert!(parse_relay_payload(&[0, 0, 1, 2, 3, 4, 5, 6]).is_none());
        assert!(parse_relay_payload(&[]).is_none());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A cell's 512 wire bytes as the hex of what precedes the padding,
    /// checking that the padding is zeros.
    fn pinned(wire: &[u8]) -> String {
        assert_eq!(wire.len(), CELL_SIZE);
        let len = 7 + u16::from_be_bytes([wire[5], wire[6]]) as usize;
        assert!(wire[len..].iter().all(|&b| b == 0), "padding is zeros");
        hex(&wire[..len])
    }

    /// A RELAY DATA cell on circuit 7 as the client sends it through
    /// `hops` layers (keys 1, 2, 3 in path order, outermost first).
    fn relay_wire(hops: u8) -> Vec<u8> {
        let mut layers: Vec<OnionLayer> = (1..=hops).map(|k| OnionLayer::new([k; 32])).collect();
        let mut cell = Cell::relay(7, 3, relay_cmd::DATA, b"GET / HTTP/1.1");
        for layer in layers.iter_mut().rev() {
            layer.forward(cell.payload_mut());
        }
        cell.wire().to_vec()
    }

    /// The encoded CREATE, CREATED and RELAY cells, pinned: the cell
    /// layout, the padding and the onion layers may be rewritten, the
    /// bytes may not move.
    #[test]
    fn cell_wire_bytes_are_pinned() {
        use sc_crypto::dh::PrivateKey;
        let client = PrivateKey::from_entropy(7 ^ 0x1111).public_key().to_bytes();
        let relay = PrivateKey::from_entropy(103).public_key().to_bytes();
        let create = Cell::new(7, cmd::CREATE, &client).wire().to_vec();
        let created = Cell::new(7, cmd::CREATED, &relay).wire().to_vec();
        for (name, wire, expect) in [
            ("CREATE", create, "000000070100081946c173d09c80e2"),
            ("CREATED", created, "0000000702000807238ed7109792f4"),
            ("RELAY, one layer", relay_wire(1), "00000007050015ebd4880476f7e489ba1fdac52ac7c6b7927619e826"),
            ("RELAY, three layers", relay_wire(3), "00000007050015a2a16f4b80e7daf460febd9ae1fdb0f85a60af7df5"),
        ] {
            assert_eq!(pinned(&wire), expect, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "cell payload too large")]
    fn oversized_cell_panics() {
        let _ = Cell::new(1, cmd::RELAY, &[0; CELL_PAYLOAD + 1]);
    }
}
