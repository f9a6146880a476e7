//! Tor cells: fixed-size link frames and onion-encrypted relay payloads.
//!
//! Like real Tor, all link traffic is carried in fixed 512-byte cells; a
//! RELAY cell's payload is onion-encrypted, one AES-CTR layer per hop,
//! with a "recognized" marker that tells a hop the cell terminates there.

use sc_crypto::modes::Ctr;
use sc_crypto::{Aes, KeySize};

/// Fixed cell size on the wire.
pub const CELL_SIZE: usize = 512;
/// Maximum relay-payload bytes per cell.
pub const CELL_PAYLOAD: usize = CELL_SIZE - 7;
/// Usable data bytes per RELAY DATA cell (payload minus relay header).
pub const RELAY_DATA_MAX: usize = CELL_PAYLOAD - 7;

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

/// A link cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Circuit identifier, scoped to the link it travels on.
    pub circ_id: u32,
    /// Link command.
    pub cmd: u8,
    /// Payload (≤ [`CELL_PAYLOAD`]; padded to fixed size on the wire).
    pub payload: Vec<u8>,
}

impl Cell {
    /// Builds a cell.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`CELL_PAYLOAD`].
    pub fn new(circ_id: u32, cmd: u8, payload: Vec<u8>) -> Self {
        assert!(payload.len() <= CELL_PAYLOAD, "cell payload too large");
        Cell { circ_id, cmd, payload }
    }

    /// Serializes to exactly [`CELL_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CELL_SIZE);
        out.extend_from_slice(&self.circ_id.to_be_bytes());
        out.push(self.cmd);
        out.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out.resize(CELL_SIZE, 0);
        out
    }

    /// Parses one cell from exactly [`CELL_SIZE`] bytes.
    pub fn decode(data: &[u8; CELL_SIZE]) -> Option<Cell> {
        let circ_id = u32::from_be_bytes(data[0..4].try_into().ok()?);
        let cmd = data[4];
        let len = u16::from_be_bytes(data[5..7].try_into().ok()?) as usize;
        if len > CELL_PAYLOAD {
            return None;
        }
        Some(Cell { circ_id, cmd, payload: data[7..7 + len].to_vec() })
    }
}

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

    /// Pops the next complete cell, if any.
    pub fn next_cell(&mut self) -> Option<Cell> {
        if self.buf.len() < CELL_SIZE {
            return None;
        }
        let frame: [u8; CELL_SIZE] = self.buf[..CELL_SIZE].try_into().expect("checked length");
        self.buf.drain(..CELL_SIZE);
        Cell::decode(&frame)
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

/// Builds a recognized relay payload: RECOGNIZED ‖ stream_id ‖ cmd ‖ len ‖ data.
pub fn relay_payload(stream_id: u16, rcmd: u8, data: &[u8]) -> Vec<u8> {
    assert!(data.len() <= RELAY_DATA_MAX, "relay data too large");
    let mut out = Vec::with_capacity(7 + data.len());
    out.extend_from_slice(&RECOGNIZED);
    out.extend_from_slice(&stream_id.to_be_bytes());
    out.push(rcmd);
    out.extend_from_slice(&(data.len() as u16).to_be_bytes());
    out.extend_from_slice(data);
    out
}

/// Parses a recognized relay payload into (stream_id, cmd, data).
pub fn parse_relay_payload(payload: &[u8]) -> Option<(u16, u8, &[u8])> {
    if payload.len() < 7 || payload[0..2] != RECOGNIZED {
        return None;
    }
    let stream_id = u16::from_be_bytes(payload[2..4].try_into().ok()?);
    let rcmd = payload[4];
    let len = u16::from_be_bytes(payload[5..7].try_into().ok()?) as usize;
    if payload.len() < 7 + len {
        return None;
    }
    Some((stream_id, rcmd, &payload[7..7 + len]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip() {
        let cell = Cell::new(42, cmd::RELAY, vec![1, 2, 3]);
        let wire = cell.encode();
        assert_eq!(wire.len(), CELL_SIZE);
        let frame: [u8; CELL_SIZE] = wire.try_into().unwrap();
        assert_eq!(Cell::decode(&frame).unwrap(), cell);
    }

    #[test]
    fn cellbuf_reassembles_fragments() {
        let cells: Vec<Cell> = (0..5).map(|i| Cell::new(i, cmd::RELAY, vec![i as u8; 10])).collect();
        let mut wire = Vec::new();
        for c in &cells {
            wire.extend(c.encode());
        }
        let mut buf = CellBuf::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(97) {
            buf.push(chunk);
            while let Some(c) = buf.next_cell() {
                got.push(c);
            }
        }
        assert_eq!(got, cells);
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
        let plain = relay_payload(7, relay_cmd::DATA, b"hello onion");
        // Client wraps: outermost layer is hop 1's.
        let mut wrapped = plain.clone();
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
        let plain_b = relay_payload(7, relay_cmd::DATA, b"reply");
        let mut wrapped_b = plain_b.clone();
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

    #[test]
    #[should_panic(expected = "cell payload too large")]
    fn oversized_cell_panics() {
        let _ = Cell::new(1, cmd::RELAY, vec![0; CELL_PAYLOAD + 1]);
    }
}
