//! A scripted world for app unit tests: an [`Io`] with no simulator and
//! no topology behind it. It hands out TCP handles from 100 up, records
//! every call an app makes, serves `tcp_recv_all` from [`ScriptedIo::inbox`],
//! and draws "randomness" from a counter (1, 2, 3, …). A test drives an
//! app by calling its event handler with a [`ScriptedIo`], then reads
//! what the app did from [`ScriptedIo::calls`].
//!
//! It lives in the library, not under `#[cfg(test)]`, so that every
//! crate's tests can reach it.

use std::collections::BTreeMap;

use bytes::Bytes;
use rand::RngCore;

use crate::addr::{Addr, SocketAddr};
use crate::api::{IntoChunks, Io, TcpHandle, UdpHandle};
use crate::time::{SimDuration, SimTime};

/// What an app did to the scripted world.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// `tcp_connect`: the handle handed out, and where to.
    Connect(TcpHandle, SocketAddr),
    /// `tcp_send_bytes`: the chunks as they were handed over.
    Send(TcpHandle, Vec<Bytes>),
    /// `tcp_close`.
    Close(TcpHandle),
    /// `tcp_abort`.
    Abort(TcpHandle),
    /// `set_timer`: the token.
    Timer(u64),
}

/// Counts up from 1: the scripted world's randomness.
struct Counter(u64);

impl RngCore for Counter {
    fn next_u64(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// The scripted world. See the [module docs](self).
pub struct ScriptedIo {
    /// The clock: moved only by [`ScriptedIo::advance`].
    pub now: SimTime,
    /// Every call, in order.
    pub calls: Vec<Call>,
    /// What `tcp_recv_all` returns next, per handle (then nothing).
    pub inbox: BTreeMap<TcpHandle, Vec<u8>>,
    next_handle: usize,
    draws: Counter,
}

impl Default for ScriptedIo {
    fn default() -> Self {
        ScriptedIo {
            now: SimTime::ZERO,
            calls: Vec::new(),
            inbox: BTreeMap::new(),
            next_handle: 100,
            draws: Counter(0),
        }
    }
}

impl ScriptedIo {
    /// Moves the clock on by `d`.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// The handles `tcp_connect` handed out, in order.
    pub fn connects(&self) -> Vec<TcpHandle> {
        self.calls
            .iter()
            .filter_map(|c| match c {
                Call::Connect(h, _) => Some(*h),
                _ => None,
            })
            .collect()
    }

    /// Everything sent on `h`, concatenated.
    pub fn sent_bytes(&self, h: TcpHandle) -> Vec<u8> {
        self.calls
            .iter()
            .filter_map(|c| match c {
                Call::Send(to, chunks) if *to == h => Some(chunks.concat()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// [`sent_bytes`](Self::sent_bytes) as text (lossily).
    pub fn sent(&self, h: TcpHandle) -> String {
        String::from_utf8_lossy(&self.sent_bytes(h)).into_owned()
    }
}

impl Io for ScriptedIo {
    fn now(&self) -> SimTime {
        self.now
    }
    fn addr(&self) -> Addr {
        Addr::new(127, 0, 0, 1)
    }
    fn rng(&mut self) -> &mut impl RngCore {
        &mut self.draws
    }
    fn set_timer(&mut self, _delay: SimDuration, token: u64) {
        self.calls.push(Call::Timer(token));
    }
    fn tcp_connect(&mut self, remote: SocketAddr) -> TcpHandle {
        let h = TcpHandle(self.next_handle);
        self.next_handle += 1;
        self.calls.push(Call::Connect(h, remote));
        h
    }
    fn tcp_listen(&mut self, _port: u16) -> bool {
        true
    }
    fn tcp_send_bytes(&mut self, h: TcpHandle, data: impl IntoChunks) -> Option<usize> {
        let chunks: Vec<Bytes> = data.into_chunks().collect();
        let len = chunks.iter().map(Bytes::len).sum();
        self.calls.push(Call::Send(h, chunks));
        Some(len)
    }
    fn tcp_recv_all(&mut self, h: TcpHandle) -> Bytes {
        Bytes::from(self.inbox.remove(&h).unwrap_or_default())
    }
    fn tcp_close(&mut self, h: TcpHandle) {
        self.calls.push(Call::Close(h));
    }
    fn tcp_abort(&mut self, h: TcpHandle) {
        self.calls.push(Call::Abort(h));
    }
    fn tcp_local(&self, _h: TcpHandle) -> Option<SocketAddr> {
        None
    }
    fn udp_bind(&mut self, port: u16) -> Option<UdpHandle> {
        Some(UdpHandle(port))
    }
    fn udp_send(&mut self, _socket: UdpHandle, _to: SocketAddr, _payload: Bytes) {}
    fn node_power(&mut self, _addr: Addr, _up: bool) -> bool {
        true
    }
}
