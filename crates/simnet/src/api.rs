//! Application-facing API: the [`App`] trait, handles, and events.
//!
//! Every protocol endpoint in the reproduction — browsers, proxies, VPN
//! servers, DNS resolvers, origin servers, the GFW's active prober — is an
//! `App` installed on a node. Apps are event-driven: the simulator calls
//! [`App::on_event`] with timers, TCP events, and UDP datagrams, and the
//! app reacts through the [`Io`] it is handed.
//!
//! [`Io`] is what an app that relays or serves TCP may do to the world.
//! The simulator's [`Ctx`](crate::sim::Ctx) implements it, and so does
//! [`ScriptedIo`](crate::scripted::ScriptedIo), the scripted world unit
//! tests drive an app with; a socket-backed implementation is all a real
//! deployment would add. Apps that need raw packets, port taps or packet
//! tunnels (the VPNs, the DNS servers, the GFW) take the `Ctx` itself.

use bytes::Bytes;
use rand::RngCore;

use crate::addr::{Addr, SocketAddr};
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// Identifies an application instance on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub usize);

/// Handle to a TCP connection on the local node. Ordered, so tables
/// keyed by it iterate the same way in every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TcpHandle(pub usize);

/// Handle to a bound UDP socket on the local node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpHandle(pub u16);

/// TCP connection events delivered to apps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// Active open completed.
    Connected,
    /// Active open failed (RST or SYN retry exhaustion).
    ConnectFailed,
    /// A listener produced a new established connection.
    Accepted {
        /// The peer's socket address.
        peer: SocketAddr,
    },
    /// New in-order data is available to [`Io::tcp_recv_all`].
    DataReceived,
    /// The peer sent FIN: no more data will arrive (data already received
    /// may still be buffered).
    PeerClosed,
    /// The connection was reset (peer RST or retry exhaustion).
    Reset,
}

/// Events delivered to an [`App`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// A timer set via [`Io::set_timer`] fired.
    TimerFired(u64),
    /// An event on a TCP connection owned by this app.
    Tcp(TcpHandle, TcpEvent),
    /// A datagram arrived on a UDP socket owned by this app.
    Udp {
        /// The local socket it arrived on.
        socket: UdpHandle,
        /// Sender address.
        from: SocketAddr,
        /// Datagram payload.
        payload: Bytes,
    },
    /// A raw-protocol packet (GRE/ESP/…) arrived, for apps registered via
    /// [`Ctx::register_raw`](crate::sim::Ctx::register_raw).
    RawPacket(Packet),
}

/// What one send queues on a connection: a buffer, or the buffers that
/// follow each other on the stream (an HTTP head and its body) — each
/// handed over whole, none copied, all queued before anything is
/// transmitted, so the segments are those of the bytes end to end.
///
/// There is no impl for `Vec<u8>`: a `Bytes` that adopts a vector
/// allocates its share count beside it, so a hot path builds its buffer
/// as a `BytesMut` and freezes it, and a cold one converts explicitly.
pub trait IntoChunks {
    /// The chunks, in stream order.
    type Chunks: Iterator<Item = Bytes>;
    /// Hands the chunks over.
    fn into_chunks(self) -> Self::Chunks;
}

impl IntoChunks for Bytes {
    type Chunks = std::iter::Once<Bytes>;
    fn into_chunks(self) -> Self::Chunks {
        std::iter::once(self)
    }
}

impl<const N: usize> IntoChunks for [Bytes; N] {
    type Chunks = std::array::IntoIter<Bytes, N>;
    fn into_chunks(self) -> Self::Chunks {
        self.into_iter()
    }
}

/// What an app may do to the world: the clock, its address, the run's
/// seeded randomness, timers, TCP and UDP sockets, and node power.
pub trait Io {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// This node's address.
    fn addr(&self) -> Addr;
    /// The run's seeded randomness: every draw an app makes comes from
    /// here, so two runs with one seed draw the same values.
    fn rng(&mut self) -> &mut impl RngCore;
    /// Schedules [`AppEvent::TimerFired`] with `token` after `delay`.
    /// Timers cannot be cancelled: whoever handles a fired one re-checks
    /// that its subject still needs it.
    fn set_timer(&mut self, delay: SimDuration, token: u64);
    /// Opens a TCP connection to `remote`; its events arrive under the
    /// handle.
    fn tcp_connect(&mut self, remote: SocketAddr) -> TcpHandle;
    /// Listens for TCP connections on `port`. Returns `false` if taken.
    fn tcp_listen(&mut self, port: u16) -> bool;
    /// Sends `data` on a connection without copying it: each buffer is
    /// queued as one chunk, segments are views of it, and the receiving
    /// app reads those views. Several buffers (`[head, body]`) go out as
    /// the one stream they make. Returns bytes accepted, or `None` if the
    /// connection cannot send.
    fn tcp_send_bytes(&mut self, h: TcpHandle, data: impl IntoChunks) -> Option<usize>;
    /// Drains everything received on a connection.
    fn tcp_recv_all(&mut self, h: TcpHandle) -> Bytes;
    /// Begins a graceful close.
    fn tcp_close(&mut self, h: TcpHandle);
    /// Aborts with RST.
    fn tcp_abort(&mut self, h: TcpHandle);
    /// The local address of a connection.
    fn tcp_local(&self, h: TcpHandle) -> Option<SocketAddr>;
    /// Binds a UDP port (0 = ephemeral). Returns `None` if taken.
    fn udp_bind(&mut self, port: u16) -> Option<UdpHandle>;
    /// Sends a UDP datagram from a bound socket.
    fn udp_send(&mut self, socket: UdpHandle, to: SocketAddr, payload: Bytes);
    /// Requests a power transition for the node owning `addr` (an
    /// elastic autoscaler spins sibling instances up and down). It takes
    /// effect after the event in flight, at a deterministic queue
    /// position. Returns `false` if no node owns `addr`.
    fn node_power(&mut self, addr: Addr, up: bool) -> bool;
}

/// Bits of a timer token below its tag.
const TOKEN_VALUE_BITS: u32 = 56;

/// A timer token that says what the timer is for: `tag` in the top 8
/// bits, `value` (a handle, an index, or 0) below — so an app keeps no
/// table of armed timers.
pub fn pack_token(tag: u8, value: usize) -> u64 {
    debug_assert!((value as u64) < 1 << TOKEN_VALUE_BITS, "value overflows the token");
    u64::from(tag) << TOKEN_VALUE_BITS | value as u64
}

/// The tag and value of a [`pack_token`] token.
pub fn unpack_token(token: u64) -> (u8, usize) {
    ((token >> TOKEN_VALUE_BITS) as u8, (token & ((1 << TOKEN_VALUE_BITS) - 1)) as usize)
}

/// An event-driven application running on a node.
///
/// Implementations hold their own state machine; all interaction with the
/// network goes through the [`Ctx`](crate::sim::Ctx) passed to each call
/// (an app that needs no more than [`Io`] hands it on as `&mut impl Io`).
/// An installed app can be inspected after a run by downcasting
/// (`&dyn App` coerces to `&dyn Any`).
pub trait App: std::any::Any {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut crate::sim::Ctx<'_>) {
        let _ = ctx;
    }

    /// Called for every event addressed to this app.
    fn on_event(&mut self, event: AppEvent, ctx: &mut crate::sim::Ctx<'_>);
}

/// Decides, per packet, whether a node-level tunnel captures an outgoing
/// packet (full-tunnel VPNs capture everything non-local; split tunnels
/// capture a prefix).
pub trait PacketTunnel {
    /// Wraps an outgoing packet. Returns the packet that actually leaves
    /// the node: the encapsulated one, or the original if the tunnel does
    /// not capture this destination.
    fn wrap(&mut self, pkt: Packet, now: crate::time::SimTime) -> Packet;

    /// Human-readable tunnel name (diagnostics).
    fn name(&self) -> &str;
}
