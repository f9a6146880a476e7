//! Application-facing API: the [`App`] trait, handles, and events.
//!
//! Every protocol endpoint in the reproduction — browsers, proxies, VPN
//! servers, DNS resolvers, origin servers, the GFW's active prober — is an
//! `App` installed on a node. Apps are event-driven: the simulator calls
//! [`App::on_event`] with timers, TCP events, and UDP datagrams, and the
//! app reacts through the [`Ctx`](crate::sim::Ctx) it is handed.

use bytes::Bytes;

use crate::addr::SocketAddr;
use crate::packet::Packet;

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
    /// New in-order data is available to [`recv`](crate::sim::Ctx::tcp_recv).
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
    /// A timer set via [`Ctx::set_timer`](crate::sim::Ctx::set_timer) fired.
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

/// An event-driven application running on a node.
///
/// Implementations hold their own state machine; all interaction with the
/// network goes through the [`Ctx`](crate::sim::Ctx) passed to each call.
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
