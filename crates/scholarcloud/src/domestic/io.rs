//! The one seam between the proxy's stages and the network: everything
//! a stage does to the outside world goes through [`Io`]. The simulator's
//! `Ctx` implements it; the stage unit tests drive a scripted fake, and a
//! socket-backed implementation is all a real deployment would add.

use bytes::Bytes;
use rand::Rng;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{IntoChunks, TcpHandle};
use sc_simnet::sim::Ctx;
use sc_simnet::time::{SimDuration, SimTime};

/// Why a timer was armed. Timers cannot be cancelled, so whoever
/// handles a fired one re-checks that its subject still needs it. The
/// purpose travels in the timer token itself (no table to keep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Timer {
    /// Recurring probe round.
    ProbeTick,
    /// Periodic admission-queue re-check (deadline sheds).
    QueueTick,
    /// Recurring elastic autoscaler tick.
    ElasticTick,
    /// Deadline for a tunnel connect attempt (remote-side handle).
    ConnectDeadline(TcpHandle),
    /// Deadline for a probe connect (probe handle).
    ProbeDeadline(TcpHandle),
    /// Retry backoff elapsed / parked request re-check (browser handle).
    Retry(TcpHandle),
    /// Deadline for a whole intra-fleet peering hop (peer handle).
    PeerDeadline(TcpHandle),
}

/// Bits of a token below the purpose tag: the handle, if any.
const HANDLE_BITS: u32 = 56;

impl Timer {
    pub(super) fn token(self) -> u64 {
        let (tag, h) = match self {
            Timer::ProbeTick => (0, 0),
            Timer::QueueTick => (1, 0),
            Timer::ElasticTick => (2, 0),
            Timer::ConnectDeadline(h) => (3, h.0),
            Timer::ProbeDeadline(h) => (4, h.0),
            Timer::Retry(h) => (5, h.0),
            Timer::PeerDeadline(h) => (6, h.0),
        };
        debug_assert!((h as u64) < 1 << HANDLE_BITS, "handle overflows the token");
        tag << HANDLE_BITS | h as u64
    }

    pub(super) fn from_token(token: u64) -> Option<Timer> {
        let h = TcpHandle((token & ((1 << HANDLE_BITS) - 1)) as usize);
        Some(match token >> HANDLE_BITS {
            0 => Timer::ProbeTick,
            1 => Timer::QueueTick,
            2 => Timer::ElasticTick,
            3 => Timer::ConnectDeadline(h),
            4 => Timer::ProbeDeadline(h),
            5 => Timer::Retry(h),
            6 => Timer::PeerDeadline(h),
            _ => return None,
        })
    }
}

/// What a stage may do to the world.
pub(super) trait Io {
    /// Current time.
    fn now(&self) -> SimTime;
    /// Opens a TCP connection; events for it arrive under the handle.
    fn connect(&mut self, to: SocketAddr) -> TcpHandle;
    /// Queues a buffer — or the buffers one message is, head then body —
    /// on a connection. They are handed over, not copied: a stage builds
    /// what it sends and gives it away.
    fn send(&mut self, h: TcpHandle, data: impl IntoChunks);
    /// Drains everything received on a connection.
    fn recv(&mut self, h: TcpHandle) -> Bytes;
    /// Begins a graceful close.
    fn close(&mut self, h: TcpHandle);
    /// Aborts with RST.
    fn abort(&mut self, h: TcpHandle);
    /// Arms a one-shot timer.
    fn timer(&mut self, delay: SimDuration, purpose: Timer);
    /// Next 64 bits of the run's seeded randomness.
    fn rand_u64(&mut self) -> u64;
    /// Next uniform draw in `[0, 1)` of the run's seeded randomness.
    fn rand_unit(&mut self) -> f64;
    /// Powers the node owning `addr` up or down (elastic instances).
    fn node_power(&mut self, addr: Addr, up: bool);
}

impl Io for Ctx<'_> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    fn connect(&mut self, to: SocketAddr) -> TcpHandle {
        self.tcp_connect(to)
    }
    fn send(&mut self, h: TcpHandle, data: impl IntoChunks) {
        self.tcp_send_bytes(h, data);
    }
    fn recv(&mut self, h: TcpHandle) -> Bytes {
        self.tcp_recv_all(h)
    }
    fn close(&mut self, h: TcpHandle) {
        self.tcp_close(h);
    }
    fn abort(&mut self, h: TcpHandle) {
        self.tcp_abort(h);
    }
    fn timer(&mut self, delay: SimDuration, purpose: Timer) {
        self.set_timer(delay, purpose.token());
    }
    fn rand_u64(&mut self) -> u64 {
        self.rng().gen()
    }
    fn rand_unit(&mut self) -> f64 {
        self.rng().gen()
    }
    fn node_power(&mut self, addr: Addr, up: bool) {
        Ctx::node_power(self, addr, up);
    }
}
