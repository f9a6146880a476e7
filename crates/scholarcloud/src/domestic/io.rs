//! Why the proxy armed a timer. Everything a stage does to the outside
//! world goes through `sc_simnet::api::Io`; the purpose of a timer
//! travels in its token, in the one encoding every app shares
//! (`sc_simnet::api::pack_token`).

use sc_simnet::api::{pack_token, unpack_token, TcpHandle};

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
        pack_token(tag, h)
    }

    pub(super) fn from_token(token: u64) -> Option<Timer> {
        let (tag, h) = unpack_token(token);
        let h = TcpHandle(h);
        Some(match tag {
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
