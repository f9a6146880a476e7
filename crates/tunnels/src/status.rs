//! Shared tunnel readiness status, observed by measurement harnesses.

use std::cell::RefCell;
use std::rc::Rc;

use sc_simnet::time::SimTime;

/// Lifecycle of a tunnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TunnelState {
    /// Not yet established.
    #[default]
    Connecting,
    /// Established and usable.
    Up {
        /// When the tunnel came up.
        established_at: SimTime,
    },
    /// Establishment failed.
    Failed,
}

/// A cloneable handle to a tunnel's state, shared between the tunnel app
/// and whoever is waiting on it (browser drivers, the measurement harness).
#[derive(Debug, Clone, Default)]
pub struct TunnelStatus(Rc<RefCell<TunnelState>>);

impl TunnelStatus {
    /// Creates a status handle in `Connecting`.
    pub fn new() -> Self {
        TunnelStatus::default()
    }

    /// Updates the state, emitting a `tunnels/status` transition event.
    pub fn set(&self, state: TunnelState) {
        let prev = *self.0.borrow();
        *self.0.borrow_mut() = state;
        if prev == state {
            return;
        }
        let (name, t_us) = match state {
            TunnelState::Connecting => ("connecting", 0),
            TunnelState::Up { established_at } => {
                sc_obs::counter_add("tunnels.established", 1);
                ("up", established_at.as_micros())
            }
            TunnelState::Failed => {
                sc_obs::counter_add("tunnels.failed", 1);
                ("failed", 0)
            }
        };
        sc_obs::event(t_us, sc_obs::Level::Info, "tunnels", "status", "transition", |f| {
            f.field("state", name);
        });
    }

    /// Reads the current state.
    pub fn get(&self) -> TunnelState {
        *self.0.borrow()
    }

    /// Whether the tunnel is up.
    pub fn is_up(&self) -> bool {
        matches!(self.get(), TunnelState::Up { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_transitions() {
        let s = TunnelStatus::new();
        assert_eq!(s.get(), TunnelState::Connecting);
        assert!(!s.is_up());
        let s2 = s.clone();
        s2.set(TunnelState::Up { established_at: SimTime::from_micros(5) });
        assert!(s.is_up(), "clones share state");
        s.set(TunnelState::Failed);
        assert_eq!(s2.get(), TunnelState::Failed);
    }
}
