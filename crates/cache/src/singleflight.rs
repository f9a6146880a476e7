//! Singleflight request coalescing: concurrent misses for one key share a
//! single upstream fetch.
//!
//! The first requester for a key becomes the **leader** and performs the
//! real fetch (admission, tunnel, origin). Every later requester arriving
//! while that fetch is in flight becomes a **waiter**: it consumes no
//! admission slot and opens no tunnel, and when the leader's response
//! lands it fans out to all waiters in arrival order. A flash crowd of N
//! browsers on a hot Scholar page therefore costs one cross-border stream
//! instead of N.

use sc_simnet::hash::FixedMap;

use crate::store::CacheKey;

/// One in-flight fetch: who leads it and who is waiting on it.
#[derive(Debug)]
pub struct Flight<W> {
    /// The requester performing the upstream fetch.
    pub leader: W,
    /// Requesters parked on the result, in arrival order (which is sim
    /// deterministic), so fan-out order is reproducible.
    pub waiters: Vec<W>,
}

/// What [`Singleflight::begin`] assigned to a requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// First in: perform the upstream fetch.
    Leader,
    /// A fetch for this key is already in flight: wait for its result.
    Waiter,
}

/// The coalescing table. `W` identifies a requester (the proxy uses the
/// browser's TCP handle); it only needs to be comparable so dead
/// requesters can be pruned.
#[derive(Debug, Default)]
pub struct Singleflight<W> {
    flights: FixedMap<CacheKey, Flight<W>>,
}

impl<W: Copy + PartialEq> Singleflight<W> {
    /// An empty table.
    pub fn new() -> Self {
        Singleflight { flights: FixedMap::default() }
    }

    /// Registers requester `w` for `key`: leader if no fetch is in
    /// flight, waiter otherwise.
    pub fn begin(&mut self, key: &CacheKey, w: W) -> Role {
        if let Some(flight) = self.flights.get_mut(key) {
            flight.waiters.push(w);
            return Role::Waiter;
        }
        self.flights.insert(key.clone(), Flight { leader: w, waiters: Vec::new() });
        Role::Leader
    }

    /// Who leads the fetch for `key`, if one is in flight.
    pub fn leader(&self, key: &CacheKey) -> Option<W> {
        self.flights.get(key).map(|flight| flight.leader)
    }

    /// Number of in-flight fetches.
    pub fn len(&self) -> usize {
        self.flights.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.flights.is_empty()
    }

    /// Ends the flight for `key` (the leader's fetch finished, for better
    /// or worse), returning it so the caller can fan the result out to
    /// the waiters. `None` if no flight was registered.
    pub fn complete(&mut self, key: &CacheKey) -> Option<Flight<W>> {
        self.flights.remove(key)
    }

    /// Ends the flight for `key` if `leader` leads it, handing back the
    /// table's own copy of the key with it.
    pub(crate) fn take(&mut self, key: &CacheKey, leader: W) -> Option<(CacheKey, Flight<W>)> {
        (self.leader(key) == Some(leader)).then(|| self.flights.remove_entry(key)).flatten()
    }

    /// Drops requester `w` from the flight for `key`, wherever it sits:
    ///
    /// * a waiter is simply removed;
    /// * a departing leader hands the flight to the first waiter, which
    ///   is returned so the caller can restart the fetch under the new
    ///   leader;
    /// * a leader with no waiters ends the flight.
    pub fn forget(&mut self, key: &CacheKey, w: W) -> Option<W> {
        let flight = self.flights.get_mut(key)?;
        if flight.leader != w {
            flight.waiters.retain(|x| *x != w);
            return None;
        }
        if flight.waiters.is_empty() {
            self.flights.remove(key);
            return None;
        }
        flight.leader = flight.waiters.remove(0);
        Some(flight.leader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(path: &str) -> CacheKey {
        ("h".to_string(), path.to_string())
    }

    #[test]
    fn leader_then_waiters_fan_out_in_arrival_order() {
        let mut sf: Singleflight<u32> = Singleflight::new();
        assert_eq!(sf.begin(&key("/"), 1), Role::Leader);
        assert_eq!(sf.begin(&key("/"), 2), Role::Waiter);
        assert_eq!(sf.begin(&key("/"), 3), Role::Waiter);
        // A different key flies independently.
        assert_eq!(sf.begin(&key("/css"), 4), Role::Leader);
        let flight = sf.complete(&key("/")).expect("flight registered");
        assert_eq!(flight.leader, 1);
        assert_eq!(flight.waiters, vec![2, 3]);
        assert_eq!(sf.leader(&key("/")), None);
        assert_eq!(sf.leader(&key("/css")), Some(4));
    }

    #[test]
    fn forget_waiter_and_promote_leader() {
        let mut sf: Singleflight<u32> = Singleflight::new();
        sf.begin(&key("/"), 1);
        sf.begin(&key("/"), 2);
        sf.begin(&key("/"), 3);
        // Waiter 3 disconnects: nothing else changes.
        assert_eq!(sf.forget(&key("/"), 3), None);
        // Leader 1 disconnects: 2 is promoted to restart the fetch.
        assert_eq!(sf.forget(&key("/"), 1), Some(2));
        let flight = sf.complete(&key("/")).unwrap();
        assert_eq!(flight.leader, 2);
        assert!(flight.waiters.is_empty());
    }

    #[test]
    fn lone_leader_forget_ends_the_flight() {
        let mut sf: Singleflight<u32> = Singleflight::new();
        sf.begin(&key("/"), 7);
        assert_eq!(sf.forget(&key("/"), 7), None);
        assert!(sf.is_empty());
    }
}
