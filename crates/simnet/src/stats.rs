//! Simulation-wide packet accounting, the source of the paper's packet
//! loss rate (PLR) metric and the per-method traffic overhead numbers.

use crate::addr::Addr;
use crate::hash::FixedMap;
use crate::link::NodeId;

/// Why a packet failed to reach the next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random link loss.
    LinkLoss,
    /// Transmit queue overflow.
    QueueOverflow,
    /// Middlebox (GFW) verdict; the label identifies the rule.
    Censor(&'static str),
    /// TTL expired.
    TtlExpired,
    /// No route to destination.
    NoRoute,
    /// Link administratively down (injected fault).
    LinkDown,
    /// Destination or transit node is crashed (injected fault).
    NodeDown,
    /// Endpoints are on opposite sides of an injected partition.
    Partitioned,
}

/// Per-address packet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddrCounters {
    /// Packets this address originated that were offered to a link.
    pub sent: u64,
    /// Bytes this address originated (wire bytes).
    pub sent_bytes: u64,
    /// Packets destined to / originated by this address that were dropped.
    pub dropped: u64,
    /// Packets delivered to this address.
    pub delivered: u64,
    /// Bytes delivered to this address.
    pub delivered_bytes: u64,
}

/// Global statistics collected by the simulator core.
#[derive(Debug, Default)]
pub struct SimStats {
    /// Total packets offered to links.
    pub packets_sent: u64,
    /// Total packets delivered to their destination node.
    pub packets_delivered: u64,
    /// Drop counts by reason.
    pub drops: FixedMap<DropReason, u64>,
    /// Counters of the addresses nodes own, indexed by `NodeId`: what a
    /// packet sent or delivered updates, by index.
    by_node: Vec<(Addr, AddrCounters)>,
    /// Counters of addresses no node owns (a spoofed RST's source, an
    /// unroutable destination): only a drop can name one.
    unowned: FixedMap<Addr, AddrCounters>,
    /// Events popped off the event queue and dispatched — the
    /// numerator of the benchmark's `simnet.events_per_load`.
    pub events_processed: u64,
    /// Timer events (TCP retransmit/delack + app timers) fired.
    pub timers_fired: u64,
    /// High-water mark of the event-queue depth, a proxy for how much
    /// simultaneity a scenario generates (and for heap pressure).
    pub queue_depth_hwm: u64,
}

impl SimStats {
    /// Opens the counters of a new node's address; nodes register in
    /// `NodeId` order.
    pub(crate) fn add_node(&mut self, addr: Addr) {
        self.by_node.push((addr, AddrCounters::default()));
    }

    /// The counters of `addr`; all zero if nothing involved it.
    pub fn by_addr(&self, addr: Addr) -> AddrCounters {
        match self.by_node.iter().find(|(owned, _)| *owned == addr) {
            Some((_, c)) => *c,
            None => self.unowned.get(&addr).copied().unwrap_or_default(),
        }
    }

    /// The counters a drop charges. Drops name addresses, not nodes, and
    /// are rare next to sends and deliveries: a scan, not a second index.
    fn counters_mut(&mut self, addr: Addr) -> &mut AddrCounters {
        match self.by_node.iter_mut().find(|(owned, _)| *owned == addr) {
            Some((_, c)) => c,
            None => self.unowned.entry(addr).or_default(),
        }
    }

    /// Records a transmission attempt by `src`, the node that owns the
    /// packet's source address.
    pub(crate) fn record_sent(&mut self, src: NodeId, wire_len: usize) {
        self.packets_sent += 1;
        let c = &mut self.by_node[src.0].1;
        c.sent += 1;
        c.sent_bytes += wire_len as u64;
    }

    /// Records a drop of a packet from `src` to `dst`.
    ///
    /// The global `drops` map counts each dropped packet **exactly
    /// once**, no matter where on the path it died. The per-address
    /// attribution below intentionally charges both endpoints (each
    /// "experienced" the loss), which is what [`loss_rate_for`]'s
    /// to/from-denominator expects — it is not double counting in the
    /// global totals.
    ///
    /// [`loss_rate_for`]: SimStats::loss_rate_for
    pub fn record_drop(&mut self, src: Addr, dst: Addr, reason: DropReason) {
        *self.drops.entry(reason).or_insert(0) += 1;
        self.counters_mut(src).dropped += 1;
        if dst != src {
            self.counters_mut(dst).dropped += 1;
        }
    }

    /// Records final delivery to `dst`.
    pub(crate) fn record_delivered(&mut self, dst: NodeId, wire_len: usize) {
        self.packets_delivered += 1;
        let c = &mut self.by_node[dst.0].1;
        c.delivered += 1;
        c.delivered_bytes += wire_len as u64;
    }

    /// Total drops across all reasons.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Drops attributed to censorship verdicts.
    pub fn censor_drops(&self) -> u64 {
        self.drops
            .iter()
            .filter(|(r, _)| matches!(r, DropReason::Censor(_)))
            .map(|(_, n)| *n)
            .sum()
    }

    /// Drops attributed to injected faults (downed links, crashed nodes,
    /// partitions) — the chaos-engineering counterpart of
    /// [`censor_drops`](Self::censor_drops).
    pub fn fault_drops(&self) -> u64 {
        self.drops
            .iter()
            .filter(|(r, _)| {
                matches!(
                    r,
                    DropReason::LinkDown | DropReason::NodeDown | DropReason::Partitioned
                )
            })
            .map(|(_, n)| *n)
            .sum()
    }

    /// Censor drops broken out by GFW rule label, sorted by label so
    /// reports and ablations are deterministic.
    pub fn censor_by_rule(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .drops
            .iter()
            .filter_map(|(r, n)| match r {
                DropReason::Censor(label) => Some((*label, *n)),
                _ => None,
            })
            .collect();
        out.sort_unstable_by_key(|(label, _)| *label);
        out
    }

    /// End-to-end packet loss rate for traffic involving `addr`: drops of
    /// packets to/from the address divided by packets it originated plus
    /// packets delivered to it.
    pub fn loss_rate_for(&self, addr: Addr) -> f64 {
        let c = self.by_addr(addr);
        let denom = c.sent + c.delivered;
        if denom == 0 {
            return 0.0;
        }
        c.dropped as f64 / denom as f64
    }

    /// Overall packet loss rate.
    pub fn overall_loss_rate(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.total_drops() as f64 / self.packets_sent as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = SimStats::default();
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(99, 0, 0, 1);
        s.add_node(a);
        s.add_node(b);
        s.record_sent(NodeId(0), 100);
        s.record_sent(NodeId(0), 200);
        s.record_delivered(NodeId(1), 100);
        s.record_drop(a, b, DropReason::Censor("gfw-dpi"));
        assert_eq!(s.packets_sent, 2);
        assert_eq!(s.packets_delivered, 1);
        assert_eq!(s.total_drops(), 1);
        assert_eq!(s.censor_drops(), 1);
        assert_eq!(s.by_addr(a).sent_bytes, 300);
        assert_eq!(s.by_addr(b).dropped, 1);
        assert!((s.loss_rate_for(a) - 0.5).abs() < 1e-12);
        assert!((s.overall_loss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mid_path_drop_counts_once_globally() {
        // A packet dropped mid-path (e.g. a GFW verdict at a border
        // router, neither src nor dst) must appear exactly once in the
        // global drop totals; per-address attribution charges both
        // endpoints, which feeds the to/from denominator of
        // loss_rate_for and is deliberate.
        let mut s = SimStats::default();
        let src = Addr::new(10, 0, 0, 1);
        let dst = Addr::new(99, 0, 0, 1);
        s.record_drop(src, dst, DropReason::Censor("gfw-sni"));
        assert_eq!(s.total_drops(), 1);
        assert_eq!(s.censor_drops(), 1);
        assert_eq!(s.drops[&DropReason::Censor("gfw-sni")], 1);
        assert_eq!(s.by_addr(src).dropped, 1);
        assert_eq!(s.by_addr(dst).dropped, 1);
        // Self-addressed traffic is charged once, not twice.
        s.record_drop(src, src, DropReason::NoRoute);
        assert_eq!(s.by_addr(src).dropped, 2);
        assert_eq!(s.total_drops(), 2);
    }

    #[test]
    fn drop_naming_an_address_no_node_owns_counts_once_per_endpoint() {
        // A censor's injected RST carries a spoofed source; if it dies on
        // the way, the drop still counts once globally, once against the
        // spoofed address and once against the node it was meant for.
        let mut s = SimStats::default();
        let client = Addr::new(10, 0, 0, 1);
        let spoofed = Addr::new(99, 0, 0, 7);
        s.add_node(client);
        s.record_delivered(NodeId(0), 60);
        s.record_drop(spoofed, client, DropReason::LinkLoss);
        assert_eq!(s.total_drops(), 1);
        assert_eq!(s.drops[&DropReason::LinkLoss], 1);
        assert_eq!(s.by_addr(spoofed), AddrCounters { dropped: 1, ..AddrCounters::default() });
        assert_eq!(s.by_addr(client).dropped, 1);
        assert_eq!(s.by_addr(client).delivered, 1);
        assert!((s.loss_rate_for(client) - 1.0).abs() < 1e-12);
        // Nothing was sent from or delivered to the spoofed address.
        assert_eq!(s.loss_rate_for(spoofed), 0.0);
        // And the other way round: an unroutable destination.
        s.record_drop(client, Addr::new(203, 0, 113, 9), DropReason::NoRoute);
        assert_eq!(s.total_drops(), 2);
        assert_eq!(s.by_addr(client).dropped, 2);
        assert_eq!(s.by_addr(Addr::new(203, 0, 113, 9)).dropped, 1);
    }

    #[test]
    fn censor_breakdown_is_sorted_by_label() {
        let mut s = SimStats::default();
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(99, 0, 0, 1);
        s.record_drop(a, b, DropReason::Censor("gfw-sni"));
        s.record_drop(a, b, DropReason::Censor("gfw-ip-block"));
        s.record_drop(a, b, DropReason::Censor("gfw-sni"));
        s.record_drop(a, b, DropReason::LinkLoss);
        assert_eq!(
            s.censor_by_rule(),
            vec![("gfw-ip-block", 1), ("gfw-sni", 2)]
        );
    }

    #[test]
    fn loss_rate_of_unknown_addr_is_zero() {
        let s = SimStats::default();
        assert_eq!(s.loss_rate_for(Addr::new(1, 2, 3, 4)), 0.0);
        assert_eq!(s.overall_loss_rate(), 0.0);
    }
}
