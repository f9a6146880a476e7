//! Nodes: hosts and routers. Every node owns a TCP layer, a UDP layer,
//! raw-protocol handlers, optional middlebox, optional packet tunnel, and
//! a set of applications.

use std::collections::VecDeque;

use crate::addr::Addr;
use crate::api::{App, AppEvent, AppId, PacketTunnel};
use crate::hash::FixedMap;
use crate::link::LinkId;
use crate::middlebox::Middlebox;
use crate::tcp::TcpLayer;

/// UDP layer: port → owning app.
#[derive(Debug, Default)]
pub struct UdpLayer {
    sockets: FixedMap<u16, AppId>,
    next_ephemeral: u16,
}

impl UdpLayer {
    /// Creates an empty UDP layer.
    pub fn new() -> Self {
        UdpLayer { sockets: FixedMap::default(), next_ephemeral: 50_000 }
    }

    /// Binds `port` (0 = pick an ephemeral port) to `app`.
    /// Returns the bound port, or `None` if the port is taken.
    pub fn bind(&mut self, port: u16, app: AppId) -> Option<u16> {
        if port != 0 {
            if self.sockets.contains_key(&port) {
                return None;
            }
            self.sockets.insert(port, app);
            return Some(port);
        }
        loop {
            let p = self.next_ephemeral;
            self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(50_000);
            if !self.sockets.contains_key(&p) {
                self.sockets.insert(p, app);
                return Some(p);
            }
        }
    }

    /// Releases a bound port.
    pub fn unbind(&mut self, port: u16) {
        self.sockets.remove(&port);
    }

    /// The app bound to `port`, if any.
    pub fn lookup(&self, port: u16) -> Option<AppId> {
        self.sockets.get(&port).copied()
    }
}

/// A node in the topology.
pub struct Node {
    /// Human-readable name.
    pub name: String,
    /// The node's network address.
    pub addr: Addr,
    /// Links attached to this node.
    pub links: Vec<LinkId>,
    /// Next-hop link toward each node, indexed by the destination's
    /// `NodeId` (computed by routing); `None` where there is no path, and
    /// for the node itself.
    pub routes: Vec<Option<LinkId>>,
    /// Installed applications (slot is `None` while the app is running).
    pub apps: Vec<Option<Box<dyn App>>>,
    /// TCP layer.
    pub tcp: TcpLayer,
    /// UDP layer.
    pub udp: UdpLayer,
    /// Raw IP protocol number → handler app.
    pub raw_handlers: FixedMap<u8, AppId>,
    /// Port-range taps: packets whose destination port falls in a range
    /// are delivered to the app as [`AppEvent::RawPacket`](crate::api::AppEvent)
    /// instead of the transport stack (used by NAT implementations).
    pub port_taps: Vec<(u16, u16, AppId)>,
    /// Optional in-path middlebox (inspects forwarded packets).
    pub middlebox: Option<Box<dyn Middlebox>>,
    /// Optional packet tunnel capturing outgoing packets (VPN client side).
    pub tunnel: Option<Box<dyn PacketTunnel>>,
    /// App events awaiting top-level dispatch.
    pub pending: VecDeque<(AppId, AppEvent)>,
    /// Liveness: a crashed node (fault injection) neither receives nor
    /// forwards packets and its timers are swallowed until restart.
    pub up: bool,
}

impl core::fmt::Debug for Node {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("addr", &self.addr)
            .field("apps", &self.apps.len())
            .field("links", &self.links)
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Creates a node with no links or apps.
    pub fn new(name: impl Into<String>, addr: Addr) -> Self {
        Node {
            name: name.into(),
            addr,
            links: Vec::new(),
            routes: Vec::new(),
            apps: Vec::new(),
            tcp: TcpLayer::new(),
            udp: UdpLayer::new(),
            raw_handlers: FixedMap::default(),
            port_taps: Vec::new(),
            middlebox: None,
            tunnel: None,
            pending: VecDeque::new(),
            up: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_bind_ephemeral_and_conflict() {
        let mut udp = UdpLayer::new();
        assert_eq!(udp.bind(53, AppId(0)), Some(53));
        assert_eq!(udp.bind(53, AppId(1)), None);
        let e1 = udp.bind(0, AppId(1)).unwrap();
        let e2 = udp.bind(0, AppId(1)).unwrap();
        assert_ne!(e1, e2);
        assert!(e1 >= 50_000);
        assert_eq!(udp.lookup(53), Some(AppId(0)));
        udp.unbind(53);
        assert_eq!(udp.lookup(53), None);
    }
}
