//! The local SOCKS5 front both client-side proxies put before the
//! browser: [`SsLocal`](crate::shadowsocks::SsLocal) and
//! [`TorClient`](crate::tor::TorClient) each take browsers on a local
//! port, negotiate SOCKS5 with them, hold what a browser sends before its
//! tunnel is open, and then hand the bytes through.
//!
//! A browser is negotiating, then waiting (for the app to bind it a
//! tunnel `T` and open it), then open. The front tells the app what
//! happened with a [`FrontEvent`]; the app answers with [`SocksFront::bind`],
//! [`SocksFront::open`] and [`SocksFront::end`].

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};

use bytes::Bytes;
use sc_netproto::socks::{SocksServerSession, TargetAddr};
use sc_simnet::api::{TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;

/// What a browser did that the app must act on.
pub(crate) enum FrontEvent<T> {
    /// The browser's CONNECT was accepted and answered: it waits for a
    /// tunnel ([`SocksFront::target`] says where to).
    Connect(TcpHandle),
    /// Bytes from a browser whose tunnel is open.
    Data(T, Bytes),
    /// The browser left, with its tunnel if it had one.
    Left(Option<T>),
}

enum Browser<T> {
    Negotiating(SocksServerSession),
    /// CONNECT accepted: the target and what the browser sent since,
    /// until the tunnel (bound here once the app has one) opens.
    Waiting {
        target: TargetAddr,
        early: Vec<u8>,
        tunnel: Option<T>,
    },
    Open(T),
}

/// The browsers of one local SOCKS5 port, in handle order.
pub(crate) struct SocksFront<T> {
    browsers: BTreeMap<TcpHandle, Browser<T>>,
}

impl<T: Copy> SocksFront<T> {
    pub(crate) fn new() -> Self {
        SocksFront { browsers: BTreeMap::new() }
    }

    /// Whether `ev` on `h` is a browser's: every accepted connection is,
    /// the SOCKS port being the app's one listener.
    pub(crate) fn owns(&self, h: TcpHandle, ev: &TcpEvent) -> bool {
        matches!(ev, TcpEvent::Accepted { .. }) || self.browsers.contains_key(&h)
    }

    /// Takes a browser connection's event: negotiates, holds early bytes,
    /// and reports what the app must act on.
    pub(crate) fn on_event(&mut self, h: TcpHandle, ev: TcpEvent, ctx: &mut Ctx<'_>) -> Option<FrontEvent<T>> {
        match ev {
            TcpEvent::Accepted { .. } => {
                self.browsers.insert(h, Browser::Negotiating(SocksServerSession::new()));
                None
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                let browser = self.browsers.get_mut(&h)?;
                match browser {
                    Browser::Negotiating(sess) => {
                        let out = sess.on_bytes(&data);
                        if !out.reply.is_empty() {
                            ctx.tcp_send_bytes(h, Bytes::from(out.reply));
                        }
                        if out.failed {
                            ctx.tcp_close(h);
                            self.browsers.remove(&h);
                            return None;
                        }
                        let target = out.connect?;
                        *browser = Browser::Waiting { target, early: out.leftover, tunnel: None };
                        Some(FrontEvent::Connect(h))
                    }
                    Browser::Waiting { early, .. } => {
                        early.extend_from_slice(&data);
                        None
                    }
                    Browser::Open(tunnel) => Some(FrontEvent::Data(*tunnel, data)),
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                let tunnel = match self.browsers.remove(&h)? {
                    Browser::Negotiating(_) => None,
                    Browser::Waiting { tunnel, .. } => tunnel,
                    Browser::Open(tunnel) => Some(tunnel),
                };
                Some(FrontEvent::Left(tunnel))
            }
            _ => None,
        }
    }

    /// Where a waiting browser asked to go.
    pub(crate) fn target(&self, browser: TcpHandle) -> Option<&TargetAddr> {
        match self.browsers.get(&browser)? {
            Browser::Waiting { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Binds the tunnel `make` opens for it to each waiting browser that
    /// has none — `only` that one, if given — in handle order.
    pub(crate) fn bind(&mut self, only: Option<TcpHandle>, mut make: impl FnMut(TcpHandle) -> T) {
        let range = match only {
            Some(h) => (Included(h), Included(h)),
            None => (Unbounded, Unbounded),
        };
        for (&h, browser) in self.browsers.range_mut(range) {
            if let Browser::Waiting { tunnel: tunnel @ None, .. } = browser {
                *tunnel = Some(make(h));
            }
        }
    }

    /// The browser's tunnel is open: its bytes go through from now on.
    /// Returns the target and what the browser sent while it waited.
    pub(crate) fn open(&mut self, browser: TcpHandle) -> Option<(TargetAddr, Vec<u8>)> {
        let entry = self.browsers.get_mut(&browser)?;
        let Browser::Waiting { tunnel: Some(tunnel), .. } = *entry else { return None };
        match std::mem::replace(entry, Browser::Open(tunnel)) {
            Browser::Waiting { target, early, .. } => Some((target, early)),
            _ => unreachable!("matched as waiting above"),
        }
    }

    /// The browser's tunnel ended (or none will come): closes the browser.
    pub(crate) fn end(&mut self, browser: TcpHandle, ctx: &mut Ctx<'_>) {
        ctx.tcp_close(browser);
        self.browsers.remove(&browser);
    }

    /// Browsers the front holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.browsers.len()
    }
}
