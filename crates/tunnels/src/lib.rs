//! # sc-tunnels
//!
//! The circumvention middleware studied in §4 of the paper, each built
//! from scratch over `sc-simnet` sockets with its real wire format:
//!
//! * [`vpn`] — native VPN (PPTP with GRE, L2TP with ESP) and OpenVPN:
//!   control handshake, per-packet sealing, full-tunnel capture, NAT.
//! * [`shadowsocks`] — local SOCKS5 proxy + AES-256-CFB remote, with the
//!   per-session auth connection and 10 s keep-alive the paper blames for
//!   its PLT, and the probe-visible silent-server behaviour.
//! * [`tor`] — directory bootstrap, meek (HTTPS long-poll) transport,
//!   three-hop onion circuits, exit streams.
//! * [`names`] — the uncensored DNS view used for exit-side resolution.
//! * [`status`] — tunnel readiness handles for measurement harnesses.

#![warn(missing_docs)]

pub mod names;
pub mod shadowsocks;
pub mod status;
pub mod tor;
pub mod vpn;

#[cfg(test)]
mod testnet;

pub use names::NameMap;
pub use shadowsocks::{SsConfig, SsLocal, SsRemote, SS_LOCAL_PORT, SS_PORT};
pub use status::{TunnelState, TunnelStatus};
pub use tor::{TorClient, TorConfig};
pub use vpn::{VpnClient, VpnServer, VpnVariant};
