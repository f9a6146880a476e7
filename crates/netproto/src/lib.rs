//! # sc-netproto
//!
//! Application-layer protocol codecs shared across the ScholarCloud
//! reproduction:
//!
//! * [`http`] — HTTP/1.1 messages + incremental parser (keep-alive,
//!   Content-Length and chunked bodies).
//! * [`tls`] — a simulated TLS 1.2-style protocol with a plaintext SNI
//!   (DPI-readable), DH key agreement, and an encrypted record layer.
//! * [`socks`] — SOCKS5 without authentication, as spoken to the
//!   Shadowsocks and Tor local proxies; also the Shadowsocks target-address
//!   header.
//! * [`pac`] — proxy auto-config generation/evaluation, ScholarCloud's
//!   whole client-side configuration story.
//! * [`scan`] — byte searches a word at a time, shared by the parsers
//!   here and by the page manifest, the preamble and the GFW's filters.
//!
//! These are pure byte-level state machines with no dependency on the
//! simulator loop, so they are unit-testable in isolation and reusable by
//! every app in `sc-tunnels`, `sc-core`, and `sc-web`.

#![warn(missing_docs)]

pub mod http;
pub mod pac;
pub mod scan;
pub mod socks;
pub mod tls;

pub use http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
pub use pac::{PacFile, ProxyDecision};
pub use socks::{SocksServerSession, TargetAddr};
pub use tls::{TlsClient, TlsServer, sniff_sni};
