//! # sc-core — ScholarCloud
//!
//! The paper's primary contribution: a split-proxy system that lets users
//! inside an extreme censorship regime reach *legal but incidentally
//! blocked* services (Google Scholar) with nothing but a browser PAC
//! setting.
//!
//! * [`config`] — deployment parameters, the reviewable whitelist, PAC
//!   generation, and live blinding-scheme rotation.
//! * [`domestic`] — the domestic proxy users talk to (HTTP CONNECT /
//!   absolute-form proxy, whitelist enforcement, tunnel origination).
//! * [`remote`] — the remote proxy outside the wall (preamble
//!   authentication, deblinding, exit-side name resolution, HTTP decoy for
//!   probes).
//! * [`frame`] — the inter-proxy wire protocol: HTTP-shaped cover
//!   preamble + blinded (and, for non-TLS payloads, encrypted) stream.
//! * [`ops`] — the deployment's cost/usage model (2 VMs, 2.2 USD/day).
//!
//! ## Why it beats the GFW in the simulation (and the paper)
//!
//! 1. The cover preamble makes the flow classify as plain HTTP, so the
//!    "fully encrypted traffic" heuristic that flags Shadowsocks never
//!    fires.
//! 2. Message blinding destroys the embedded TLS ClientHello pattern, so
//!    the GFW's in-body SNI scan finds nothing (disable blinding and it
//!    does — see the `ablation_blinding` bench).
//! 3. Anything that fails the preamble MAC — including active probes —
//!    receives an nginx-style 400, so probing classifies the remote as an
//!    innocent web server.
//! 4. The operator controls both proxies, so when the censor learns one
//!    scheme's signature the scheme rotates (`SchemeHandle::rotate`);
//!    Tor and Shadowsocks would need to upgrade relays or user clients.

#![warn(missing_docs)]

pub mod admission;
pub mod config;
pub mod domestic;
pub mod elastic;
pub mod fleet;
pub mod frame;
pub mod ops;
pub mod remote;
pub mod resilience;

pub use admission::{AdmissionConfig, AdmissionController, Decision, Dequeued, RetryBudget, TokenBucket};
pub use config::{
    InterferencePad, RotationPolicy, ScConfig, SchemeHandle, DOMESTIC_PORT,
    REMOTE_PORT,
};
pub use sc_cache::{CacheConfig, CacheHandle, CacheStats, ShardMap};
pub use domestic::DomesticProxy;
pub use elastic::{
    DrainReason, ElasticAction, ElasticConfig, ElasticHandle, ElasticPool, Instance,
    InstanceState,
};
pub use fleet::{FleetHandle, FleetMember, ShardSickness};
pub use frame::{Hello, StreamCodec, StreamHeader};
pub use ops::Deployment;
pub use remote::RemoteProxy;
pub use resilience::{BackoffPolicy, BreakerState, CircuitBreaker, RemotePool};
