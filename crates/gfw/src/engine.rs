//! The GFW middlebox: applies blocklists, poisons DNS, injects RSTs,
//! requests active probes, and throttles classified flows.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use rand::Rng;
use sc_dns::forge_response;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::hash::FixedSet;
use sc_simnet::middlebox::{MbCtx, Middlebox, Verdict};
use sc_simnet::packet::{L4, Packet, TcpFlags, TcpSegmentBody};

use crate::classify::{FlowTable, Inspection, TrafficClass};
use crate::config::GfwConfig;

#[cfg(test)]
mod reference;

/// The bogus address injected into poisoned DNS answers.
pub const POISON_ADDR: Addr = Addr::new(127, 66, 66, 66);

/// Counters describing everything the GFW did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GfwCounters {
    /// Connections reset because a blocked SNI was found embedded in an
    /// HTTP body (tunnelled TLS without blinding).
    pub embedded_sni_resets: u64,
    /// Packets dropped by the IP blacklist.
    pub ip_blocked: u64,
    /// DNS queries poisoned.
    pub dns_poisoned: u64,
    /// Connections reset for keyword hits.
    pub keyword_resets: u64,
    /// Connections reset for SNI hits.
    pub sni_resets: u64,
    /// Packets dropped by throttling policies.
    pub throttled: u64,
    /// Probes requested.
    pub probes_requested: u64,
    /// Servers confirmed as proxies.
    pub servers_confirmed: u64,
    /// Scheme fingerprints the adaptive censor promoted to signatures.
    pub signatures_learned: u64,
    /// Probing campaigns the adaptive censor launched.
    pub campaigns_launched: u64,
}

/// Shared GFW state: the middlebox (data plane) and the active prober
/// (an app on the same border node) both hold this handle.
#[derive(Debug)]
pub struct GfwState {
    /// Configuration (blocklists, policies). Updated mid-run (through
    /// [`config_mut`](Self::config_mut)) to model GFW rule pushes.
    config: GfwConfig,
    /// Version of `config`'s rule lists. Flow records remember the epoch
    /// they were last scanned under; a mismatch re-runs the scanners.
    rules_epoch: u32,
    /// The DPI flow table.
    pub flows: FlowTable,
    /// Servers awaiting an active probe.
    pub probe_queue: VecDeque<SocketAddr>,
    /// Servers already probed (never re-probed).
    pub probed: BTreeSet<SocketAddr>,
    /// Servers confirmed as circumvention proxies.
    pub confirmed: FixedSet<SocketAddr>,
    /// The reactive censor's evidence (idle unless
    /// [`GfwConfig::adaptive`] is set).
    pub adaptive: crate::adaptive::AdaptiveState,
    /// Captured preambles campaign probes replay instead of garbage,
    /// keyed by target server (populated only by adaptive campaigns).
    pub replay_preambles: BTreeMap<SocketAddr, Vec<u8>>,
    /// Activity counters.
    pub counters: GfwCounters,
}

/// Shared handle to GFW state.
pub type GfwHandle = Rc<RefCell<GfwState>>;

/// Creates the shared state handle for a GFW deployment.
pub fn new_gfw(config: GfwConfig) -> GfwHandle {
    Rc::new(RefCell::new(GfwState {
        config,
        rules_epoch: 0,
        flows: FlowTable::new(),
        probe_queue: VecDeque::new(),
        probed: BTreeSet::new(),
        confirmed: FixedSet::default(),
        adaptive: crate::adaptive::AdaptiveState::default(),
        replay_preambles: BTreeMap::new(),
        counters: GfwCounters::default(),
    }))
}

impl GfwState {
    /// The configuration in force.
    pub fn config(&self) -> &GfwConfig {
        &self.config
    }

    /// Mutable access to the configuration, for rule pushes. Starts a new
    /// rules epoch, so every flow is re-inspected against the new rules
    /// on its next packet — including flows whose capture is long full.
    pub fn config_mut(&mut self) -> &mut GfwConfig {
        self.rules_epoch = self.rules_epoch.wrapping_add(1);
        &mut self.config
    }
}

/// The packet-inspecting middlebox. Attach to the border router with
/// [`sc_simnet::sim::Sim::set_middlebox`].
pub struct GfwMiddlebox {
    state: GfwHandle,
}

impl GfwMiddlebox {
    /// Creates the middlebox over shared state.
    pub fn new(state: GfwHandle) -> Self {
        GfwMiddlebox { state }
    }

    fn spoof_rst(pkt: &Packet) -> Option<(Packet, Packet)> {
        let (src, dst) = (pkt.src_socket()?, pkt.dst_socket()?);
        let (seq, ack) = match &pkt.l4 {
            L4::Tcp(t) => (t.seq, t.ack),
            _ => return None,
        };
        let body = |seq: u64, ack: u64| TcpSegmentBody {
            seq,
            ack,
            flags: TcpFlags::RST,
            window: 0,
            payload: Bytes::new(),
        };
        // One RST toward each endpoint, spoofed as from the other.
        let to_dst = Packet::tcp(src, dst, body(seq, ack));
        let to_src = Packet::tcp(dst, src, body(ack, seq));
        Some((to_src, to_dst))
    }

    /// Resets the connection `pkt` belongs to (a spoofed RST toward each
    /// endpoint) and drops the packet under `rule`.
    fn reset(pkt: &Packet, ctx: &mut MbCtx<'_>, rule: &'static str) -> Verdict {
        if let Some((a, b)) = Self::spoof_rst(pkt) {
            ctx.inject(a);
            ctx.inject(b);
        }
        trace_drop(ctx.now, rule, pkt, 2);
        Verdict::Drop(rule)
    }
}

/// Records one GFW verdict in the trace: an event carrying the rule
/// label (and how many spoofed RSTs were injected alongside the drop).
fn trace_drop(now: sc_simnet::time::SimTime, rule: &'static str, pkt: &Packet, rsts: u32) {
    sc_obs::event(now.as_micros(), sc_obs::Level::Info, "gfw", "verdict", "drop", |f| {
        f.field("rule", rule).field("src", pkt.src).field("dst", pkt.dst);
        if rsts > 0 {
            f.field("rsts", rsts);
        }
    });
}

impl Middlebox for GfwMiddlebox {
    fn name(&self) -> &str {
        "gfw"
    }

    fn process(&mut self, pkt: &Packet, ctx: &mut MbCtx<'_>) -> Verdict {
        let mut st = self.state.borrow_mut();

        // --- IP blacklist (cheapest check, applied to both directions) ---
        if st.config.ip_blocked(pkt.dst) || st.config.ip_blocked(pkt.src) {
            st.counters.ip_blocked += 1;
            trace_drop(ctx.now, "gfw-ip-block", pkt, 0);
            return Verdict::Drop("gfw-ip-block");
        }

        // --- DNS poisoning ---
        if let L4::Udp(u) = &pkt.l4 {
            if u.dst_port == sc_dns::DNS_PORT {
                if let Ok(query) = sc_dns::DnsMessage::decode(&u.payload) {
                    if !query.is_response
                        && GfwConfig::domain_matches(&st.config.dns_blocklist, &query.qname)
                    {
                        if let Some(forged) = forge_response(&u.payload, POISON_ADDR, 600) {
                            // Spoofed answer "from" the queried server.
                            let reply = Packet::udp(
                                SocketAddr::new(pkt.dst, u.dst_port),
                                SocketAddr::new(pkt.src, u.src_port),
                                forged,
                            );
                            ctx.inject(reply);
                        }
                        st.counters.dns_poisoned += 1;
                        trace_drop(ctx.now, "gfw-dns-poison", pkt, 0);
                        return Verdict::Drop("gfw-dns-poison");
                    }
                }
            }
        }

        // --- Flow classification ---
        let now = ctx.now;
        let st = &mut *st;
        let Some((rec, evidence_changed)) =
            st.flows.observe_at(pkt, now, &st.config, st.rules_epoch)
        else {
            // No ports (GRE/ESP): tunnel data channels, covered by the VPN
            // policy directly.
            let class = match pkt.l4.protocol() {
                sc_simnet::packet::proto::GRE => TrafficClass::Pptp,
                sc_simnet::packet::proto::ESP => TrafficClass::L2tp,
                _ => TrafficClass::Unknown,
            };
            let policy = st.config.policy_for(class);
            if policy.block {
                trace_drop(ctx.now, "gfw-block", pkt, 0);
                return Verdict::Drop("gfw-block");
            }
            if policy.drop_prob > 0.0 && ctx.rng.gen::<f64>() < policy.drop_prob {
                st.counters.throttled += 1;
                trace_drop(ctx.now, "gfw-throttle", pkt, 0);
                return Verdict::Drop("gfw-throttle");
            }
            return Verdict::Forward;
        };

        // Upgrade suspects whose server was since confirmed.
        if rec.class == TrafficClass::Suspect && st.confirmed.contains(&rec.server) {
            rec.class = TrafficClass::ShadowsocksConfirmed;
        }

        // --- Adaptive censor: evidence accrual, fingerprint learning,
        // campaign scheduling. Strict no-op (no draws, no events) when
        // the knob is off, keeping pre-adaptive traces byte-identical.
        if st.config.adaptive.is_some() {
            let crate::config::GfwConfig { adaptive, learned_signatures, .. } =
                &mut st.config;
            let acfg = adaptive.as_ref().expect("checked above");
            let mut draw = || ctx.rng.gen::<f64>();
            let rules_changed = crate::adaptive::process_flow(
                &mut st.adaptive,
                acfg,
                learned_signatures,
                &mut st.probe_queue,
                &mut st.replay_preambles,
                &mut st.counters,
                rec,
                evidence_changed,
                now,
                &mut draw,
            );
            if rules_changed {
                st.rules_epoch = st.rules_epoch.wrapping_add(1);
            }
        }

        // --- Payload filters: keyword and embedded-TLS SNI on plaintext
        // HTTP, SNI on TLS. The record carries what the scanners concluded
        // when the capture or the rules last changed; a flow that hit a
        // rule is reset on every packet until one of them changes again.
        match rec.inspection {
            Inspection::Clean | Inspection::TlsHello => {}
            Inspection::Keyword => {
                st.counters.keyword_resets += 1;
                return Self::reset(pkt, ctx, "gfw-keyword");
            }
            Inspection::EmbeddedSni => {
                st.counters.embedded_sni_resets += 1;
                return Self::reset(pkt, ctx, "gfw-embedded-sni");
            }
            Inspection::BlockedSni => {
                st.counters.sni_resets += 1;
                return Self::reset(pkt, ctx, "gfw-sni");
            }
        }

        // --- Active probing of suspects ---
        if rec.class == TrafficClass::Suspect
            && st.config.active_probing
            && !rec.probe_requested
            && !st.probed.contains(&rec.server)
        {
            rec.probe_requested = true;
            st.probed.insert(rec.server);
            st.probe_queue.push_back(rec.server);
            st.counters.probes_requested += 1;
            sc_obs::event(now.as_micros(), sc_obs::Level::Info, "gfw", "probe", "requested", |f| {
                f.field("server", rec.server);
            });
        }

        // --- Per-class policy (throttling) ---
        let policy = st.config.policy_for(rec.class);
        // Spatiotemporal inconsistency: an adaptive deployment enforces
        // learned signatures on some paths while others drift open for a
        // drift period at a time (Ensafi et al.). Static rules (IP, DNS,
        // SNI, keywords) are unaffected.
        if policy.interferes() && rec.class == TrafficClass::LearnedSignature {
            if let Some(acfg) = &st.config.adaptive {
                let mut draw = || ctx.rng.gen::<f64>();
                let (enforcing, rolled) = st.adaptive.region_enforcing(
                    acfg,
                    rec.client,
                    now,
                    &mut draw,
                );
                if let Some(region) = rolled {
                    sc_obs::event(
                        now.as_micros(),
                        sc_obs::Level::Info,
                        "gfw",
                        "adaptive",
                        "region_drift",
                        |f| {
                            f.field("region", region as u64).field("enforcing", u64::from(enforcing));
                        },
                    );
                }
                if !enforcing {
                    return Verdict::Forward;
                }
            }
        }
        if policy.block {
            trace_drop(ctx.now, "gfw-block", pkt, 0);
            return Verdict::Drop("gfw-block");
        }
        if policy.rst {
            return Self::reset(pkt, ctx, "gfw-rst");
        }
        if policy.drop_prob > 0.0 && ctx.rng.gen::<f64>() < policy.drop_prob {
            st.counters.throttled += 1;
            trace_drop(ctx.now, "gfw-throttle", pkt, 0);
            return Verdict::Drop("gfw-throttle");
        }
        Verdict::Forward
    }
}
