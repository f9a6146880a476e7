//! The GFW's active prober (Ensafi et al., IMC'15: "Examining How the
//! Great Firewall Discovers Hidden Circumvention Servers").
//!
//! When DPI flags a flow as a high-entropy suspect, the prober connects to
//! the suspected server itself and sends garbage. A Shadowsocks-style
//! server betrays itself by silently closing (it reads an IV, fails to
//! decrypt anything sensible, and hangs up without ever writing a byte).
//! An innocent web server — or ScholarCloud's remote proxy, which serves
//! an HTTP decoy to anything that fails its authentication — answers like
//! a web server and is left alone.

use std::collections::HashMap;

use rand::Rng;
use sc_simnet::addr::SocketAddr;
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;
use sc_simnet::time::{SimDuration, SimTime};

use crate::engine::GfwHandle;

/// How often the prober drains its queue.
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// How long the prober waits for a server response before concluding
/// "silent" behaviour.
pub const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Bytes of garbage sent per probe.
pub const PROBE_LEN: usize = 48;

const TIMER_DRAIN: u64 = 0;
const TIMER_CHECK_BASE: u64 = 1_000;

/// What a completed probe concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// Server replied like a web server: innocent.
    Innocent,
    /// Server closed or timed out without a byte: circumvention proxy.
    Confirmed,
    /// Could not even connect (port filtered).
    Unreachable,
}

#[derive(Debug)]
struct Probe {
    server: SocketAddr,
    started: SimTime,
    got_data: bool,
    check_token: u64,
    done: bool,
    /// Captured preamble to replay instead of garbage (adaptive
    /// campaigns — a replayed valid preamble smokes out a remote with
    /// no replay protection, which authenticates it and then hangs).
    replay: Option<Vec<u8>>,
}

/// The active prober app. Install on the GFW's border node with the same
/// [`GfwHandle`] as the middlebox.
pub struct ActiveProber {
    state: GfwHandle,
    probes: HashMap<TcpHandle, Probe>,
    next_check: u64,
    /// Verdict log (server, verdict) for diagnostics and tests.
    pub verdicts: Vec<(SocketAddr, ProbeVerdict)>,
}

impl ActiveProber {
    /// Creates the prober over shared GFW state.
    pub fn new(state: GfwHandle) -> Self {
        ActiveProber {
            state,
            probes: HashMap::new(),
            next_check: TIMER_CHECK_BASE,
            verdicts: Vec::new(),
        }
    }

    fn conclude(&mut self, h: TcpHandle, verdict: ProbeVerdict, now_us: u64) {
        let Some(probe) = self.probes.get_mut(&h) else { return };
        if probe.done {
            return;
        }
        probe.done = true;
        let server = probe.server;
        self.verdicts.push((server, verdict));
        if verdict == ProbeVerdict::Confirmed {
            let mut st = self.state.borrow_mut();
            st.confirmed.insert(server);
            st.flows.confirm_server(server);
            st.counters.servers_confirmed += 1;
            sc_obs::counter_add("gfw.servers_confirmed", 1);
            // An adaptive deployment escalates: endpoints that answer
            // like proxies are blacklisted at the IP layer outright.
            if st.config().adaptive.is_some()
                && !st.config().ip_blacklist.contains(&(server.addr, 32))
            {
                st.config_mut().ip_blacklist.push((server.addr, 32));
                sc_obs::counter_add("gfw.adaptive_blacklisted", 1);
                sc_obs::event(now_us, sc_obs::Level::Info, "gfw", "adaptive", "blacklisted", |f| {
                    f.field("server", server);
                });
            }
        }
        sc_obs::event(now_us, sc_obs::Level::Info, "gfw", "probe", "verdict", |f| {
            f.field("server", server).field(
                "verdict",
                match verdict {
                    ProbeVerdict::Innocent => "innocent",
                    ProbeVerdict::Confirmed => "confirmed",
                    ProbeVerdict::Unreachable => "unreachable",
                },
            );
        });
    }
}

impl App for ActiveProber {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(PROBE_INTERVAL, TIMER_DRAIN);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        match ev {
            AppEvent::TimerFired(TIMER_DRAIN) => {
                loop {
                    let target = self.state.borrow_mut().probe_queue.pop_front();
                    let Some(server) = target else { break };
                    let replay = self
                        .state
                        .borrow()
                        .replay_preambles
                        .get(&server)
                        .filter(|p| !p.is_empty())
                        .cloned();
                    let h = ctx.tcp_connect(server);
                    sc_obs::counter_add("gfw.probes_launched", 1);
                    let now_us = ctx.now().as_micros();
                    sc_obs::event(now_us, sc_obs::Level::Info, "gfw", "probe", "launched", |f| {
                        f.field("server", server);
                        if replay.is_some() {
                            f.field("replay", 1u64);
                        }
                    });
                    let check_token = self.next_check;
                    self.next_check += 1;
                    self.probes.insert(
                        h,
                        Probe {
                            server,
                            started: ctx.now(),
                            got_data: false,
                            check_token,
                            done: false,
                            replay,
                        },
                    );
                }
                ctx.set_timer(PROBE_INTERVAL, TIMER_DRAIN);
            }
            AppEvent::TimerFired(token) if token >= TIMER_CHECK_BASE => {
                // Timeout check for one outstanding probe.
                let handle = self
                    .probes
                    .iter()
                    .find(|(_, p)| p.check_token == token && !p.done)
                    .map(|(h, _)| *h);
                if let Some(h) = handle {
                    let timed_out = {
                        let p = &self.probes[&h];
                        !p.got_data && ctx.now() - p.started >= PROBE_TIMEOUT
                    };
                    if timed_out {
                        // Silent server: fingerprint of an authenticated
                        // proxy dropping garbage.
                        self.conclude(h, ProbeVerdict::Confirmed, ctx.now().as_micros());
                        ctx.tcp_abort(h);
                    }
                }
            }
            AppEvent::Tcp(h, tcp_ev) => {
                let Some(probe) = self.probes.get_mut(&h) else { return };
                match tcp_ev {
                    TcpEvent::Connected => {
                        if let Some(replay) = probe.replay.take() {
                            // Replay a captured preamble: a remote
                            // without replay protection authenticates
                            // it, then hangs awaiting a stream it can
                            // never decode — the silent signature.
                            ctx.tcp_send_bytes(h, replay);
                        } else {
                            // Send garbage that decrypts to nothing
                            // under any real cipher.
                            let mut garbage = vec![0u8; PROBE_LEN];
                            ctx.rng().fill(&mut garbage[..]);
                            ctx.tcp_send_bytes(h, garbage);
                        }
                        let token = probe.check_token;
                        ctx.set_timer(PROBE_TIMEOUT, token);
                    }
                    TcpEvent::DataReceived => {
                        probe.got_data = true;
                        let data = ctx.tcp_recv_all(h);
                        let verdict = if data.starts_with(b"HTTP/") {
                            ProbeVerdict::Innocent
                        } else {
                            // Replied with non-HTTP bytes to garbage: odd,
                            // but not the silent-proxy signature.
                            ProbeVerdict::Innocent
                        };
                        self.conclude(h, verdict, ctx.now().as_micros());
                        ctx.tcp_close(h);
                    }
                    TcpEvent::PeerClosed | TcpEvent::Reset => {
                        let got_data = probe.got_data;
                        if !got_data {
                            // Closed without a byte in response to garbage.
                            self.conclude(h, ProbeVerdict::Confirmed, ctx.now().as_micros());
                        }
                    }
                    TcpEvent::ConnectFailed => {
                        self.conclude(h, ProbeVerdict::Unreachable, ctx.now().as_micros());
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}
