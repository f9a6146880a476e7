//! Stage 1 — admit: whitelist enforcement and overload control.
//!
//! Owns the [`AdmissionController`] (active slots, the bounded
//! deadline-aware queue, per-client fairness, the retry budget) and this
//! shard's seat on the fleet's sickness board. Answers every refusal
//! itself — `403` off-whitelist, `429`/`503` + `Retry-After` when shed —
//! and hands admitted or queued work on as a [`Request`].

use std::rc::Rc;

use sc_netproto::http::{HttpRequest, HttpResponse};
use sc_netproto::socks::{TargetAddr, MAX_DOMAIN_LEN};
use sc_obs::{Level, Quoted, TraceCtx};
use sc_simnet::addr::Addr;
use sc_simnet::api::TcpHandle;
use sc_simnet::time::{SimDuration, SimTime};

use super::io::{Io, Timer};
use super::trace::{self, target_label};
use super::Step;
use crate::admission::{AdmissionController, Decision, RETRY_AFTER};
use crate::config::ScConfig;
use crate::fleet::FleetHandle;
use crate::frame::{decoy_response, StreamHeader};

/// Fleet-wide admission pressure floor: the sickest-shard-first shed
/// only engages once the fleet's published queue depths sum to at least
/// this many waiting requests (nominal traffic never queues, so the
/// fleet path costs nothing until a real overload).
const FLEET_PRESSURE_QUEUE: usize = 4;

/// How often the admission queue is re-checked for deadline sheds while
/// non-empty (slot releases also drain it immediately).
const QUEUE_TICK: SimDuration = SimDuration::from_millis(100);

/// A whitelisted request on its way into the pipeline: everything
/// needed to build (and rebuild) its upstream tunnel.
pub(super) struct Request {
    pub browser: TcpHandle,
    /// Whose request this is: the fairness key its admission slot is
    /// charged to, carried along so the slot can be handed back even
    /// after the browser connection is gone.
    pub client: Addr,
    pub header: StreamHeader,
    /// Plaintext to replay at the start of the stream (the origin-form
    /// request, for gateway fetches).
    pub initial_plain: Vec<u8>,
    /// An opaque CONNECT tunnel (answered with `200` once established)
    /// rather than a gateway fetch reassembled by the proxy.
    pub is_connect: bool,
    /// Trace context of the originating browser request (its `Sc-Trace`
    /// header); every proxy span for the request parents into it.
    pub tctx: TraceCtx,
}

/// The trace context a browser request carries, if any.
pub(super) fn trace_ctx_of(req: &HttpRequest) -> TraceCtx {
    req.header_value(sc_obs::TRACE_HEADER).and_then(TraceCtx::parse).unwrap_or(TraceCtx::NONE)
}

/// The stream header of a request for `host:port` under `tctx`.
pub(super) fn stream_header(host: &str, port: u16, is_tls: bool, tctx: TraceCtx) -> StreamHeader {
    StreamHeader {
        is_tls,
        trace: tctx.trace.0,
        parent: 0,
        target: TargetAddr::Domain(host.to_string(), port),
    }
}

pub(super) struct Admit {
    cfg: Rc<ScConfig>,
    /// Slots, queue, fairness, retry budget. The driver drains it and
    /// hands slots back directly.
    pub ctl: AdmissionController<TcpHandle>,
    /// This shard's index and the fleet's shared sickness board.
    fleet: Option<(usize, FleetHandle)>,
    /// A [`QUEUE_TICK`] timer is currently armed.
    queue_tick_armed: bool,
}

impl Admit {
    pub fn new(cfg: Rc<ScConfig>) -> Self {
        let ctl = AdmissionController::new(cfg.admission.clone());
        Admit { cfg, ctl, fleet: None, queue_tick_armed: false }
    }

    pub fn join_fleet(&mut self, self_idx: usize, board: FleetHandle) {
        self.fleet = Some((self_idx, board));
    }

    /// Bound on the parked set, shared with the admission queue: an
    /// all-remotes-dark flash crowd must not park unboundedly.
    pub fn park_cap(&self) -> usize {
        self.ctl.queue_len().max(1)
    }

    /// Publishes this shard's admission pressure to the fleet's shared
    /// sickness board (no-op outside a fleet).
    pub fn publish_sickness(&self) {
        if let Some((idx, board)) = &self.fleet {
            board.publish(*idx, self.ctl.queue_depth(), self.ctl.service_estimate());
        }
    }

    fn sample_queue_depth(&self, now: SimTime) {
        let depth = self.ctl.queue_depth() as u64;
        sc_obs::ts_record(now.as_micros(), "scholarcloud.queue_depth", depth);
    }

    /// Arms the queue re-check tick if the queue is non-empty and no
    /// tick is outstanding (nominal traffic never queues, so nominal
    /// runs never pay for the timer).
    pub fn ensure_queue_tick(&mut self, io: &mut impl Io) {
        if !self.queue_tick_armed && self.ctl.queue_depth() > 0 {
            self.queue_tick_armed = true;
            io.timer(QUEUE_TICK, Timer::QueueTick);
        }
    }

    /// A CONNECT or gateway request named a host off the whitelist
    /// (should not happen when clients honour the PAC file): `403`,
    /// close.
    pub fn refuse_host(&self, browser: TcpHandle, host: &str, io: &mut impl Io) {
        sc_obs::counter_add("scholarcloud.whitelist_refusals", 1);
        trace::event(io.now(), Level::Warn, "domestic", "whitelist_refused", |f| {
            f.field("host", host);
        });
        io.send(browser, HttpResponse::new(403, Vec::new()).into_wire());
        io.close(browser);
    }

    /// Bytes that never parse as HTTP are not a browser — they are a
    /// scanner or an active probe. Aborting would answer garbage with an
    /// RST, the exact silent-proxy signature probing looks for; serve
    /// the same boring decoy as the remote side and close cleanly.
    pub fn decoy(&self, conn: TcpHandle, io: &mut impl Io) {
        io.send(conn, decoy_response());
        io.close(conn);
        sc_obs::counter_add("scholarcloud.decoys_served", 1);
        self.cfg.interference.note_probe();
        trace::event(io.now(), Level::Info, "domestic", "decoy", |f| {
            f.field("reason", "not_http");
        });
    }

    /// Reads a CONNECT request's target and checks it against the
    /// whitelist. The tunnel's `200` is deferred until it actually
    /// connects.
    pub fn connect(
        &self,
        browser: TcpHandle,
        client: Addr,
        req: &HttpRequest,
        io: &mut impl Io,
    ) -> Step {
        // A name longer than a stream header can carry is no host.
        let Some((host, port)) = req.target().rsplit_once(':').filter(|(host, _)| host.len() <= MAX_DOMAIN_LEN) else {
            io.send(browser, HttpResponse::new(400, Vec::new()).into_wire());
            return Step::Done;
        };
        if !self.cfg.whitelisted(host) {
            return Step::RefuseHost { browser, host: host.to_string() };
        }
        let port: u16 = port.parse().unwrap_or(443);
        let tctx = trace_ctx_of(req);
        Step::Admit(Request {
            browser,
            client,
            header: stream_header(host, port, port == 443, tctx),
            initial_plain: Vec::new(),
            is_connect: true,
            tctx,
        })
    }

    /// Runs a whitelisted request through admission: admitted work
    /// enters the pipeline now, saturated work enters it queued,
    /// everything else is refused with `429`/`503`.
    pub fn on_request(&mut self, req: Request, io: &mut impl Io) -> Step {
        let now = io.now();
        // Fleet-wide admission: under fleet-wide pressure the sickest
        // shard sheds first — PAC failover then re-spreads its clients
        // across healthier shards instead of every shard browning out
        // in lockstep. Engages only when this shard IS the sickest and
        // already has queued work of its own.
        self.publish_sickness();
        if let Some((idx, board)) = &self.fleet {
            let depth = self.ctl.queue_depth();
            if board.total_queue_depth() >= FLEET_PRESSURE_QUEUE
                && board.sickest() == *idx
                && depth > 0
            {
                trace::count(now, "scholarcloud.fleet_shed", 1);
                trace::event(now, Level::Warn, "fleet", "fleet_shed", |f| {
                    f.field("shard", *idx)
                        .field("queue_depth", Quoted(depth as u64))
                        .field("fleet_queue", Quoted(board.total_queue_depth() as u64));
                });
                return Step::Shed { browser: req.browser, code: 503, reason: "fleet_shed" };
            }
        }
        // The admission span covers arrival → verdict: for queued work
        // its duration is exactly the queue wait.
        let mut span = trace::span(now, "admission", "admission", req.tctx, |f| {
            f.field("target", target_label(&req.header));
        });
        let decision = self.ctl.on_request(req.browser, req.client, now);
        match decision {
            Decision::Admit => {
                sc_obs::counter_add("scholarcloud.admitted", 1);
                trace::end(now, &mut span, |f| {
                    f.field("verdict", "admit").field("waited_us", 0u64);
                });
                trace::event(now, Level::Debug, "admission", "admit", |f| {
                    f.field("target", target_label(&req.header))
                        .field("active", Quoted(self.ctl.active() as u64));
                });
                Step::Establish { req, queued: false, span }
            }
            Decision::Enqueue => {
                sc_obs::counter_add("scholarcloud.queued", 1);
                trace::event(now, Level::Debug, "admission", "enqueue", |f| {
                    f.field("target", target_label(&req.header))
                        .field("depth", Quoted(self.ctl.queue_depth() as u64));
                });
                self.sample_queue_depth(now);
                self.ensure_queue_tick(io);
                Step::Establish { req, queued: true, span }
            }
            _ => {
                let code = decision.status().expect("refusals carry a status");
                trace::end(now, &mut span, |f| {
                    f.field("verdict", decision.name()).field("code", code);
                });
                Step::Shed { browser: req.browser, code, reason: decision.name() }
            }
        }
    }

    /// Answers a shed/throttled request with its status and a
    /// `Retry-After` hint, then closes the connection — the fast
    /// failure path that keeps an overloaded proxy responsive.
    pub fn refuse(&self, browser: TcpHandle, code: u16, reason: &'static str, io: &mut impl Io) {
        let secs = RETRY_AFTER.as_micros().div_ceil(1_000_000);
        let resp = HttpResponse::new(code, Vec::new()).header_fmt("Retry-After", secs.max(1));
        io.send(browser, resp.into_wire());
        io.close(browser);
        let (counter, name) = if code == 429 {
            ("scholarcloud.throttled", "throttle")
        } else {
            ("scholarcloud.shed", "shed")
        };
        trace::count(io.now(), counter, 1);
        trace::event(io.now(), Level::Warn, "admission", name, |f| {
            f.field("code", Quoted(code.into()))
                .field("reason", reason)
                .field("retry_after_us", Quoted(RETRY_AFTER.as_micros()));
        });
    }

    /// A queued request was just granted its slot after `waited`.
    pub fn note_dequeue(&self, waited: SimDuration, now: SimTime) {
        trace::event(now, Level::Debug, "admission", "dequeue", |f| {
            f.field("waited_us", Quoted(waited.as_micros()));
        });
    }

    /// Bookkeeping after a drain that dequeued something.
    pub fn after_drain(&mut self, io: &mut impl Io) {
        self.sample_queue_depth(io.now());
        self.ensure_queue_tick(io);
        self.publish_sickness();
    }

    /// The queue tick fired; the caller drains, then
    /// [`ensure_queue_tick`](Self::ensure_queue_tick)s.
    pub fn queue_tick_fired(&mut self) {
        self.queue_tick_armed = false;
    }

    /// A browser gave up while still queued: no slot was held yet.
    pub fn forget_queued(&mut self, browser: TcpHandle, now: SimTime) {
        self.ctl.remove_queued(browser);
        self.sample_queue_depth(now);
    }

    /// Asks the global retry budget for one retry. It caps brownout
    /// amplification: without a token the request fails now.
    pub fn grant_retry(&mut self, reason: &'static str, attempts: u32, now: SimTime) -> bool {
        if self.ctl.retry_budget.try_retry() {
            return true;
        }
        sc_obs::counter_add("scholarcloud.retry_denied", 1);
        trace::event(now, Level::Warn, "admission", "retry_denied", |f| {
            f.field("reason", reason).field("attempt", Quoted(attempts.into()));
        });
        false
    }
}
