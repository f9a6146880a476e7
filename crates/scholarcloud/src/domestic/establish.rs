//! Stage 4 — establish: get an admitted request a live tunnel to *some*
//! remote, or fail it with a distinct status.
//!
//! The censor's cheapest countermeasure is blacklisting remote VM IPs
//! (§4.2 of the paper), so tunnel origination is built around the
//! remote pool rather than a single upstream: every connect attempt
//! runs under a deadline, failed attempts retry with deterministic
//! backoff preferring a *different* remote, consecutive failures open a
//! per-remote breaker that probes close again, and when every remote is
//! dark requests park briefly and then fail fast. The stage owns the
//! requests between "accepted" and "tunnel up" and their in-flight
//! attempts; the pool itself, with its probes, rotation evidence and
//! elastic drive, is [`Remotes`].

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::BytesMut;
use rand::Rng;
use sc_crypto::hmac::HmacKey;
use sc_netproto::http::HttpResponse;
use sc_obs::{Level, Quoted, SpanId};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{Io, TcpHandle};
use sc_simnet::time::{SimDuration, SimTime};

use super::admit::Request;
use super::io::Timer;
use super::relay::Replay;
use super::remotes::Remotes;
use super::trace::{self, target_label};
use super::Step;
use crate::config::{ScConfig, FRONT_HOST};
use crate::frame::{Hello, StreamCodec, PREAMBLE_ROOM};
use crate::resilience::{BACKOFF, CONNECT_TIMEOUT, MAX_ATTEMPTS, QUEUE_FAIL_AFTER};

/// How often a parked request re-checks the pool for a recovered remote
/// (probes also drain the parked set immediately on success).
const PARK_RECHECK: SimDuration = SimDuration::from_millis(250);

/// A browser request between "accepted" and "tunnel established":
/// everything needed to (re)build an attempt from scratch.
struct Pending {
    /// `initial_plain` also collects anything the browser sends while
    /// we are still connecting.
    req: Request,
    /// Attempts started so far.
    attempts: u32,
    /// Pool index of the most recent attempt's remote.
    last_remote: Option<usize>,
    /// Rebuilt from a mid-stream death: the browser already got its
    /// `200` the first time around, so establishment must complete
    /// silently.
    resumed: bool,
    /// When this request started waiting for *any* remote to come back.
    parked_since: Option<SimTime>,
    /// The connect attempt currently outstanding.
    attempt: Option<TcpHandle>,
    /// A retry/park-recheck timer is currently armed.
    retry_armed: bool,
    /// Still waiting in the admission queue (no attempt may start and
    /// no active slot is held until admission dequeues it).
    queued: bool,
    /// When admission granted this request its slot (service-time EWMA:
    /// admit → tunnel established).
    admitted_at: SimTime,
    /// Open "admission" span of a queued request: arrival → verdict
    /// (its duration is the queue wait).
    admission_span: SpanId,
    /// Open "establish" span: first attempt → tunnel up or failure.
    establish_span: SpanId,
    /// Open "backoff"/"park" span while waiting between attempts.
    wait_span: SpanId,
}

/// Why a pending request is going away before its tunnel came up.
enum Dropped {
    Shed { code: u16, reason: &'static str },
    Failed { code: u16, reason: &'static str },
    Abandoned,
}

/// One outstanding connect to a remote.
struct Attempt {
    browser: TcpHandle,
    remote_idx: usize,
    /// When the connect was issued (RTT measurement).
    started: SimTime,
    /// Wire bytes queued until the remote TCP connects (hello + header
    /// + initial plaintext, pre-encoded), frozen into the first send.
    wire: BytesMut,
    /// Outbound (domestic→remote) codec.
    tx: StreamCodec,
    /// Inbound (remote→domestic) codec.
    rx: StreamCodec,
    /// Plaintext bytes queued browser→remote while connecting.
    up_bytes: u64,
    /// Open "attempt" span.
    span: SpanId,
}

/// A tunnel that just came up, on its way to the relay stage.
pub(super) struct Up {
    pub req: Request,
    pub remote_idx: usize,
    pub remote: SocketAddr,
    pub attempts: u32,
    pub resumed: bool,
    pub tx: StreamCodec,
    pub rx: StreamCodec,
    pub up_bytes: u64,
    /// Admit → established, for the admission service estimate.
    pub service: SimDuration,
}

/// What a departing browser's pending request held.
pub(super) enum Abandoned {
    NotPending,
    /// Still in the admission queue: no slot yet.
    Queued,
    /// An active slot charged to this client.
    Held(Addr),
}

pub(super) struct Establish {
    cfg: Rc<ScConfig>,
    /// `cfg.secret` as the preamble MAC takes it, prepared once.
    preamble_key: HmacKey,
    /// Requests awaiting tunnel establishment, by browser handle.
    pending: BTreeMap<TcpHandle, Pending>,
    /// Outstanding connects, by remote-side handle.
    attempts: BTreeMap<TcpHandle, Attempt>,
}

impl Establish {
    pub fn new(cfg: Rc<ScConfig>) -> Self {
        let preamble_key = HmacKey::new(&cfg.secret);
        Establish { cfg, preamble_key, pending: BTreeMap::new(), attempts: BTreeMap::new() }
    }

    pub fn owns_attempt(&self, h: TcpHandle) -> bool {
        self.attempts.contains_key(&h)
    }

    pub fn occupancy(&self) -> [(&'static str, usize); 2] {
        [("pending requests", self.pending.len()), ("connect attempts", self.attempts.len())]
    }

    /// Registers an admitted (or queued) request. The caller starts the
    /// first attempt unless `queued`.
    pub fn enter(&mut self, req: Request, queued: bool, admission_span: SpanId, now: SimTime) {
        let pt = Pending { queued, admission_span, ..Pending::admitted(req, now) };
        self.pending.insert(pt.req.browser, pt);
    }

    /// Rebuilds a pending request from an established tunnel's replay
    /// buffer (`req.initial_plain`) after a recoverable mid-stream
    /// death; the caller starts the next attempt immediately. The
    /// browser keeps its admission slot and notices nothing: no
    /// downstream byte was ever delivered, and the rebuilt tunnel
    /// replays every plaintext byte it sent.
    pub fn resume(&mut self, replay: Replay, last_remote: usize, now: SimTime) {
        let Replay { req, attempts } = replay;
        trace::event(now, Level::Info, "domestic", "stream_resume", |f| {
            f.field("target", target_label(&req.header))
                .field("buffered", req.initial_plain.len() as u64)
                .field("attempt", u64::from(attempts));
        });
        let establish_span = trace::span(now, "resilience", "establish", req.tctx, |f| {
            f.field("target", target_label(&req.header)).field("resumed", true);
        });
        let pt = Pending {
            attempts,
            last_remote: Some(last_remote),
            resumed: true,
            establish_span,
            ..Pending::admitted(req, now)
        };
        self.pending.insert(pt.req.browser, pt);
    }

    /// Admission dequeued `browser` after `waited`: it holds a slot now.
    /// `false` if the request is gone.
    pub fn dequeued(&mut self, browser: TcpHandle, waited: SimDuration, now: SimTime) -> bool {
        let Some(pt) = self.pending.get_mut(&browser) else { return false };
        pt.queued = false;
        pt.admitted_at = now;
        trace::end(now, &mut pt.admission_span, |f| {
            f.field("verdict", "admit").field("waited_us", waited.as_micros());
        });
        true
    }

    /// Takes `browser`'s pending request out and closes its spans: the
    /// one teardown every early exit shares.
    fn drop_pending(&mut self, browser: TcpHandle, why: Dropped, now: SimTime) -> Option<Pending> {
        let mut pt = self.pending.remove(&browser)?;
        trace::end(now, &mut pt.admission_span, |f| match why {
            Dropped::Shed { code, reason } => {
                f.field("verdict", reason).field("code", code);
            }
            Dropped::Failed { reason, .. } => {
                f.field("verdict", reason);
            }
            Dropped::Abandoned => {
                f.field("verdict", "abandoned");
            }
        });
        trace::end(now, &mut pt.wait_span, |_| {});
        trace::end(now, &mut pt.establish_span, |f| {
            f.field("ok", false);
            if let Dropped::Failed { code, reason } = why {
                f.field("code", code).field("reason", reason);
            }
        });
        Some(pt)
    }

    /// Admission shed `browser`'s queued request.
    pub fn shed(&mut self, browser: TcpHandle, code: u16, reason: &'static str, now: SimTime) {
        self.drop_pending(browser, Dropped::Shed { code, reason }, now);
    }

    /// Fails a browser's request with a distinct, visible status and
    /// closes its connection. Returns the client whose admission slot
    /// the request held, if it held one.
    pub fn fail(
        &mut self,
        browser: TcpHandle,
        code: u16,
        reason: &'static str,
        io: &mut impl Io,
    ) -> Option<Addr> {
        let now = io.now();
        let pt = self.drop_pending(browser, Dropped::Failed { code, reason }, now);
        io.tcp_send_bytes(browser, HttpResponse::new(code, Vec::new()).into_wire());
        io.tcp_close(browser);
        if code != 503 {
            sc_obs::ts_bump(now.as_micros(), "scholarcloud.tunnel_failures", 1);
        }
        trace::event(now, Level::Warn, "resilience", "tunnel_failed", |f| {
            f.field("code", Quoted(code.into())).field("reason", reason);
            match &pt {
                Some(pt) => f.field("target", target_label(&pt.req.header)),
                None => f.field("target", ""),
            };
        });
        pt.filter(|pt| !pt.queued).map(|pt| pt.req.client)
    }

    /// The browser went away before its tunnel came up: abort the
    /// outstanding attempt without blaming the remote.
    pub fn abandon(
        &mut self,
        browser: TcpHandle,
        remotes: &Remotes,
        io: &mut impl Io,
    ) -> Abandoned {
        let now = io.now();
        let Some(pt) = self.drop_pending(browser, Dropped::Abandoned, now) else {
            return Abandoned::NotPending;
        };
        if pt.queued {
            return Abandoned::Queued;
        }
        if let Some(rh) = pt.attempt {
            io.tcp_abort(rh);
            if let Some(mut at) = self.attempts.remove(&rh) {
                remotes.stream_end(at.remote_idx, now);
                trace::end(now, &mut at.span, |f| {
                    f.field("ok", false).field("reason", "browser_gone");
                });
            }
        }
        Abandoned::Held(pt.req.client)
    }

    /// Early bytes while the tunnel is still connecting: remember them
    /// for any retry, and queue them on the in-flight attempt so the
    /// established stream stays in order.
    pub fn early_data(&mut self, browser: TcpHandle, data: &[u8]) {
        let Some(pt) = self.pending.get_mut(&browser) else { return };
        pt.req.initial_plain.extend_from_slice(data);
        if let Some(at) = pt.attempt.and_then(|rh| self.attempts.get_mut(&rh)) {
            at.up_bytes += data.len() as u64;
            let queued = at.wire.len();
            at.wire.extend_from_slice(data);
            at.tx.encode(&mut at.wire[queued..]);
        }
    }

    // ---- attempts ---------------------------------------------------------

    /// Starts (or parks) the next connect attempt for a pending request.
    /// Callers must ensure no attempt is currently in flight.
    pub fn try_attempt(
        &mut self,
        browser: TcpHandle,
        park_cap: usize,
        remotes: &mut Remotes,
        io: &mut impl Io,
    ) -> Step {
        let now = io.now();
        let Some(pt) = self.pending.get_mut(&browser) else { return Step::Done };
        debug_assert!(pt.attempt.is_none(), "attempt already outstanding");
        // The establish span opens with the first attempt and stays open
        // across retries/backoffs/parks until the tunnel is up or the
        // request fails.
        if pt.establish_span.is_none() {
            pt.establish_span = trace::span(now, "resilience", "establish", pt.req.tctx, |f| {
                f.field("target", target_label(&pt.req.header));
            });
        }
        let exclude = if pt.attempts > 0 { pt.last_remote } else { None };
        let Some(idx) = remotes.pick(now, exclude) else {
            // Every breaker refuses: park and wait for recovery (probes
            // drain us early), failing fast once the window elapses.
            let newly_parked = pt.parked_since.is_none();
            let since = *pt.parked_since.get_or_insert(now);
            let expired = now.saturating_since(since) >= QUEUE_FAIL_AFTER;
            if !expired && !pt.retry_armed {
                pt.retry_armed = true;
                io.set_timer(PARK_RECHECK, Timer::Retry(browser).token());
            }
            let mut overflow = Vec::new();
            if newly_parked {
                // A backoff that ends in a park ends here, as it would
                // at an attempt.
                trace::end(now, &mut pt.wait_span, |_| {});
                let parent = pt.req.tctx.with_parent(pt.establish_span);
                pt.wait_span = trace::span(now, "resilience", "park", parent, |_| {});
                trace::event(now, Level::Warn, "resilience", "parked", |f| {
                    f.field("target", target_label(&pt.req.header));
                });
                // The parked set is bounded: overflow sheds the oldest
                // parked requests (a same-instant park burst can shed
                // this very request).
                let parked = self.parked_oldest_first(|_| true);
                overflow = parked[..parked.len().saturating_sub(park_cap)].to_vec();
            }
            return Step::Parked { browser, overflow, expired };
        };

        let prev = pt.last_remote;
        pt.last_remote = Some(idx);
        pt.attempts += 1;
        pt.parked_since = None;
        let attempt = pt.attempts;
        // Any backoff/park wait ends the moment an attempt starts.
        trace::end(now, &mut pt.wait_span, |_| {});
        let remote = remotes.addr(idx);
        let parent = pt.req.tctx.with_parent(pt.establish_span);
        let span = trace::span(now, "resilience", "attempt", parent, |f| {
            f.field("remote", remote).field("attempt", attempt);
        });
        // The stream header carries this attempt's span as the remote
        // side's parent, so the relay span stitches under the attempt
        // that actually carried the traffic.
        pt.req.header.parent = span.0;

        if let Some(p) = prev.filter(|&p| p != idx) {
            // benchmark/src/run.rs reads this counter until ROADMAP 8j moves it to the trace.
            sc_obs::counter_add("scholarcloud.failovers", 1);
            sc_obs::ts_bump(now.as_micros(), "scholarcloud.failovers", 1);
            trace::event(now, Level::Info, "resilience", "failover", |f| {
                f.field("from", remotes.addr(p)).field("to", remote).field("attempt", Quoted(attempt.into()));
            });
        }

        // Fresh preamble + codecs per attempt: the remote treats every
        // TCP connection as a new session, and a rotation since the last
        // attempt takes effect here (the live scheme handle is re-read).
        let hello = Hello {
            scheme: self.cfg.scheme.get(),
            nonce: io.rng().gen(),
            generation: self.cfg.scheme.generation(),
        };
        let encrypt = !pt.req.header.is_tls;
        let (mut tx, rx) = StreamCodec::pair(&self.cfg.secret, &hello, encrypt);
        // Preamble in the clear, then header and early plaintext encoded
        // where they lie, in one buffer with room for all three.
        let header = &pt.req.header;
        let mut wire = BytesMut::with_capacity(
            PREAMBLE_ROOM + FRONT_HOST.len() + header.encoded_len() + pt.req.initial_plain.len(),
        );
        hello.encode_into(&self.preamble_key, FRONT_HOST, &mut wire);
        let preamble = wire.len();
        header.encode_into(&mut wire);
        wire.extend_from_slice(&pt.req.initial_plain);
        tx.encode(&mut wire[preamble..]);
        remotes.stream_start(idx);
        let rh = io.tcp_connect(remote);
        pt.attempt = Some(rh);
        self.attempts.insert(
            rh,
            Attempt { browser, remote_idx: idx, started: now, wire, tx, rx, up_bytes: 0, span },
        );
        io.set_timer(CONNECT_TIMEOUT, Timer::ConnectDeadline(rh).token());
        Step::Done
    }

    /// Parked requests matching `keep`, oldest first (park time, then
    /// handle): the one order parked work is ever visited in.
    fn parked_oldest_first(&self, keep: impl Fn(&Pending) -> bool) -> Vec<TcpHandle> {
        let mut parked: Vec<(SimTime, TcpHandle)> = self
            .pending
            .iter()
            .filter(|(_, pt)| keep(pt))
            .filter_map(|(&b, pt)| pt.parked_since.map(|since| (since, b)))
            .collect();
        parked.sort();
        parked.into_iter().map(|(_, b)| b).collect()
    }

    /// Parked requests a recovered remote can serve right now. A probe
    /// (or trial) just proved one healthy: the caller retries each
    /// immediately instead of waiting for its re-check.
    pub fn parked(&self) -> Vec<TcpHandle> {
        self.parked_oldest_first(|pt| pt.attempt.is_none())
    }

    pub fn is_pending(&self, browser: TcpHandle) -> bool {
        self.pending.contains_key(&browser)
    }

    /// A retry backoff elapsed or a parked request's re-check came due.
    /// `true` if the caller should try an attempt now.
    pub fn retry_due(&mut self, browser: TcpHandle) -> bool {
        let Some(pt) = self.pending.get_mut(&browser) else { return false };
        pt.retry_armed = false;
        pt.attempt.is_none() && !pt.queued
    }

    /// The connect deadline of attempt `rh` fired. `true` if it was
    /// still outstanding (now aborted; the caller fails it).
    pub fn connect_deadline(&mut self, rh: TcpHandle, io: &mut impl Io) -> bool {
        if !self.attempts.contains_key(&rh) {
            return false;
        }
        io.tcp_abort(rh);
        true
    }

    /// A connect attempt died before establishment: record the failure
    /// and report what its request can still do.
    pub fn attempt_failed(
        &mut self,
        rh: TcpHandle,
        reason: &'static str,
        remotes: &mut Remotes,
        io: &mut impl Io,
    ) -> Step {
        let Some(mut at) = self.attempts.remove(&rh) else { return Step::Done };
        let now = io.now();
        remotes.stream_end(at.remote_idx, now);
        trace::end(now, &mut at.span, |f| {
            f.field("ok", false).field("reason", reason);
        });
        remotes.failed(at.remote_idx, io);
        // The browser may have given up (or been refused) meanwhile.
        let Some(pt) = self.pending.get_mut(&at.browser) else { return Step::Done };
        pt.attempt = None;
        if pt.attempts >= MAX_ATTEMPTS {
            Step::Fail { browser: at.browser, code: 502, reason }
        } else {
            Step::Retry { browser: at.browser, reason, attempts: pt.attempts }
        }
    }

    /// Schedules `browser`'s next attempt after a jittered backoff.
    pub fn backoff(&mut self, browser: TcpHandle, reason: &'static str, io: &mut impl Io) {
        let now = io.now();
        let draw = io.rng().gen();
        let Some(pt) = self.pending.get_mut(&browser) else { return };
        let delay = BACKOFF.delay(pt.attempts - 1, draw);
        pt.retry_armed = true;
        let parent = pt.req.tctx.with_parent(pt.establish_span);
        pt.wait_span = trace::span(now, "resilience", "backoff", parent, |f| {
            f.field("delay_us", delay.as_micros());
        });
        trace::event(now, Level::Info, "resilience", "retry", |f| {
            f.field("reason", reason)
                .field("attempt", Quoted(pt.attempts.into()))
                .field("delay_us", Quoted(delay.as_micros()));
        });
        io.set_timer(delay, Timer::Retry(browser).token());
    }

    /// Attempt `rh` connected: flush its queued bytes and hand the
    /// tunnel on. The CONNECT `200` is only sent from here on, so
    /// browsers cannot start a TLS handshake into a void.
    pub fn connected(
        &mut self,
        rh: TcpHandle,
        remotes: &mut Remotes,
        io: &mut impl Io,
    ) -> Option<Up> {
        let mut at = self.attempts.remove(&rh)?;
        let now = io.now();
        io.tcp_send_bytes(rh, std::mem::take(&mut at.wire).freeze());
        trace::end(now, &mut at.span, |f| {
            f.field("ok", true);
        });
        let rtt = now.saturating_since(at.started);
        remotes.succeeded(at.remote_idx, rtt, now);
        let Some(mut pt) = self.pending.remove(&at.browser) else {
            // Nobody is waiting for this tunnel any more.
            io.tcp_abort(rh);
            remotes.stream_end(at.remote_idx, now);
            return None;
        };
        trace::end(now, &mut pt.establish_span, |f| {
            f.field("ok", true).field("attempts", pt.attempts);
        });
        Some(Up {
            req: pt.req,
            remote_idx: at.remote_idx,
            remote: remotes.addr(at.remote_idx),
            attempts: pt.attempts,
            resumed: pt.resumed,
            tx: at.tx,
            rx: at.rx,
            up_bytes: at.up_bytes,
            service: now.saturating_since(pt.admitted_at),
        })
    }
}

impl Pending {
    /// A request that holds its slot as of `now` and has tried nothing.
    fn admitted(req: Request, now: SimTime) -> Self {
        Pending {
            req,
            attempts: 0,
            last_remote: None,
            resumed: false,
            parked_since: None,
            attempt: None,
            retry_armed: false,
            queued: false,
            admitted_at: now,
            admission_span: SpanId::NONE,
            establish_span: SpanId::NONE,
            wait_span: SpanId::NONE,
        }
    }
}
