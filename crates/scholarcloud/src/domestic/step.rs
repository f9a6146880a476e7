//! The pipeline's edges: the [`Step`]s stages hand back, and the part
//! of the driver that walks them — in particular the order in which a
//! failure in one stage unwinds the others (waiters, then the request's
//! own spans and answer, then its slot, then whatever the freed slot
//! lets out of the queue).

use sc_netproto::http::HttpResponse;
use sc_obs::{SpanId, TraceCtx};
use sc_simnet::addr::Addr;
use sc_simnet::api::{TcpEvent, TcpHandle};

use super::admit::Request;
use super::gateway::{Miss, Parsed};
use super::io::Io;
use super::relay::{Ended, Ending};
use super::{ConnState, DomesticProxy};
use crate::admission::Dequeued;

/// Work a stage hands back for another stage: every edge of the
/// pipeline, routed by [`DomesticProxy::step`].
pub(super) enum Step {
    /// Nothing further.
    Done,
    /// A whitelisted request: run it through admission.
    Admit(Request),
    /// A request named a host off the whitelist: `403`, close.
    RefuseHost { browser: TcpHandle, host: String },
    /// Admission refused: answer `code` + `Retry-After`, close.
    Shed { browser: TcpHandle, code: u16, reason: &'static str },
    /// Admission let the request in, holding a slot or (`queued`) still
    /// waiting for one under its open admission `span`.
    Establish { req: Request, queued: bool, span: SpanId },
    /// A gateway leader's miss on a key another shard owns: one
    /// intra-fleet hop instead of a cross-border fetch.
    Hop(Miss),
    /// The key's owner answered the hop: settle the leader's fetch.
    Settle { leader: TcpHandle, resp: HttpResponse },
    /// The hop failed or was refused: the leader's fetch goes upstream.
    FallBack { leader: TcpHandle, tctx: TraceCtx },
    /// Every remote is dark and the request parked. The oldest parked
    /// requests beyond the cap (`overflow`) are shed; `expired` says
    /// this one has waited out its window.
    Parked { browser: TcpHandle, overflow: Vec<TcpHandle>, expired: bool },
    /// A connect attempt died with attempts left: retry if the retry
    /// budget grants it.
    Retry { browser: TcpHandle, reason: &'static str, attempts: u32 },
    /// The request is lost: answer `code`, close, free its slot.
    Fail { browser: TcpHandle, code: u16, reason: &'static str },
}

impl DomesticProxy {
    pub(super) fn step(&mut self, step: Step, io: &mut impl Io) {
        match step {
            Step::Done => {}
            Step::Admit(req) => {
                let verdict = self.admit.on_request(req, io);
                self.step(verdict, io);
            }
            Step::RefuseHost { browser, host } => {
                self.admit.refuse_host(browser, &host, io);
                self.finish(browser);
            }
            Step::Shed { browser, code, reason } => {
                // Coalesced waiters get the same answer, the queued
                // request (if any) closes its spans. No slot was held.
                self.fail_waiters(browser, code, io);
                self.establish.shed(browser, code, reason, io.now());
                self.admit.refuse(browser, code, reason, io);
                self.finish(browser);
            }
            Step::Establish { req, queued, span } => {
                let browser = req.browser;
                // Gateway conns keep their request parser: the conn
                // outlives the per-request fetch.
                if req.is_connect {
                    self.set_state(browser, ConnState::Pending);
                }
                self.establish.enter(req, queued, span, io.now());
                if !queued {
                    self.attempt(browser, io);
                }
            }
            Step::Hop(miss) => self.peer.start(miss, io),
            Step::Settle { leader, resp } => self.gateway.settle(leader, resp, true, io),
            Step::FallBack { leader, tctx } => {
                let upstream = self.gateway.fall_back_upstream(leader, tctx, io.now());
                self.step(upstream, io);
            }
            Step::Parked { browser, overflow, expired } => {
                for oldest in overflow {
                    let reason = "parked_overflow";
                    self.step(Step::Fail { browser: oldest, code: 503, reason }, io);
                }
                // A same-instant park burst can shed this very request.
                if expired && self.establish.is_pending(browser) {
                    self.step(Step::Fail { browser, code: 503, reason: "all_remotes_dark" }, io);
                }
            }
            Step::Retry { browser, reason, attempts } => {
                if self.admit.grant_retry(reason, attempts, io.now()) {
                    self.establish.backoff(browser, reason, io);
                } else {
                    let reason = "retry_budget_exhausted";
                    self.step(Step::Fail { browser, code: 502, reason }, io);
                }
            }
            Step::Fail { browser, code, reason } => {
                self.fail_waiters(browser, code, io);
                let held = self.establish.fail(browser, code, reason, io);
                self.finish(browser);
                if let Some(client) = held {
                    self.release(client, io);
                }
            }
        }
    }

    /// A gateway leader's request failed: its coalesced waiters got the
    /// same answer and are done.
    fn fail_waiters(&mut self, leader: TcpHandle, code: u16, io: &mut impl Io) {
        for waiter in self.gateway.fail_waiters(leader, code, io) {
            self.finish(waiter);
        }
    }

    /// Hands back the slot charged to `client` and lets queued work
    /// advance into the freed capacity.
    pub(super) fn release(&mut self, client: Addr, io: &mut impl Io) {
        self.admit.ctl.release(client, io.now(), None);
        self.drain_queue(io);
        self.admit.publish_sickness();
    }

    /// Dequeues as much as capacity allows: deadline-expired entries
    /// are shed with 503, admissible ones start their first attempt.
    pub(super) fn drain_queue(&mut self, io: &mut impl Io) {
        let now = io.now();
        let actions = self.admit.ctl.drain(now);
        if actions.is_empty() {
            return;
        }
        for action in actions {
            match action {
                Dequeued::Shed { token: browser } => {
                    self.step(Step::Shed { browser, code: 503, reason: "deadline_shed" }, io);
                }
                Dequeued::Admit { token, waited } => {
                    if self.establish.dequeued(token, waited, now) {
                        self.admit.note_dequeue(waited, now);
                        self.attempt(token, io);
                    } else {
                        // The browser vanished without its queue entry
                        // being removed; hand the slot straight back.
                        let client = self.conns.get(&token).map(|c| c.client);
                        self.admit.ctl.release(client.unwrap_or(Addr::new(0, 0, 0, 0)), now, None);
                    }
                }
            }
        }
        self.admit.after_drain(io);
    }

    pub(super) fn attempt(&mut self, browser: TcpHandle, io: &mut impl Io) {
        let cap = self.admit.park_cap();
        let tried = self.establish.try_attempt(browser, cap, &mut self.remotes, io);
        self.step(tried, io);
    }

    pub(super) fn attempt_failed(&mut self, rh: TcpHandle, reason: &'static str, io: &mut impl Io) {
        let failed = self.establish.attempt_failed(rh, reason, &mut self.remotes, io);
        self.step(failed, io);
    }

    pub(super) fn end_stream(
        &mut self,
        rh: TcpHandle,
        how: Ending,
        io: &mut impl Io,
    ) -> Option<Ended> {
        self.relay.end(rh, how, &mut self.remotes, io)
    }

    pub(super) fn on_attempt_event(&mut self, rh: TcpHandle, ev: TcpEvent, io: &mut impl Io) {
        match ev {
            TcpEvent::Connected => {
                let Some(up) = self.establish.connected(rh, &mut self.remotes, io) else { return };
                self.admit.ctl.record_service(up.service);
                // A gateway leader's conn stays in gateway mode; only
                // opaque tunnels switch to piping.
                if up.req.is_connect {
                    self.set_state(up.req.browser, ConnState::Tunneling { remote: rh });
                }
                self.relay.open(rh, up, io);
            }
            TcpEvent::ConnectFailed => self.attempt_failed(rh, "connect_failed", io),
            TcpEvent::Reset => self.attempt_failed(rh, "reset", io),
            TcpEvent::PeerClosed => self.attempt_failed(rh, "peer_closed", io),
            _ => {}
        }
    }

    pub(super) fn on_stream_event(&mut self, rh: TcpHandle, ev: TcpEvent, io: &mut impl Io) {
        match ev {
            TcpEvent::DataReceived => {
                let Some((browser, plain)) = self.relay.downstream(rh, &self.remotes, io) else {
                    return;
                };
                // A gateway fetch reassembles the upstream response
                // instead of piping bytes through.
                let ended = match self.gateway.upstream_data(browser, plain) {
                    Parsed::NotMine(plain) => return io.send(browser, plain),
                    Parsed::More => return,
                    Parsed::Garbled => {
                        io.abort(rh);
                        let ended = self.end_stream(rh, Ending::Garbled, io);
                        let reason = "bad_upstream_response";
                        self.step(Step::Fail { browser, code: 502, reason }, io);
                        ended
                    }
                    Parsed::Response(resp) => {
                        // One fetch per tunnel: close the upstream leg.
                        io.close(rh);
                        let ended = self.end_stream(rh, Ending::Clean, io);
                        self.gateway.settle(browser, resp, false, io);
                        ended
                    }
                };
                if let Some(ended) = ended {
                    self.release(ended.client, io);
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                let how = self.relay.ending_for(rh, ev == TcpEvent::Reset);
                let Some(ended) = self.end_stream(rh, how, io) else { return };
                match ended.replay {
                    Some(replay) => {
                        self.set_state(ended.browser, ConnState::Pending);
                        self.establish.resume(replay, ended.remote_idx, io.now());
                        self.attempt(ended.browser, io);
                    }
                    None => {
                        // A gateway fetch dying mid-response takes its
                        // coalesced waiters down with the same status.
                        self.fail_waiters(ended.browser, 502, io);
                        io.close(ended.browser);
                        self.finish(ended.browser);
                        self.release(ended.client, io);
                    }
                }
            }
            _ => {}
        }
    }
}
