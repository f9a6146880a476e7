//! Stage 5 — relay: established streams, piped both ways through the
//! blinding codecs until either side closes.
//!
//! Owns the streams (by remote-side handle) and, while a stream is
//! still transparently recoverable, its replay buffer: the stream-level
//! half of the rotation defense. A learned signature RSTs the preamble
//! *after* the connect succeeds, past the establish-phase retry budget,
//! and would otherwise kill every stream in flight at the moment of
//! detection.

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use sc_obs::{Level, SpanId};
use sc_simnet::addr::Addr;
use sc_simnet::api::TcpHandle;

use super::admit::Request;
use super::establish::Up;
use super::io::Io;
use super::remotes::Remotes;
use super::trace::{self, target_label};
use crate::config::ScConfig;
use crate::frame::StreamCodec;
use crate::resilience::MAX_ATTEMPTS;

/// Upper bound on buffered upstream plaintext per stream: past this the
/// replay state is dropped and a mid-stream death is final.
const REPLAY_CAP: usize = 16 * 1024;

/// Everything needed to transparently rebuild an established tunnel
/// whose remote leg died before delivering a single downstream byte.
/// The browser has observed nothing yet, so replaying the buffered
/// plaintext through a fresh tunnel (under whatever blinding scheme is
/// in force *now*) is indistinguishable from a slow first attempt.
pub(super) struct Replay {
    /// The original request; `initial_plain` holds the plaintext sent
    /// upstream so far (capped at [`REPLAY_CAP`]).
    pub req: Request,
    /// Establish attempts already consumed by this browser request.
    pub attempts: u32,
}

struct Stream {
    browser: TcpHandle,
    /// Whose admission slot the stream holds.
    client: Addr,
    /// Index into the remote pool (health/breaker bookkeeping).
    remote_idx: usize,
    /// Outbound (domestic→remote) codec.
    tx: StreamCodec,
    /// Inbound (remote→domestic) codec.
    rx: StreamCodec,
    /// Plaintext bytes relayed browser→remote.
    up_bytes: u64,
    /// Plaintext bytes relayed remote→browser.
    down_bytes: u64,
    /// Open "tunnel_stream"/"upstream_fetch" span.
    span: SpanId,
    /// Armed while a mid-stream death is still transparently
    /// recoverable; cleared by the first downstream byte or a buffer
    /// overflow.
    replay: Option<Replay>,
}

/// How a stream ended, as its span records it.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Ending {
    /// Orderly: either side closed, or a gateway fetch completed.
    Clean,
    /// The remote leg was reset mid-stream.
    Reset,
    /// Reset before the first downstream byte, and replayable.
    Resumed,
    /// The upstream response was not HTTP.
    Garbled,
}

/// What an ended stream leaves behind.
pub(super) struct Ended {
    pub browser: TcpHandle,
    /// The client whose admission slot the stream held.
    pub client: Addr,
    /// Set for [`Ending::Resumed`]: what to rebuild the tunnel from,
    /// avoiding the remote at pool index `remote_idx`.
    pub replay: Option<Replay>,
    pub remote_idx: usize,
}

pub(super) struct Relay {
    cfg: Rc<ScConfig>,
    streams: BTreeMap<TcpHandle, Stream>,
}

impl Relay {
    pub fn new(cfg: Rc<ScConfig>) -> Self {
        Relay { cfg, streams: BTreeMap::new() }
    }

    pub fn owns(&self, h: TcpHandle) -> bool {
        self.streams.contains_key(&h)
    }

    pub fn occupancy(&self) -> [(&'static str, usize); 1] {
        [("streams", self.streams.len())]
    }

    /// Adopts the tunnel that just came up on `h`. The stream span
    /// covers its lifetime — established → torn down — parented on the
    /// browser-side span that requested it. Where the deployment rotates
    /// its scheme, a CONNECT tunnel arms its replay buffer (a gateway
    /// fetch is retried by its browser).
    pub fn open(&mut self, h: TcpHandle, up: Up, io: &mut impl Io) {
        let now = io.now();
        let Up { req, remote_idx, remote, attempts, resumed, tx, rx, up_bytes, .. } = up;
        let name = if req.is_connect { "tunnel_stream" } else { "upstream_fetch" };
        let span = trace::span(now, "domestic", name, req.tctx, |f| {
            f.field("target", target_label(&req.header));
        });
        if req.is_connect && !resumed {
            io.send(req.browser, Bytes::from_static(b"HTTP/1.1 200 Connection established\r\n\r\n"));
        }
        trace::event(now, Level::Info, "domestic", "tunnel_open", |f| {
            f.field("target", target_label(&req.header))
                .field("encrypted", !req.header.is_tls)
                .field("remote", remote)
                .field("attempt", u64::from(attempts));
        });
        let (browser, client) = (req.browser, req.client);
        // The stream-level half of the rotation defense: a learned
        // signature RSTs established tunnels on the preamble — past the
        // connect retry budget — so rotation only preserves in-flight
        // streams if they re-establish under the rotated scheme.
        let resumable = self.cfg.rotation.is_some()
            && req.is_connect
            && req.initial_plain.len() <= REPLAY_CAP;
        let replay = resumable.then_some(Replay { req, attempts });
        self.streams.insert(
            h,
            Stream { browser, client, remote_idx, tx, rx, up_bytes, down_bytes: 0, span, replay },
        );
    }

    /// Browser → remote on an established tunnel.
    pub fn upstream(&mut self, remote: TcpHandle, data: &[u8], io: &mut impl Io) {
        let Some(stream) = self.streams.get_mut(&remote) else { return };
        if let Some(rep) = &mut stream.replay {
            if rep.req.initial_plain.len() + data.len() <= REPLAY_CAP {
                rep.req.initial_plain.extend_from_slice(data);
            } else {
                stream.replay = None;
            }
        }
        // The hop's one copy: what the browser sent is shared with its
        // retransmit queue, so the codec gets a buffer of its own, built
        // once, and that buffer is what goes on the wire.
        let mut wire = BytesMut::from(data);
        stream.up_bytes += wire.len() as u64;
        stream.tx.encode(&mut wire);
        io.send(remote, wire.freeze());
    }

    /// Remote → browser: decodes what arrived on `h` and returns the
    /// browser it is for with the plaintext (the caller pipes it through
    /// or feeds a gateway fetch).
    pub fn downstream(
        &mut self,
        h: TcpHandle,
        remotes: &Remotes,
        io: &mut impl Io,
    ) -> Option<(TcpHandle, Bytes)> {
        let data = io.recv(h);
        let stream = self.streams.get_mut(&h)?;
        // One copy again, for the same reason as upstream.
        let mut plain = BytesMut::from(&data[..]);
        stream.rx.decode(&mut plain);
        stream.down_bytes += plain.len() as u64;
        // The browser has now observed upstream state: a later death
        // can no longer be replayed from zero.
        stream.replay = None;
        remotes.egress(stream.remote_idx, plain.len() as u64);
        Some((stream.browser, plain.freeze()))
    }

    /// How the stream on `h` ends now that its remote side closed
    /// (`reset`: with an RST).
    ///
    /// A mid-stream RST before any downstream byte is the adaptive
    /// censor's learned-signature RESET landing on the preamble: with a
    /// replay buffer and attempts left, the stream is
    /// [`Ending::Resumed`] instead of lost.
    pub fn ending_for(&self, h: TcpHandle, reset: bool) -> Ending {
        let replayable = self.streams.get(&h).is_some_and(|s| {
            s.down_bytes == 0 && s.replay.as_ref().is_some_and(|r| r.attempts < MAX_ATTEMPTS)
        });
        match (reset, replayable) {
            (true, true) => Ending::Resumed,
            (true, false) => Ending::Reset,
            (false, _) => Ending::Clean,
        }
    }

    /// Takes stream `h` out and closes its books: elastic idle
    /// accounting and the span. A reset is a health
    /// signal (GFW interference or a dying VM) and counts against the
    /// remote — *before* the books close when the stream will resume,
    /// so the breaker/rotation evidence is current and a
    /// detection-driven rotation fires right here, ahead of the rebuilt
    /// request's retry.
    pub fn end(
        &mut self,
        h: TcpHandle,
        how: Ending,
        remotes: &mut Remotes,
        io: &mut impl Io,
    ) -> Option<Ended> {
        let mut stream = self.streams.remove(&h)?;
        let now = io.now();
        remotes.stream_end(stream.remote_idx, now);
        if how == Ending::Resumed {
            remotes.failed(stream.remote_idx, io);
        }
        let down = stream.down_bytes;
        trace::end(now, &mut stream.span, |f| {
            f.field("ok", how == Ending::Clean);
            if how != Ending::Garbled {
                f.field("bytes_down", down);
            }
            if how == Ending::Resumed {
                f.field("resumed", true);
            }
        });
        if how == Ending::Reset {
            remotes.failed(stream.remote_idx, io);
        }
        Some(Ended {
            browser: stream.browser,
            client: stream.client,
            replay: stream.replay.filter(|_| how == Ending::Resumed),
            remote_idx: stream.remote_idx,
        })
    }
}
