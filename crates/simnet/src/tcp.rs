//! A simulation-grade TCP: three-way handshake, cumulative ACKs,
//! go-back-N retransmission with RFC 6298 RTO estimation, fast retransmit
//! on triple duplicate ACKs, slow start + AIMD congestion control, FIN
//! teardown, RST handling, and TIME_WAIT.
//!
//! Loss injected by links or by the GFW shows up here as retransmissions
//! and congestion backoff, which is exactly how censorship-induced loss
//! degrades page load time in the paper's measurements.
//!
//! Payload bytes are handed on, not copied: an app gives [`TcpLayer::send`]
//! a [`Bytes`], segments are views of it, the receiver queues the views
//! and [`TcpLayer::recv`] returns them (`ChunkQueue`; DESIGN.md §6k).

use bytes::{Buf, Bytes, BytesMut};
use std::collections::VecDeque;
use std::num::NonZeroU64;

use crate::addr::SocketAddr;
use crate::api::{AppEvent, AppId, TcpEvent, TcpHandle};
use crate::hash::FixedMap;
use crate::packet::{Packet, TcpFlags, TcpSegment, TcpSegmentBody};
use crate::queue::EventKey;
use crate::time::{SimDuration, SimTime};

/// Maximum segment size (payload bytes per segment).
pub const MSS: usize = 1400;
/// Receive window advertised by every endpoint.
pub const RECV_WINDOW: u32 = 1 << 20;
/// Initial congestion window (bytes) — 10 segments, like modern stacks.
pub const INITIAL_CWND: usize = 10 * MSS;
/// Lower bound on the retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Upper bound on the retransmission timeout.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(10);
/// Initial RTO before any RTT sample (RFC 6298 says 1 s).
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);
/// TIME_WAIT linger.
pub const TIME_WAIT: SimDuration = SimDuration::from_secs(1);
/// Retransmission attempts before giving up on an established connection.
pub const MAX_RETRIES: u32 = 8;
/// SYN retransmission attempts before reporting connect failure.
pub const MAX_SYN_RETRIES: u32 = 5;

/// TCP connection states (RFC 793 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// SYN received on a listener, SYN-ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN acknowledged; waiting for peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Peer closed, then we closed; FIN sent.
    LastAck,
    /// Both sent FINs simultaneously.
    Closing,
    /// Waiting out stray segments before freeing state.
    TimeWait,
    /// Fully closed; slot retained for handle stability.
    Closed,
}

/// Timer kinds owned by the TCP layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpTimerKind {
    /// Retransmission timeout.
    Rto,
    /// TIME_WAIT expiry.
    TimeWait,
}

/// A timer token scheduled by the TCP layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpTimer {
    /// Connection slot.
    pub conn: usize,
    /// Generation at scheduling time; stale timers are ignored.
    pub gen: u32,
    /// What the timer means.
    pub kind: TcpTimerKind,
}

/// What the event queue's entry for a connection stands for when it
/// comes due ([`TcpLayer::timer_due`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerDue {
    /// The armed timer: fire it.
    Fire,
    /// A timer armed for later: queue the entry again under this key.
    Later(EventKey),
    /// Nothing: drop the entry.
    Gone,
}

/// Side effects produced by TCP processing, drained by the simulator core.
#[derive(Debug, Default)]
pub struct Effects {
    /// Packets to transmit from this node.
    pub out: Vec<Packet>,
    /// Events to deliver to applications on this node.
    pub app_events: Vec<(AppId, AppEvent)>,
    /// Timers armed, in order. The simulator gives each the key a push
    /// would take and hands it back through `TcpLayer::timer_queued`.
    pub timers: Vec<(SimDuration, TcpTimer)>,
}

#[derive(Debug)]
struct Conn {
    app: AppId,
    local: SocketAddr,
    remote: SocketAddr,
    state: TcpState,
    /// First unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to send.
    snd_nxt: u64,
    /// Highest sequence number ever sent plus one (`SND.MAX`). Unlike
    /// `snd_nxt` it never rewinds on go-back-N recovery, so it bounds the
    /// ACKs a well-behaved peer can legitimately produce.
    snd_max: u64,
    /// Bytes queued for sending, as the app handed them over; byte 0 is
    /// sequence `snd_una`.
    send_buf: ChunkQueue,
    /// Peer's advertised window.
    snd_wnd: u32,
    /// Next expected receive sequence.
    rcv_nxt: u64,
    /// In-order received payloads not yet drained by the app.
    recv_buf: ChunkQueue,
    cwnd: usize,
    ssthresh: usize,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    /// (sequence end, send time) of the segment being timed for RTT.
    /// Sequence numbers start at an ISS of 1 000 or more, never 0.
    rtt_sample: Option<(NonZeroU64, SimTime)>,
    /// Counts arms and cancels: an arm in [`Effects::timers`] with an
    /// older generation was superseded in the step that made it.
    timer_gen: u32,
    /// The key the armed timer fires under, once the simulator has
    /// given it one; `EventKey::NEVER` while none is armed.
    timer: EventKey,
    /// The key of the connection's one entry in the event queue, due no
    /// later than `timer`; `EventKey::NEVER` when it has none.
    queued: EventKey,
    rto_armed: bool,
    // Bytes, not words: they count to 3 and to `MAX_RETRIES` + 1, and
    // the connection slots, never freed, are much of a run's memory.
    dup_acks: u8,
    retries: u8,
    /// App called close: FIN should be sent once the buffer drains.
    fin_pending: bool,
    /// Sequence number consumed by our FIN once sent.
    fin_seq: Option<NonZeroU64>,
    /// Peer's FIN has been processed.
    peer_fin_rcvd: bool,
    /// Total payload bytes retransmitted (diagnostics).
    retransmitted_bytes: u64,
}

impl Conn {
    fn flight(&self) -> usize {
        (self.snd_nxt - self.snd_una) as usize
    }

    /// Unsent bytes sitting in the buffer.
    fn unsent(&self) -> usize {
        self.send_buf.len() - self.flight().min(self.send_buf.len())
    }
}

/// Chunk slots no queue is using: a queue borrows a deque from here when
/// its first chunk arrives and gives it back, emptied, when its last one
/// leaves, so the deques alive number the queues holding bytes, not the
/// connections ever opened.
type SpareSlots = Vec<VecDeque<Bytes>>;

/// A byte stream held as the [`Bytes`] chunks it arrived in. Bytes enter
/// at the back whole and leave at the front; a range or a read that lies
/// inside one chunk is a view of that chunk, and only one that spans
/// chunks is copied. What has left is dropped chunk by chunk, and an
/// empty queue owns no heap memory: its slots are lent back to the
/// layer's [`SpareSlots`].
#[derive(Debug, Default)]
struct ChunkQueue {
    chunks: VecDeque<Bytes>,
    /// Total bytes over all chunks.
    len: usize,
    /// Where [`range`](Self::range) last looked: `chunks[cursor.0]` starts
    /// at stream offset `cursor.1`. The sender asks for consecutive
    /// ranges, so the next one starts here or just past it, not at the
    /// front of a queue that can be hundreds of small chunks long.
    /// Narrower than the offsets it stores, which keeps a connection's
    /// two queues, and so the `Conn`, 16 bytes smaller.
    cursor: (u32, u32),
}

impl ChunkQueue {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, chunk: Bytes, spare: &mut SpareSlots) {
        if chunk.is_empty() {
            return;
        }
        if self.chunks.capacity() == 0 {
            if let Some(slots) = spare.pop() {
                self.chunks = slots;
            }
        }
        self.len += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Bytes `[start, start + len)` of the stream, which must be queued.
    fn range(&mut self, start: usize, len: usize) -> Bytes {
        debug_assert!(start + len <= self.len);
        if len == 0 {
            return Bytes::new();
        }
        let (idx, at) = self.cursor;
        let (mut idx, mut at) = if start >= at as usize { (idx as usize, at as usize) } else { (0, 0) };
        while start >= at + self.chunks[idx].len() {
            at += self.chunks[idx].len();
            idx += 1;
        }
        self.cursor = (idx as u32, u32::try_from(at).expect("a stream offset under 4 GiB"));
        let first = &self.chunks[idx];
        let skip = start - at;
        if skip + len <= first.len() {
            return first.slice(skip..skip + len);
        }
        let mut out = BytesMut::with_capacity(len);
        out.extend_from_slice(&first[skip..]);
        for chunk in self.chunks.range(idx + 1..) {
            let want = len - out.len();
            if want == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..want.min(chunk.len())]);
        }
        out.freeze()
    }

    /// Drops the first `n` bytes (all of them if there are fewer), and
    /// lends the slots back if that empties the queue.
    fn drain_front(&mut self, n: usize, spare: &mut SpareSlots) {
        let n = n.min(self.len);
        self.len -= n;
        let (mut left, mut popped) = (n, 0);
        while left > 0 {
            let front = &mut self.chunks[0];
            if front.len() <= left {
                left -= front.len();
                self.chunks.pop_front();
                popped += 1;
            } else {
                front.advance(left);
                left = 0;
            }
        }
        // The cursor's chunk moved `popped` places and `n` bytes forward,
        // unless it is the new front chunk (offset 0) or gone.
        let (idx, at) = self.cursor;
        self.cursor = if idx > popped { (idx - popped, at - n as u32) } else { (0, 0) };
        if self.len == 0 {
            self.lend_back(spare);
        }
    }

    /// Removes and returns the first `n` bytes (all of them if there are
    /// fewer): the front chunk or a piece of it when that is the whole
    /// answer, one copy of the chunks it spans otherwise.
    fn take(&mut self, n: usize, spare: &mut SpareSlots) -> Bytes {
        let n = n.min(self.len);
        let out = self.range(0, n);
        self.drain_front(n, spare);
        out
    }

    /// Drops everything and lends the slots back.
    fn clear(&mut self, spare: &mut SpareSlots) {
        self.chunks.clear();
        self.len = 0;
        self.cursor = (0, 0);
        self.lend_back(spare);
    }

    /// Gives the (empty) queue's slots to `spare`, if it has any.
    fn lend_back(&mut self, spare: &mut SpareSlots) {
        debug_assert!(self.chunks.is_empty());
        if self.chunks.capacity() > 0 {
            spare.push(std::mem::take(&mut self.chunks));
        }
    }
}

/// Per-node TCP layer: connections, listeners, and the demux table.
#[derive(Debug, Default)]
pub struct TcpLayer {
    conns: Vec<Conn>,
    /// (local port, remote socket) → connection slot.
    demux: FixedMap<(u16, SocketAddr), usize>,
    /// Listening port → owning app.
    listeners: FixedMap<u16, AppId>,
    next_ephemeral: u16,
    /// Deterministic ISS counter.
    next_iss: u64,
    /// Chunk slots lent to the connections' queues while they hold bytes.
    spare: SpareSlots,
}

/// Statistics snapshot for one connection (used by tests and metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnStats {
    /// Current state.
    pub state: TcpState,
    /// Bytes retransmitted so far.
    pub retransmitted_bytes: u64,
    /// Current congestion window in bytes.
    pub cwnd: usize,
    /// Smoothed RTT, if sampled.
    pub srtt: Option<SimDuration>,
}

impl TcpLayer {
    /// Creates an empty TCP layer.
    pub fn new() -> Self {
        TcpLayer {
            conns: Vec::new(),
            demux: FixedMap::default(),
            listeners: FixedMap::default(),
            next_ephemeral: 40_000,
            next_iss: 1_000,
            spare: SpareSlots::new(),
        }
    }

    /// Begins listening on `port` for `app`. Returns `false` if the port is
    /// already bound.
    pub fn listen(&mut self, port: u16, app: AppId) -> bool {
        if self.listeners.contains_key(&port) {
            return false;
        }
        self.listeners.insert(port, app);
        true
    }

    fn alloc_ephemeral(&mut self, remote: SocketAddr) -> u16 {
        loop {
            let p = self.next_ephemeral;
            self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(40_000);
            if !self.demux.contains_key(&(p, remote)) && !self.listeners.contains_key(&p) {
                return p;
            }
        }
    }

    fn new_conn(&mut self, app: AppId, local: SocketAddr, remote: SocketAddr, state: TcpState, iss: u64) -> usize {
        let conn = Conn {
            app,
            local,
            remote,
            state,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            send_buf: ChunkQueue::default(),
            snd_wnd: RECV_WINDOW,
            rcv_nxt: 0,
            recv_buf: ChunkQueue::default(),
            cwnd: INITIAL_CWND,
            ssthresh: usize::MAX / 2,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: INITIAL_RTO,
            rtt_sample: None,
            timer_gen: 0,
            timer: EventKey::NEVER,
            queued: EventKey::NEVER,
            rto_armed: false,
            dup_acks: 0,
            retries: 0,
            fin_pending: false,
            fin_seq: None,
            peer_fin_rcvd: false,
            retransmitted_bytes: 0,
        };
        let idx = self.conns.len();
        self.conns.push(conn);
        self.demux.insert((local.port, remote), idx);
        idx
    }

    /// Opens a connection from `local_addr` to `remote`. Returns the handle;
    /// the app hears `Connected` or `ConnectFailed` later.
    pub fn connect(
        &mut self,
        app: AppId,
        local_addr: crate::addr::Addr,
        remote: SocketAddr,
        fx: &mut Effects,
    ) -> TcpHandle {
        let port = self.alloc_ephemeral(remote);
        let local = SocketAddr::new(local_addr, port);
        let iss = self.next_iss;
        self.next_iss += 100_000;
        let idx = self.new_conn(app, local, remote, TcpState::SynSent, iss);
        let c = &mut self.conns[idx];
        c.snd_nxt = iss + 1; // SYN consumes one sequence number
        c.snd_max = iss + 1;
        let syn = Packet::tcp(
            local,
            remote,
            TcpSegmentBody {
                seq: iss,
                ack: 0,
                flags: TcpFlags::SYN,
                window: RECV_WINDOW,
                payload: Bytes::new(),
            },
        );
        fx.out.push(syn);
        Self::arm_rto(c, idx, fx);
        TcpHandle(idx)
    }

    /// Queues `chunks` — the buffers themselves, not copies — on the
    /// connection's send buffer, then transmits what the windows allow:
    /// all are queued before any is sent, so what goes in which segment
    /// does not depend on how the stream was cut into chunks. Returns the
    /// number of bytes accepted (all of them — the simulated buffer is
    /// unbounded) or `None` for an invalid handle or a connection that can
    /// no longer send.
    pub fn send(
        &mut self,
        h: TcpHandle,
        chunks: impl IntoIterator<Item = Bytes>,
        now: SimTime,
        fx: &mut Effects,
    ) -> Option<usize> {
        let c = self.conns.get_mut(h.0)?;
        match c.state {
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynRcvd => {}
            _ => return None,
        }
        let queued = c.send_buf.len();
        for chunk in chunks {
            c.send_buf.push(chunk, &mut self.spare);
        }
        let n = c.send_buf.len() - queued;
        self.pump(h.0, now, fx);
        Some(n)
    }

    /// Drains up to `max` bytes of received data: the peer's segment
    /// payload itself when one answers the read, one copy of several
    /// otherwise.
    pub fn recv(&mut self, h: TcpHandle, max: usize) -> Bytes {
        let Some(c) = self.conns.get_mut(h.0) else {
            return Bytes::new();
        };
        c.recv_buf.take(max, &mut self.spare)
    }

    /// Bytes currently waiting in the receive buffer.
    #[cfg(test)]
    pub fn recv_available(&self, h: TcpHandle) -> usize {
        self.conns.get(h.0).map_or(0, |c| c.recv_buf.len())
    }

    /// Initiates a graceful close (half-close of our direction).
    pub fn close(&mut self, h: TcpHandle, now: SimTime, fx: &mut Effects) {
        let Some(c) = self.conns.get_mut(h.0) else { return };
        match c.state {
            TcpState::Established => {
                c.fin_pending = true;
                c.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                c.fin_pending = true;
                c.state = TcpState::LastAck;
            }
            TcpState::SynSent | TcpState::SynRcvd => {
                // Abort a half-open connection quietly.
                self.free(h.0);
                return;
            }
            _ => return,
        }
        self.pump(h.0, now, fx);
    }

    /// Aborts the connection with a RST.
    pub fn abort(&mut self, h: TcpHandle, fx: &mut Effects) {
        let Some(c) = self.conns.get_mut(h.0) else { return };
        if matches!(c.state, TcpState::Closed) {
            return;
        }
        let rst = Packet::tcp(
            c.local,
            c.remote,
            TcpSegmentBody {
                seq: c.snd_nxt,
                ack: c.rcv_nxt,
                flags: TcpFlags::RST,
                window: 0,
                payload: Bytes::new(),
            },
        );
        fx.out.push(rst);
        self.free(h.0);
    }

    /// Connection statistics for tests/metrics.
    pub fn stats(&self, h: TcpHandle) -> Option<ConnStats> {
        self.conns.get(h.0).map(|c| ConnStats {
            state: c.state,
            retransmitted_bytes: c.retransmitted_bytes,
            cwnd: c.cwnd,
            srtt: c.srtt,
        })
    }

    /// The remote socket address of a connection.
    pub fn peer(&self, h: TcpHandle) -> Option<SocketAddr> {
        self.conns.get(h.0).map(|c| c.remote)
    }

    /// The local socket address of a connection.
    pub fn local(&self, h: TcpHandle) -> Option<SocketAddr> {
        self.conns.get(h.0).map(|c| c.local)
    }

    /// Arms the connection's one timer, superseding whatever was armed:
    /// its key is the simulator's to give.
    fn arm(c: &mut Conn, idx: usize, after: SimDuration, kind: TcpTimerKind, fx: &mut Effects) {
        Self::disarm(c);
        fx.timers.push((after, TcpTimer { conn: idx, gen: c.timer_gen, kind }));
    }

    fn disarm(c: &mut Conn) {
        c.timer_gen += 1;
        c.timer = EventKey::NEVER;
    }

    fn arm_rto(c: &mut Conn, idx: usize, fx: &mut Effects) {
        c.rto_armed = true;
        Self::arm(c, idx, c.rto, TcpTimerKind::Rto, fx);
    }

    fn cancel_rto(c: &mut Conn) {
        c.rto_armed = false;
        Self::disarm(c);
    }

    /// Records the key the simulator gave a timer the last step armed,
    /// and says whether the event queue needs an entry for it: not if a
    /// later arm or a cancel in that step superseded it, nor if the
    /// connection's entry already comes due no later — that entry is
    /// queued again under this key when it pops ([`Self::timer_due`]).
    pub(crate) fn timer_queued(&mut self, timer: TcpTimer, key: EventKey) -> bool {
        let c = &mut self.conns[timer.conn];
        if c.timer_gen != timer.gen {
            return false;
        }
        c.timer = key;
        if c.queued <= key {
            return false;
        }
        c.queued = key;
        true
    }

    /// What the connection's queue entry, come due under `key`, stands
    /// for: the armed timer, or a timer armed for later (queue the entry
    /// again under its key), or nothing — the timer was cancelled, or an
    /// arm that came due earlier gave the connection a newer entry.
    pub(crate) fn timer_due(&mut self, conn: usize, key: EventKey) -> TimerDue {
        let c = &mut self.conns[conn];
        if c.queued != key {
            return TimerDue::Gone;
        }
        if c.timer == key {
            c.timer = EventKey::NEVER;
            c.queued = EventKey::NEVER;
            return TimerDue::Fire;
        }
        c.queued = c.timer;
        if c.timer == EventKey::NEVER {
            return TimerDue::Gone;
        }
        debug_assert!(c.timer > key, "an entry comes due no later than its timer");
        TimerDue::Later(c.timer)
    }

    /// Fires the connection's timer, which [`Self::timer_due`] said is due.
    pub(crate) fn fire_timer(&mut self, conn: usize, now: SimTime, fx: &mut Effects) {
        let c = &self.conns[conn];
        // The TIME_WAIT arm is the last arm a connection sees.
        let kind = if c.state == TcpState::TimeWait { TcpTimerKind::TimeWait } else { TcpTimerKind::Rto };
        let timer = TcpTimer { conn, gen: c.timer_gen, kind };
        self.on_timer(timer, now, fx);
    }

    /// Transmits whatever the congestion and peer windows allow, including a
    /// pending FIN once the buffer is drained.
    fn pump(&mut self, idx: usize, now: SimTime, fx: &mut Effects) {
        let c = &mut self.conns[idx];
        if !matches!(
            c.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::LastAck | TcpState::Closing
        ) {
            return;
        }
        let wnd = c.cwnd.min(c.snd_wnd as usize);
        let mut sent_any = false;
        while c.unsent() > 0 && c.flight() < wnd {
            let offset = c.flight();
            let n = c.unsent().min(MSS).min(wnd - c.flight());
            if n == 0 {
                break;
            }
            let payload = c.send_buf.range(offset, n);
            let seq = c.snd_nxt;
            if c.rtt_sample.is_none() {
                c.rtt_sample = NonZeroU64::new(seq + n as u64).map(|end| (end, now));
            }
            let pkt = Packet::tcp(
                c.local,
                c.remote,
                TcpSegmentBody {
                    seq,
                    ack: c.rcv_nxt,
                    flags: TcpFlags::ACK,
                    window: RECV_WINDOW,
                    payload,
                },
            );
            c.snd_nxt += n as u64;
            c.snd_max = c.snd_max.max(c.snd_nxt);
            fx.out.push(pkt);
            sent_any = true;
        }
        // FIN once all data is out.
        if c.fin_pending && c.unsent() == 0 && c.fin_seq.is_none() {
            let seq = c.snd_nxt;
            c.fin_seq = NonZeroU64::new(seq);
            c.snd_nxt += 1;
            c.snd_max = c.snd_max.max(c.snd_nxt);
            let pkt = Packet::tcp(
                c.local,
                c.remote,
                TcpSegmentBody {
                    seq,
                    ack: c.rcv_nxt,
                    flags: TcpFlags::FIN_ACK,
                    window: RECV_WINDOW,
                    payload: Bytes::new(),
                },
            );
            fx.out.push(pkt);
            sent_any = true;
        }
        if sent_any && !c.rto_armed {
            Self::arm_rto(c, idx, fx);
        }
    }

    /// Processes an incoming segment addressed to this node.
    pub fn on_segment(
        &mut self,
        src: crate::addr::Addr,
        dst: crate::addr::Addr,
        seg: TcpSegment,
        now: SimTime,
        fx: &mut Effects,
    ) {
        let remote = SocketAddr::new(src, seg.src_port);
        let local = SocketAddr::new(dst, seg.dst_port);
        if let Some(&idx) = self.demux.get(&(seg.dst_port, remote)) {
            self.on_conn_segment(idx, seg, now, fx);
            return;
        }
        // No existing connection: maybe a listener.
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&app) = self.listeners.get(&seg.dst_port) {
                let iss = self.next_iss;
                self.next_iss += 100_000;
                let idx = self.new_conn(app, local, remote, TcpState::SynRcvd, iss);
                let c = &mut self.conns[idx];
                c.rcv_nxt = seg.seq + 1;
                c.snd_nxt = iss + 1;
                c.snd_max = iss + 1;
                c.snd_wnd = seg.window;
                let synack = Packet::tcp(
                    local,
                    remote,
                    TcpSegmentBody {
                        seq: iss,
                        ack: c.rcv_nxt,
                        flags: TcpFlags::SYN_ACK,
                        window: RECV_WINDOW,
                        payload: Bytes::new(),
                    },
                );
                fx.out.push(synack);
                Self::arm_rto(c, idx, fx);
                return;
            }
        }
        // Closed port: RST anything but a RST.
        if !seg.flags.rst {
            let rst = Packet::tcp(
                local,
                remote,
                TcpSegmentBody {
                    seq: seg.ack,
                    ack: seg.seq + seg.payload.len() as u64 + (seg.flags.syn as u64) + (seg.flags.fin as u64),
                    flags: TcpFlags::RST,
                    window: 0,
                    payload: Bytes::new(),
                },
            );
            fx.out.push(rst);
        }
    }

    /// Every way into `Closed`: the slot stays (handles are indices), its
    /// timers go stale, and both buffers are dropped — unsent bytes and
    /// bytes the app never read alike — so a closed connection owns no
    /// heap memory.
    fn free(&mut self, idx: usize) {
        let c = &mut self.conns[idx];
        let key = (c.local.port, c.remote);
        c.state = TcpState::Closed;
        Self::disarm(c);
        c.send_buf.clear(&mut self.spare);
        c.recv_buf.clear(&mut self.spare);
        self.demux.remove(&key);
    }

    fn on_conn_segment(&mut self, idx: usize, seg: TcpSegment, now: SimTime, fx: &mut Effects) {
        let app = self.conns[idx].app;
        // RST: tear down immediately.
        if seg.flags.rst {
            let was = self.conns[idx].state;
            self.free(idx);
            let ev = if was == TcpState::SynSent {
                TcpEvent::ConnectFailed
            } else {
                TcpEvent::Reset
            };
            fx.app_events.push((app, AppEvent::Tcp(TcpHandle(idx), ev)));
            return;
        }

        let state = self.conns[idx].state;
        match state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.conns[idx].snd_nxt {
                    let c = &mut self.conns[idx];
                    c.snd_una = seg.ack;
                    c.rcv_nxt = seg.seq + 1;
                    c.snd_wnd = seg.window;
                    c.state = TcpState::Established;
                    c.retries = 0;
                    Self::cancel_rto(c);
                    // Handshake RTT sample: SYN was sent at connect time,
                    // but we didn't stamp it; skip (data segments sample).
                    let ack = Packet::tcp(
                        c.local,
                        c.remote,
                        TcpSegmentBody {
                            seq: c.snd_nxt,
                            ack: c.rcv_nxt,
                            flags: TcpFlags::ACK,
                            window: RECV_WINDOW,
                            payload: Bytes::new(),
                        },
                    );
                    fx.out.push(ack);
                    fx.app_events.push((app, AppEvent::Tcp(TcpHandle(idx), TcpEvent::Connected)));
                    self.pump(idx, now, fx);
                }
            }
            TcpState::SynRcvd => {
                if seg.flags.syn && !seg.flags.ack {
                    // Retransmitted SYN: re-send SYN-ACK.
                    let c = &self.conns[idx];
                    let synack = Packet::tcp(
                        c.local,
                        c.remote,
                        TcpSegmentBody {
                            seq: c.snd_una,
                            ack: c.rcv_nxt,
                            flags: TcpFlags::SYN_ACK,
                            window: RECV_WINDOW,
                            payload: Bytes::new(),
                        },
                    );
                    fx.out.push(synack);
                    return;
                }
                if seg.flags.ack && seg.ack == self.conns[idx].snd_nxt {
                    {
                        let c = &mut self.conns[idx];
                        c.snd_una = seg.ack;
                        c.snd_wnd = seg.window;
                        c.state = TcpState::Established;
                        c.retries = 0;
                        Self::cancel_rto(c);
                    }
                    let peer = self.conns[idx].remote;
                    fx.app_events.push((
                        app,
                        AppEvent::Tcp(TcpHandle(idx), TcpEvent::Accepted { peer }),
                    ));
                    // The third ACK can carry data; fall through to data
                    // processing below by re-dispatching.
                    if !seg.payload.is_empty() || seg.flags.fin {
                        self.process_established(idx, seg, now, fx);
                    }
                }
            }
            TcpState::Established
            | TcpState::FinWait1
            | TcpState::FinWait2
            | TcpState::CloseWait
            | TcpState::LastAck
            | TcpState::Closing => {
                self.process_established(idx, seg, now, fx);
            }
            TcpState::TimeWait => {
                if seg.flags.fin {
                    // Retransmitted FIN: re-ACK it.
                    let c = &self.conns[idx];
                    let ack = Packet::tcp(
                        c.local,
                        c.remote,
                        TcpSegmentBody {
                            seq: c.snd_nxt,
                            ack: c.rcv_nxt,
                            flags: TcpFlags::ACK,
                            window: RECV_WINDOW,
                            payload: Bytes::new(),
                        },
                    );
                    fx.out.push(ack);
                }
            }
            TcpState::Closed => {}
        }
    }

    fn process_established(&mut self, idx: usize, seg: TcpSegment, now: SimTime, fx: &mut Effects) {
        let app = self.conns[idx].app;
        let mut need_ack = false;

        // --- ACK processing ---
        if seg.flags.ack {
            let c = &mut self.conns[idx];
            c.snd_wnd = seg.window;
            // Upper bound for an acceptable ACK. After a go-back-N rewind
            // `snd_nxt` no longer tracks the highest byte ever sent, but a
            // peer may still ACK bytes it received before the rewind.
            // Bounding by `snd_nxt` here deadlocks the connection: the ACK
            // is ignored, and the sender retransmits an already-received
            // segment until its retries exhaust. `snd_max` survives
            // rewinds, so it admits exactly the ACKs a peer can produce
            // and rejects ACKs for bytes never transmitted.
            let max_ack = c.snd_max;
            if seg.ack > c.snd_una && seg.ack <= max_ack {
                let acked = (seg.ack - c.snd_una) as usize;
                // Our FIN consumes a sequence number that is not in send_buf.
                let fin_acked = c.fin_seq.is_some_and(|f| seg.ack > f.get());
                let data_acked = if fin_acked { acked.saturating_sub(1) } else { acked };
                let drain = data_acked.min(c.send_buf.len());
                c.send_buf.drain_front(drain, &mut self.spare);
                c.snd_una = seg.ack;
                // Keep `snd_nxt >= snd_una` (the ACK may outrun a rewound
                // `snd_nxt`; `flight()` must never underflow).
                c.snd_nxt = c.snd_nxt.max(seg.ack);
                c.dup_acks = 0;
                c.retries = 0;
                // RTT sampling (Karn: only segments never retransmitted —
                // approximated by sampling whenever an ACK advances and a
                // sample is armed).
                if let Some((end, sent_at)) = c.rtt_sample {
                    if seg.ack >= end.get() {
                        let sample = now - sent_at;
                        match c.srtt {
                            None => {
                                c.srtt = Some(sample);
                                c.rttvar = SimDuration::from_micros(sample.as_micros() / 2);
                            }
                            Some(srtt) => {
                                let err = if sample > srtt { sample - srtt } else { srtt - sample };
                                c.rttvar = SimDuration::from_micros(
                                    (3 * c.rttvar.as_micros() + err.as_micros()) / 4,
                                );
                                c.srtt = Some(SimDuration::from_micros(
                                    (7 * srtt.as_micros() + sample.as_micros()) / 8,
                                ));
                            }
                        }
                        let srtt = c.srtt.unwrap();
                        c.rto = (srtt + c.rttvar.saturating_mul(4)).clamp(MIN_RTO, MAX_RTO);
                        c.rtt_sample = None;
                    }
                }
                // Congestion control.
                if c.cwnd < c.ssthresh {
                    c.cwnd += data_acked.min(MSS); // slow start
                } else {
                    c.cwnd += (MSS * MSS / c.cwnd.max(1)).max(1); // congestion avoidance
                }
                // Restart or cancel the RTO.
                if c.snd_una < c.snd_nxt {
                    Self::arm_rto(c, idx, fx);
                } else {
                    Self::cancel_rto(c);
                }
                // State transitions on FIN acknowledgement.
                if fin_acked {
                    match c.state {
                        TcpState::FinWait1 => c.state = TcpState::FinWait2,
                        TcpState::LastAck => {
                            self.free(idx);
                            return;
                        }
                        TcpState::Closing => {
                            c.state = TcpState::TimeWait;
                            Self::arm(c, idx, TIME_WAIT, TcpTimerKind::TimeWait, fx);
                        }
                        _ => {}
                    }
                }
            } else if seg.ack == c.snd_una
                && c.snd_una < c.snd_nxt
                && seg.payload.is_empty()
                && !seg.flags.fin
            {
                c.dup_acks += 1;
                if c.dup_acks == 3 {
                    c.dup_acks = 0;
                    // Tahoe-style recovery: the receiver discards
                    // out-of-order segments, so go back to snd_una.
                    self.enter_loss_recovery(idx, now, fx);
                }
            }
        }

        // --- payload processing (in-order only; out-of-order dropped) ---
        let payload_len = seg.payload.len() as u64;
        if payload_len > 0 {
            let c = &mut self.conns[idx];
            if seg.seq == c.rcv_nxt {
                // The segment's payload is queued as it arrived: the same
                // allocation the sender's app handed to `send`.
                c.rcv_nxt += payload_len;
                c.recv_buf.push(seg.payload, &mut self.spare);
                need_ack = true;
                fx.app_events.push((app, AppEvent::Tcp(TcpHandle(idx), TcpEvent::DataReceived)));
            } else if seg.seq < c.rcv_nxt {
                // Duplicate (retransmission already received): just re-ACK.
                need_ack = true;
            } else {
                // Out of order: dup-ACK to trigger sender fast retransmit.
                need_ack = true;
            }
        }

        // --- FIN processing ---
        if seg.flags.fin {
            let c = &mut self.conns[idx];
            let fin_seq = seg.seq + payload_len;
            if fin_seq == c.rcv_nxt && !c.peer_fin_rcvd {
                c.rcv_nxt += 1;
                c.peer_fin_rcvd = true;
                need_ack = true;
                fx.app_events.push((app, AppEvent::Tcp(TcpHandle(idx), TcpEvent::PeerClosed)));
                match c.state {
                    TcpState::Established => c.state = TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        // Their FIN before our FIN was ACKed: simultaneous close.
                        c.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        c.state = TcpState::TimeWait;
                        Self::arm(c, idx, TIME_WAIT, TcpTimerKind::TimeWait, fx);
                    }
                    _ => {}
                }
            } else if c.peer_fin_rcvd {
                need_ack = true; // retransmitted FIN
            }
        }

        if need_ack {
            let c = &self.conns[idx];
            if c.state != TcpState::Closed {
                let ack = Packet::tcp(
                    c.local,
                    c.remote,
                    TcpSegmentBody {
                        seq: c.snd_nxt,
                        ack: c.rcv_nxt,
                        flags: TcpFlags::ACK,
                        window: RECV_WINDOW,
                        payload: Bytes::new(),
                    },
                );
                fx.out.push(ack);
            }
        }

        // New window space may allow more transmission.
        self.pump(idx, now, fx);
    }

    /// Loss detected: multiplicative decrease and go-back-N from `snd_una`
    /// (the receive side discards out-of-order segments, so everything past
    /// the loss must be re-sent anyway — Tahoe-style recovery).
    fn enter_loss_recovery(&mut self, idx: usize, now: SimTime, fx: &mut Effects) {
        let c = &mut self.conns[idx];
        if matches!(c.state, TcpState::SynSent | TcpState::SynRcvd) {
            self.retransmit_first(idx, fx);
            return;
        }
        let flight = c.flight();
        c.ssthresh = (flight / 2).max(2 * MSS);
        c.cwnd = MSS;
        // Rewind: everything unacknowledged will be re-sent by pump.
        c.snd_nxt = c.snd_una;
        if let Some(f) = c.fin_seq {
            if c.snd_una <= f.get() {
                c.fin_seq = None; // FIN unacked: pump re-sends it after data
            }
        }
        // Karn's algorithm: no RTT sample across retransmission.
        c.rtt_sample = None;
        let retx = c.send_buf.len().min(MSS) as u64;
        c.retransmitted_bytes += retx;
        let now_us = now.as_micros();
        sc_obs::event(now_us, sc_obs::Level::Debug, "simnet", "tcp", "loss_recovery", |f| {
            f.field("bytes", retx).field("local", c.local).field("remote", c.remote);
        });
        self.pump(idx, now, fx);
        let c = &mut self.conns[idx];
        if !c.rto_armed {
            Self::arm_rto(c, idx, fx);
        }
    }

    fn retransmit_first(&mut self, idx: usize, fx: &mut Effects) {
        let c = &mut self.conns[idx];
        match c.state {
            TcpState::SynSent => {
                let syn = Packet::tcp(
                    c.local,
                    c.remote,
                    TcpSegmentBody {
                        seq: c.snd_una,
                        ack: 0,
                        flags: TcpFlags::SYN,
                        window: RECV_WINDOW,
                        payload: Bytes::new(),
                    },
                );
                fx.out.push(syn);
                return;
            }
            TcpState::SynRcvd => {
                let synack = Packet::tcp(
                    c.local,
                    c.remote,
                    TcpSegmentBody {
                        seq: c.snd_una,
                        ack: c.rcv_nxt,
                        flags: TcpFlags::SYN_ACK,
                        window: RECV_WINDOW,
                        payload: Bytes::new(),
                    },
                );
                fx.out.push(synack);
                return;
            }
            _ => {}
        }
        // Data (or FIN) retransmission from snd_una.
        let data_len = c.send_buf.len();
        if data_len > 0 {
            let n = data_len.min(MSS);
            let payload = c.send_buf.range(0, n);
            c.retransmitted_bytes += n as u64;
            let pkt = Packet::tcp(
                c.local,
                c.remote,
                TcpSegmentBody {
                    seq: c.snd_una,
                    ack: c.rcv_nxt,
                    flags: TcpFlags::ACK,
                    window: RECV_WINDOW,
                    payload,
                },
            );
            fx.out.push(pkt);
        } else if let Some(fin_seq) = c.fin_seq.map(NonZeroU64::get) {
            if c.snd_una <= fin_seq {
                let pkt = Packet::tcp(
                    c.local,
                    c.remote,
                    TcpSegmentBody {
                        seq: fin_seq,
                        ack: c.rcv_nxt,
                        flags: TcpFlags::FIN_ACK,
                        window: RECV_WINDOW,
                        payload: Bytes::new(),
                    },
                );
                fx.out.push(pkt);
            }
        }
        // Karn's algorithm: invalidate the RTT sample after retransmission.
        c.rtt_sample = None;
    }

    /// Handles a TCP timer firing; a superseded one does nothing.
    fn on_timer(&mut self, t: TcpTimer, now: SimTime, fx: &mut Effects) {
        let Some(c) = self.conns.get_mut(t.conn) else { return };
        if c.timer_gen != t.gen {
            return; // stale
        }
        match t.kind {
            TcpTimerKind::TimeWait => {
                self.free(t.conn);
            }
            TcpTimerKind::Rto => {
                let app = c.app;
                let is_syn_phase = matches!(c.state, TcpState::SynSent | TcpState::SynRcvd);
                c.retries += 1;
                let max = if is_syn_phase { MAX_SYN_RETRIES } else { MAX_RETRIES };
                if u32::from(c.retries) > max {
                    let was = c.state;
                    self.free(t.conn);
                    let ev = if was == TcpState::SynSent {
                        TcpEvent::ConnectFailed
                    } else {
                        TcpEvent::Reset
                    };
                    fx.app_events.push((app, AppEvent::Tcp(TcpHandle(t.conn), ev)));
                    return;
                }
                // Exponential backoff + window collapse.
                c.rto = c.rto.saturating_mul(2).clamp(MIN_RTO, MAX_RTO);
                if is_syn_phase {
                    self.retransmit_first(t.conn, fx);
                } else {
                    self.enter_loss_recovery(t.conn, now, fx);
                }
                let c = &mut self.conns[t.conn];
                Self::arm_rto(c, t.conn, fx);
            }
        }
    }

    /// The generation of a connection's timer: an arm with an older one
    /// has been superseded.
    #[cfg(test)]
    pub(crate) fn timer_gen(&self, conn: usize) -> u32 {
        self.conns[conn].timer_gen
    }

    /// Approximate bytes of state held by this layer: every connection
    /// slot ever opened plus the payload bytes queued on the live ones.
    #[cfg(test)]
    pub fn state_bytes(&self) -> usize {
        self.conns
            .iter()
            .map(|c| std::mem::size_of::<Conn>() + c.send_buf.len() + c.recv_buf.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::packet::L4;
    use proptest::prelude::*;

    const A: Addr = Addr::new(10, 0, 0, 1);
    const B: Addr = Addr::new(10, 0, 0, 2);

    /// Byte `i` of the stream the sender's app writes.
    fn stream_byte(i: usize) -> u8 {
        (i.wrapping_mul(31) ^ (i >> 8)) as u8
    }

    /// Two TCP layers joined by a wire the test drives by hand, next to a
    /// plain-`Vec` model of the byte stream: `sent` is everything the
    /// sending app wrote, `delivered` everything the receiving app read.
    struct Harness {
        a: TcpLayer,
        b: TcpLayer,
        ha: TcpHandle,
        hb: TcpHandle,
        now: SimTime,
        to_b: VecDeque<Packet>,
        to_a: VecDeque<Packet>,
        rto: Option<(SimTime, TcpTimer)>,
        /// Sequence number of stream byte 0.
        base: u64,
        sent: Vec<u8>,
        delivered: Vec<u8>,
        /// Highest cumulative ACK the sender has processed, as a stream offset.
        acked: usize,
        /// Stream offset the sender transmits next (the model's `snd_nxt`).
        next: usize,
        /// What `ConnStats::retransmitted_bytes` must read.
        retransmitted: u64,
    }

    impl Harness {
        fn establish() -> Harness {
            let (mut a, mut b) = (TcpLayer::new(), TcpLayer::new());
            assert!(b.listen(80, AppId(0)));
            let mut fx = Effects::default();
            let ha = a.connect(AppId(0), A, SocketAddr::new(B, 80), &mut fx);
            let mut h = Harness {
                a,
                b,
                ha,
                hb: TcpHandle(0),
                now: SimTime::ZERO,
                to_b: VecDeque::new(),
                to_a: VecDeque::new(),
                rto: None,
                base: 0,
                sent: Vec::new(),
                delivered: Vec::new(),
                acked: 0,
                next: 0,
                retransmitted: 0,
            };
            h.base = match &fx.out[0].l4 {
                L4::Tcp(syn) => syn.seq + 1,
                other => panic!("expected a SYN, got {other:?}"),
            };
            h.sender_emitted(fx);
            h.deliver_to_b(usize::MAX);
            h.deliver_to_a(usize::MAX);
            h.deliver_to_b(usize::MAX);
            assert_eq!(h.a.stats(h.ha).unwrap().state, TcpState::Established);
            assert_eq!(h.b.stats(h.hb).unwrap().state, TcpState::Established);
            h
        }

        /// Takes what the sender emitted: every data segment must carry
        /// exactly the model's bytes at its sequence number.
        fn sender_emitted(&mut self, fx: Effects) {
            let mut recovering = false;
            for pkt in fx.out {
                if let L4::Tcp(seg) = &pkt.l4 {
                    if !seg.payload.is_empty() {
                        let start = (seg.seq - self.base) as usize;
                        let end = start + seg.payload.len();
                        assert_eq!(seg.payload.as_slice(), &self.sent[start..end], "wire bytes at {start}");
                        // Anything but the next byte in sequence is loss
                        // recovery rewinding to the first unacknowledged one.
                        if start != self.next {
                            assert_eq!(start, self.acked, "go-back-N restarts at snd_una");
                            recovering = true;
                        }
                        self.next = end;
                    }
                }
                self.to_b.push_back(pkt);
            }
            if recovering {
                self.retransmitted += (self.sent.len() - self.acked).min(MSS) as u64;
            }
            // The layer re-arms by superseding: the last timer is the live one.
            if let Some(&(after, timer)) = fx.timers.last() {
                self.rto = Some((self.now + after, timer));
            }
        }

        fn app_write(&mut self, n: usize) {
            self.app_write_chunks(&[n]);
        }

        /// One send of the stream's next bytes, cut into chunks of `lens`.
        fn app_write_chunks(&mut self, lens: &[usize]) {
            let mut chunks = Vec::new();
            for &n in lens {
                let start = self.sent.len();
                self.sent.extend((start..start + n).map(stream_byte));
                chunks.push(Bytes::copy_from_slice(&self.sent[start..]));
            }
            let mut fx = Effects::default();
            assert_eq!(self.a.send(self.ha, chunks, self.now, &mut fx), Some(lens.iter().sum()));
            self.sender_emitted(fx);
        }

        fn app_read(&mut self, max: usize) {
            let available = self.b.recv_available(self.hb);
            let got = self.b.recv(self.hb, max);
            assert_eq!(got.len(), available.min(max), "recv(max) drains min(available, max)");
            self.delivered.extend_from_slice(&got);
            assert_eq!(self.delivered, self.sent[..self.delivered.len()], "delivered stream");
        }

        fn deliver_to_b(&mut self, count: usize) {
            for _ in 0..count {
                let Some(pkt) = self.to_b.pop_front() else { break };
                let L4::Tcp(seg) = pkt.l4 else { unreachable!() };
                let mut fx = Effects::default();
                self.b.on_segment(pkt.src, pkt.dst, seg, self.now, &mut fx);
                for (_, ev) in &fx.app_events {
                    if let AppEvent::Tcp(h, TcpEvent::Accepted { .. }) = ev {
                        self.hb = *h;
                    }
                }
                self.to_a.extend(fx.out);
            }
        }

        fn deliver_to_a(&mut self, count: usize) {
            for _ in 0..count {
                let Some(pkt) = self.to_a.pop_front() else { break };
                let L4::Tcp(seg) = pkt.l4 else { unreachable!() };
                if seg.flags.ack && seg.ack >= self.base {
                    self.acked = self.acked.max((seg.ack - self.base) as usize);
                    self.next = self.next.max(self.acked);
                }
                let mut fx = Effects::default();
                self.a.on_segment(pkt.src, pkt.dst, seg, self.now, &mut fx);
                self.sender_emitted(fx);
            }
        }

        /// Lets the sender's retransmission timer fire, if one is live
        /// (and the connection would survive it: this is a buffer test).
        fn fire_rto(&mut self) {
            if u32::from(self.a.conns[self.ha.0].retries) >= MAX_RETRIES {
                return;
            }
            let Some((at, timer)) = self.rto.take() else { return };
            self.now = self.now.max(at);
            let mut fx = Effects::default();
            self.a.on_timer(timer, self.now, &mut fx);
            self.sender_emitted(fx);
        }

        fn check_stats(&self) {
            let a = self.a.stats(self.ha).unwrap();
            assert_eq!(a.state, TcpState::Established);
            assert_eq!(a.retransmitted_bytes, self.retransmitted, "retransmitted_bytes");
            assert!(a.cwnd >= MSS);
            assert_eq!(a.srtt.is_some(), self.acked > 0, "an RTT sample needs an ACK of data");
            assert_eq!(self.b.stats(self.hb).unwrap().state, TcpState::Established);
        }

        /// The sender's queued chunks, as `(stream offset, chunk)`.
        fn send_chunks(&self) -> Vec<(usize, Bytes)> {
            let mut end = self.acked;
            let chunks = self.a.conns[self.ha.0].send_buf.chunks.iter();
            chunks
                .map(|c| {
                    end += c.len();
                    (end - c.len(), c.clone())
                })
                .collect()
        }

        /// The data segment on the wire to B that starts at stream
        /// offset `start`, and whether its payload is a view of one of the
        /// sender's queued chunks rather than a copy.
        fn wire_segment(&self, start: usize) -> (Bytes, bool) {
            let seq = self.base + start as u64;
            let payloads = self.to_b.iter().filter_map(|pkt| match &pkt.l4 {
                L4::Tcp(seg) if seg.seq == seq && !seg.payload.is_empty() => Some(seg.payload.clone()),
                _ => None,
            });
            let payload = payloads.last().expect("a data segment at that offset");
            let shared = self.send_chunks().iter().any(|(at, chunk)| {
                (*at..at + chunk.len()).contains(&start) && payload.as_ptr() == chunk[start - at..].as_ptr()
            });
            (payload, shared)
        }

        /// The three places a chunk queue can be wrong where a ring could
        /// not, reached on purpose: an ACK that lands mid-chunk, a segment
        /// that spans chunk boundaries, and a retransmission that starts
        /// mid-chunk.
        fn open_across_chunk_boundaries(&mut self) {
            // One 14 000-byte chunk fills the initial window: ten segments,
            // each a view of it. Three small writes queue behind the window.
            self.app_write(INITIAL_CWND);
            assert_eq!(self.to_b.len(), 10);
            assert_eq!(self.wire_segment(5 * MSS), (Bytes::copy_from_slice(&self.sent[5 * MSS..6 * MSS]), true));
            for _ in 0..3 {
                self.app_write(500);
            }
            assert_eq!(self.to_b.len(), 10, "the window is full");
            // The first ACK lands 1 400 bytes into the big chunk and opens
            // the window by two segments: 500 + 500 + 400 bytes of three
            // chunks (a copy), then the last 100 (a view, mid-chunk).
            self.deliver_to_b(1);
            self.deliver_to_a(usize::MAX);
            let chunks = self.send_chunks();
            assert_eq!(chunks.iter().map(|(at, c)| (*at, c.len())).collect::<Vec<_>>(), [
                (MSS, INITIAL_CWND - MSS),
                (INITIAL_CWND, 500),
                (INITIAL_CWND + 500, 500),
                (INITIAL_CWND + 1000, 500),
            ]);
            let (spanning, shared) = self.wire_segment(INITIAL_CWND);
            assert_eq!((spanning.len(), shared), (MSS, false), "a segment over three chunks is copied");
            let (tail, shared) = self.wire_segment(INITIAL_CWND + MSS);
            assert_eq!((tail.len(), shared), (100, true), "a segment inside one chunk is a view");
            // Everything else in flight is lost; the timer goes back to
            // `snd_una`, 1 400 bytes into the allocation the app handed over.
            self.to_b.clear();
            self.fire_rto();
            let (again, shared) = self.wire_segment(MSS);
            assert_eq!((again.len(), shared), (MSS, true), "a retransmission is a view too");
            assert_eq!(self.to_b.len(), 1, "one segment: the window collapsed");
            // And a read that one segment answers is that segment's payload:
            // the receiving app holds the allocation the sending app made.
            self.app_read(usize::MAX);
            self.deliver_to_b(1);
            let read = self.b.recv(self.hb, usize::MAX);
            assert_eq!((read.len(), read.as_ptr()), (MSS, again.as_ptr()));
            self.delivered.extend_from_slice(&read);
        }
    }

    /// The zero-copy pin, on its own: a segment inside one chunk is a view
    /// of the sender's chunk, and a read one segment answers returns that
    /// allocation (the assertions are the opening's own).
    #[test]
    fn segments_and_reads_are_views_of_the_senders_chunk() {
        let mut h = Harness::establish();
        h.open_across_chunk_boundaries();
        h.check_stats();
    }

    /// What is sent as `[head, body]` is segmented as `head ++ body` sent
    /// whole is, wherever the cut between the two falls — a segment's
    /// edge, one byte either side of it, the edge of the window — from the
    /// first flight to the last ACK.
    #[test]
    fn chunks_of_one_send_are_segmented_as_their_concatenation() {
        let run = |lens: &[usize]| {
            let mut h = Harness::establish();
            h.app_write_chunks(lens);
            let mut wire = Vec::new();
            while !h.to_b.is_empty() {
                wire.extend(h.to_b.iter().cloned());
                h.deliver_to_b(usize::MAX);
                h.deliver_to_a(usize::MAX);
            }
            assert_eq!(h.acked, h.sent.len());
            wire
        };
        // Every cut of a stream a little over two segments long.
        let short = 2 * MSS + 700;
        let whole = run(&[short]);
        assert_eq!(whole.len(), 3);
        for cut in 0..=short {
            assert_eq!(run(&[cut, short - cut]), whole, "cut at {cut}");
        }
        // One that outlasts the initial window, cut where it matters.
        let long = INITIAL_CWND + 2 * MSS + 1;
        let whole = run(&[long]);
        for cut in [1, MSS - 1, MSS, MSS + 1, INITIAL_CWND - 1, INITIAL_CWND, INITIAL_CWND + 1, long - 1] {
            assert_eq!(run(&[cut, long - cut]), whole, "cut at {cut}");
            assert_eq!(run(&[cut / 2, cut - cut / 2, long - cut]), whole, "three chunks, cut at {cut}");
        }
    }

    /// Two layers on a lossless wire, run until nothing is in flight and
    /// no timer is live; `on_b` is B's app.
    fn settle(
        a: &mut TcpLayer,
        b: &mut TcpLayer,
        now: &mut SimTime,
        mut fx_a: Effects,
        on_b: &mut dyn FnMut(&mut TcpLayer, SimTime, &mut Effects, &AppEvent),
    ) {
        let mut fx_b = Effects::default();
        let mut timers: Vec<(bool, SimTime, TcpTimer)> = Vec::new();
        loop {
            timers.extend(fx_a.timers.drain(..).map(|(after, t)| (true, *now + after, t)));
            timers.extend(fx_b.timers.drain(..).map(|(after, t)| (false, *now + after, t)));
            for (_, ev) in std::mem::take(&mut fx_b.app_events) {
                on_b(b, *now, &mut fx_b, &ev);
            }
            fx_a.app_events.clear();
            let (to_b, to_a) = (std::mem::take(&mut fx_a.out), std::mem::take(&mut fx_b.out));
            if to_a.is_empty() && to_b.is_empty() {
                // Quiet: let the earliest timer fire (a stale one does nothing).
                timers.sort_by_key(|&(_, at, _)| std::cmp::Reverse(at));
                let Some((on_a, at, timer)) = timers.pop() else { return };
                *now = (*now).max(at);
                let (layer, fx) = if on_a { (&mut *a, &mut fx_a) } else { (&mut *b, &mut fx_b) };
                layer.on_timer(timer, *now, fx);
                continue;
            }
            for pkt in to_b {
                let L4::Tcp(seg) = pkt.l4 else { unreachable!() };
                b.on_segment(pkt.src, pkt.dst, seg, *now, &mut fx_b);
            }
            for pkt in to_a {
                let L4::Tcp(seg) = pkt.l4 else { unreachable!() };
                a.on_segment(pkt.src, pkt.dst, seg, *now, &mut fx_a);
            }
        }
    }

    /// What a connection leaves behind is its slot: 200 connections each
    /// carry 64 KB, half are closed by FIN with everything read and half
    /// by RST with most of it unread, and afterwards neither layer holds
    /// a payload byte or a buffer's capacity.
    #[test]
    fn closed_connections_hold_no_buffer_memory() {
        const CONNS: usize = 200;
        const BYTES: usize = 64 * 1024;
        let (mut a, mut b) = (TcpLayer::new(), TcpLayer::new());
        assert!(b.listen(80, AppId(0)));
        let mut now = SimTime::ZERO;
        let page = Bytes::from((0..BYTES).map(stream_byte).collect::<Vec<u8>>());
        for i in 0..CONNS {
            let graceful = i % 2 == 0;
            let mut fx = Effects::default();
            let ha = a.connect(AppId(0), A, SocketAddr::new(B, 80), &mut fx);
            assert_eq!(a.send(ha, [page.clone()], now, &mut fx), Some(BYTES), "queued until the handshake ends");
            let mut hb = None;
            settle(&mut a, &mut b, &mut now, fx, &mut |_, _, _, ev| {
                if let AppEvent::Tcp(h, TcpEvent::Accepted { .. }) = ev {
                    hb = Some(*h);
                }
            });
            let hb = hb.expect("accepted");
            assert_eq!(b.recv_available(hb), BYTES);
            let read = b.recv(hb, if graceful { usize::MAX } else { 1000 });
            assert_eq!(read.as_slice(), &page[..read.len()]);
            assert_eq!(b.recv_available(hb), BYTES - read.len());

            let mut fx = Effects::default();
            if graceful {
                a.close(ha, now, &mut fx);
            } else {
                a.abort(ha, &mut fx);
            }
            settle(&mut a, &mut b, &mut now, fx, &mut |b, now, fx, ev| {
                if let AppEvent::Tcp(h, TcpEvent::PeerClosed) = ev {
                    b.close(*h, now, fx);
                }
            });
            assert_eq!(a.stats(ha).unwrap().state, TcpState::Closed);
            assert_eq!(b.stats(hb).unwrap().state, TcpState::Closed);
        }
        for layer in [&a, &b] {
            assert_eq!(layer.conns.len(), CONNS);
            assert_eq!(layer.state_bytes(), CONNS * std::mem::size_of::<Conn>());
            for c in &layer.conns {
                assert_eq!((c.send_buf.chunks.capacity(), c.recv_buf.chunks.capacity()), (0, 0));
            }
            // One connection at a time held bytes, so the same deque or
            // two were lent to all of them in turn.
            assert!((1..=2).contains(&layer.spare.len()), "{} spare deques", layer.spare.len());
        }
    }

    /// A queue that empties gives its slots back, and the next queue to
    /// take a chunk — another connection's — starts with them instead of
    /// allocating its own.
    #[test]
    fn a_drained_queues_slots_are_lent_to_the_next_queue() {
        let mut spare = SpareSlots::new();
        let (mut first, mut second) = (ChunkQueue::default(), ChunkQueue::default());
        for n in 1..=5u8 {
            first.push(Bytes::from(vec![n; 100]), &mut spare);
        }
        let slots = first.chunks.capacity();
        assert!(slots >= 5 && spare.is_empty());
        assert_eq!(first.take(250, &mut spare).len(), 250);
        assert!(spare.is_empty(), "still holding bytes");
        first.drain_front(usize::MAX, &mut spare);
        assert_eq!((first.chunks.capacity(), spare.len()), (0, 1), "empty: owns no heap memory");
        second.push(Bytes::from_static(b"next connection"), &mut spare);
        assert_eq!((second.chunks.capacity(), spare.len()), (slots, 0), "no allocation of its own");
        second.clear(&mut spare);
        assert_eq!((second.chunks.capacity(), spare.len(), second.len()), (0, 1, 0));
    }

    proptest! {
        /// `ChunkQueue` against a `Vec<u8>`: arbitrary chunk sizes pushed,
        /// arbitrary ranges copied or viewed, arbitrary prefixes dropped and
        /// taken — the contents, the length and the cursor's bookkeeping
        /// are the model's after every step.
        #[test]
        fn chunk_queue_matches_a_vec_model(
            ops in prop::collection::vec((0u8..10, 0usize..4000, 0usize..4000), 1..120),
        ) {
            // Two queues over one spare list, as a layer's connections are.
            let mut spare = SpareSlots::new();
            let mut queues = [ChunkQueue::default(), ChunkQueue::default()];
            let mut models: [Vec<u8>; 2] = Default::default();
            let mut pushed = [0; 2];
            for (op, a, b) in ops {
                let which = usize::from(op / 5);
                let (q, model) = (&mut queues[which], &mut models[which]);
                match op % 5 {
                    0 | 1 => {
                        // Small chunks as often as large: Tor cells, TLS records.
                        let n = if op % 5 == 0 { a % 40 } else { a };
                        let chunk: Vec<u8> = (pushed[which]..pushed[which] + n).map(stream_byte).collect();
                        pushed[which] += n;
                        model.extend_from_slice(&chunk);
                        q.push(Bytes::from(chunk), &mut spare);
                    }
                    2 => {
                        let start = a % (model.len() + 1);
                        let len = b % (model.len() - start + 1);
                        let got = q.range(start, len);
                        prop_assert_eq!(got.as_slice(), &model[start..start + len]);
                        let inside_one = q.chunks.iter().any(|c| {
                            let (lo, hi) = (c.as_ptr() as usize, c.as_ptr() as usize + c.len());
                            len > 0 && (lo..hi).contains(&(got.as_ptr() as usize))
                        });
                        let (idx, at) = (q.cursor.0 as usize, q.cursor.1 as usize);
                        let fits = len > 0 && start + len <= at + q.chunks[idx].len();
                        prop_assert_eq!(inside_one, fits, "a range inside one chunk is a view, any other a copy");
                    }
                    3 => {
                        q.drain_front(a % (model.len() + 10), &mut spare);
                        model.drain(..(a % (model.len() + 10)).min(model.len()));
                    }
                    _ => {
                        let n = (a % (model.len() + 10)).min(model.len());
                        let got = q.take(a % (model.len() + 10), &mut spare);
                        prop_assert_eq!(got.as_slice(), &model[..n]);
                        model.drain(..n);
                    }
                }
                for (q, model) in queues.iter().zip(&models) {
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert!(q.chunks.iter().all(|c| !c.is_empty()), "no empty chunk is kept");
                    prop_assert_eq!(q.chunks.iter().map(Bytes::len).sum::<usize>(), model.len());
                    let (idx, at) = (q.cursor.0 as usize, q.cursor.1 as usize);
                    prop_assert_eq!(q.chunks.iter().take(idx).map(Bytes::len).sum::<usize>(), at, "cursor");
                    prop_assert!(idx == 0 || idx < q.chunks.len());
                    prop_assert!(q.len() > 0 || q.chunks.capacity() == 0, "an empty queue has lent its slots back");
                }
                prop_assert!(spare.iter().all(|slots| slots.is_empty() && slots.capacity() > 0));
                prop_assert!(spare.len() <= 2, "no slots made beyond the two queues'");
            }
            for (q, model) in queues.iter_mut().zip(&models) {
                let all = q.take(usize::MAX, &mut spare);
                prop_assert_eq!(all.as_slice(), &model[..]);
                prop_assert_eq!((q.len(), q.cursor, q.chunks.capacity()), (0, (0, 0), 0));
            }
        }

        /// `send`, ACK-driven drain, loss and RTO retransmission, in-order
        /// receive and partial `recv(max)`: whatever the interleaving, the
        /// wire carries the model's bytes, the receiving app reads the
        /// model's stream, and the connection statistics are the model's.
        #[test]
        fn byte_stream_and_stats_match_a_vec_model(
            ops in prop::collection::vec((0u8..7, 1usize..5000), 1..60),
        ) {
            let mut h = Harness::establish();
            h.open_across_chunk_boundaries();
            h.check_stats();

            for (op, n) in ops {
                match op {
                    0 | 1 => h.app_write(n),
                    2 => h.deliver_to_b(1 + n % 8),
                    3 => h.deliver_to_a(1 + n % 8),
                    4 => h.app_read(n),
                    5 => {
                        h.to_b.pop_front(); // lost on the way
                    }
                    _ => h.fire_rto(),
                }
                h.now += SimDuration::from_millis(1 + n as u64 % 50);
                h.check_stats();
            }

            // Drain: a lossless wire and a patient timer deliver the rest.
            for _ in 0..10_000 {
                if h.to_b.is_empty() && h.to_a.is_empty() {
                    if h.acked == h.sent.len() {
                        break;
                    }
                    h.fire_rto();
                }
                h.deliver_to_b(usize::MAX);
                h.deliver_to_a(usize::MAX);
                h.app_read(usize::MAX);
                h.now += SimDuration::from_millis(1);
            }
            h.app_read(usize::MAX);
            h.check_stats();
            prop_assert_eq!(h.delivered.len(), h.sent.len());
            prop_assert_eq!(h.acked, h.sent.len());
        }
    }
}
