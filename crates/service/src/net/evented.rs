//! The readiness-driven front-end: one event-loop thread, a fixed worker
//! pool, pipelined write-backs.
//!
//! ## Shape
//!
//! ```text
//!            ┌──────────────────────────────┐   Job (frame)   ┌──────────┐
//!  sockets ──► event loop (epoll wait)      ├────────────────►│ worker 0 │──┐
//!            │  accept / read / frame /     │  sticky mpsc    ├──────────┤  │ Done
//!            │  flush coalesced write-backs │◄────────────────┤ worker N │◄─┘ + wake
//!            └──────────────────────────────┘   completions   └──────────┘
//! ```
//!
//! A single loop thread owns **all** connection state: the per-connection
//! [`LineReader`] buffer and a coalesced write-back buffer with partial-
//! write resumption. Decoded frames are dispatched to a small fixed pool
//! of worker threads over `mpsc` channels, so sketch `apply` work — which
//! takes the shared core lock and runs on the worker that holds it — never
//! blocks the loop. `seq` stays assigned under the existing core lock inside
//! [`super::server::handle_frame`], so acknowledged order and the
//! byte-identical differential replay are unchanged.
//!
//! ## Ordering
//!
//! Replies on one connection must come back in request order (the wire
//! contract). Every frame of a connection — including protocol errors,
//! which are produced by the decode step — is dispatched to the *same*
//! worker (`token % pool`), and both the job channel and the worker itself
//! are FIFO, so per-connection order is structural. Cross-connection
//! order is whatever the core lock hands out, which is exactly the `seq`
//! contract.
//!
//! ## Pipelined write-backs
//!
//! Completed responses are appended to the connection's `out` buffer and
//! flushed once per readiness cycle — many pipelined responses coalesce
//! into one `write` syscall. A `WouldBlock` mid-buffer parks the
//! connection on `EPOLLOUT` and the flush resumes from the exact byte
//! offset on the next writable event, so a stalled slow reader costs a
//! parked buffer, never a blocked thread.
//!
//! ## Backpressure
//!
//! A connection that pipelines faster than the service applies (or reads
//! slower than it asks) is *paused* — its read interest is dropped once
//! too many frames are in flight or too many response bytes are queued —
//! and resumed when the backlog drains. Bytes already buffered in its
//! `LineReader` are re-scanned on resume, so pausing never loses frames.

use super::poll::{raw_fd, Interest, Poller, Waker};
use super::proto::{encode_line, Line, LineReader};
use super::server::{
    accept_resource_exhausted, busy_line, handle_frame, oversized_response, ApplyService, Shared,
};
use crate::error::ServiceError;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The listener's registration token (connections count up from 0).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Backoff before re-arming a listener parked by fd/buffer exhaustion
/// (a connection close re-arms it sooner — that is the moment an fd
/// actually frees).
const LISTENER_REARM: Duration = Duration::from_millis(50);

/// Pause reading a connection once this many frames are in flight…
const MAX_INFLIGHT_JOBS: usize = 64;
/// …or this many request bytes are queued at its worker…
const MAX_INFLIGHT_BYTES: usize = 8 << 20;
/// …or this many response bytes are waiting in its write-back buffer.
const OUT_HIGH_WATER: usize = 4 << 20;
/// Resume reading once the backlog drains below these.
const OUT_LOW_WATER: usize = 1 << 20;

/// One decoded line travelling to a worker.
struct Job {
    conn: u64,
    line: Line,
}

/// One encoded response line travelling back.
struct Done {
    conn: u64,
    /// Size of the request line this answers (in-flight byte accounting).
    request_bytes: usize,
    bytes: Vec<u8>,
}

/// Per-connection state, owned exclusively by the loop thread.
struct Conn {
    /// The connection's one descriptor: reads go through the reader,
    /// writes and poller registration through `reader.get_ref()`.
    reader: LineReader<TcpStream>,
    /// Coalesced write-back buffer; `cursor` is the partial-write resume
    /// offset (bytes before it are already on the wire).
    out: Vec<u8>,
    cursor: usize,
    /// Frames dispatched to the worker and not yet answered.
    inflight_jobs: usize,
    inflight_bytes: usize,
    /// Peer half-closed (EOF read); close once everything is answered.
    read_closed: bool,
    /// Last write hit `WouldBlock`; parked on a writable event.
    blocked: bool,
    /// Read interest dropped by backpressure.
    paused: bool,
    /// Fatal error observed; remove at the next settle pass.
    dead: bool,
    /// Already queued in the dirty list this cycle.
    queued_dirty: bool,
    /// Sticky worker index (per-connection FIFO).
    worker: usize,
    /// Interest currently registered with the poller.
    registered: Interest,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out.len() - self.cursor
    }

    fn over_high_water(&self) -> bool {
        self.inflight_jobs >= MAX_INFLIGHT_JOBS
            || self.inflight_bytes >= MAX_INFLIGHT_BYTES
            || self.backlog() >= OUT_HIGH_WATER
    }

    fn under_low_water(&self) -> bool {
        self.inflight_jobs < MAX_INFLIGHT_JOBS / 2
            && self.inflight_bytes < MAX_INFLIGHT_BYTES / 2
            && self.backlog() < OUT_LOW_WATER
    }

    /// The interest this connection's state wants registered.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.read_closed && !self.paused,
            writable: self.blocked,
        }
    }
}

/// Spawns the worker pool and the event-loop thread. Returns the loop's
/// join handle and the waker the server handle uses for shutdown.
pub(super) fn spawn<S: ApplyService>(
    listener: TcpListener,
    shared: Arc<Shared<S>>,
) -> Result<(JoinHandle<()>, Waker), ServiceError> {
    let (mut poller, waker) =
        Poller::new().map_err(|e| ServiceError::Storage(format!("readiness poller setup: {e}")))?;
    poller
        .register(
            raw_fd(&listener),
            LISTENER_TOKEN,
            Interest {
                readable: true,
                writable: false,
            },
        )
        .map_err(|e| ServiceError::Storage(format!("register listener: {e}")))?;

    // More pool threads than cores only adds switching.
    let pool = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let mut jobs = Vec::with_capacity(pool);
    let mut workers = Vec::with_capacity(pool);
    for i in 0..pool {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let worker_shared = Arc::clone(&shared);
        let worker_done = done_tx.clone();
        let worker_waker = waker.clone();
        let handle = std::thread::Builder::new()
            .name(format!("mcf0-net-worker-{i}"))
            .spawn(move || run_worker(job_rx, worker_shared, worker_done, worker_waker))
            .map_err(|e| ServiceError::Storage(format!("spawn net worker {i}: {e}")))?;
        jobs.push(job_tx);
        workers.push(handle);
    }
    drop(done_tx);

    let loop_waker = waker.clone();
    let thread = std::thread::Builder::new()
        .name("mcf0-net-loop".to_string())
        .spawn(move || {
            EventLoop {
                shared,
                listener,
                poller,
                conns: HashMap::new(),
                next_token: 0,
                jobs,
                done_rx,
                workers,
                dirty: Vec::new(),
                listener_armed: true,
                listener_dead: false,
                fd_freed: false,
                parked_at: None,
            }
            .run()
        })
        .map_err(|e| ServiceError::Storage(format!("spawn event loop: {e}")))?;
    Ok((thread, loop_waker))
}

/// A pool worker: frames in, encoded response lines out. Protocol errors
/// (oversized, undecodable) are produced here too so they share the
/// connection's FIFO with real commands.
fn run_worker<S: ApplyService>(
    jobs: mpsc::Receiver<Job>,
    shared: Arc<Shared<S>>,
    done: mpsc::Sender<Done>,
    waker: Waker,
) {
    let answer = |job: Job| -> Result<(), mpsc::SendError<Done>> {
        let (response, request_bytes) = match &job.line {
            Line::Oversized => (oversized_response(), 0),
            Line::Frame(bytes) => (handle_frame(bytes, &shared), bytes.len()),
        };
        done.send(Done {
            conn: job.conn,
            request_bytes,
            bytes: encode_line(&response).into_bytes(),
        })
    };
    while let Ok(job) = jobs.recv() {
        if answer(job).is_err() {
            // The loop is gone (shutdown): nothing left to answer to.
            return;
        }
        // Drain the burst before waking the loop once: pipelined traffic
        // costs one wake per batch, not one syscall per response.
        while let Ok(job) = jobs.try_recv() {
            if answer(job).is_err() {
                return;
            }
        }
        waker.wake();
    }
}

struct EventLoop<S: ApplyService> {
    shared: Arc<Shared<S>>,
    listener: TcpListener,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    jobs: Vec<mpsc::Sender<Job>>,
    done_rx: mpsc::Receiver<Done>,
    workers: Vec<JoinHandle<()>>,
    /// Connections touched this cycle, settled (flush/interest/close) once
    /// at the end of the cycle.
    dirty: Vec<u64>,
    /// Listener read interest is currently registered with the poller.
    /// Cleared ("parked") when `accept` hits fd/buffer exhaustion —
    /// leaving it armed with a connection still pending would make every
    /// level-triggered wait return instantly, a 100%-CPU spin.
    listener_armed: bool,
    /// Listener hit an unrecoverable error (`EBADF`/`EINVAL`-class);
    /// never re-armed, established connections keep being served.
    listener_dead: bool,
    /// A connection closed since the listener was parked (an fd freed),
    /// so re-arming may be attempted before the backoff elapses.
    fd_freed: bool,
    /// When the listener was parked (backoff anchor for re-arming).
    parked_at: Option<Instant>,
}

impl<S: ApplyService> EventLoop<S> {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            // While the listener is parked on fd exhaustion, bound the
            // wait so re-arming is retried even with no other traffic.
            let timeout = if !self.listener_armed && !self.listener_dead {
                Some(LISTENER_REARM.as_millis() as i32)
            } else {
                None
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            for event in &events {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&event.token) else {
                    continue;
                };
                if event.error {
                    conn.dead = true;
                    Self::mark_dirty(&mut self.dirty, event.token, conn);
                    continue;
                }
                if event.writable {
                    conn.blocked = false;
                    Self::mark_dirty(&mut self.dirty, event.token, conn);
                }
                if event.readable {
                    self.read_frames(event.token);
                }
            }
            self.drain_completions();
            self.settle_dirty();
            self.maybe_rearm_listener();
        }
        // Shutdown: close every socket, retire the pool, join it.
        for (_, conn) in self.conns.drain() {
            let _ = self.poller.deregister(raw_fd(conn.reader.get_ref()));
        }
        self.jobs.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn mark_dirty(dirty: &mut Vec<u64>, token: u64, conn: &mut Conn) {
        if !conn.queued_dirty {
            conn.queued_dirty = true;
            dirty.push(token);
        }
    }

    /// Accepts until `WouldBlock`; over-cap peers get one best-effort
    /// `server_busy` line (non-blocking — a zero-window peer cannot stall
    /// the loop) and are closed.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.shared.config.max_connections {
                        refuse_nonblocking(stream);
                        continue;
                    }
                    // Accepted sockets do not inherit the listener's
                    // non-blocking flag.
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Write-backs are already coalesced per readiness
                    // cycle; Nagle would only add latency on top.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    let interest = Interest {
                        readable: true,
                        writable: false,
                    };
                    if self
                        .poller
                        .register(raw_fd(&stream), token, interest)
                        .is_err()
                    {
                        continue;
                    }
                    self.next_token += 1;
                    self.conns.insert(
                        token,
                        Conn {
                            reader: LineReader::new(stream),
                            out: Vec::new(),
                            cursor: 0,
                            inflight_jobs: 0,
                            inflight_bytes: 0,
                            read_closed: false,
                            blocked: false,
                            paused: false,
                            dead: false,
                            queued_dirty: false,
                            worker: (token % self.jobs.len() as u64) as usize,
                            registered: interest,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::ConnectionReset
                    ) =>
                {
                    continue;
                }
                // Out of fds or buffers (EMFILE/ENFILE/ENOBUFS/ENOMEM):
                // the pending connection stays queued, so the listener
                // must be parked — left registered, the level-triggered
                // wait would return instantly every cycle and the loop
                // would busy-spin at 100% CPU until fds free. Re-armed
                // when a connection close frees an fd or the backoff
                // elapses.
                Err(e) if accept_resource_exhausted(&e) => {
                    self.park_listener();
                    break;
                }
                // Unrecoverable listener error (EBADF/EINVAL-class):
                // stop accepting for good; established connections keep
                // being served.
                Err(_) => {
                    self.listener_dead = true;
                    let _ = self.poller.deregister(raw_fd(&self.listener));
                    break;
                }
            }
        }
    }

    /// Drops the listener's registration after an fd-exhaustion accept
    /// failure; [`Self::maybe_rearm_listener`] restores it.
    fn park_listener(&mut self) {
        let _ = self.poller.deregister(raw_fd(&self.listener));
        self.listener_armed = false;
        self.fd_freed = false;
        self.parked_at = Some(Instant::now());
    }

    /// Re-registers a parked listener once a connection close has freed an
    /// fd or the backoff elapsed. Under level-triggered readiness the
    /// still-pending connection fires on the next wait; if fds are still
    /// exhausted, that accept parks the listener again — a bounded retry
    /// every [`LISTENER_REARM`], never a spin.
    fn maybe_rearm_listener(&mut self) {
        if self.listener_armed || self.listener_dead {
            return;
        }
        let due = self.fd_freed
            || self
                .parked_at
                .is_none_or(|parked| parked.elapsed() >= LISTENER_REARM);
        if !due {
            return;
        }
        let interest = Interest {
            readable: true,
            writable: false,
        };
        self.fd_freed = false;
        if self
            .poller
            .register(raw_fd(&self.listener), LISTENER_TOKEN, interest)
            .is_ok()
        {
            self.listener_armed = true;
            self.parked_at = None;
        } else {
            // Registration itself failed (likely the same exhaustion):
            // retry at the next backoff tick.
            self.parked_at = Some(Instant::now());
        }
    }

    /// Drains complete lines out of the connection's buffer and socket,
    /// dispatching each to the sticky worker, until `WouldBlock`, EOF,
    /// or a backpressure pause.
    fn read_frames(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            match conn.reader.next_line() {
                Ok(Some(Line::Frame(bytes))) if bytes.is_empty() => {
                    // Blank keep-alive lines are ignored, not answered.
                    continue;
                }
                Ok(Some(line)) => {
                    let request_bytes = match &line {
                        Line::Frame(bytes) => bytes.len(),
                        Line::Oversized => 0,
                    };
                    if self.jobs[conn.worker]
                        .send(Job { conn: token, line })
                        .is_err()
                    {
                        // The worker died (a panic tore through a frame):
                        // this connection can no longer be answered in
                        // order. Fail it rather than reorder it.
                        conn.dead = true;
                        break;
                    }
                    conn.inflight_jobs += 1;
                    conn.inflight_bytes += request_bytes;
                    if conn.over_high_water() {
                        conn.paused = true;
                        break;
                    }
                }
                Ok(None) => {
                    // EOF: a torn trailing line was dropped silently by the
                    // reader; answer what was dispatched, then close.
                    conn.read_closed = true;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        Self::mark_dirty(&mut self.dirty, token, conn);
    }

    /// Collects finished responses from the pool into the write-back
    /// buffers (one append per response; flushed coalesced in the settle
    /// pass).
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            let Some(conn) = self.conns.get_mut(&done.conn) else {
                // The connection died while its command was in flight; the
                // command itself was (correctly) applied — only the reply
                // has nowhere to go.
                continue;
            };
            conn.inflight_jobs -= 1;
            conn.inflight_bytes -= done.request_bytes;
            conn.out.extend_from_slice(&done.bytes);
            Self::mark_dirty(&mut self.dirty, done.conn, conn);
        }
    }

    /// Once per cycle, for every touched connection: flush the coalesced
    /// write-back buffer, re-evaluate backpressure, sync poller interest,
    /// and reap finished/dead connections.
    fn settle_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for token in dirty {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.queued_dirty = false;
            if !conn.dead {
                flush(conn);
            }
            if conn.dead {
                self.remove(token);
                continue;
            }
            let conn = match self.conns.get_mut(&token) {
                Some(conn) => conn,
                None => continue,
            };
            if conn.paused && conn.under_low_water() {
                conn.paused = false;
                // Frames may already be buffered in the LineReader; no
                // readiness event will re-announce them, so re-scan now.
                self.read_frames(token);
                // read_frames may re-queue the token; drop the duplicate
                // flag so the next cycle settles it again.
                if let Some(conn) = self.conns.get_mut(&token) {
                    if conn.dead {
                        self.remove(token);
                        continue;
                    }
                    conn.queued_dirty = false;
                }
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.read_closed && conn.inflight_jobs == 0 && conn.backlog() == 0 {
                // Everything asked has been answered and flushed.
                self.remove(token);
                continue;
            }
            let desired = conn.desired_interest();
            if desired != conn.registered {
                if self
                    .poller
                    .modify(raw_fd(conn.reader.get_ref()), token, desired)
                    .is_err()
                {
                    self.remove(token);
                    continue;
                }
                conn.registered = desired;
            }
        }
    }

    fn remove(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(raw_fd(conn.reader.get_ref()));
            // A closing connection frees fds — the signal a parked
            // listener is waiting on.
            self.fd_freed = true;
        }
    }
}

/// Writes as much of the backlog as the socket accepts right now: the
/// coalesced, `WouldBlock`-aware flush. Partial writes leave `cursor` at
/// the exact resume offset.
fn flush(conn: &mut Conn) {
    loop {
        if conn.cursor == conn.out.len() {
            conn.out.clear();
            conn.cursor = 0;
            conn.blocked = false;
            return;
        }
        match conn.reader.get_ref().write(&conn.out[conn.cursor..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.cursor += n;
                // Keep the resume offset from pinning a large flushed
                // prefix in memory.
                if conn.cursor >= 1 << 16 {
                    conn.out.drain(..conn.cursor);
                    conn.cursor = 0;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                conn.blocked = true;
                return;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// One best-effort non-blocking `server_busy` line, then close.
fn refuse_nonblocking(stream: TcpStream) {
    let mut stream = stream;
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.write(busy_line().as_bytes());
}
