//! Readiness-driven TCP transport: one I/O thread multiplexes every
//! connection through `epoll`, in front of the worker pool in
//! [`crate::server`], so thousands of mostly-idle monitoring sessions
//! cost no threads of their own:
//!
//! - **One I/O thread** owns the listener, every connection socket,
//!   and the epoll instance. Nothing else touches a socket.
//! - **Non-blocking sockets, edge-triggered wakeups.** Each readiness
//!   edge drains the socket to `WouldBlock` (reads) or empties the
//!   write buffer (writes), the invariant edge-triggering requires.
//! - **Per-connection buffers.** Bytes accumulate in a
//!   [`LineFramer`] until a full NDJSON line is framed; responses queue
//!   in arrival order (FIFO per connection) and flush as the socket
//!   accepts them.
//! - **Workers never touch sockets.** Framed lines become [`Job`]s on
//!   the shared queue; workers execute them and deposit the response
//!   into the connection's reply slot, then wake the I/O thread over a
//!   socketpair (the classic self-pipe pattern — `epoll_wait` cannot
//!   watch a condvar).
//!
//! Robustness: the connection cap and queue overflow answer
//! `overloaded`, oversized lines answer `request_too_large` without
//! killing the connection, a final line without its newline is still
//! answered when the client half-closes, idle connections are reaped
//! after `read_timeout`, a client that stops draining responses is
//! disconnected once its write buffer passes a bound, and shutdown
//! stops reading, flushes what it can inside `drain_deadline`, and
//! exits.
//!
//! The container has no crates.io access, so the four syscalls epoll
//! needs are declared by hand below — the only unsafe code in the
//! crate, confined to the [`sys`] module and wrapped in a safe,
//! RAII-closed [`Epoll`] handle.
#![allow(unsafe_code)]

use crate::lock_unpoisoned;
use crate::protocol::{self, ErrorCode, WireError};
use crate::server::{too_large_line, Frame, Job, LineFramer, Shared};
use crate::stats::RobustnessEvent;
use crate::trace::TraceBuilder;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Raw epoll bindings. The kernel ABI here is decades-stable; the
/// wrappers below keep every invariant (valid fd, sized event buffer)
/// in one place so callers never see a raw pointer.
mod sys {
    use std::os::raw::c_int;

    /// `struct epoll_event`; packed on x86-64, matching the kernel ABI.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Safe owner of one epoll instance; closed on drop.
struct Epoll {
    fd: std::os::raw::c_int,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers cross the boundary; a negative return is
        // turned into the errno it stands for.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    /// Registers `fd` for `events`, tagging wakeups with `token`.
    fn add(&self, fd: std::os::raw::c_int, token: u64, events: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { sys::epoll_ctl(self.fd, sys::EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Deregisters `fd`; harmless if the kernel already dropped it.
    fn del(&self, fd: std::os::raw::c_int) {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`; failure (fd already gone) is benign.
        let _ = unsafe { sys::epoll_ctl(self.fd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Blocks up to `timeout_ms` for readiness; fills `buf` and returns
    /// how many entries are valid. Retries `EINTR` internally.
    fn wait(&self, buf: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let max = i32::try_from(buf.len()).unwrap_or(i32::MAX);
            // SAFETY: `buf.len()` bounds `maxevents`, so the kernel
            // writes only into the slice.
            let n = unsafe { sys::epoll_wait(self.fd, buf.as_mut_ptr(), max, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is a live epoll fd this struct owns.
        let _ = unsafe { sys::close(self.fd) };
    }
}

/// Where a worker deposits one response, with the request's trace still
/// open in its `reply_flush` span, for the I/O thread to flush; the
/// I/O thread finalizes the trace once the response bytes have actually
/// been written to the socket.
#[derive(Debug, Default)]
pub(crate) struct ReplySlot(Mutex<Option<(String, Option<Box<TraceBuilder>>)>>);

impl ReplySlot {
    pub(crate) fn fill(&self, response: String, trace: Option<Box<TraceBuilder>>) {
        *lock_unpoisoned(&self.0) = Some((response, trace));
    }

    fn take(&self) -> Option<(String, Option<Box<TraceBuilder>>)> {
        lock_unpoisoned(&self.0).take()
    }
}

/// Wakes the I/O thread when a reply slot fills: the completed
/// connection token goes on the dirty list and one byte goes down the
/// socketpair, turning a cross-thread completion into an epoll event.
#[derive(Debug)]
pub(crate) struct Notifier {
    dirty: Mutex<Vec<u64>>,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Notifier {
    pub(crate) fn new() -> io::Result<Notifier> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Notifier { dirty: Mutex::new(Vec::new()), wake_tx, wake_rx })
    }

    pub(crate) fn notify(&self, token: u64) {
        lock_unpoisoned(&self.dirty).push(token);
        // A full pipe means a wake is already pending — dropping the
        // byte is correct, the dirty list carries the real signal.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Consumes the pending wake bytes and returns the dirty tokens.
    fn take_dirty(&self) -> Vec<u64> {
        let mut sink = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        std::mem::take(&mut *lock_unpoisoned(&self.dirty))
    }
}

/// Bound on buffered-but-unsent response bytes per connection: a client
/// that stops reading is disconnected rather than growing the buffer
/// without limit.
const WRITE_BUF_CAP: usize = 4 << 20;

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const EVENTS_PER_WAIT: usize = 1024;

/// Loop tick in milliseconds: bounds how stale the shutdown flag and
/// the idle-reap sweep can get when no readiness event arrives.
const TICK_MS: i32 = 25;

/// How often the idle sweep walks the connection table.
const REAP_SWEEP: Duration = Duration::from_millis(250);

/// One multiplexed connection: its socket, framing state, and the FIFO
/// of replies being computed or flushed.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    /// Replies in request-arrival order; the front flushes first, so
    /// out-of-order worker completions cannot reorder responses.
    pending: VecDeque<Arc<ReplySlot>>,
    /// Traces of replies sitting in `write_buf`, each keyed by the
    /// buffer offset its response ends at; finalized once `written`
    /// passes that watermark — i.e. once the bytes are with the kernel,
    /// so `reply_flush` covers real socket time, not just queueing.
    trace_marks: VecDeque<(usize, Box<TraceBuilder>)>,
    last_activity: Instant,
    /// Peer closed its sending half; flush what we owe, then drop.
    peer_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_line_bytes: usize) -> Conn {
        Conn {
            stream,
            framer: LineFramer::new(max_line_bytes),
            write_buf: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            trace_marks: VecDeque::new(),
            last_activity: Instant::now(),
            peer_closed: false,
        }
    }

    /// True once everything owed has been handed to the kernel.
    fn flushed(&self) -> bool {
        self.pending.is_empty() && self.written == self.write_buf.len()
    }
}

/// Verdict on a connection after handling one of its events.
enum ConnState {
    Keep,
    Close,
}

/// Runs the readiness loop until shutdown completes its drain (or
/// `abort` cuts it short). Owns the listener, every connection, and
/// the epoll instance; returns only at shutdown or on a fatal epoll
/// error (socket-level errors only ever kill their own connection).
pub(crate) fn run(listener: &TcpListener, shared: &Shared) -> io::Result<()> {
    let ep = Epoll::new()?;
    listener.set_nonblocking(true)?;
    ep.add(listener.as_raw_fd(), LISTENER_TOKEN, sys::EPOLLIN)?;
    let notifier = &shared.notifier;
    ep.add(notifier.wake_rx.as_raw_fd(), WAKE_TOKEN, sys::EPOLLIN | sys::EPOLLET)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENTS_PER_WAIT];
    let mut last_reap = Instant::now();
    let mut draining_since: Option<Instant> = None;

    loop {
        let n = ep.wait(&mut events, TICK_MS)?;
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        for ev in &events[..n] {
            // Copy out of the packed struct before touching the fields.
            let (mask, token) = { (ev.events, ev.data) };
            match token {
                LISTENER_TOKEN => {
                    accept_ready(listener, &ep, shared, &mut conns, &mut next_token, shutting_down);
                }
                WAKE_TOKEN => {
                    for token in notifier.take_dirty() {
                        let Some(conn) = conns.get_mut(&token) else { continue };
                        if matches!(flush(conn, shared), ConnState::Close) {
                            close_conn(&ep, &mut conns, token);
                        }
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    let mut state = ConnState::Keep;
                    if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                        state = ConnState::Close;
                    } else {
                        if mask & sys::EPOLLRDHUP != 0 {
                            conn.peer_closed = true;
                        }
                        if mask & sys::EPOLLIN != 0 && !shutting_down {
                            state = read_ready(conn, token, shared);
                        }
                        if matches!(state, ConnState::Keep) && mask & sys::EPOLLOUT != 0 {
                            state = flush(conn, shared);
                        }
                    }
                    if matches!(state, ConnState::Close) {
                        close_conn(&ep, &mut conns, token);
                    }
                }
            }
        }

        // Idle reaping, amortised to one sweep per REAP_SWEEP.
        if !shutting_down && last_reap.elapsed() >= REAP_SWEEP {
            last_reap = Instant::now();
            let timeout = shared.config.read_timeout;
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.last_activity.elapsed() >= timeout)
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                shared.engine.note(RobustnessEvent::ConnectionReaped);
                close_conn(&ep, &mut conns, token);
            }
        }

        if shutting_down {
            // Drain: no new reads or accepts; keep flushing responses
            // for already-accepted work until everything owed is out,
            // the drain deadline expires, or shutdown aborts.
            let since = *draining_since.get_or_insert_with(Instant::now);
            let everything_out = shared.queue.len() == 0 && conns.values().all(Conn::flushed);
            let expired = since.elapsed() >= shared.config.drain_deadline;
            if everything_out || expired || shared.abort.load(Ordering::SeqCst) {
                return Ok(());
            }
            // Late completions may have filled slots without an event
            // in this iteration's batch; opportunistically flush.
            for token in notifier.take_dirty() {
                if let Some(conn) = conns.get_mut(&token) {
                    if matches!(flush(conn, shared), ConnState::Close) {
                        close_conn(&ep, &mut conns, token);
                    }
                }
            }
        }
    }
}

/// Accepts until the listener would block, enforcing the connection cap.
fn accept_ready(
    listener: &TcpListener,
    ep: &Epoll,
    shared: &Shared,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shutting_down: bool,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutting_down {
                    continue; // accepted only to be dropped: we are draining
                }
                if conns.len() >= shared.config.max_connections {
                    refuse_connection(&stream, shared);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
                if ep.add(stream.as_raw_fd(), token, interest).is_ok() {
                    conns.insert(token, Conn::new(stream, shared.config.max_line_bytes));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// One `overloaded` line, best effort, then the socket drops.
fn refuse_connection(stream: &TcpStream, shared: &Shared) {
    let refused = Instant::now();
    let err = WireError::new(
        ErrorCode::Overloaded,
        format!("connection limit ({}) reached", shared.config.max_connections),
    )
    .with_retry_after(shared.config.retry_after_ms);
    let _ = stream.set_nonblocking(true);
    let line = protocol::err_line(&None, &err);
    let _ = (&mut { stream }).write_all(format!("{line}\n").as_bytes());
    shared.engine.note_rejection(RobustnessEvent::Overloaded, refused.elapsed());
}

/// Drains the socket (edge-triggered contract), frames complete lines,
/// and enqueues them on the worker pool.
fn read_ready(conn: &mut Conn, token: u64, shared: &Shared) -> ConnState {
    conn.last_activity = Instant::now();
    let mut chunk = [0u8; 16 * 1024];
    let mut eof = false;
    loop {
        match (&mut &conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                eof = true;
                break;
            }
            Ok(n) => conn.framer.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnState::Close,
        }
    }
    while let Some(frame) = conn.framer.next_frame(eof) {
        match frame {
            Frame::Line(line) => {
                if matches!(dispatch_line(conn, token, line, shared), ConnState::Close) {
                    return ConnState::Close;
                }
            }
            Frame::TooLong => answer_too_large(conn, shared),
        }
    }
    // EOF still owes the client every response already in flight.
    flush(conn, shared)
}

/// Queues one framed line on the worker pool (or answers the shed /
/// fault-injection outcome in place).
fn dispatch_line(conn: &mut Conn, token: u64, line: String, shared: &Shared) -> ConnState {
    if line.trim().is_empty() {
        return ConnState::Keep;
    }
    if shared.config.faults.as_ref().is_some_and(|plan| plan.take_drop()) {
        // Injected fault: vanish mid-conversation, exactly like a
        // crashed client-side proxy would.
        return ConnState::Close;
    }
    let slot = Arc::new(ReplySlot::default());
    conn.pending.push_back(Arc::clone(&slot));
    let job = Job { line, accepted: Instant::now(), slot, token };
    if let Err(job) = shared.queue.try_push(job) {
        let err = WireError::new(
            ErrorCode::Overloaded,
            format!(
                "request queue is full ({} queued); shed instead of queueing",
                shared.config.queue_capacity
            ),
        )
        .with_retry_after(shared.config.retry_after_ms);
        job.slot.fill(protocol::err_line(&protocol::recover_id(&job.line), &err), None);
        shared.engine.note_rejection(RobustnessEvent::Overloaded, job.accepted.elapsed());
    }
    ConnState::Keep
}

/// Answers `request_too_large` on the connection's own FIFO.
fn answer_too_large(conn: &mut Conn, shared: &Shared) {
    let rejected = Instant::now();
    let slot = ReplySlot::default();
    slot.fill(too_large_line(shared.config.max_line_bytes), None);
    conn.pending.push_back(Arc::new(slot));
    shared.engine.note_rejection(RobustnessEvent::RequestTooLarge, rejected.elapsed());
}

/// Moves completed replies (front of the FIFO only — order is the
/// contract) into the write buffer and writes until the socket would
/// block. Closing happens when the peer is gone and nothing is owed,
/// when the write buffer outgrows its bound, or on a socket error.
fn flush(conn: &mut Conn, shared: &Shared) -> ConnState {
    while let Some(front) = conn.pending.front() {
        let Some((response, trace)) = front.take() else { break };
        conn.pending.pop_front();
        conn.write_buf.extend_from_slice(response.as_bytes());
        conn.write_buf.push(b'\n');
        if let Some(tb) = trace {
            conn.trace_marks.push_back((conn.write_buf.len(), tb));
        }
    }
    while conn.written < conn.write_buf.len() {
        match (&mut &conn.stream).write(&conn.write_buf[conn.written..]) {
            Ok(0) => return ConnState::Close,
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnState::Close,
        }
    }
    // Every response whose last byte the kernel has taken closes its
    // `reply_flush` span here — a trace's total therefore covers the
    // request's whole life, accept to socket hand-off.
    while conn.trace_marks.front().is_some_and(|(end, _)| *end <= conn.written) {
        let (_, tb) = conn.trace_marks.pop_front().expect("front exists");
        shared.engine.telemetry().finish(*tb);
    }
    if conn.written == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.written = 0;
    } else if conn.write_buf.len() - conn.written > WRITE_BUF_CAP {
        // The slow-client bound: stop holding megabytes for a reader
        // that stopped reading.
        return ConnState::Close;
    }
    if conn.peer_closed && conn.flushed() {
        return ConnState::Close;
    }
    ConnState::Keep
}

/// Deregisters and drops one connection; its socket closes with it.
/// Replies still being computed for it land in slots nobody reads and
/// are freed when the worker drops its `Arc`.
fn close_conn(ep: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        ep.del(conn.stream.as_raw_fd());
    }
}
