//! Readiness-driven TCP transport: one I/O thread multiplexes every
//! connection through `epoll`, in front of the worker pool in
//! [`crate::server`], so thousands of mostly-idle monitoring sessions
//! cost no threads of their own:
//!
//! - **One I/O thread reads.** It owns the listener, the epoll instance
//!   and every connection's read side: it accepts, cuts NDJSON lines
//!   with a [`LineFramer`], queues them as [`Job`]s, sheds and reaps.
//! - **Non-blocking sockets, edge-triggered wakeups.** Each readiness
//!   edge drains the socket to `WouldBlock`, the invariant
//!   edge-triggering requires.
//! - **Workers write their own replies.** Each connection has one
//!   [`Outbox`]: its socket and, under one mutex, its replies in request
//!   order, the unsent bytes and the trace watermarks. The thread that
//!   fills the front reply writes it, and every finished reply behind
//!   it, until the socket would block. Only what a short write leaves
//!   behind waits for the I/O thread, on the next `EPOLLOUT` edge. A
//!   request crosses threads once, to its worker.
//!
//! Robustness: the connection cap and queue overflow answer
//! `overloaded`, oversized lines answer `request_too_large` without
//! killing the connection, a final line without its newline is still
//! answered when the client half-closes, idle connections are reaped
//! after `read_timeout`, a client that stops draining responses is
//! disconnected once its write buffer passes a bound, and shutdown
//! stops reading, lets workers write what they finish inside
//! `drain_deadline`, then closes every connection.
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
use crate::telemetry::Telemetry;
use crate::trace::TraceBuilder;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
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

/// Bound on buffered-but-unsent response bytes per connection: a client
/// that stops reading is disconnected rather than growing the buffer
/// without limit.
const WRITE_BUF_CAP: usize = 4 << 20;

const LISTENER_TOKEN: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;
const EVENTS_PER_WAIT: usize = 1024;

/// Loop tick in milliseconds: bounds how stale the shutdown flag and
/// the idle-reap sweep can get when no readiness event arrives.
const TICK_MS: i32 = 25;

/// How often the idle sweep walks the connection table.
const REAP_SWEEP: Duration = Duration::from_millis(250);

/// One connection's write side, shared by the I/O thread and every
/// worker holding one of its requests. Writes never block, so a client
/// that stops reading pins no worker. Closing is `shutdown`, which the
/// I/O thread sees as `EPOLLHUP`; the fd itself closes only when the
/// last `Arc<Outbox>` drops, so a late worker never writes into a
/// reused fd number.
pub(crate) struct Outbox {
    stream: TcpStream,
    state: Mutex<OutState>,
}

#[derive(Default)]
struct OutState {
    /// Replies from position `head` on, in request order; `None` is
    /// still being computed.
    replies: VecDeque<Option<(String, Option<Box<TraceBuilder>>)>>,
    /// Position of the front of `replies`: every earlier reply is in `buf`.
    head: u64,
    buf: Vec<u8>,
    /// Prefix of `buf` already written to the socket.
    written: usize,
    /// Traces of replies in `buf`, each keyed by the offset its response
    /// ends at: `reply_flush` ends once `written` passes it.
    trace_marks: VecDeque<(usize, Box<TraceBuilder>)>,
    /// Replies owed in all, once the peer has closed its sending half.
    owed: Option<u64>,
    closed: bool,
    last_write: Option<Instant>,
}

impl Outbox {
    /// Files the reply at position `seq`. A reply that completes the
    /// front is written here, with every finished reply behind it; one
    /// that finishes out of order waits for the thread that fills the
    /// front. A closed connection drops it.
    pub(crate) fn deliver(
        &self,
        seq: u64,
        response: String,
        trace: Option<Box<TraceBuilder>>,
        telemetry: &Telemetry,
    ) {
        let mut guard = lock_unpoisoned(&self.state);
        let st = &mut *guard;
        if st.closed {
            return;
        }
        let at = usize::try_from(seq - st.head).expect("reply position fits in memory");
        st.replies.resize_with(st.replies.len().max(at + 1), || None);
        st.replies[at] = Some((response, trace));
        while let Some(Some((response, trace))) = st.replies.front_mut().map(Option::take) {
            st.replies.pop_front();
            st.head += 1;
            if st.buf.is_empty() {
                st.buf = response.into_bytes(); // nothing unsent: no copy
            } else {
                st.buf.extend_from_slice(response.as_bytes());
            }
            st.buf.push(b'\n');
            if let Some(tb) = trace {
                st.trace_marks.push_back((st.buf.len(), tb));
            }
        }
        self.write_owed(st, telemetry);
    }

    /// The I/O thread's half: records how many replies are owed once the
    /// peer has stopped sending and every request is read, then writes
    /// what a short write left behind. True once the connection is closed.
    fn flush(&self, owed: Option<u64>, telemetry: &Telemetry) -> bool {
        let mut guard = lock_unpoisoned(&self.state);
        if !guard.closed {
            guard.owed = owed;
            self.write_owed(&mut guard, telemetry);
        }
        guard.closed
    }

    /// Writes the unsent bytes until the socket would block, finalizes
    /// every trace whose response the kernel now holds, and closes the
    /// connection on a socket error, when the unsent bytes outgrow
    /// [`WRITE_BUF_CAP`] (a reader that stopped reading), or when the
    /// peer is gone and nothing more is owed.
    fn write_owed(&self, st: &mut OutState, telemetry: &Telemetry) {
        let mut failed = false;
        while st.written < st.buf.len() {
            match (&self.stream).write(&st.buf[st.written..]) {
                Ok(n) if n > 0 => {
                    st.written += n;
                    st.last_write = Some(Instant::now());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => {
                    failed = true;
                    break;
                }
            }
        }
        while st.trace_marks.front().is_some_and(|(end, _)| *end <= st.written) {
            let (_, tb) = st.trace_marks.pop_front().expect("front exists");
            telemetry.finish(*tb);
        }
        if st.written == st.buf.len() {
            // Keep no idle buffer: the next reply usually becomes one.
            st.buf = Vec::new();
            st.written = 0;
        }
        let done = st.owed == Some(st.head) && st.buf.is_empty();
        if failed || done || st.buf.len() - st.written > WRITE_BUF_CAP {
            Outbox::close(&self.stream, st);
        }
    }

    /// Marks the outbox closed and shuts the socket down both ways; the
    /// I/O thread sees `EPOLLHUP` and reaps the connection.
    fn close(stream: &TcpStream, st: &mut OutState) {
        st.closed = true;
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// The I/O thread's side of one connection: its outbox, its framing
/// state, and the positions it has handed out in the outbox.
struct Conn {
    outbox: Arc<Outbox>,
    framer: LineFramer,
    /// Replies reserved so far: the next request's position. Only this
    /// thread numbers replies, so reserving one takes no lock.
    reserved: u64,
    last_read: Instant,
    /// Peer closed its sending half; close once every reply is out.
    peer_closed: bool,
}

impl Conn {
    fn reserve(&mut self) -> u64 {
        self.reserved += 1;
        self.reserved - 1
    }

    /// True once the connection is closed; see [`Outbox::flush`].
    fn flush(&self, shared: &Shared) -> bool {
        self.outbox.flush(self.peer_closed.then_some(self.reserved), shared.engine.telemetry())
    }

    /// True once everything owed has been handed to the kernel, or can
    /// no longer be.
    fn flushed(&self) -> bool {
        let st = lock_unpoisoned(&self.outbox.state);
        st.closed || (st.head == self.reserved && st.buf.is_empty())
    }

    /// The later of the last read and the last reply written, by any
    /// thread: what the idle reaper measures from.
    fn last_activity(&self) -> Instant {
        let last_write = lock_unpoisoned(&self.outbox.state).last_write;
        last_write.map_or(self.last_read, |at| at.max(self.last_read))
    }
}

/// Dropping a connection closes its outbox: workers still computing its
/// replies find it closed and drop them. So leaving the table, and the
/// I/O thread's exit (drain done or deadline passed), cut clients off.
impl Drop for Conn {
    fn drop(&mut self) {
        Outbox::close(&self.outbox.stream, &mut lock_unpoisoned(&self.outbox.state));
    }
}

/// Runs the readiness loop until shutdown completes its drain (or
/// `abort` cuts it short). Owns the listener, every connection's read
/// side, and the epoll instance; returns only at shutdown or on a fatal
/// epoll error (socket-level errors only ever kill their own
/// connection). Either way every connection closes on the way out.
pub(crate) fn run(listener: &TcpListener, shared: &Shared) -> io::Result<()> {
    let ep = Epoll::new()?;
    listener.set_nonblocking(true)?;
    ep.add(listener.as_raw_fd(), LISTENER_TOKEN, sys::EPOLLIN)?;

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
            if token == LISTENER_TOKEN {
                accept_ready(listener, &ep, shared, &mut conns, &mut next_token, shutting_down);
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else { continue };
            if conn_ready(conn, mask, shutting_down, shared) {
                close_conn(&ep, &mut conns, token);
            }
        }

        // Idle reaping, amortised to one sweep per REAP_SWEEP.
        if !shutting_down && last_reap.elapsed() >= REAP_SWEEP {
            last_reap = Instant::now();
            let timeout = shared.config.read_timeout;
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.last_activity().elapsed() >= timeout)
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                shared.engine.note(RobustnessEvent::ConnectionReaped);
                close_conn(&ep, &mut conns, token);
            }
        }

        if shutting_down {
            // Drain: no new reads or accepts; workers keep writing the
            // replies to already-accepted work until everything owed is
            // out, the drain deadline expires, or shutdown aborts.
            // Returning drops `conns`, which closes every outbox.
            let since = *draining_since.get_or_insert_with(Instant::now);
            let everything_out = shared.queue.len() == 0 && conns.values().all(Conn::flushed);
            let expired = since.elapsed() >= shared.config.drain_deadline;
            if everything_out || expired || shared.abort.load(Ordering::SeqCst) {
                return Ok(());
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
                    let conn = Conn {
                        outbox: Arc::new(Outbox { stream, state: Mutex::default() }),
                        framer: LineFramer::new(shared.config.max_line_bytes),
                        reserved: 0,
                        last_read: Instant::now(),
                        peer_closed: false,
                    };
                    conns.insert(token, conn);
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

/// Handles one readiness event on a connection. It flushes before it
/// reads, which also waits out a worker still holding the outbox: a
/// worker publishes a reply's trace before letting go, so a request the
/// client sends after reading that reply (say, `trace`) sees it. True
/// when the connection must close.
fn conn_ready(conn: &mut Conn, mask: u32, shutting_down: bool, shared: &Shared) -> bool {
    // `EPOLLHUP` is also how a worker's `shutdown` reaches this thread.
    if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 || conn.flush(shared) {
        return true;
    }
    let was_open = !conn.peer_closed;
    if mask & sys::EPOLLIN != 0 && !shutting_down && read_ready(conn, shared) {
        return true;
    }
    conn.peer_closed |= mask & sys::EPOLLRDHUP != 0;
    // Every request is read: record what the peer is owed, and close at
    // once if that is nothing.
    was_open && conn.peer_closed && conn.flush(shared)
}

/// Drains the socket (edge-triggered contract), frames complete lines,
/// and enqueues them on the worker pool; an oversized line is answered
/// `request_too_large` in its place. True when the connection must close.
fn read_ready(conn: &mut Conn, shared: &Shared) -> bool {
    conn.last_read = Instant::now();
    let mut chunk = [0u8; 16 * 1024];
    let mut eof = false;
    loop {
        match (&conn.outbox.stream).read(&mut chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                eof = true;
                break;
            }
            Ok(n) => conn.framer.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    while let Some(frame) = conn.framer.next_frame(eof) {
        match frame {
            Frame::Line(line) if line.trim().is_empty() => {}
            // Injected fault: vanish mid-conversation, exactly like a
            // crashed client-side proxy would.
            Frame::Line(_) if shared.config.faults.as_ref().is_some_and(|p| p.take_drop()) => {
                return true;
            }
            Frame::Line(line) => dispatch_line(conn, line, shared),
            Frame::TooLong => {
                let rejected = Instant::now();
                let seq = conn.reserve();
                let answer = too_large_line(shared.config.max_line_bytes);
                conn.outbox.deliver(seq, answer, None, shared.engine.telemetry());
                shared.engine.note_rejection(RobustnessEvent::RequestTooLarge, rejected.elapsed());
            }
        }
    }
    false
}

/// Queues one framed line on the worker pool, or answers `overloaded` in
/// its place when the queue is full.
fn dispatch_line(conn: &mut Conn, line: String, shared: &Shared) {
    let seq = conn.reserve();
    let job = Job { line, accepted: Instant::now(), outbox: Arc::clone(&conn.outbox), seq };
    if let Err(job) = shared.queue.try_push(job) {
        let err = WireError::new(
            ErrorCode::Overloaded,
            format!(
                "request queue is full ({} queued); shed instead of queueing",
                shared.config.queue_capacity
            ),
        )
        .with_retry_after(shared.config.retry_after_ms);
        let answer = protocol::err_line(&protocol::recover_id(&job.line), &err);
        job.outbox.deliver(job.seq, answer, None, shared.engine.telemetry());
        shared.engine.note_rejection(RobustnessEvent::Overloaded, job.accepted.elapsed());
    }
}

/// Deregisters and drops one connection, which closes its outbox.
fn close_conn(ep: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        ep.del(conn.outbox.stream.as_raw_fd());
    }
}
