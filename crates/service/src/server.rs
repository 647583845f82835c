//! Transport and concurrency: NDJSON over TCP and stdio, in front of a
//! supervised worker pool with panic isolation, deadlines,
//! backpressure, and graceful drain.
//!
//! The pool reuses the claiming discipline of the parallel Monte-Carlo
//! engine: work sits in one shared queue and idle workers claim the
//! next item the moment they free up, so a long `mc` on one worker
//! never blocks a stream of cheap `eval`s on the others. Response order
//! is still per-connection FIFO — each connection's outbox files replies
//! by request position, and the worker that completes the front writes
//! them out in that order no matter which finishes first.
//!
//! The fault-tolerance layer (DESIGN §11) has four parts:
//!
//! - **Panic isolation.** Every request body runs under
//!   [`std::panic::catch_unwind`]; a panic becomes a stable
//!   `internal_error` response that still echoes the request id. The
//!   panicked worker is treated as tainted and retired, and a
//!   supervisor thread respawns a replacement (counted in the stats
//!   `robustness` block). Shared locks recover from poisoning instead
//!   of propagating it ([`crate::lock_unpoisoned`]).
//! - **Deadlines and slow-client defense.** Requests carry an optional
//!   `deadline_ms` budget (or inherit [`ServerConfig::default_deadline_ms`])
//!   measured from arrival, checked between pipeline stages. Idle
//!   connections are reaped, a client that stops reading is dropped
//!   once its unsent replies pass a bound, and request lines are
//!   length-capped — an oversized line answers `request_too_large` and
//!   the connection survives.
//! - **Backpressure.** The job queue is bounded
//!   ([`ServerConfig::queue_capacity`]); overflow answers `overloaded`
//!   with a `retry_after_ms` hint immediately instead of queueing
//!   without bound, and concurrent connections are capped.
//! - **Graceful drain.** Shutdown stops reading and accepting, flushes
//!   replies to queued jobs up to [`ServerConfig::drain_deadline`], then
//!   abandons the remainder; the final stats snapshot is always dumped.
//!
//! A seeded [`FaultPlan`] can inject worker panics, request delays, and
//! connection drops to exercise all of the above deterministically.
//!
//! Everything here is hand-rolled on `std::net`/`std::thread`; the
//! build environment has no crates.io access, and the protocol is
//! simple enough that a framework would be all ceremony.

use crate::engine::Engine;
use crate::epoll::Outbox;
use crate::faults::FaultPlan;
use crate::lock_unpoisoned;
use crate::protocol::{self, ErrorCode, Request, Response, WireError};
use crate::stats::RobustnessEvent;
use crate::telemetry;
use crate::trace::TraceBuilder;
use std::collections::VecDeque;
use std::io::{BufRead, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tunables for a [`Server`] (and, where applicable, [`serve_stdio_with`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request workers in the pool (minimum 1).
    pub workers: usize,
    /// Bound on queued-but-unclaimed requests; overflow answers
    /// `overloaded` instead of queueing.
    pub queue_capacity: usize,
    /// Bound on simultaneously served connections; excess connections
    /// receive one `overloaded` line and are closed.
    pub max_connections: usize,
    /// Longest accepted request line in bytes; longer lines answer
    /// `request_too_large` (the connection survives).
    pub max_line_bytes: usize,
    /// Default per-request time budget, applied when a request carries
    /// no `deadline_ms` of its own. `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Idle-connection reaper: a connection with no traffic for this
    /// long is closed.
    pub read_timeout: Duration,
    /// How long [`Server::shutdown`] waits for queued jobs to drain
    /// before abandoning them.
    pub drain_deadline: Duration,
    /// Backoff hint attached to `overloaded` responses.
    pub retry_after_ms: u64,
    /// Deterministic fault injection, when enabled (`--faults`).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 1024,
            max_connections: 128,
            max_line_bytes: 1 << 20,
            default_deadline_ms: None,
            read_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(5),
            retry_after_ms: 25,
            faults: None,
        }
    }
}

/// One unit of work: a raw request line, its arrival instant (the
/// deadline epoch), and the connection outbox and position its answer
/// goes to.
pub(crate) struct Job {
    pub(crate) line: String,
    pub(crate) accepted: Instant,
    pub(crate) outbox: Arc<Outbox>,
    pub(crate) seq: u64,
}

/// Bounded shared job queue with condvar wakeup; workers claim
/// dynamically.
pub(crate) struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues unless the queue is at capacity; the rejected job comes
    /// back so the caller can answer `overloaded` in its place.
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        {
            let mut jobs = lock_unpoisoned(&self.jobs);
            if jobs.len() >= self.capacity {
                return Err(job);
            }
            jobs.push_back(job);
        }
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job. Returns `None` once `shutdown` is
    /// flagged and the queue has drained (outstanding requests are
    /// always answered), or immediately once `abort` is flagged (the
    /// drain deadline expired).
    fn claim(&self, shutdown: &AtomicBool, abort: &AtomicBool) -> Option<Job> {
        let mut jobs = lock_unpoisoned(&self.jobs);
        loop {
            if abort.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            jobs = self.available.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.jobs).len()
    }

    fn notify_all(&self) {
        self.available.notify_all();
    }
}

/// State shared by the I/O thread, the workers, and the supervisor.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) queue: JobQueue,
    pub(crate) shutdown: AtomicBool,
    pub(crate) abort: AtomicBool,
    pub(crate) config: ServerConfig,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.notify_all();
    }
}

/// How a worker thread ended.
enum WorkerExit {
    /// The queue closed: shutdown (or abort) completed normally.
    Clean,
    /// The request handler panicked; the worker retired itself after
    /// answering `internal_error` and must be replaced.
    Panicked,
}

/// A running service instance bound to a TCP listener.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    io_handle: thread::JoinHandle<()>,
    supervisor_handle: thread::JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// `workers` request workers plus I/O and supervisor threads,
    /// with every other knob at its [`ServerConfig`] default.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn bind(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<Server> {
        Server::start(engine, addr, ServerConfig { workers, ..ServerConfig::default() })
    }

    /// Binds `addr` and starts the service with explicit tunables.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn start(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        engine.telemetry().set_transport("epoll");
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            engine,
            queue: JobQueue::new(config.queue_capacity),
            shutdown: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            config,
        });

        // Workers report their exit to the supervisor, which replaces
        // panicked ones (the respawn counter is the evidence) and joins
        // everything on shutdown.
        let (exit_tx, exit_rx) = mpsc::channel::<WorkerExit>();
        let handles: Vec<_> =
            (0..workers).map(|_| spawn_worker(Arc::clone(&shared), exit_tx.clone())).collect();
        let supervisor_handle = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || supervise(&shared, workers, handles, &exit_rx, &exit_tx))
        };

        let io_handle = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                if let Err(e) = crate::epoll::run(&listener, &shared) {
                    // Losing the I/O thread is losing the service;
                    // initiate shutdown so workers stop cleanly instead
                    // of waiting on a queue nobody fills.
                    eprintln!("depcase-service: epoll loop failed: {e}");
                    shared.begin_shutdown();
                }
            })
        };

        Ok(Server { shared, addr, io_handle, supervisor_handle })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind this server.
    #[must_use]
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The fault-injection plan, when one is active.
    #[must_use]
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.shared.config.faults.as_ref()
    }

    /// True once a `shutdown` request has been handled.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains queued jobs up to the configured drain
    /// deadline (requests already executing always finish), abandons
    /// whatever is still queued after that, and joins all threads.
    /// Idempotent with a wire-initiated shutdown.
    pub fn shutdown(self) {
        let Server { shared, io_handle, supervisor_handle, .. } = self;
        shared.begin_shutdown();
        // The I/O thread sees the flag within one loop tick and returns
        // once every reply is out or the drain deadline expires; its
        // connections close with it.
        let _ = io_handle.join();
        shared.abort.store(true, Ordering::SeqCst);
        shared.queue.notify_all();
        let _ = supervisor_handle.join();
        // Every worker is joined, so everything acked is in the WAL;
        // force it to stable storage regardless of fsync policy.
        if let Err(e) = shared.engine.flush_durability() {
            eprintln!("depcase-service: final wal sync failed: {e}");
        }
    }

    /// Blocks until a client's `shutdown` request stops the service,
    /// then drains and joins like [`Server::shutdown`].
    pub fn wait(self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            thread::park_timeout(Duration::from_millis(50));
        }
        self.shutdown();
    }
}

fn spawn_worker(shared: Arc<Shared>, exit_tx: mpsc::Sender<WorkerExit>) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let exit = worker_loop(&shared);
        let _ = exit_tx.send(exit);
    })
}

fn worker_loop(shared: &Shared) -> WorkerExit {
    while let Some(job) = shared.queue.claim(&shared.shutdown, &shared.abort) {
        let outcome = handle_line(&shared.engine, &shared.config, &job.line, job.accepted);
        if outcome.shutdown {
            shared.begin_shutdown();
        }
        // A closed outbox means the client hung up; the reply drops.
        job.outbox.deliver(job.seq, outcome.response, outcome.trace, shared.engine.telemetry());
        if outcome.panicked {
            // The response went out, but this worker's stack just
            // unwound through arbitrary engine code — retire it and let
            // the supervisor start a clean replacement.
            return WorkerExit::Panicked;
        }
    }
    WorkerExit::Clean
}

/// Supervisor body: keeps the pool at strength by replacing panicked
/// workers until shutdown, then joins every worker thread ever started.
fn supervise(
    shared: &Arc<Shared>,
    workers: usize,
    mut handles: Vec<thread::JoinHandle<()>>,
    exit_rx: &mpsc::Receiver<WorkerExit>,
    exit_tx: &mpsc::Sender<WorkerExit>,
) {
    let mut live = workers;
    while live > 0 {
        match exit_rx.recv() {
            Ok(WorkerExit::Panicked) if !shared.shutdown.load(Ordering::SeqCst) => {
                shared.engine.note(RobustnessEvent::Respawn);
                handles.push(spawn_worker(Arc::clone(shared), exit_tx.clone()));
            }
            Ok(_) => live -= 1,
            // Unreachable — the supervisor itself holds a sender — but
            // breaking beats spinning if that invariant ever changes.
            Err(_) => break,
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// Outcome of one request line: the response to write, whether the
/// line requested shutdown or panicked its handler, and the request's
/// trace — still open in its `reply_flush` span, finalized by the
/// transport once the response bytes reach the client.
struct LineOutcome {
    response: String,
    shutdown: bool,
    panicked: bool,
    trace: Option<Box<TraceBuilder>>,
}

/// Parses and executes one request line with panic isolation, deadline
/// accounting, and fault injection. Used by both the TCP workers and
/// the stdio loop.
///
/// Responses render in the request's own protocol generation: a `"v":2`
/// request gets a stamped v2 line, everything else the exact v1 bytes.
/// Lines the server could not parse far enough to establish a
/// generation (bad JSON, unknown version, shed or oversized lines)
/// answer in the version-less v1 grammar, which every client parses.
fn handle_line(
    engine: &Engine,
    config: &ServerConfig,
    line: &str,
    accepted: Instant,
) -> LineOutcome {
    // Root phases are measured back to back — each `end` instant is the
    // next `begin` — so their sum reconciles with the end-to-end total
    // by construction (the ±5% invariant the integration tests pin).
    let mut tb = engine.telemetry().start_trace(accepted);
    if let Some(tb) = tb.as_mut() {
        tb.begin_at("queue_wait", accepted);
        tb.end();
        tb.begin("parse");
    }
    let envelope = match protocol::parse_request(line) {
        Ok(envelope) => envelope,
        Err((id, err)) => {
            if let Some(tb) = tb.as_mut() {
                tb.end();
                tb.set_ok(false);
                tb.begin("reply_flush");
            }
            return LineOutcome {
                response: protocol::err_line(&id, &err),
                shutdown: false,
                panicked: false,
                trace: tb,
            };
        }
    };
    let deadline = envelope
        .deadline_ms
        .or(config.default_deadline_ms)
        .map(|ms| accepted + Duration::from_millis(ms));
    let id = envelope.id;
    let version = envelope.version;
    let request = envelope.request;
    if let Some(tb) = tb.as_mut() {
        tb.end();
        tb.set_op(request.op_name());
        tb.begin("engine");
    }
    // The trace rides thread-local storage while the engine runs, so
    // the layers below (plan cache, WAL, fsync, assurance kernels)
    // record child spans without threading a tracer through every
    // signature. A panicking handler leaves it in TLS; `take_current`
    // recovers it either way.
    if let Some(tb) = tb.take() {
        telemetry::install(tb);
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = &config.faults {
            if let Some(delay) = plan.take_delay() {
                thread::sleep(delay);
            }
            assert!(!plan.take_panic(), "injected worker panic");
        }
        engine.handle_deadline(&request, deadline)
    }));
    let mut tb = telemetry::take_current();
    if let Some(tb) = tb.as_mut() {
        // `end_open`, not `end`: a panic may have left engine-internal
        // child spans open on the stack.
        tb.end_open();
        tb.set_ok(matches!(&result, Ok(Ok(_))));
        tb.begin("reply_flush");
    }
    match result {
        Ok(outcome) => LineOutcome {
            response: Response::from(outcome).render(version, &id),
            shutdown: matches!(request, Request::Shutdown),
            panicked: false,
            trace: tb,
        },
        Err(_panic) => {
            engine.note(RobustnessEvent::Panic);
            let err = WireError::new(
                ErrorCode::InternalError,
                "internal error: the worker handling this request panicked; \
                 it was replaced and the service continues",
            );
            LineOutcome {
                response: Response::Err(err).render(version, &id),
                shutdown: false,
                panicked: true,
                trace: tb,
            }
        }
    }
}

/// One frame cut from an NDJSON byte stream.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A complete line (newline stripped), within the length bound.
    Line(String),
    /// The line exceeded the bound; its bytes were discarded.
    TooLong,
}

/// Cuts an NDJSON byte stream into lines of at most `max` bytes, for
/// every epoll connection and the stdio loop alike. An oversized line is
/// discarded as it streams in and answered as [`Frame::TooLong`] once it
/// ends, so the stream can keep going — one hostile line must not cost
/// the client its session, and must not cost the server the memory to
/// buffer it.
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    /// Prefix of `buf` already framed; dropped by the next `extend`, so
    /// framing a burst of lines moves each byte once, not once per line.
    start: usize,
    /// Prefix of `buf` already scanned for a newline.
    scanned: usize,
    /// Inside an oversized line: discard through its end.
    overflowed: bool,
    max: usize,
}

impl LineFramer {
    pub(crate) fn new(max: usize) -> LineFramer {
        LineFramer { buf: Vec::new(), start: 0, scanned: 0, overflowed: false, max }
    }

    /// Appends bytes read from the stream.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        let framed = std::mem::take(&mut self.start);
        self.buf.drain(..framed);
        self.scanned -= framed;
        self.buf.extend_from_slice(bytes);
    }

    /// The next frame, or `None` until more bytes arrive. Once the
    /// stream has ended (`eof`), a final line without a trailing newline
    /// still counts.
    pub(crate) fn next_frame(&mut self, eof: bool) -> Option<Frame> {
        let end = match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) => self.scanned + offset,
            None if eof && (self.overflowed || self.start < self.buf.len()) => self.buf.len(),
            None => {
                self.scanned = self.buf.len();
                if self.scanned - self.start > self.max || self.overflowed {
                    // Stop buffering a hostile line; remember to answer
                    // `request_too_large` when it ends.
                    self.overflowed = true;
                    self.buf = Vec::new();
                    (self.start, self.scanned) = (0, 0);
                }
                return None;
            }
        };
        let frame = if std::mem::take(&mut self.overflowed) || end - self.start > self.max {
            Frame::TooLong
        } else {
            // NDJSON is UTF-8; anything else will fail JSON parsing with
            // a `bad_json` of its own.
            Frame::Line(String::from_utf8_lossy(&self.buf[self.start..end]).into_owned())
        };
        self.start = self.buf.len().min(end + 1);
        self.scanned = self.start;
        Some(frame)
    }
}

/// The `request_too_large` answer to a line over `max_line_bytes`.
pub(crate) fn too_large_line(max_line_bytes: usize) -> String {
    let err = WireError::new(
        ErrorCode::RequestTooLarge,
        format!("request line exceeds {max_line_bytes} bytes"),
    );
    protocol::err_line(&None, &err)
}

/// Serves NDJSON over stdin/stdout until EOF or a `shutdown` request,
/// then dumps a final stats snapshot to stderr; equivalent to
/// [`serve_stdio_with`] at the default [`ServerConfig`].
///
/// Requests are executed in arrival order on the calling thread —
/// stdio has a single client, so pooling buys nothing but reordering
/// hazards. It is its own loop rather than an epoll connection because
/// stdin may be a redirected file, which epoll cannot watch.
pub fn serve_stdio(engine: &Engine) {
    serve_stdio_with(engine, &ServerConfig::default());
}

/// [`serve_stdio`] with explicit tunables: the line-length cap, default
/// deadline, and fault injection apply; pool/queue/socket knobs do not
/// (stdio is single-threaded with no socket). A caught panic answers
/// `internal_error` and the loop simply continues — there is no worker
/// to respawn.
pub fn serve_stdio_with(engine: &Engine, config: &ServerConfig) {
    engine.telemetry().set_transport("stdio");
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = BufWriter::new(stdout.lock());
    let mut framer = LineFramer::new(config.max_line_bytes);
    'serve: loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let (taken, eof) = (chunk.len(), chunk.is_empty());
        framer.extend(chunk);
        reader.consume(taken);
        while let Some(frame) = framer.next_frame(eof) {
            let (response, trace, stop) = match frame {
                Frame::Line(line) if line.trim().is_empty() => continue,
                Frame::Line(line) => {
                    let outcome = handle_line(engine, config, &line, Instant::now());
                    (outcome.response, outcome.trace, outcome.shutdown)
                }
                Frame::TooLong => {
                    engine.note_rejection(RobustnessEvent::RequestTooLarge, Duration::ZERO);
                    (too_large_line(config.max_line_bytes), None, false)
                }
            };
            let wrote = writeln!(writer, "{response}").and_then(|()| writer.flush());
            if let Some(tb) = trace {
                engine.telemetry().finish(*tb);
            }
            if wrote.is_err() || stop {
                break 'serve;
            }
        }
        if eof {
            break;
        }
    }
    if let Err(e) = engine.flush_durability() {
        eprintln!("depcase-service: final wal sync failed: {e}");
    }
    let stats = protocol::ok_line(&None, engine.stats_value());
    eprintln!("case_tool serve: final stats {stats}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_survives_oversized_lines() {
        let mut framer = LineFramer::new(16);
        framer.extend(format!("{}\nshort\n", "x".repeat(64)).as_bytes());
        assert_eq!(framer.next_frame(false), Some(Frame::TooLong));
        assert_eq!(
            framer.next_frame(false),
            Some(Frame::Line("short".to_string())),
            "the stream must survive an oversized line"
        );
        assert_eq!(framer.next_frame(true), None);
    }

    #[test]
    fn framer_accepts_final_unterminated_line() {
        let mut framer = LineFramer::new(64);
        framer.extend(b"{\"op\":\"stats\"}");
        assert_eq!(framer.next_frame(false), None);
        assert_eq!(
            framer.next_frame(true),
            Some(Frame::Line("{\"op\":\"stats\"}".to_string())),
            "final line without newline must still parse"
        );
    }

    #[test]
    fn oversized_line_at_eof_is_too_long_not_eof() {
        let mut framer = LineFramer::new(16);
        framer.extend("y".repeat(64).as_bytes());
        assert_eq!(framer.next_frame(false), None);
        assert_eq!(framer.next_frame(true), Some(Frame::TooLong));
        assert_eq!(framer.next_frame(true), None);
    }

    #[test]
    fn a_burst_of_64k_pipelined_lines_frames_in_linear_time() {
        // A framer that moves the unframed rest once per line took 7.5 s
        // on this burst in a debug build; a linear one takes milliseconds.
        let line = r#"{"id":12345,"v":2,"op":"eval","name":"tenant-0042","at":{"version":7}}"#;
        let lines = 1 << 16;
        let mut burst = format!("{line}\n").repeat(lines);
        burst.push_str("{\"op\":"); // a partial line carried to the next read
        let mut framer = LineFramer::new(1 << 20);
        let started = std::time::Instant::now();
        for chunk in burst.as_bytes().chunks(16 * 1024) {
            framer.extend(chunk);
        }
        let mut framed = 0;
        while let Some(frame) = framer.next_frame(false) {
            assert_eq!(frame, Frame::Line(line.to_string()));
            framed += 1;
        }
        let took = started.elapsed();
        assert_eq!(framed, lines);
        assert!(took < std::time::Duration::from_secs(2), "{lines} lines took {took:?}");
        framer.extend(b"\"stats\"}\n");
        assert_eq!(framer.next_frame(false), Some(Frame::Line(r#"{"op":"stats"}"#.into())));
        assert_eq!(framer.next_frame(true), None);
    }
}
