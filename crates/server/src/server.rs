//! The TCP front end: accept loop, per-connection sessions, backpressure,
//! deadlines, and graceful drain.
//!
//! ## Threading model
//!
//! One accept thread blocks in `accept()`. Each connection gets **one**
//! thread that owns the socket and the [`oltap_core::Session`] and blocks
//! on the socket: in `read` under the idle deadline for the next request's
//! first byte, under the read deadline for the rest of it, and, once the
//! statement has run, in `write` under the write deadline for its
//! response frames. Nothing polls. Requests are read through a buffer the
//! connection owns, as many bytes as the socket has, so a statement costs
//! one `read` and one `write`: a request that arrives whole needs no
//! other call, the socket's read timeout is set only when it changes, and
//! requests a client sends back to back are answered in order from the
//! buffer.
//!
//! The blocking write *is* the slow-client backpressure. A statement's
//! result is fully materialized by the session before its first frame
//! is encoded. Its frames (Schema, Rows…, Done) are appended to one
//! buffer that is written when the answer is complete — a point `SELECT`
//! is one `write`, not three — or as soon as it passes `FLUSH_AT`, so
//! the connection holds the result plus `FLUSH_AT` and one encoded frame
//! and nothing else, and a large result still streams; a client that
//! stops reading stalls the write, and past the write deadline the
//! connection is cut. There is no response queue, so the edge claims
//! nothing from the [`oltap_common::mem::MemoryGovernor`]: there is
//! nothing to govern.
//!
//! ## Edge robustness
//!
//! * Every statement runs under a per-query token parented to the
//!   connection token ([`oltap_common::CancellationToken::child`]), so
//!   a drain cancels in-flight work the same way a deadline does.
//! * Overload (connection cap, thread limit, draining) answers with
//!   [`DbError::Unavailable`] carrying a retry-after hint derived from
//!   the admission queue depth; the client's backoff honors it as a
//!   floor.
//! * The `net.*` fault points ([`points::NET_ACCEPT_FAIL`],
//!   [`points::NET_READ_TORN`], [`points::NET_WRITE_PARTIAL`],
//!   [`points::NET_CONN_DROP_MID_QUERY`]) inject edge failures
//!   deterministically for chaos tests.
//! * [`Server::drain`] stops accepting, cancels analytic work
//!   immediately, and wakes every connection that is waiting for a
//!   request with `shutdown(Read)`; transactional work gets a grace
//!   period to finish its statement, then stragglers are cancelled and
//!   force-closed. Every wait is on a condition variable signalled as
//!   connections leave, and every wait is bounded.

use crate::wire::{
    frame_bytes, header, put_frame, read_frame, split_frame, DoneKind, Request, Response,
    MAX_FRAME, PROTOCOL_VERSION,
};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::mem::WorkloadClass;
use oltap_common::{CancellationToken, DbError, Result};
use oltap_core::{Database, QueryResult, Session, SessionActivity};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (tests).
    pub addr: String,
    /// Connection cap; excess connections are refused with
    /// [`DbError::Unavailable`] and a retry-after hint.
    pub max_conns: usize,
    /// Deadline for reading one frame once its first byte arrived. A
    /// peer that stalls mid-frame is cut off (torn frame).
    pub read_timeout: Duration,
    /// Deadline for a blocked response write to make progress. A peer
    /// that stops reading for this long is disconnected.
    pub write_timeout: Duration,
    /// Connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Per-statement timeout applied to every session (`None` = none).
    pub query_timeout: Option<Duration>,
    /// Rows per `Rows` frame when streaming a result set.
    pub rows_per_frame: usize,
    /// Grace period [`Server::drain`] gives transactional (OLTP) work
    /// before cancelling it; analytic work is cancelled immediately.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_conns: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
            query_timeout: None,
            rows_per_frame: 512,
            drain_grace: Duration::from_secs(2),
        }
    }
}

/// Monotonic counters exposed for tests and operators.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    refused: AtomicU64,
    queries: AtomicU64,
    statement_errors: AtomicU64,
    torn_requests: AtomicU64,
    partial_writes: AtomicU64,
    dropped_mid_query: AtomicU64,
    slow_client_disconnects: AtomicU64,
}

/// A point-in-time snapshot of [`Server`] counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (past the fault/cap/drain gate).
    pub accepted: u64,
    /// Connections refused (cap, thread limit, or `net.accept_fail`).
    pub refused: u64,
    /// Query requests received.
    pub queries: u64,
    /// Statements that returned a typed error (connection survived).
    pub statement_errors: u64,
    /// Requests rejected by the `net.read_torn` fault.
    pub torn_requests: u64,
    /// Responses torn by the `net.write_partial` fault.
    pub partial_writes: u64,
    /// Connections dropped by `net.conn_drop_mid_query`.
    pub dropped_mid_query: u64,
    /// Connections cut because a response write failed or stalled past
    /// the write deadline.
    pub slow_client_disconnects: u64,
    /// Currently live connections.
    pub active: usize,
}

/// Outcome of a [`Server::drain`].
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Connections live when the drain started.
    pub conns_at_start: usize,
    /// Analytic queries cancelled immediately.
    pub cancelled_olap: usize,
    /// Connections still busy at the grace cutoff and cancelled then.
    pub cancelled_after_grace: usize,
    /// Connections whose sockets had to be force-closed.
    pub forced: usize,
    /// Wall-clock duration of the drain.
    pub duration: Duration,
}

// ------------------------------------------------------------- registry

/// What the server keeps about a live connection for drain decisions.
struct ConnEntry {
    cancel: CancellationToken,
    activity: SessionActivity,
    stream: TcpStream,
}

struct Shared {
    db: Arc<Database>,
    cfg: ServerConfig,
    faults: Arc<FaultInjector>,
    draining: AtomicBool,
    /// Live connections. The accept thread inserts an entry before it
    /// spawns the connection's thread, so once that thread is joined a
    /// drain sees every connection there is.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    /// Signalled (with `conns`) each time a connection leaves.
    conn_left: Condvar,
    reapable: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_conn: AtomicU64,
    counters: Counters,
}

impl Shared {
    /// Retry-after hint for admission-surface refusals: scales with the
    /// OLAP admission queue when one is configured, small floor
    /// otherwise.
    fn retry_hint_ms(&self) -> u64 {
        match self.db.admission() {
            Some(ctrl) => ctrl.retry_after_hint().as_millis() as u64,
            None => 25,
        }
    }

    fn unavailable(&self, reason: &str) -> Response {
        let retry_after_ms = self.retry_hint_ms();
        Response::Error {
            error: DbError::Unavailable {
                reason: reason.into(),
                retry_after_ms,
            },
            retry_after_ms,
        }
    }

    /// Blocks until every connection has left or `deadline` passes.
    fn wait_conns_gone(&self, deadline: Instant) {
        let mut conns = self.conns.lock();
        while !conns.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            self.conn_left.wait_for(&mut conns, left);
        }
    }
}

/// The network front end. Binds on [`Server::start`], serves until
/// [`Server::drain`] (Drop drains implicitly).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Binds `cfg.addr` and starts accepting connections against `db`.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            faults: Arc::clone(db.faults()),
            db,
            cfg,
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_left: Condvar::new(),
            reapable: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(1),
            counters: Counters::default(),
        });
        let s2 = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("oltap-accept".into())
            .spawn(move || accept_loop(listener, s2))?;
        Ok(Server {
            shared,
            addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (use with port 0 in tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            refused: c.refused.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            statement_errors: c.statement_errors.load(Ordering::Relaxed),
            torn_requests: c.torn_requests.load(Ordering::Relaxed),
            partial_writes: c.partial_writes.load(Ordering::Relaxed),
            dropped_mid_query: c.dropped_mid_query.load(Ordering::Relaxed),
            slow_client_disconnects: c.slow_client_disconnects.load(Ordering::Relaxed),
            active: self.active_connections(),
        }
    }

    /// Live connection count.
    pub fn active_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Graceful, bounded shutdown: stop accepting, cancel analytic work
    /// immediately, give transactional work the configured grace, then
    /// cancel and (as a last resort) force-close stragglers. Idempotent.
    pub fn drain(&self) -> DrainReport {
        let start = Instant::now();
        let mut report = DrainReport::default();
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return report;
        }
        self.stop_accepting();
        {
            let conns = self.shared.conns.lock();
            report.conns_at_start = conns.len();
            for entry in conns.values() {
                if entry.activity.current() == Some(WorkloadClass::Olap) {
                    entry.cancel.cancel();
                    report.cancelled_olap += 1;
                }
                // Wake the connection if it is blocked waiting for a
                // request: its read returns EOF, it sees the flag, says
                // so on its still-open write half, and leaves. One that
                // is mid-statement finishes and answers first.
                let _ = entry.stream.shutdown(Shutdown::Read);
            }
        }
        // Grace: transactional work finishes.
        self.shared
            .wait_conns_gone(start + self.shared.cfg.drain_grace);
        // Cutoff: cancel whatever is still running.
        {
            let conns = self.shared.conns.lock();
            report.cancelled_after_grace = conns.len();
            for entry in conns.values() {
                entry.cancel.cancel();
            }
        }
        self.shared
            .wait_conns_gone(Instant::now() + Duration::from_secs(5));
        // Last resort: sever the sockets of anything still alive.
        {
            let conns = self.shared.conns.lock();
            report.forced = conns.len();
            for entry in conns.values() {
                let _ = entry.stream.shutdown(Shutdown::Both);
            }
        }
        self.shared
            .wait_conns_gone(Instant::now() + Duration::from_secs(2));
        for h in self.shared.reapable.lock().drain(..) {
            let _ = h.join();
        }
        report.duration = start.elapsed();
        report
    }

    /// Wakes the accept thread, which blocks in `accept()`, with a
    /// loopback connection to the listener; it sees the drain flag and
    /// exits, dropping the listener.
    fn stop_accepting(&self) {
        let Some(accept) = self.accept.lock().take() else {
            return;
        };
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // If the wake-up cannot connect the thread stays parked in
        // `accept()` and exits on the next connection instead; joining
        // it here would make the drain unbounded.
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.drain();
    }
}

// ---------------------------------------------------------- accept loop

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            // `drain`'s wake-up connection, or a client that raced it.
            if let Ok((stream, _)) = accepted {
                refuse(stream, &shared, "draining");
            }
            return;
        }
        match accepted {
            Ok((stream, _)) => handle_accept(stream, &shared),
            // Transient accept errors (EMFILE, ECONNABORTED): the
            // listener itself is still healthy. Descriptors come back
            // when a connection leaves, so wait for that, not spin.
            Err(_) => {
                let mut conns = shared.conns.lock();
                shared
                    .conn_left
                    .wait_for(&mut conns, Duration::from_millis(100));
            }
        }
    }
}

fn handle_accept(stream: TcpStream, shared: &Arc<Shared>) {
    let c = &shared.counters;
    // Injected accept failure: the connection vanishes before any
    // protocol exchange, exactly like a kernel-level accept error.
    if shared.faults.should_fire(points::NET_ACCEPT_FAIL) {
        c.refused.fetch_add(1, Ordering::Relaxed);
        drop(stream);
        return;
    }
    let cancel = CancellationToken::new();
    let mut session = shared.db.session();
    session.set_session_cancel(Some(cancel.clone()));
    session.set_query_timeout(shared.cfg.query_timeout);
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    // Register before the thread exists. The registry's handle on the
    // socket is a second descriptor, so running out of those is the
    // connection limit too.
    let admitted = stream.try_clone().is_ok_and(|registered| {
        let mut conns = shared.conns.lock();
        let room = conns.len() < shared.cfg.max_conns;
        if room {
            let entry = ConnEntry {
                cancel: cancel.clone(),
                activity: session.activity(),
                stream: registered,
            };
            conns.insert(id, entry);
        }
        room
    });
    if !admitted {
        c.refused.fetch_add(1, Ordering::Relaxed);
        refuse(stream, shared, "connection limit");
        return;
    }
    let s2 = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("oltap-conn-{id}"))
        .spawn(move || {
            serve_connection(stream, session, &cancel, &s2);
            s2.conns.lock().remove(&id);
            s2.conn_left.notify_all();
        });
    match spawned {
        Ok(handle) => {
            c.accepted.fetch_add(1, Ordering::Relaxed);
            let mut reapable = shared.reapable.lock();
            reapable.retain(|h| !h.is_finished());
            reapable.push(handle);
        }
        // The thread limit (EAGAIN) is overload like the connection cap.
        // The failed spawn dropped the closure and the stream in it; the
        // registry's clone is the same socket.
        Err(_) => {
            c.refused.fetch_add(1, Ordering::Relaxed);
            if let Some(entry) = shared.conns.lock().remove(&id) {
                refuse(entry.stream, shared, "thread limit");
            }
        }
    }
}

/// Best-effort typed refusal (the peer may already be gone).
fn refuse(mut stream: TcpStream, shared: &Shared, reason: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    // Absorb the Hello so the refusal frame is read in sequence.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = read_frame(&mut stream);
    let _ = write_response(&mut stream, &shared.unavailable(reason));
    let _ = stream.shutdown(Shutdown::Both);
}

// ----------------------------------------------------------- connection

/// Writes one response as one frame in one `write`.
fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let payload = resp.encode();
    debug_assert!(payload.len() <= MAX_FRAME);
    stream.write_all(&frame_bytes(&payload))
}

/// Queued response bytes past which [`Conn::send`] writes without
/// waiting for the end of the answer: what a large result holds at the
/// edge, and the most a stalled peer leaves unsent before the write
/// deadline starts to run.
const FLUSH_AT: usize = 64 * 1024;

/// What a connection's request buffer holds between requests; a larger
/// request grows it for as long as it is being read.
const INPUT_BYTES: usize = 16 * 1024;

/// One connection's socket, as its thread uses it after the handshake.
struct Conn<'a> {
    stream: TcpStream,
    /// Bytes read from the socket: `input[start..filled]` are the next
    /// request, part of it, or more than one request.
    input: Vec<u8>,
    start: usize,
    filled: usize,
    /// The read timeout last set on the socket.
    timeout: Option<Duration>,
    /// Encoded response frames not yet written.
    out: Vec<u8>,
    shared: &'a Shared,
}

impl Conn<'_> {
    /// Queues one response frame, writing the queue out once it passes
    /// [`FLUSH_AT`]; [`Conn::flush`] ends the answer. `Err` is
    /// connection-fatal: the peer is gone, or has not read for
    /// `write_timeout`.
    fn send(&mut self, resp: Response) -> Result<()> {
        let payload = resp.encode();
        debug_assert!(payload.len() <= MAX_FRAME);
        // Injected partial write: the frames before this one and half of
        // it go out, then the socket dies — the client must detect the
        // torn frame via CRC/length.
        if self.shared.faults.should_fire(points::NET_WRITE_PARTIAL) {
            let c = &self.shared.counters;
            c.partial_writes.fetch_add(1, Ordering::Relaxed);
            let frame = frame_bytes(&payload);
            self.out
                .extend_from_slice(&frame[..(frame.len() / 2).max(1)]);
            let _ = self.stream.write_all(&self.out);
            self.out.clear();
            return Err(DbError::Io("injected partial write".into()));
        }
        put_frame(&mut self.out, &payload);
        if self.out.len() >= FLUSH_AT {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every queued frame in one `write_all`, blocking until the
    /// peer's socket takes them. `Err` as for [`Conn::send`].
    fn flush(&mut self) -> Result<()> {
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        // One frame can be megabytes; an idle connection keeps none of it.
        self.out.shrink_to(2 * FLUSH_AT);
        written.map_err(|e| {
            let c = &self.shared.counters;
            c.slow_client_disconnects.fetch_add(1, Ordering::Relaxed);
            e.into()
        })
    }

    fn send_error(&mut self, error: DbError, retry_after_ms: u64) -> Result<()> {
        self.send(Response::Error {
            error,
            retry_after_ms,
        })
    }

    /// The next request: from the buffer if it holds one whole, else read
    /// for under `idle_timeout` until its first byte, then under
    /// `read_timeout` for the rest of the frame (a peer stalling mid-frame
    /// is a torn frame). `Ok(None)` is every way a connection ends without
    /// one: EOF (the peer's close, or `drain`'s `shutdown(Read)`), the idle
    /// deadline, a torn frame (cut short, longer than [`MAX_FRAME`], or
    /// failing its CRC), a transport error. `Err` is a frame that arrived
    /// whole and does not decode.
    fn next_request(&mut self) -> Result<Option<Request>> {
        loop {
            let unread = &self.input[self.start..self.filled];
            match split_frame(unread) {
                Ok(Some((payload, used))) => {
                    let request = Request::decode(payload);
                    self.start += used;
                    return request.map(Some);
                }
                Ok(None) => {}
                Err(_) => return Ok(None),
            }
            let cfg = &self.shared.cfg;
            let timeout = match unread.is_empty() {
                true => cfg.idle_timeout,
                false => cfg.read_timeout,
            };
            if self.timeout != Some(timeout) {
                let _ = self.stream.set_read_timeout(Some(timeout));
                self.timeout = Some(timeout);
            }
            self.make_room();
            match self.stream.read(&mut self.input[self.filled..]) {
                Ok(0) => return Ok(None),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Ok(None),
            }
        }
    }

    /// Room to read into after the unread bytes, moved to the front: for
    /// the whole of the frame they start (its length already checked), or
    /// [`INPUT_BYTES`] — back to that once a large request has been read.
    fn make_room(&mut self) {
        self.input.copy_within(self.start..self.filled, 0);
        self.filled -= self.start;
        self.start = 0;
        let head = self.input[..self.filled].first_chunk().map(header);
        let want = match head {
            Some(Ok((len, _))) => (8 + len).max(INPUT_BYTES),
            _ => INPUT_BYTES,
        };
        if want > self.input.len() || (self.input.len() > INPUT_BYTES && want == INPUT_BYTES) {
            self.input.resize(want, 0);
            self.input.shrink_to(want);
        }
    }

    /// Queues one statement result, a frame at a time (a large one is
    /// on the socket but for its last [`FLUSH_AT`] bytes when this returns).
    /// Returns `Err` only for connection-fatal conditions (write failed
    /// or stalled, connection cancelled); statement errors are sent to
    /// the client and are `Ok`.
    fn send_result(
        &mut self,
        result: Result<QueryResult>,
        cancel: &CancellationToken,
    ) -> Result<()> {
        let done = |kind, count, note| Response::Done { kind, count, note };
        match result {
            Ok(QueryResult::Rows { schema, rows }) => {
                let total = rows.len() as u64;
                self.send(Response::Schema {
                    fields: schema.fields().to_vec(),
                })?;
                let per_frame = self.shared.cfg.rows_per_frame.max(1);
                let mut rows = rows.into_iter();
                loop {
                    let chunk: Vec<_> = rows.by_ref().take(per_frame).collect();
                    if chunk.is_empty() {
                        break;
                    }
                    self.send(Response::Rows { rows: chunk })?;
                }
                self.send(done(DoneKind::RowsEnd, total, String::new()))
            }
            Ok(QueryResult::Affected(n)) => {
                self.send(done(DoneKind::Affected, n as u64, String::new()))
            }
            Ok(QueryResult::Ddl) => self.send(done(DoneKind::Ddl, 0, String::new())),
            Ok(QueryResult::Txn(kind)) => self.send(done(DoneKind::Txn, 0, kind.to_string())),
            Err(e) => {
                self.shared
                    .counters
                    .statement_errors
                    .fetch_add(1, Ordering::Relaxed);
                // A tripped *connection* (not per-query deadline) is fatal.
                if cancel.is_cancelled() {
                    return Err(e);
                }
                let retry = match &e {
                    DbError::Unavailable { retry_after_ms, .. } => *retry_after_ms,
                    DbError::ResourceExhausted { .. } | DbError::DeadlineExceeded(_) => {
                        self.shared.retry_hint_ms()
                    }
                    _ => 0,
                };
                self.send_error(e, retry)
            }
        }
    }
}

/// Handshake, synchronously and outside the fault points. `false` closes
/// the connection.
fn handshake(stream: &mut TcpStream) -> bool {
    let refusal = match read_frame(stream) {
        Ok(Some(payload)) => match Request::decode(&payload) {
            Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                let ack = Response::HelloAck {
                    version: PROTOCOL_VERSION,
                };
                return write_response(stream, &ack).is_ok();
            }
            Ok(Request::Hello { version }) => DbError::Unsupported(format!(
                "protocol version {version} (server speaks {PROTOCOL_VERSION})"
            )),
            _ => DbError::InvalidArgument("first message must be Hello".into()),
        },
        _ => return false, // dead or garbled before the handshake
    };
    let _ = write_response(
        stream,
        &Response::Error {
            error: refusal,
            retry_after_ms: 0,
        },
    );
    false
}

/// The connection's thread: owns the socket and the session, and blocks
/// on the socket. Returning drops the session, which aborts any open
/// transaction (releasing its locks and versions), and then the socket;
/// the connection closes when the caller drops the registry's handle too.
fn serve_connection(
    mut stream: TcpStream,
    mut session: Session,
    cancel: &CancellationToken,
    shared: &Shared,
) {
    let cfg = &shared.cfg;
    let c = &shared.counters;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    if !handshake(&mut stream) {
        return;
    }
    let mut conn = Conn {
        stream,
        input: Vec::new(),
        start: 0,
        filled: 0,
        timeout: Some(cfg.read_timeout),
        out: Vec::new(),
        shared,
    };
    while !cancel.is_cancelled() {
        let request = if shared.draining.load(Ordering::SeqCst) {
            Ok(None)
        } else {
            conn.next_request()
        };
        let sent = match request {
            Ok(Some(Request::Close)) => break,
            Ok(Some(Request::Hello { .. })) => conn.send_error(
                DbError::InvalidArgument("duplicate Hello after handshake".into()),
                0,
            ),
            Ok(Some(Request::Query { sql })) => {
                c.queries.fetch_add(1, Ordering::Relaxed);
                // Injected edge faults, in request order: a torn request
                // is reported then the connection closes; a dropped
                // connection vanishes mid-query with no response at all
                // (the client sees a dead socket; the session drop must
                // roll back any open transaction).
                if shared.faults.should_fire(points::NET_READ_TORN) {
                    c.torn_requests.fetch_add(1, Ordering::Relaxed);
                    let _ = conn.send_error(DbError::Corruption("torn request frame".into()), 0);
                    break;
                }
                if shared.faults.should_fire(points::NET_CONN_DROP_MID_QUERY) {
                    c.dropped_mid_query.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                conn.send_result(session.execute(&sql), cancel)
            }
            Ok(None) => {
                // Woken or stopped by a drain: tell the client why.
                if shared.draining.load(Ordering::SeqCst) {
                    let _ = conn.send(shared.unavailable("draining"));
                }
                break;
            }
            Err(e) => {
                let _ = conn.send_error(e, 0);
                break; // desynchronized stream: close
            }
        };
        if sent.and_then(|()| conn.flush()).is_err() {
            break;
        }
    }
    // What a `break` above queued on its way out (a refusal, a drain
    // notice); nothing, after a failed write.
    let _ = conn.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connect(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        stream.write_all(&frame_bytes(&hello.encode())).unwrap();
        let ack = read_frame(&mut stream).unwrap().expect("handshake answer");
        assert!(matches!(
            Response::decode(&ack),
            Ok(Response::HelloAck { .. })
        ));
        stream
    }

    /// A short answer leaves in one write: one `read` on the raw socket
    /// returns Schema, Rows and Done whole, and nothing after them.
    #[test]
    fn a_point_answer_is_one_write() {
        use std::io::Read;
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        let server = Server::start(db, ServerConfig::default()).unwrap();
        let mut stream = connect(server.local_addr());
        let sql = "SELECT v FROM t WHERE id = 1".to_string();
        stream
            .write_all(&frame_bytes(&Request::Query { sql }.encode()))
            .unwrap();
        let mut buf = [0u8; 4096];
        let n = stream.read(&mut buf).unwrap();
        let mut answer = &buf[..n];
        let mut next = || {
            let payload = read_frame(&mut answer).unwrap().expect("a whole frame");
            Response::decode(&payload).unwrap()
        };
        assert!(matches!(next(), Response::Schema { .. }));
        assert!(matches!(next(), Response::Rows { rows } if rows.len() == 1));
        assert!(matches!(next(), Response::Done { count: 1, .. }));
        assert!(answer.is_empty());
    }

    /// Two requests a client sends in one write are two answers, in order:
    /// the second waits in the connection's buffer while the first runs.
    #[test]
    fn two_requests_in_one_write_get_two_answers_in_order() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        let server = Server::start(db, ServerConfig::default()).unwrap();
        let mut stream = connect(server.local_addr());
        let mut both = Vec::new();
        for id in [2, 1] {
            let sql = format!("SELECT v FROM t WHERE id = {id}");
            put_frame(&mut both, &Request::Query { sql }.encode());
        }
        stream.write_all(&both).unwrap();
        let mut next = || Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        for v in [20, 10] {
            assert!(matches!(next(), Response::Schema { .. }));
            assert!(
                matches!(next(), Response::Rows { rows } if rows == [oltap_common::row![v as i64]]),
                "answer to v = {v}"
            );
            assert!(matches!(next(), Response::Done { count: 1, .. }));
        }
        assert_eq!(server.stats().queries, 2);
    }

    /// A request whose frame stops arriving part-way is torn once the read
    /// deadline passes: the connection closes without an answer, and the
    /// next connection is served.
    #[test]
    fn a_frame_stalled_past_the_read_deadline_is_torn() {
        use std::io::Read;
        let cfg = ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)")
            .unwrap();
        let server = Server::start(db, cfg).unwrap();
        let mut stream = connect(server.local_addr());
        let sql = "SELECT id FROM t".to_string();
        let frame = frame_bytes(&Request::Query { sql }.encode());
        stream.write_all(&frame[..frame.len() - 3]).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = Instant::now();
        let read = stream.read(&mut [0u8; 64]).unwrap();
        assert_eq!(read, 0, "an answer to a torn frame");
        let took = started.elapsed();
        assert!(took < Duration::from_secs(5), "{took:?}");
        let gone = Instant::now() + Duration::from_secs(10);
        server.shared.wait_conns_gone(gone);
        let left = (server.active_connections(), server.stats().queries);
        assert_eq!(left, (0, 0));
        let mut fresh = connect(server.local_addr());
        fresh.write_all(&frame).unwrap();
        let answer = Response::decode(&read_frame(&mut fresh).unwrap().unwrap()).unwrap();
        assert!(matches!(answer, Response::Schema { .. }), "{answer:?}");
    }

    /// Finished connection threads are reaped as new ones are accepted,
    /// so a long-lived server does not keep a handle per connection it
    /// ever served.
    #[test]
    fn finished_connection_handles_are_reaped_at_accept() {
        let server = Server::start(Database::new(), ServerConfig::default()).unwrap();
        let gone = Instant::now() + Duration::from_secs(30);
        for _ in 0..200 {
            let mut stream = connect(server.local_addr());
            stream
                .write_all(&frame_bytes(&Request::Close.encode()))
                .unwrap();
            server.shared.wait_conns_gone(gone);
            assert_eq!(server.active_connections(), 0);
        }
        // One more accept reaps the last of them; `+ 1` allows the one
        // thread that has left the registry but not yet returned.
        let _live = connect(server.local_addr());
        let live = server.active_connections();
        assert_eq!(live, 1);
        let handles = server.shared.reapable.lock().len();
        assert!(handles <= live + 1, "{handles} handles for {live} live");
    }
}
