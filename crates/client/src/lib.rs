//! # oltap-client
//!
//! Blocking wire-protocol client for oltapdb. Two layers:
//!
//! * [`Client`] — one TCP connection: handshake, send a query, collect
//!   the streamed response (Schema / Rows… / Done, or a typed error).
//!   Torn frames surface as [`DbError::Corruption`], a dead peer as
//!   [`DbError::Io`]; the caller decides whether to reconnect.
//! * [`RetryClient`] — reconnecting wrapper: transport failures rebuild
//!   the connection, retryable server errors ([`DbError::Unavailable`],
//!   [`DbError::ResourceExhausted`], [`DbError::DeadlineExceeded`])
//!   back off with jitter via [`oltap_common::retry::Backoff`], honoring
//!   the server's retry-after hint as a floor. Everything else is
//!   returned to the caller unchanged — a retry loop must never mask a
//!   real error.

use oltap_common::retry::Backoff;
use oltap_common::{CancellationToken, DbError, Field, Result, Row};
use oltap_server::wire::{frame_bytes, read_frame, DoneKind, Request, Response, PROTOCOL_VERSION};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A completed statement as seen by the client.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// Result schema (SELECTs only).
    pub schema: Vec<Field>,
    /// Result rows (SELECTs only).
    pub rows: Vec<Row>,
    /// What kind of completion the server reported.
    pub done: Option<DoneKind>,
    /// Row count: result rows for SELECTs, affected rows for DML.
    pub count: u64,
    /// Completion note (transaction-control statements).
    pub note: String,
}

/// One blocking wire-protocol connection.
#[derive(Debug)]
pub struct Client {
    /// Buffered for reading: a short answer's frames (Schema, Rows, Done;
    /// a header and a payload each) arrive in one segment and are taken
    /// off the socket in one `read`. Writes go to the socket directly.
    stream: BufReader<TcpStream>,
    /// Retry-after hint from the most recent server error (milliseconds;
    /// 0 when the server offered none).
    last_retry_after_ms: u64,
}

impl Client {
    /// Connects and performs the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with_timeouts(addr, Duration::from_secs(10), Duration::from_secs(10))
    }

    /// Connects with explicit per-frame read/write deadlines.
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| DbError::InvalidArgument("no address resolved".into()))?;
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(write_timeout))?;
        let mut client = Client {
            stream: BufReader::new(stream),
            last_retry_after_ms: 0,
        };
        client.send(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match client.recv()? {
            Response::HelloAck { .. } => Ok(client),
            Response::Error {
                error,
                retry_after_ms,
            } => {
                client.last_retry_after_ms = retry_after_ms;
                Err(error)
            }
            other => Err(DbError::Corruption(format!(
                "unexpected handshake response {other:?}"
            ))),
        }
    }

    /// The server's most recent retry-after hint in milliseconds (0 when
    /// none was offered). Valid after an `Err` return.
    pub fn last_retry_after_ms(&self) -> u64 {
        self.last_retry_after_ms
    }

    /// Runs one statement and collects the full response stream.
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome> {
        self.send(&Request::Query { sql: sql.into() })?;
        let mut out = QueryOutcome::default();
        loop {
            match self.recv()? {
                Response::Schema { fields } => out.schema = fields,
                Response::Rows { rows } => out.rows.extend(rows),
                Response::Done { kind, count, note } => {
                    out.done = Some(kind);
                    out.count = count;
                    out.note = note;
                    return Ok(out);
                }
                Response::Error {
                    error,
                    retry_after_ms,
                } => {
                    self.last_retry_after_ms = retry_after_ms;
                    return Err(error);
                }
                Response::HelloAck { .. } => {
                    return Err(DbError::Corruption(
                        "unexpected HelloAck mid-stream".into(),
                    ))
                }
            }
        }
    }

    /// Sends an orderly close; the server releases the session promptly
    /// instead of waiting for the idle timeout.
    pub fn close(mut self) -> Result<()> {
        self.send(&Request::Close)
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        let socket = self.stream.get_mut();
        socket.write_all(&frame_bytes(&req.encode()))?;
        socket.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response> {
        match read_frame(&mut self.stream)? {
            Some(payload) => Response::decode(&payload),
            None => Err(DbError::Io("server closed the connection".into())),
        }
    }
}

/// Retry policy knobs for [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Backoff base delay.
    pub base: Duration,
    /// Backoff cap (before jitter).
    pub cap: Duration,
    /// Give up after this many consecutive failed attempts of one query.
    pub max_attempts: u32,
    /// Per-frame read/write deadlines for the underlying connections.
    pub io_timeout: Duration,
    /// Deterministic jitter seed (tests); 0 keeps the default.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            max_attempts: 8,
            io_timeout: Duration::from_secs(10),
            seed: 0,
        }
    }
}

/// Reconnecting client: transport errors rebuild the connection,
/// retryable server errors back off (honoring the server's retry-after
/// hint as a floor), everything else propagates.
///
/// A transaction never outlives its connection: the server rolls back the
/// transaction of a connection it loses. So while one is open — from the
/// `BEGIN` the server acknowledged to its `COMMIT` or `ROLLBACK` — a
/// transport error drops the connection and answers
/// [`DbError::TxnClosed`] instead of replaying the statement on a new
/// session, where it would run alone and commit half the transaction. A
/// `COMMIT` cut this way may have committed or not. The next statement
/// starts outside any transaction.
///
/// The server also closes a transaction itself when a statement fails
/// after it has written: it rolls the transaction back and answers every
/// statement with [`DbError::TxnClosed`] until `COMMIT` (answered the
/// same, ending the block) or `ROLLBACK`. Those answers come over a live
/// connection and pass through as they are; a block ended by a refused
/// `COMMIT` still counts as open here, so a transport error on the next
/// statement answers `TxnClosed` rather than replaying it.
///
/// Note for writers: a retried autocommit DML statement may have committed
/// before the connection died, so retrying an INSERT can legitimately
/// surface [`DbError::DuplicateKey`] — callers doing exactly-once writes
/// should use keyed idempotent statements and treat that as success.
pub struct RetryClient {
    addr: String,
    cfg: RetryConfig,
    conn: Option<Client>,
    backoff: Backoff,
    cancel: CancellationToken,
    reconnects: u64,
    retries: u64,
    /// A transaction is open on `conn`.
    in_txn: bool,
}

impl RetryClient {
    /// Creates a lazily-connecting retry client.
    pub fn new(addr: impl Into<String>, cfg: RetryConfig) -> RetryClient {
        let mut backoff = Backoff::new(cfg.base, cfg.cap);
        if cfg.seed != 0 {
            backoff = backoff.seeded(cfg.seed);
        }
        RetryClient {
            addr: addr.into(),
            cfg,
            conn: None,
            backoff,
            cancel: CancellationToken::none(),
            reconnects: 0,
            retries: 0,
            in_txn: false,
        }
    }

    /// Installs a cancellation token observed during backoff sleeps, so
    /// a caller can abort a retry loop promptly.
    pub fn set_cancel(&mut self, cancel: CancellationToken) {
        self.cancel = cancel;
    }

    /// Connections rebuilt so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Backoff retries taken so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Runs one statement, reconnecting and retrying per policy.
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome> {
        let mut last_err: Option<DbError> = None;
        for _ in 0..self.cfg.max_attempts.max(1) {
            self.cancel.check()?;
            let conn = match self.ensure_connected() {
                Ok(c) => c,
                Err(e) => {
                    if !retryable(&e) {
                        return Err(e);
                    }
                    self.retries += 1;
                    last_err = Some(e);
                    self.backoff
                        .sleep_cancellable(&self.cancel, Duration::ZERO)?;
                    continue;
                }
            };
            match conn.query(sql) {
                Ok(out) => {
                    self.backoff.reset();
                    if out.done == Some(DoneKind::Txn) {
                        self.in_txn = out.note == "BEGIN";
                    }
                    return Ok(out);
                }
                Err(e) => {
                    let floor = Duration::from_millis(conn.last_retry_after_ms());
                    // Transport/framing damage poisons the connection:
                    // the stream may be desynchronized, so rebuild it.
                    if matches!(e, DbError::Io(_) | DbError::Corruption(_)) {
                        self.conn = None;
                        if std::mem::take(&mut self.in_txn) {
                            return Err(DbError::TxnClosed(format!(
                                "the connection dropped inside the transaction: {e}"
                            )));
                        }
                    }
                    if !retryable(&e) {
                        return Err(e);
                    }
                    self.retries += 1;
                    last_err = Some(e);
                    self.backoff.sleep_cancellable(&self.cancel, floor)?;
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            DbError::Execution("retry loop exhausted without an error".into())
        }))
    }

    fn ensure_connected(&mut self) -> Result<&mut Client> {
        if self.conn.is_none() {
            let c = Client::connect_with_timeouts(
                self.addr.as_str(),
                self.cfg.io_timeout,
                self.cfg.io_timeout,
            )?;
            self.reconnects += 1;
            self.conn = Some(c);
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }
}

/// Whether an error is worth retrying at the client edge: transient
/// transport damage (reconnect) or explicit server pushback (back off).
fn retryable(e: &DbError) -> bool {
    matches!(
        e,
        DbError::Io(_)
            | DbError::Corruption(_)
            | DbError::Unavailable { .. }
            | DbError::ResourceExhausted { .. }
            | DbError::DeadlineExceeded(_)
    )
}
