//! A minimal HTTP/1.1 client over [`std::net::TcpStream`], the one
//! threaded HTTP/1.1 server of this crate, and the bounded message
//! readers both share.
//!
//! The live loop issues a handful of small requests per monitoring
//! window (six Prometheus range queries, one Kubernetes PATCH per
//! allocation change); a dependency-free blocking client with explicit
//! connect/read timeouts covers that without pulling an async runtime
//! into a codebase whose fleet executor is deliberately thread-based.
//!
//! Each [`HttpClient`] keeps one persistent connection (HTTP/1.1
//! keep-alive), so a control interval costs no TCP handshakes:
//!
//! * a connection is cached only after a fully framed response
//!   (`Content-Length` or chunked) that does not carry
//!   `Connection: close`; any error drops it;
//! * a cached connection is checked without blocking before reuse, and
//!   one the server closed while idle is replaced by a fresh one;
//! * a request is never written twice — a PATCH is not idempotent — so
//!   a connection that fails mid-exchange costs exactly one
//!   [`HttpError`], and the caller's retry policy decides what next.
//!
//! Every read is bounded: a message head by [`MAX_HEADER_BYTES`], a body
//! by [`MAX_BODY_BYTES`], and no claimed length is allocated before its
//! bytes arrive.
//!
//! The server behind [`FakeCluster`](crate::FakeCluster) and
//! [`MetricsServer`](crate::MetricsServer) is a route handler on one
//! accept loop. Each connection gets its own thread (at most
//! `MAX_CONNECTIONS` at once; a client beyond the cap is closed
//! unanswered), which reads every request in full within the same caps,
//! answers a malformed one with `400` and a lingering close, keeps the
//! connection open as the request's HTTP version and `Connection`
//! header allow, and closes it after `IDLE_TIMEOUT` without traffic.
//! Threads hold only a `Weak` to the server, so dropping its last
//! handle closes every open connection and stops the accept loop.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

/// Largest message head (start line plus header fields) read from a
/// peer; a longer one is [`HttpError::Malformed`].
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Largest message body read from a peer, after chunked decoding; a
/// longer one is [`HttpError::Malformed`].
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Errors from one HTTP exchange. `Status` is *not* here: a well-formed
/// non-2xx response is reported through [`Response::status`] so callers
/// can decide which codes are retryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// TCP connect failed (refused, unreachable, connect timeout).
    Connect(String),
    /// The exchange timed out mid-request or mid-response.
    Timeout,
    /// The connection failed mid-exchange: reset, broken pipe, or closed
    /// by the peer before a complete response arrived.
    Transport(String),
    /// The peer sent bytes that do not parse as HTTP/1.1, or a message
    /// beyond [`MAX_HEADER_BYTES`] / [`MAX_BODY_BYTES`].
    Malformed(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Connect(e) => write!(f, "connect failed: {e}"),
            HttpError::Timeout => write!(f, "request timed out"),
            HttpError::Transport(e) => write!(f, "connection failed: {e}"),
            HttpError::Malformed(e) => write!(f, "malformed response: {e}"),
        }
    }
}

/// A parsed HTTP response: status line code plus the full body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the response line.
    pub status: u16,
    /// Response body, decoded from `Content-Length` or chunked framing
    /// (or read to EOF when the response has neither).
    pub body: String,
}

impl Response {
    /// True for 2xx codes.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// An `http://host:port` endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// Host name or address (no scheme, no port).
    pub host: String,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Parses `http://host:port` (scheme optional, TLS unsupported —
    /// the lab deployments this targets front Prometheus and the
    /// API server with plain HTTP or a local proxy). IPv6 literals
    /// use the standard bracketed form, `http://[::1]:9090`; the
    /// stored host is the bare address (no brackets).
    pub fn parse(url: &str) -> Result<Endpoint, String> {
        if let Some(rest) = url.strip_prefix("https://") {
            return Err(format!("https is not supported (got https://{rest})"));
        }
        let rest = url.strip_prefix("http://").unwrap_or(url);
        let rest = rest.trim_end_matches('/');
        let (host, port) = if let Some(bracketed) = rest.strip_prefix('[') {
            let (host, after) = bracketed
                .split_once(']')
                .ok_or_else(|| format!("unclosed '[' in \"{url}\""))?;
            let port = after
                .strip_prefix(':')
                .ok_or_else(|| format!("expected [host]:port, got \"{url}\""))?;
            (host, port)
        } else {
            let (host, port) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("expected host:port, got \"{url}\""))?;
            if host.contains(':') {
                return Err(format!(
                    "ambiguous IPv6 literal in \"{url}\" — use the bracketed form [addr]:port"
                ));
            }
            (host, port)
        };
        let port: u16 = port.parse().map_err(|_| format!("bad port in \"{url}\""))?;
        if host.is_empty() {
            return Err(format!("empty host in \"{url}\""));
        }
        Ok(Endpoint {
            host: host.to_string(),
            port,
        })
    }

    /// The host as it appears in URLs and `Host` headers: IPv6
    /// literals get their brackets back.
    fn host_for_wire(&self) -> String {
        if self.host.contains(':') {
            format!("[{}]", self.host)
        } else {
            self.host.clone()
        }
    }

    fn addr(&self) -> String {
        format!("{}:{}", self.host_for_wire(), self.port)
    }
}

/// Blocking HTTP/1.1 client with per-request timeouts and one
/// kept-alive connection (see the module docs).
///
/// Requests take `&self`: the cached connection sits behind a mutex, so
/// a client can be shared across threads. A [`clone`](Clone::clone)
/// starts with an empty cache and opens its own connection.
#[derive(Debug)]
pub struct HttpClient {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout of each socket operation, applied when a
    /// connection opens.
    pub io_timeout: Duration,
    conn: Mutex<Option<Conn>>,
}

impl Default for HttpClient {
    fn default() -> Self {
        HttpClient::new(Duration::from_secs(2), Duration::from_secs(5))
    }
}

impl Clone for HttpClient {
    fn clone(&self) -> Self {
        HttpClient::new(self.connect_timeout, self.io_timeout)
    }
}

impl HttpClient {
    /// A client with the given connect and read/write timeouts and no
    /// open connection.
    pub fn new(connect_timeout: Duration, io_timeout: Duration) -> Self {
        HttpClient {
            connect_timeout,
            io_timeout,
            conn: Mutex::new(None),
        }
    }

    /// Issues one request and reads the full response, over the cached
    /// connection when it is still open.
    ///
    /// `headers` are extra `Name: value` lines (e.g. authorization);
    /// `body` is sent with a `Content-Length` and a JSON content type.
    pub fn request(
        &self,
        endpoint: &Endpoint,
        method: &str,
        path_and_query: &str,
        headers: &[(String, String)],
        body: Option<&str>,
    ) -> Result<Response, HttpError> {
        // The cache is emptied for the exchange rather than locked
        // across it: a concurrent request opens its own connection.
        let cached = self
            .conn
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let mut conn = match cached {
            Some(conn) if conn.endpoint == *endpoint && conn.is_idle_open() => conn,
            _ => Conn::open(endpoint, self.connect_timeout, self.io_timeout)?,
        };
        let req = encode_request(endpoint, method, path_and_query, headers, body);
        conn.reader
            .get_mut()
            .write_all(req.as_bytes())
            .map_err(io_err)?;
        let (resp, reusable) = read_response(&mut conn.reader)?;
        // Bytes past the framed response mean the peer and we disagree
        // on framing: such a connection cannot carry another exchange.
        if reusable && conn.reader.buffer().is_empty() {
            *self.conn.lock().unwrap_or_else(PoisonError::into_inner) = Some(conn);
        }
        Ok(resp)
    }
}

/// A kept-alive connection and the endpoint it was opened to.
#[derive(Debug)]
struct Conn {
    endpoint: Endpoint,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(
        endpoint: &Endpoint,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Result<Conn, HttpError> {
        let addr = endpoint
            .addr()
            .to_socket_addrs()
            .map_err(|e| HttpError::Connect(e.to_string()))?
            .next()
            .ok_or_else(|| HttpError::Connect("no address resolved".into()))?;
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)
            .map_err(|e| HttpError::Connect(e.to_string()))?;
        stream
            .set_read_timeout(Some(io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| HttpError::Connect(e.to_string()))?;
        Ok(Conn {
            endpoint: endpoint.clone(),
            reader: BufReader::new(stream),
        })
    }

    /// True when the idle connection is still open and quiet: a
    /// non-blocking peek finds neither EOF (the server closed it) nor
    /// unsolicited bytes.
    fn is_idle_open(&self) -> bool {
        let stream = self.reader.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let quiet = matches!(
            stream.peek(&mut [0u8; 1]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
        );
        stream.set_nonblocking(false).is_ok() && quiet
    }
}

fn encode_request(
    endpoint: &Endpoint,
    method: &str,
    path_and_query: &str,
    headers: &[(String, String)],
    body: Option<&str>,
) -> String {
    use std::fmt::Write as _;
    let mut req = String::with_capacity(256 + path_and_query.len() + body.map_or(0, str::len));
    let _ = write!(
        req,
        "{method} {path_and_query} HTTP/1.1\r\nHost: {}\r\n",
        endpoint.host_for_wire()
    );
    for (name, value) in headers {
        let _ = write!(req, "{name}: {value}\r\n");
    }
    match body {
        Some(body) => {
            let _ = write!(
                req,
                "Content-Type: application/strategic-merge-patch+json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
        }
        None => req.push_str("\r\n"),
    }
    req
}

fn io_err(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Transport(e.to_string()),
    }
}

/// Reads one response. The flag says whether the connection may carry
/// another exchange: HTTP keep-alive semantics and a body framed by
/// length or chunks, not by EOF.
fn read_response<R: BufRead>(r: &mut R) -> Result<(Response, bool), HttpError> {
    let head = read_head(r, "response head")?
        .ok_or_else(|| HttpError::Transport("connection closed before the status line".into()))?;
    let mut parts = head.start.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status = parts.next().and_then(|s| s.parse::<u16>().ok());
    let Some(status) = status.filter(|_| version.starts_with("HTTP/1.")) else {
        return Err(HttpError::Malformed(format!(
            "bad status line \"{}\"",
            head.start
        )));
    };
    let framing = if matches!(status, 204 | 304) {
        Framing::Length(0)
    } else {
        head.body_framing()?
    };
    let reusable = framing != Framing::UntilEof && head.keeps_alive(version);
    // Framing is resolved on the raw bytes, and only the final body is
    // UTF-8-decoded: a Content-Length that cuts a multibyte sequence
    // surfaces as a typed error, not a char-boundary panic.
    let body = String::from_utf8(read_body(r, framing)?)
        .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok((Response { status, body }, reusable))
}

/// A message head: the start line and its header fields.
struct Head {
    /// Request line or status line.
    start: String,
    fields: Vec<(String, String)>,
}

impl Head {
    /// The value of header `name` (case-insensitive), if present.
    fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the sender lets the connection carry another message:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    fn keeps_alive(&self, version: &str) -> bool {
        let tokens = self.field("connection").unwrap_or("");
        let has = |t: &str| tokens.split(',').any(|x| x.trim().eq_ignore_ascii_case(t));
        if version == "HTTP/1.0" {
            has("keep-alive")
        } else {
            !has("close")
        }
    }

    /// How the body that follows this head is delimited. A length
    /// beyond [`MAX_BODY_BYTES`] is rejected here, before any read.
    fn body_framing(&self) -> Result<Framing, HttpError> {
        if let Some(te) = self.field("transfer-encoding") {
            return if te.eq_ignore_ascii_case("chunked") {
                Ok(Framing::Chunked)
            } else {
                Err(HttpError::Malformed(format!(
                    "unsupported Transfer-Encoding \"{te}\""
                )))
            };
        }
        let Some(len) = self.field("content-length") else {
            return Ok(Framing::UntilEof);
        };
        let len: u64 = len
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length \"{len}\"")))?;
        if len > MAX_BODY_BYTES as u64 {
            return Err(HttpError::Malformed(format!(
                "Content-Length {len} exceeds {MAX_BODY_BYTES} bytes"
            )));
        }
        Ok(Framing::Length(len as usize))
    }
}

/// How a message body is delimited on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// Exactly this many bytes.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
    /// Everything up to EOF (a response with neither framing header).
    UntilEof,
}

/// A byte budget for the lines of one message part, so a peer that
/// never ends a line, a head, or a trailer cannot grow memory.
struct Budget {
    left: usize,
    cap: usize,
    what: &'static str,
}

impl Budget {
    fn new(what: &'static str, cap: usize) -> Self {
        Budget {
            left: cap,
            cap,
            what,
        }
    }

    fn closed(&self) -> HttpError {
        HttpError::Transport(format!("connection closed mid-{}", self.what))
    }
}

/// Reads one LF-terminated line (a preceding CR is stripped) within
/// `budget`. `Ok(None)` is EOF before the line's first byte.
fn read_line<R: BufRead>(r: &mut R, budget: &mut Budget) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let n = std::io::Read::take(&mut *r, budget.left as u64)
        .read_until(b'\n', &mut line)
        .map_err(io_err)?;
    budget.left -= n;
    if line.last() != Some(&b'\n') {
        return if budget.left == 0 {
            Err(HttpError::Malformed(format!(
                "{} exceeds {} bytes",
                budget.what, budget.cap
            )))
        } else if n == 0 {
            Ok(None)
        } else {
            Err(budget.closed())
        };
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::Malformed(format!("{} is not UTF-8", budget.what)))
}

/// Reads a message head within [`MAX_HEADER_BYTES`]. `Ok(None)` is a
/// clean EOF before its first byte (an idle connection closing).
fn read_head<R: BufRead>(r: &mut R, what: &'static str) -> Result<Option<Head>, HttpError> {
    let mut budget = Budget::new(what, MAX_HEADER_BYTES);
    let Some(start) = read_line(r, &mut budget)? else {
        return Ok(None);
    };
    let mut fields = Vec::new();
    loop {
        let line = read_line(r, &mut budget)?.ok_or_else(|| budget.closed())?;
        if line.is_empty() {
            return Ok(Some(Head { start, fields }));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("{what}: header line without a colon")))?;
        fields.push((name.trim().to_string(), value.trim().to_string()));
    }
}

/// Reads a body under `framing`, within [`MAX_BODY_BYTES`], growing the
/// buffer only as bytes arrive.
fn read_body<R: BufRead>(r: &mut R, framing: Framing) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    match framing {
        Framing::Length(n) => {
            let got = copy_up_to(r, n, &mut body)?;
            if got < n {
                return Err(HttpError::Transport(format!(
                    "connection closed after {got} of {n} body bytes"
                )));
            }
        }
        Framing::Chunked => read_chunks(r, &mut body)?,
        Framing::UntilEof => {
            copy_up_to(r, MAX_BODY_BYTES + 1, &mut body)?;
            if body.len() > MAX_BODY_BYTES {
                return Err(body_too_long());
            }
        }
    }
    Ok(body)
}

fn body_too_long() -> HttpError {
    HttpError::Malformed(format!("body exceeds {MAX_BODY_BYTES} bytes"))
}

/// Appends up to `n` bytes to `out` as they arrive; returns how many
/// came before EOF.
fn copy_up_to<R: BufRead>(r: &mut R, n: usize, out: &mut Vec<u8>) -> Result<usize, HttpError> {
    let mut left = n;
    while left > 0 {
        let buf = r.fill_buf().map_err(io_err)?;
        if buf.is_empty() {
            break;
        }
        let k = buf.len().min(left);
        out.extend_from_slice(&buf[..k]);
        r.consume(k);
        left -= k;
    }
    Ok(n - left)
}

/// Decodes a `Transfer-Encoding: chunked` body into `body`: hex size
/// lines (extensions ignored), data, and trailer fields up to the blank
/// line that ends the message.
fn read_chunks<R: BufRead>(r: &mut R, body: &mut Vec<u8>) -> Result<(), HttpError> {
    loop {
        let mut size_line = Budget::new("chunk size line", MAX_HEADER_BYTES);
        let line = read_line(r, &mut size_line)?.ok_or_else(|| size_line.closed())?;
        let hex = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(hex, 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size \"{hex}\"")))?;
        if size == 0 {
            break;
        }
        if size > MAX_BODY_BYTES - body.len() {
            return Err(body_too_long());
        }
        if copy_up_to(r, size, body)? < size {
            return Err(HttpError::Transport("connection closed mid-chunk".into()));
        }
        let mut crlf = Budget::new("chunk terminator", 2);
        match read_line(r, &mut crlf)? {
            Some(rest) if rest.is_empty() => {}
            None => return Err(crlf.closed()),
            Some(_) => return Err(HttpError::Malformed("chunk data overruns its size".into())),
        }
    }
    let mut trailers = Budget::new("chunked trailer", MAX_HEADER_BYTES);
    loop {
        match read_line(r, &mut trailers)? {
            Some(line) if line.is_empty() => return Ok(()),
            Some(_) => {}
            None => return Err(trailers.closed()),
        }
    }
}

/// Connections a server serves at once; a client beyond the cap is
/// closed unanswered until a slot frees.
pub(crate) const MAX_CONNECTIONS: usize = 32;

/// How long a server connection may sit idle between requests, or stall
/// mid-request or mid-answer, before the server closes it. Short, because
/// an idle client holds one of [`MAX_CONNECTIONS`] slots; cheap, because
/// [`HttpClient`] reopens a connection the server closed while idle.
pub(crate) const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the server keeps draining a rejected request's bytes after
/// its `400`, so the close does not reset the connection before the
/// client reads the answer.
const LINGER: Duration = Duration::from_secs(1);

/// One request, read in full.
pub(crate) struct Request {
    pub(crate) method: String,
    /// Path and query string, as sent.
    pub(crate) path: String,
    head: Head,
    pub(crate) body: String,
    /// The client lets the connection carry another request.
    keep_alive: bool,
}

impl Request {
    /// The value of header `name` (case-insensitive), if present.
    pub(crate) fn field(&self, name: &str) -> Option<&str> {
        self.head.field(name)
    }
}

/// A handler's answer; the server adds the framing headers.
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
}

impl Reply {
    /// A `text/plain` answer.
    pub(crate) fn text(status: u16, body: impl Into<String>) -> Reply {
        Reply {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// An `application/json` answer.
    pub(crate) fn json(status: u16, body: impl Into<String>) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// The `404` for a request no route matches.
    pub(crate) fn no_route(req: &Request) -> Reply {
        Reply::text(404, format!("no route for {} {}", req.method, req.path))
    }
}

/// Answers one request; `None` closes the connection without an answer.
type Handler = Box<dyn Fn(&Request) -> Option<Reply> + Send + Sync>;

/// Handle to a running server. Clones share it; it stops when the last
/// handle drops (or, if a handler is running then, when it returns).
#[derive(Clone)]
pub(crate) struct Server {
    shared: Arc<Shared>,
}

struct Shared {
    handler: Handler,
    addr: SocketAddr,
    accepted: AtomicU64,
    /// Open connections by id: their number is held to
    /// [`MAX_CONNECTIONS`], and `Drop` shuts them down.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    fn conns(&self) -> MutexGuard<'_, Vec<(u64, TcpStream)>> {
        // Every update is one push or retain, so the list is valid
        // after a panic elsewhere.
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Close every open connection, which ends its thread's blocking
        // read, and wake the accept loop. Both hold only a Weak to us,
        // so they exit as soon as they fail to upgrade.
        let conns = self.conns.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (_, conn) in conns.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// Binds `addr` and serves every request with `handler` (see the module
/// docs for the connection rules).
pub(crate) fn serve(
    addr: &str,
    handler: impl Fn(&Request) -> Option<Reply> + Send + Sync + 'static,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let shared = Arc::new(Shared {
        handler: Box::new(handler),
        addr: listener.local_addr()?,
        accepted: AtomicU64::new(0),
        conns: Mutex::new(Vec::new()),
    });
    let weak = Arc::downgrade(&shared);
    std::thread::Builder::new()
        .name("http-accept".into())
        .spawn(move || accept_loop(listener, weak))?;
    Ok(Server { shared })
}

impl Server {
    /// The bound address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// TCP connections accepted so far, those closed at the cap included.
    pub(crate) fn connections(&self) -> u64 {
        self.shared.accepted.load(Ordering::SeqCst)
    }
}

fn accept_loop(listener: TcpListener, weak: Weak<Shared>) {
    for stream in listener.incoming() {
        let Some(shared) = weak.upgrade() else { return };
        let Ok(stream) = stream else { continue };
        let id = shared.accepted.fetch_add(1, Ordering::SeqCst);
        let mut conns = shared.conns();
        if conns.len() >= MAX_CONNECTIONS {
            continue; // dropping the stream closes it
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        conns.push((id, handle));
        drop(conns);
        drop(shared);
        let conn_weak = weak.clone();
        let spawned = std::thread::Builder::new()
            .name("http-conn".into())
            .spawn(move || {
                serve_requests(&stream, &conn_weak);
                forget_conn(&conn_weak, id);
            });
        if spawned.is_err() {
            forget_conn(&weak, id);
        }
    }
}

/// Drops the server's handle on connection `id`, so the socket closes
/// with its thread's.
fn forget_conn(weak: &Weak<Shared>, id: u64) {
    if let Some(shared) = weak.upgrade() {
        shared.conns().retain(|(i, _)| *i != id);
    }
}

/// Serves requests on one connection until EOF, an error, the idle
/// timeout, a `None` from the handler, a request that ends keep-alive,
/// or shutdown.
fn serve_requests(stream: &TcpStream, weak: &Weak<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IDLE_TIMEOUT));
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Err(HttpError::Malformed(e)) => {
                let _ = write_reply(stream, &Reply::text(400, e), false);
                linger_close(stream);
                return;
            }
            Ok(None) | Err(_) => return,
        };
        // A stopped server answers nothing.
        let Some(reply) = weak.upgrade().and_then(|shared| (shared.handler)(&req)) else {
            return;
        };
        if write_reply(stream, &reply, req.keep_alive).is_err() || !req.keep_alive {
            return;
        }
    }
}

/// After a `400`: stop sending, then drain what the client already sent
/// (bounded), so closing does not reset the connection and destroy the
/// answer before the client reads it.
fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let _ = std::io::copy(
        &mut stream.take(MAX_BODY_BYTES as u64),
        &mut std::io::sink(),
    );
}

/// Reads one request in full, within the read caps. `Ok(None)` is the
/// client closing an idle connection.
fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, HttpError> {
    let Some(head) = read_head(r, "request head")? else {
        return Ok(None);
    };
    let mut line = head.start.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (line.next(), line.next(), line.next()) else {
        return Err(HttpError::Malformed(format!(
            "bad request line \"{}\"",
            head.start
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version \"{version}\""
        )));
    }
    let (method, path) = (method.to_string(), path.to_string());
    let keep_alive = head.keeps_alive(version);
    // A request without framing headers has no body.
    let framing = match head.body_framing()? {
        Framing::UntilEof => Framing::Length(0),
        framing => framing,
    };
    let body = String::from_utf8(read_body(r, framing)?)
        .map_err(|_| HttpError::Malformed("request body is not UTF-8".into()))?;
    Ok(Some(Request {
        method,
        path,
        head,
        body,
        keep_alive,
    }))
}

fn write_reply(mut stream: &TcpStream, reply: &Reply, keep_alive: bool) -> std::io::Result<()> {
    let reason = match reply.status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        _ => "Internal Server Error",
    };
    let close = if keep_alive {
        ""
    } else {
        "Connection: close\r\n"
    };
    let resp = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{close}\r\n{}",
        reply.status,
        reply.content_type,
        reply.body.len(),
        reply.body
    );
    stream.write_all(resp.as_bytes())
}

/// Percent-encodes a query-string value (RFC 3986 unreserved set).
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decodes a percent-encoded query-string value (`+` as space).
pub fn urldecode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'%' && i + 2 < bytes.len() {
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
            if let Ok(v) = u8::from_str_radix(hex, 16) {
                out.push(v);
                i += 3;
                continue;
            }
        }
        out.push(if b == b'+' { b' ' } else { b });
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    fn parse(raw: &[u8]) -> Result<Response, HttpError> {
        read_response(&mut &raw[..]).map(|(resp, _)| resp)
    }

    #[test]
    fn endpoint_parses_with_and_without_scheme() {
        let e = Endpoint::parse("http://prom.local:9090").unwrap();
        assert_eq!(e, Endpoint::parse("prom.local:9090/").unwrap());
        assert_eq!(e.port, 9090);
        assert!(Endpoint::parse("https://prom:9090").is_err());
        assert!(Endpoint::parse("no-port").is_err());
        assert!(Endpoint::parse(":9090").is_err());
    }

    #[test]
    fn endpoint_handles_ipv6_literals() {
        let e = Endpoint::parse("http://[::1]:9090").unwrap();
        assert_eq!(e.host, "::1");
        assert_eq!(e.port, 9090);
        assert_eq!(e.addr(), "[::1]:9090");
        assert_eq!(
            Endpoint::parse("[fe80::1]:8080/").unwrap(),
            Endpoint {
                host: "fe80::1".into(),
                port: 8080
            }
        );
        // Unbracketed IPv6 is ambiguous (which colon starts the
        // port?) — rejected with a pointer at the bracketed form.
        let err = Endpoint::parse("http://::1:9090").unwrap_err();
        assert!(err.contains("[addr]:port"), "unhelpful error: {err}");
        assert!(Endpoint::parse("http://[::1]").is_err());
        assert!(Endpoint::parse("http://[::1:9090").is_err());
        // IPv4 and hostnames keep their bare form on the wire.
        let v4 = Endpoint::parse("127.0.0.1:80").unwrap();
        assert_eq!(v4.addr(), "127.0.0.1:80");
    }

    #[test]
    fn url_encoding_round_trips_promql() {
        let q = r#"rate(container_cpu_usage_seconds_total{namespace="pema"}[8s])"#;
        assert_eq!(urldecode(&urlencode(q)), q);
        assert_eq!(urlencode(" "), "%20");
        assert_eq!(urldecode("a+b%2Fc"), "a b/c");
    }

    #[test]
    fn response_parsing_rejects_garbage_and_truncation() {
        assert!(parse(b"not http at all\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").is_err());
        let ok = parse(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA").unwrap();
        assert_eq!(ok.body, "ok");
        assert!(ok.is_success());
        let err = parse(b"HTTP/1.1 503 Unavailable\r\n\r\nbody").unwrap();
        assert_eq!(err.status, 503);
        assert!(!err.is_success());
    }

    #[test]
    fn content_length_cutting_a_multibyte_char_is_an_error_not_a_panic() {
        // "é" is two bytes (C3 A9); a Content-Length of 2 slices the
        // sequence in half. The old String::truncate path panicked on
        // the non-char-boundary; the byte-level path reports Malformed.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nh\xC3\xA9";
        assert_eq!(
            parse(raw),
            Err(HttpError::Malformed("body is not UTF-8".into()))
        );
        // A boundary-respecting truncation of the same body is fine.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nh\xC3\xA9X";
        assert_eq!(parse(raw).unwrap().body, "h\u{e9}");
    }

    #[test]
    fn transport_failures_and_garbage_are_different_errors() {
        // EOF before or inside the head is the connection's fault...
        assert!(matches!(parse(b""), Err(HttpError::Transport(_))));
        assert!(matches!(
            parse(b"HTTP/1.1 200 OK\r\nContent-Len"),
            Err(HttpError::Transport(_))
        ));
        // ...bytes that are not HTTP are the peer's.
        assert!(matches!(
            parse(b"SSH-2.0-OpenSSH_9.6\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert_eq!(
            HttpError::Transport("reset".into()).to_string(),
            "connection failed: reset"
        );
    }

    #[test]
    fn chunked_bodies_are_decoded_within_their_framing() {
        let head = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        let raw = format!("{head}5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n");
        let (resp, reusable) = read_response(&mut raw.as_bytes()).unwrap();
        assert_eq!(resp.body, "hello world");
        assert!(reusable);
        let err = |tail: &str| parse(format!("{head}{tail}").as_bytes()).unwrap_err();
        assert!(matches!(err("zz\r\n"), HttpError::Malformed(_)));
        assert!(matches!(
            err("3\r\nhello\r\n0\r\n\r\n"),
            HttpError::Malformed(_)
        ));
        assert!(matches!(err("5\r\nhel"), HttpError::Transport(_)));
        assert!(matches!(
            err("5\r\nhello\r\n0\r\n"),
            HttpError::Transport(_)
        ));
        assert!(matches!(
            parse(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn keep_alive_follows_the_framing_and_connection_headers() {
        let reusable = |raw: &[u8]| read_response(&mut &raw[..]).unwrap().1;
        assert!(reusable(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"));
        assert!(reusable(b"HTTP/1.1 204 No Content\r\n\r\n"));
        assert!(!reusable(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"
        ));
        assert!(!reusable(b"HTTP/1.1 200 OK\r\n\r\nread to EOF"));
        assert!(!reusable(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"));
        assert!(reusable(
            b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\nConnection: Keep-Alive\r\n\r\nok"
        ));
    }

    fn exceeds(result: Result<Response, HttpError>) -> bool {
        matches!(result, Err(HttpError::Malformed(m)) if m.contains("exceeds"))
    }

    #[test]
    fn every_read_is_capped() {
        // One endless header line, and an endless run of short ones.
        let endless_line = (&b"HTTP/1.1 200 OK\r\nX-Pad: "[..]).chain(std::io::repeat(b'a'));
        assert!(exceeds(
            read_response(&mut BufReader::new(endless_line)).map(|(r, _)| r)
        ));
        let many_lines = format!(
            "HTTP/1.1 200 OK\r\n{}",
            "X-Pad: y\r\n".repeat(MAX_HEADER_BYTES / 10 + 1)
        );
        assert!(exceeds(parse(many_lines.as_bytes())));
        // Claimed lengths beyond the body cap fail before any read.
        let too_long = MAX_BODY_BYTES + 1;
        assert!(exceeds(parse(
            format!("HTTP/1.1 200 OK\r\nContent-Length: {too_long}\r\n\r\nabc").as_bytes()
        )));
        assert!(exceeds(parse(
            format!("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{too_long:x}\r\nabc")
                .as_bytes()
        )));
        assert!(matches!(
            parse(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999999\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // A body read to EOF stops at the cap too.
        let endless_body = (&b"HTTP/1.1 200 OK\r\n\r\n"[..]).chain(std::io::repeat(b'a'));
        assert!(exceeds(
            read_response(&mut BufReader::new(endless_body)).map(|(r, _)| r)
        ));
    }

    /// A loopback server with scripted answers: connection `i` answers
    /// one request with each entry of `script[i]`, closes, and sends the
    /// number of requests it read.
    fn scripted(script: Vec<Vec<String>>) -> (Endpoint, mpsc::Receiver<usize>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            for answers in script {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(&stream);
                let mut served = 0;
                for answer in answers {
                    if !matches!(read_head(&mut reader, "request head"), Ok(Some(_))) {
                        break;
                    }
                    (&stream).write_all(answer.as_bytes()).unwrap();
                    served += 1;
                }
                drop(reader);
                drop(stream);
                let _ = tx.send(served);
            }
        });
        let endpoint = Endpoint {
            host: "127.0.0.1".into(),
            port,
        };
        (endpoint, rx, server)
    }

    #[test]
    fn a_chunked_matrix_is_decoded_and_its_connection_reused() {
        let matrix = r#"{"status":"success","data":{"resultType":"matrix","result":[{"metric":{"container":"fe"},"values":[[0,"1.5"],[1,"2.5"]]}]}}"#;
        let mut answer = String::from("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
        for chunk in matrix.as_bytes().chunks(17) {
            answer.push_str(&format!("{:x}\r\n", chunk.len()));
            answer.push_str(std::str::from_utf8(chunk).unwrap());
            answer.push_str("\r\n");
        }
        answer.push_str("0\r\n\r\n");
        let (endpoint, served, server) = scripted(vec![vec![answer.clone(), answer]]);
        let client = HttpClient::default();
        for _ in 0..2 {
            let resp = client.request(&endpoint, "GET", "/q", &[], None).unwrap();
            let series = crate::prom::parse_matrix(&resp).unwrap();
            assert_eq!(series.len(), 1);
            assert_eq!(series[0].value, 2.0);
        }
        // Both exchanges rode the first connection.
        assert_eq!(served.recv().unwrap(), 2);
        server.join().unwrap();
    }

    #[test]
    fn a_connection_closed_while_idle_is_reopened_without_an_error() {
        let ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_string();
        let (endpoint, served, server) = scripted(vec![vec![ok.clone()], vec![ok]]);
        let client = HttpClient::default();
        assert_eq!(
            client
                .request(&endpoint, "GET", "/a", &[], None)
                .unwrap()
                .body,
            "ok"
        );
        // The server answered once with keep-alive, then closed; wait
        // until the client's cached socket sees the FIN.
        assert_eq!(served.recv().unwrap(), 1);
        let cached = client
            .conn
            .lock()
            .unwrap()
            .as_ref()
            .map(|c| c.reader.get_ref().try_clone().unwrap());
        let cached = cached.expect("a keep-alive answer caches the connection");
        assert_eq!(cached.peek(&mut [0u8; 1]).unwrap(), 0);
        drop(cached);
        assert_eq!(
            client
                .request(&endpoint, "GET", "/b", &[], None)
                .unwrap()
                .body,
            "ok"
        );
        // The second request went out once, on a fresh connection.
        assert_eq!(served.recv().unwrap(), 1);
        server.join().unwrap();
    }

    #[test]
    fn an_endless_header_stream_is_cut_off_at_the_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\n");
            // Until the client hangs up.
            while stream.write_all(b"X-Pad: aaaaaaaaaaaaaaaa\r\n").is_ok() {}
        });
        let endpoint = Endpoint {
            host: "127.0.0.1".into(),
            port,
        };
        let result = HttpClient::default().request(&endpoint, "GET", "/", &[], None);
        assert!(exceeds(result.clone()), "{result:?}");
        // The client hung up, which ends the server's writes.
        server.join().unwrap();
    }

    /// A server that answers `METHOD PATH` as text, except `/drop`,
    /// which its handler answers with `None`.
    fn echo_server() -> Server {
        serve("127.0.0.1:0", |req| {
            (req.path != "/drop").then(|| Reply::text(200, format!("{} {}", req.method, req.path)))
        })
        .unwrap()
    }

    /// A client socket whose reads give up before the server's idle
    /// timeout would close the connection, so only the server's own
    /// close reads as EOF.
    fn connect(server: &Server) -> TcpStream {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(IDLE_TIMEOUT / 2)).unwrap();
        stream
    }

    #[test]
    fn one_connection_carries_two_requests() {
        let server = echo_server();
        let stream = connect(&server);
        let mut reader = BufReader::new(&stream);
        for path in ["/metrics", "/again"] {
            (&stream)
                .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let (resp, reusable) = read_response(&mut reader).unwrap();
            assert_eq!(resp.body, format!("GET {path}"));
            assert!(reusable, "the server ended keep-alive after {path}");
        }
        assert_eq!(server.connections(), 1);
    }

    #[test]
    fn connection_close_and_plain_http10_get_one_answer_then_eof() {
        let server = echo_server();
        for request in [
            "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n",
            "GET /a HTTP/1.0\r\n\r\n",
        ] {
            let mut stream = connect(&server);
            stream.write_all(request.as_bytes()).unwrap();
            let mut answer = String::new();
            stream.read_to_string(&mut answer).unwrap();
            assert_eq!(answer.matches("HTTP/1.1 ").count(), 1, "{answer}");
            assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "{answer}");
            assert!(answer.contains("\r\nConnection: close\r\n"), "{answer}");
            assert!(answer.ends_with("\r\n\r\nGET /a"), "{answer}");
        }
    }

    #[test]
    fn a_bad_request_line_or_version_gets_a_400_and_a_close() {
        let server = echo_server();
        for request in ["BOGUS\r\n\r\n", "GET /a HTTP/2.0\r\n\r\n"] {
            let mut stream = connect(&server);
            stream.write_all(request.as_bytes()).unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            let mut answer = String::new();
            stream.read_to_string(&mut answer).unwrap();
            assert!(
                answer.starts_with("HTTP/1.1 400 Bad Request\r\n"),
                "{answer}"
            );
            assert!(answer.contains("\r\nConnection: close\r\n"), "{answer}");
        }
    }

    #[test]
    fn a_none_reply_closes_the_connection_unanswered() {
        let server = echo_server();
        let mut stream = connect(&server);
        stream
            .write_all(b"GET /drop HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert_eq!(answer, "");
    }
}
