//! A `std::net` threaded HTTP listener serving `GET /metrics`.
//!
//! Same shape as `pema-live`'s `FakeCluster`: a real `TcpListener` on
//! a background thread holding only a `Weak` to the shared state, a
//! shutdown flag, and a self-connect in `Drop` to wake the accept
//! loop. No tokio, no framework — the endpoint answers one request
//! per connection (`Connection: close`), which is exactly how
//! Prometheus scrapes and how CI's `pema-cli metrics` reads it.
//!
//! Each accepted connection is served on its own short-lived thread
//! (at most `MAX_CONNECTIONS` at once), so a client that connects
//! and sends nothing stalls only itself, never the next scrape.
//! Connection threads also hold only the `Weak`, so dropping the last
//! [`MetricsServer`] handle stops the listener even while a client
//! idles. Scrapes render the registry at request time, so instrumented
//! components never block on a scrape in progress.

use crate::registry::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Connections served concurrently; further clients are closed
/// unanswered until one finishes.
const MAX_CONNECTIONS: usize = 32;

/// How long a connection may take to send its request head.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

struct Inner {
    telemetry: Telemetry,
    addr: SocketAddr,
    shutdown: AtomicBool,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop so it notices the shutdown; it holds
        // only a Weak to us, so it exits as soon as it fails to
        // upgrade.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Handle to a running `/metrics` listener. Clones share the server;
/// it stops when the last handle drops.
#[derive(Clone)]
pub struct MetricsServer {
    inner: Arc<Inner>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an
    /// ephemeral test port) and starts serving scrapes of `telemetry`.
    pub fn serve(addr: &str, telemetry: Telemetry) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            telemetry,
            addr,
            shutdown: AtomicBool::new(false),
        });
        let weak: Weak<Inner> = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("pema-metrics".into())
            .spawn(move || accept_loop(listener, weak))
            .map_err(std::io::Error::other)?;
        Ok(MetricsServer { inner })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }
}

fn accept_loop(listener: TcpListener, weak: Weak<Inner>) {
    let open = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        match weak.upgrade() {
            Some(inner) if !inner.shutdown.load(Ordering::SeqCst) => {}
            _ => return,
        }
        let Ok(stream) = stream else { continue };
        if open.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
            open.fetch_sub(1, Ordering::SeqCst);
            continue; // dropping the stream closes it
        }
        let (weak, slots) = (weak.clone(), Arc::clone(&open));
        let spawned = std::thread::Builder::new()
            .name("pema-metrics-conn".into())
            .spawn(move || {
                handle(stream, &weak);
                slots.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            open.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn handle(mut stream: TcpStream, weak: &Weak<Inner>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Some((method, path)) = read_request_line(&mut stream) else {
        respond(&mut stream, 400, "text/plain", "bad request");
        return;
    };
    match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => {
            // Hold the server only for the render: a stopped server
            // answers nothing.
            let Some(body) = weak.upgrade().map(|inner| inner.telemetry.render()) else {
                return;
            };
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        _ => respond(
            &mut stream,
            404,
            "text/plain",
            &format!("no route for {method} {path}\n"),
        ),
    }
}

/// Reads up to the blank line and returns `(method, path)`. The
/// endpoint only serves bodyless GETs, so headers are skipped.
fn read_request_line(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return None;
        }
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).ok()?;
    let mut parts = head.lines().next()?.split_whitespace();
    Some((parts.next()?.to_string(), parts.next()?.to_string()))
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Internal Server Error",
    };
    let resp = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint;

    /// A minimal HTTP GET over a fresh connection, returning
    /// `(status, body)`.
    pub(crate) fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        stream.write_all(req.as_bytes()).expect("write");
        let mut resp = String::new();
        stream.read_to_string(&mut resp).expect("read");
        let status: u16 = resp
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status");
        let body = resp
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_a_lintable_scrape_and_404s_elsewhere() {
        let t = Telemetry::new();
        let c = t.counter("pema_test_total", "test counter", &[("m", "x")]);
        c.add(2.0);
        let srv = MetricsServer::serve("127.0.0.1:0", t.clone()).unwrap();
        let (status, first) = http_get(srv.local_addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(first.contains("pema_test_total{m=\"x\"} 2"), "{first}");
        c.inc();
        let (_, second) = http_get(srv.local_addr(), "/metrics");
        let r = lint(&second, Some(&first));
        assert!(r.is_clean(), "{:?}", r.violations);
        let (status, _) = http_get(srv.local_addr(), "/other");
        assert_eq!(status, 404);
    }

    #[test]
    fn idle_client_does_not_stall_scrapes() {
        let srv = MetricsServer::serve("127.0.0.1:0", Telemetry::new()).unwrap();
        let addr = srv.local_addr();
        // Connects and sends nothing: a serial server would sit in its
        // read timeout (5 s) before accepting anyone else.
        let idle = TcpStream::connect(addr).expect("idle connect");
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        let (status, _) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "scrape behind an idle client took {:?}",
            started.elapsed()
        );
        // The idle client's thread must not keep the server alive.
        drop(srv);
        assert_listener_stops(addr);
        drop(idle);
    }

    #[test]
    fn connections_beyond_the_cap_are_closed_unanswered() {
        let srv = MetricsServer::serve("127.0.0.1:0", Telemetry::new()).unwrap();
        let addr = srv.local_addr();
        let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("idle connect"))
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let mut extra = TcpStream::connect(addr).expect("connect");
        let _ = extra.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
        let mut resp = String::new();
        // Closed without an answer: EOF, or a reset for the unread request.
        let _ = extra.read_to_string(&mut resp);
        assert!(resp.is_empty(), "over-cap client was answered: {resp}");
        drop(idle);
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(10));
            let mut s = TcpStream::connect(addr).expect("connect");
            let _ = s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
            let mut resp = String::new();
            if s.read_to_string(&mut resp).is_ok() && resp.starts_with("HTTP/1.1 200") {
                return;
            }
        }
        panic!("slots were not released after the idle clients left");
    }

    /// Waits for the listener at `addr` to stop accepting. The wake
    /// connection may still be accepted; after it the listener is
    /// gone. Allows a brief grace period.
    fn assert_listener_stops(addr: SocketAddr) {
        for _ in 0..50 {
            if TcpStream::connect(addr).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("listener still accepting after drop");
    }

    #[test]
    fn server_stops_when_dropped() {
        let srv = MetricsServer::serve("127.0.0.1:0", Telemetry::new()).unwrap();
        let addr = srv.local_addr();
        drop(srv);
        assert_listener_stops(addr);
    }
}
