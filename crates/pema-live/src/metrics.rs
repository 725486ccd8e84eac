//! `GET /metrics`: the controller's self-telemetry ([`Telemetry`]) in
//! Prometheus text exposition format, one route on this crate's
//! HTTP/1.1 server ([`crate::http`]), so a client that connects and
//! sends nothing stalls only itself, never the next scrape. Scrapes
//! render the registry at request time, so instrumented components
//! never block on a scrape in progress.

use crate::http::{self, Reply, Server};
use pema_telemetry::Telemetry;
use std::net::SocketAddr;

/// Handle to a running `/metrics` listener. Clones share the server;
/// it stops when the last handle drops.
#[derive(Clone)]
pub struct MetricsServer {
    server: Server,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an
    /// ephemeral test port) and starts serving scrapes of `telemetry`.
    pub fn serve(addr: &str, telemetry: Telemetry) -> std::io::Result<MetricsServer> {
        let server = http::serve(addr, move |req| {
            Some(if req.method == "GET" && req.path == "/metrics" {
                Reply {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: telemetry.render(),
                }
            } else {
                Reply::no_route(req)
            })
        })?;
        Ok(MetricsServer { server })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::MAX_CONNECTIONS;
    use pema_telemetry::lint;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

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
