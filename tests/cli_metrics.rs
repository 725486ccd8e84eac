//! `pema-cli metrics` end to end: the binary scrapes a listener over
//! the live backend's HTTP client and lints what it read.

use pema::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Command, Output};

fn scrape(addr: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pema-cli"))
        .args(["metrics", "--addr", addr])
        .output()
        .expect("run pema-cli")
}

#[test]
fn a_metrics_server_scrape_is_clean() {
    let hub = Telemetry::new();
    hub.counter("pema_cli_test_total", "test counter", &[])
        .add(3.0);
    let server = MetricsServer::serve("127.0.0.1:0", hub).unwrap();
    let out = scrape(&format!("http://{}", server.local_addr()));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("exposition format clean"), "{stdout}");
}

#[test]
fn a_body_claimed_beyond_the_cap_fails_the_scrape() {
    // The head claims one byte more than the client's 16 MiB body cap;
    // what does arrive is a clean exposition, so only the cap can fail
    // the scrape.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
            line.clear();
        }
        let body = "# HELP x_total x\n# TYPE x_total counter\nx_total 1\n";
        let _ = (&stream).write_all(
            format!("HTTP/1.1 200 OK\r\nContent-Length: 16777217\r\n\r\n{body}").as_bytes(),
        );
    });
    let out = scrape(&addr.to_string());
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    server.join().unwrap();
}
