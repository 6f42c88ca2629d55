//! Minimal std-only HTTP/1.1 server exposing the metrics registry —
//! the first externally visible surface on the road to `eve-serve`.
//!
//! Three read-only routes:
//!
//! * `GET /metrics`  — Prometheus text exposition ([`crate::expo::prometheus_text`]);
//! * `GET /snapshot` — JSON registry dump ([`crate::expo::snapshot_json`]);
//! * `GET /health`   — liveness probe, always `200 ok`.
//!
//! One connection is served at a time (`Connection: close`, explicit
//! `Content-Length`); a scrape endpoint for one process needs nothing
//! more, and a blocking accept loop keeps the server free of threads
//! and dependencies. Malformed or oversized requests get `400`; when
//! no telemetry pipeline is installed the data routes answer `503` so
//! a scraper can tell "no data yet" from "empty registry".

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::expo;

/// Largest request head we accept before answering `400`.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A bound metrics endpoint; serve requests with
/// [`MetricsServer::handle_one`] or loop forever with `serve`.
pub struct MetricsServer {
    listener: TcpListener,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9187`; port `0` picks a free one).
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
        Ok(MetricsServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept one connection, answer one request, close.
    pub fn handle_one(&self) -> std::io::Result<()> {
        let (stream, _) = self.listener.accept()?;
        handle(stream)
    }

    /// Serve requests until accepting or answering fails fatally.
    /// Per-connection I/O errors are reported and survived.
    pub fn serve(&self) -> std::io::Result<()> {
        loop {
            if let Err(e) = self.handle_one() {
                eprintln!("eve-telemetry: metrics connection error: {e}");
            }
        }
    }
}

fn handle(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // read until the end of the request head (we ignore any body)
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_BYTES {
            return respond(&mut stream, 400, "text/plain", "request too large\n");
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) => {
                let _ = respond(&mut stream, 400, "text/plain", "read error\n");
                return Err(e);
            }
        }
    }
    let request_line = String::from_utf8_lossy(&head);
    let request_line = request_line.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return respond(&mut stream, 400, "text/plain", "malformed request\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "only GET is supported\n");
    }
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/health" => respond(&mut stream, 200, "text/plain; charset=utf-8", "ok\n"),
        "/metrics" => match expo::prometheus_text() {
            Some(body) => respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            ),
            None => respond(
                &mut stream,
                503,
                "text/plain",
                "no telemetry pipeline installed\n",
            ),
        },
        "/snapshot" => match crate::metrics_snapshot() {
            Some(snap) => respond(
                &mut stream,
                200,
                "application/json",
                &expo::snapshot_json(&snap),
            ),
            None => respond(
                &mut stream,
                503,
                "text/plain",
                "no telemetry pipeline installed\n",
            ),
        },
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n"),
        )
    }

    #[test]
    fn serves_health_metrics_and_snapshot() {
        let _serial = crate::serial_guard();
        crate::install(vec![]).unwrap();
        crate::counter_add("sync.changes", 2);
        crate::gauge_set("sync.views_active", 4);
        crate::record_duration_ns("h", 10);

        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..5 {
                server.handle_one().unwrap();
            }
        });

        let health = get(addr, "/health");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("ok\n"));

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains("version=0.0.4"));
        assert!(metrics.contains("eve_sync_changes_total 2\n"));
        assert!(metrics.contains("eve_sync_views_active 4\n"));
        let body_len = metrics.split("\r\n\r\n").nth(1).unwrap().len();
        let declared: usize = metrics
            .lines()
            .find(|l| l.starts_with("Content-Length: "))
            .and_then(|l| l.trim_start_matches("Content-Length: ").parse().ok())
            .unwrap();
        assert_eq!(body_len, declared);

        let snapshot = get(addr, "/snapshot");
        assert!(snapshot.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(snapshot.contains("application/json"));
        let body = snapshot.split("\r\n\r\n").nth(1).unwrap();
        crate::json::validate(body).unwrap();

        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        assert!(request(addr, "POST /metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));

        handle.join().unwrap();
        crate::uninstall().unwrap();
    }

    #[test]
    fn data_routes_answer_503_without_a_pipeline() {
        let _serial = crate::serial_guard();
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..2 {
                server.handle_one().unwrap();
            }
        });
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 503"));
        assert!(get(addr, "/snapshot").starts_with("HTTP/1.1 503"));
        handle.join().unwrap();
    }
}
