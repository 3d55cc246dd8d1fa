//! A zero-dependency admin endpoint over plain [`std::net`].
//!
//! One blocking accept thread, one short-lived thread per connection,
//! exact-path `GET` routing, HTTP/1.0-style responses with
//! `Connection: close`. This is deliberately *not* a web framework: it
//! exists so an operator (or a Prometheus scraper, or `curl`) can read
//! `/metrics`, `/health`, `/spans`, and `/slow` without linking
//! anything — and it is the first TCP code the ROADMAP's serving-layer
//! milestone builds on.
//!
//! Shutdown is graceful and prompt: dropping the [`AdminServer`] flips
//! a flag and self-connects to wake the blocked `accept`, then joins
//! the accept thread. No polling loops, no dropped-on-the-floor
//! listener threads.

use crate::net::DeadlineReader;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Total budget for reading one request head. Absolute, not per-read:
/// a client trickling bytes cannot extend it (see [`DeadlineReader`]).
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Largest request head accepted; anything longer is rejected outright
/// rather than parsed from a truncated prefix.
const MAX_HEAD: usize = 8 * 1024;

/// A response from an admin route handler.
#[derive(Debug, Clone)]
pub struct AdminResponse {
    /// HTTP status code (200, 404, 503, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl AdminResponse {
    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<String>) -> Self {
        AdminResponse {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A plain-text response with an explicit status code (e.g. `503`
    /// for an unhealthy `/health`).
    pub fn with_status(status: u16, body: impl Into<String>) -> Self {
        AdminResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// The `404 Not Found` response served for unknown paths.
    pub fn not_found() -> Self {
        AdminResponse::with_status(404, "not found\n")
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// A route handler: called once per matching request, returns the body.
pub type AdminHandler = Box<dyn Fn() -> AdminResponse + Send + Sync>;

/// A minimal threaded HTTP listener serving fixed `GET` routes.
///
/// ```
/// use dyndex_obs::{AdminResponse, AdminServer};
/// use std::io::{Read, Write};
/// use std::net::TcpStream;
///
/// let server = AdminServer::bind(
///     "127.0.0.1:0",
///     vec![("/ping".to_string(), Box::new(|| AdminResponse::text("pong\n")) as _)],
/// )
/// .unwrap();
///
/// let mut conn = TcpStream::connect(server.addr()).unwrap();
/// conn.write_all(b"GET /ping HTTP/1.0\r\n\r\n").unwrap();
/// let mut reply = String::new();
/// conn.read_to_string(&mut reply).unwrap();
/// assert!(reply.starts_with("HTTP/1.0 200 OK"));
/// assert!(reply.ends_with("pong\n"));
/// // Dropping the server wakes and joins the accept thread.
/// drop(server);
/// ```
pub struct AdminServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for AdminServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl AdminServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `routes` — `(exact path, handler)` pairs — on a
    /// background accept thread.
    pub fn bind(
        addr: impl ToSocketAddrs,
        routes: Vec<(String, AdminHandler)>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let routes = Arc::new(routes);
        let accept_thread = std::thread::Builder::new()
            .name("dyndex-admin".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    let routes = Arc::clone(&routes);
                    // One short-lived thread per connection keeps a slow
                    // client from stalling the next scrape; the read
                    // timeout bounds its lifetime.
                    let _ = std::thread::Builder::new()
                        .name("dyndex-admin-conn".to_string())
                        .spawn(move || serve_connection(conn, &routes));
                }
            })?;
        Ok(AdminServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the accept thread: a throwaway connection makes its
        // blocking `accept` return so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Reads one request head, routes it, writes one response, closes.
fn serve_connection(mut conn: TcpStream, routes: &[(String, AdminHandler)]) {
    let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));

    // The whole head must arrive within one absolute deadline. The old
    // per-read timeout reset on every successful `read`, so a slow-loris
    // client feeding one byte every ~1.9s could hold this thread for
    // hours before hitting the size cap.
    let mut reader = DeadlineReader::new(&conn, HEAD_DEADLINE);
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        match reader.read_some(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
                if head.len() > MAX_HEAD {
                    // Oversized head: reject instead of routing a
                    // truncated prefix as if it were a whole request.
                    let _ = write!(
                        conn,
                        "HTTP/1.0 431 Request Header Fields Too Large\r\nConnection: close\r\n\r\n"
                    );
                    return;
                }
            }
            Err(_) => return, // deadline exceeded or reset: drop silently
        }
    }

    let head = String::from_utf8_lossy(&head);
    let mut first_line = head.lines().next().unwrap_or("").split_whitespace();
    let method = first_line.next().unwrap_or("");
    let path = first_line.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let response = if method.is_empty() && path.is_empty() {
        return; // shutdown self-connect or an empty probe: no reply owed
    } else if method != "GET" {
        AdminResponse::with_status(405, "only GET is supported\n")
    } else {
        routes
            .iter()
            .find(|(route, _)| route == path)
            .map(|(_, handler)| handler())
            .unwrap_or_else(AdminResponse::not_found)
    };

    let _ = write!(
        conn,
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len()
    );
    let _ = conn.write_all(response.body.as_bytes());
    let _ = conn.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        let status: u16 = reply
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .unwrap();
        let body = reply
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn routes() -> Vec<(String, AdminHandler)> {
        vec![
            (
                "/metrics".to_string(),
                Box::new(|| AdminResponse::text("metric_a 1\n")) as AdminHandler,
            ),
            (
                "/health".to_string(),
                Box::new(|| AdminResponse::with_status(503, "unhealthy\n")) as AdminHandler,
            ),
        ]
    }

    #[test]
    fn serves_routes_and_404s_unknown_paths() {
        let server = AdminServer::bind("127.0.0.1:0", routes()).unwrap();
        let (status, body) = get(server.addr(), "/metrics");
        assert_eq!(status, 200);
        assert_eq!(body, "metric_a 1\n");
        let (status, body) = get(server.addr(), "/health");
        assert_eq!(status, 503);
        assert_eq!(body, "unhealthy\n");
        let (status, _) = get(server.addr(), "/nope");
        assert_eq!(status, 404);
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let server = AdminServer::bind("127.0.0.1:0", routes()).unwrap();
        let (status, body) = get(server.addr(), "/metrics?format=text");
        assert_eq!(status, 200);
        assert_eq!(body, "metric_a 1\n");
    }

    #[test]
    fn non_get_is_rejected() {
        let server = AdminServer::bind("127.0.0.1:0", routes()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        write!(conn, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.0 405"), "{reply}");
    }

    #[test]
    fn concurrent_scrapes_all_answer() {
        let server = AdminServer::bind("127.0.0.1:0", routes()).unwrap();
        let addr = server.addr();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    for _ in 0..10 {
                        let (status, _) = get(addr, "/metrics");
                        assert_eq!(status, 200);
                    }
                });
            }
        });
    }

    /// Regression: a client trickling header bytes must be cut off at
    /// the absolute head deadline. The pre-fix reader reset its 2s
    /// timeout on every successful read, so this client could have held
    /// a connection thread for hours.
    #[test]
    fn slow_loris_header_is_cut_off_at_the_deadline() {
        let server = AdminServer::bind("127.0.0.1:0", routes()).unwrap();
        let addr = server.addr();

        let mut conn = TcpStream::connect(addr).unwrap();
        let start = std::time::Instant::now();
        let mut served = false;
        // Drip a plausible GET one byte at a time, well within any
        // per-read timeout, far slower than the whole-head deadline.
        'drip: for chunk in b"GET /metrics HTTP/1.0\r\nHost: loris\r\n".iter() {
            if conn.write_all(std::slice::from_ref(chunk)).is_err() {
                break 'drip; // server already hung up on us — good
            }
            std::thread::sleep(Duration::from_millis(150));
            if start.elapsed() > HEAD_DEADLINE + Duration::from_secs(3) {
                panic!("server kept accepting trickled bytes past the deadline");
            }
            // The server stays responsive to well-behaved clients while
            // the loris dribbles.
            if !served {
                let (status, _) = get(addr, "/metrics");
                assert_eq!(status, 200);
                served = true;
            }
        }
        // The connection must be dead (reset or EOF) shortly after the
        // deadline, not after the loris finishes at its own pace.
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut scratch = [0u8; 64];
        let outcome = std::io::Read::read(&mut conn, &mut scratch);
        assert!(
            matches!(outcome, Ok(0) | Err(_)),
            "server should have dropped the trickling connection: {outcome:?}"
        );
        assert!(
            start.elapsed() < HEAD_DEADLINE + Duration::from_secs(10),
            "cutoff took {:?}",
            start.elapsed()
        );
    }

    /// An oversized request head is rejected with `431`, never routed
    /// from a truncated prefix.
    #[test]
    fn oversized_head_is_rejected() {
        let server = AdminServer::bind("127.0.0.1:0", routes()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let huge = format!(
            "GET /metrics HTTP/1.0\r\nX-Pad: {}\r\n",
            "a".repeat(MAX_HEAD)
        );
        // The server may reset mid-write once it rejects; that is fine.
        let _ = conn.write_all(huge.as_bytes());
        let mut reply = String::new();
        let _ = std::io::Read::read_to_string(&mut conn, &mut reply);
        if !reply.is_empty() {
            assert!(reply.starts_with("HTTP/1.0 431"), "{reply}");
        }
    }

    #[test]
    fn drop_shuts_down_and_frees_the_port() {
        let server = AdminServer::bind("127.0.0.1:0", routes()).unwrap();
        let addr = server.addr();
        drop(server);
        // The port is released: binding it again succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
    }
}
