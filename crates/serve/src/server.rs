//! The serving loop: a bounded acceptor/handler thread set translating
//! wire-protocol requests into store operations, with connection-count
//! admission, queue-depth backpressure for writes, and graceful shutdown.
//!
//! ## Life of a remote query
//!
//! 1. The acceptor admits the connection (or sheds it with a best-effort
//!    `Busy` frame when [`ServeOptions::max_connections`] is reached) and
//!    hands it to a handler thread.
//! 2. The handler waits up to [`ServeOptions::idle_timeout`] for the
//!    first byte of a frame, then requires the *whole* frame within
//!    [`ServeOptions::frame_timeout`] — both absolute deadlines via
//!    [`DeadlineReader`], so a trickling client cannot pin the thread.
//! 3. The request runs through the store's normal paths. A read executes
//!    right here on the handler thread against the shards' published
//!    views — no queue, no shard lock — so reads in flight ≤ open
//!    connections ≤ [`ServeOptions::max_connections`], and step 1 is the
//!    only admission a read needs. A write first checks its shard's live
//!    worker-queue gauge: a depth at or past
//!    [`ServeOptions::shed_queue_depth`] answers [`Response::Busy`].
//! 4. The response is framed back, and a flight-recorder root span plus
//!    request metrics land in the store's telemetry.
//!
//! Malformed frames never panic the server: every failure is a typed
//! [`ProtoError`](crate::ProtoError), answered with a
//! [`WireError::Malformed`] frame when the stream is still in sync, or
//! a close when it is not.

use crate::proto::{
    self, FrameReader, RemoteHealth, RemoteStats, Request, Response, WireError, DEFAULT_MAX_FRAME,
};
use dyndex_core::StaticIndex;
use dyndex_obs::{Counter, DeadlineReader, Gauge, Histogram, Span, SpanKind, Unit};
use dyndex_store::{HealthStatus, ShardedStore, StoreOptions};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-layer knobs. The defaults suit tests and single-host use;
/// production deployments mostly tune `max_connections` and
/// `shed_queue_depth`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub addr: String,
    /// Concurrent connections admitted; excess connections receive a
    /// best-effort `Busy` frame and are closed.
    pub max_connections: usize,
    /// Depth of a shard's worker queue at which writes routed to that
    /// shard are shed with [`Response::Busy`]. Reads, `Stats` and
    /// `Health` are never shed per request: a read rides no queue (it
    /// occupies only its connection's handler thread, so
    /// `max_connections` bounds reads in flight), and operators need
    /// `Stats`/`Health` most under load.
    pub shed_queue_depth: usize,
    /// How long a connection may sit idle between frames.
    pub idle_timeout: Duration,
    /// Absolute deadline for one frame, first header byte to checksum.
    pub frame_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Cap on any frame's payload length, both directions.
    pub max_frame_len: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            shed_queue_depth: 128,
            idle_timeout: Duration::from_secs(60),
            frame_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME,
        }
    }
}

/// Per-request metrics, registered into the store's registry so one
/// scrape covers both layers.
struct ServeMetrics {
    connections_total: Arc<Counter>,
    connections_open: Arc<Gauge>,
    requests_total: Arc<Counter>,
    shed_total: Arc<Counter>,
    proto_errors_total: Arc<Counter>,
    request_duration: Arc<Histogram>,
}

impl ServeMetrics {
    fn bind(registry: &dyndex_obs::MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            connections_total: registry.counter(
                "dyndex_serve_connections_total",
                "Connections accepted by the wire-protocol server",
                Unit::Count,
            ),
            connections_open: registry.gauge(
                "dyndex_serve_connections_open",
                "Connections currently open",
                Unit::Count,
            ),
            requests_total: registry.counter(
                "dyndex_serve_requests_total",
                "Requests decoded and answered",
                Unit::Count,
            ),
            shed_total: registry.counter(
                "dyndex_serve_shed_total",
                "Requests and connections shed with a Busy response",
                Unit::Count,
            ),
            proto_errors_total: registry.counter(
                "dyndex_serve_proto_errors_total",
                "Malformed or timed-out frames from clients",
                Unit::Count,
            ),
            request_duration: registry.histogram(
                "dyndex_serve_request_duration",
                "Wall time from decoded request to written response",
                Unit::Nanos,
                8,
            ),
        }
    }
}

/// Shared between the server handle, the acceptor, and every handler.
struct Shared {
    shutdown: AtomicBool,
    /// Live handler connections (admission control + shutdown wait).
    open: AtomicUsize,
    /// Cloned stream handles, so shutdown can cut every live connection
    /// instead of waiting out their idle timeouts.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    metrics: Option<ServeMetrics>,
}

/// A running wire-protocol server over a [`ShardedStore`].
///
/// The server *owns* an `Arc` of the store (mirroring how
/// `DurableStore` wraps one) and derefs to it, so in-process code keeps
/// the whole local API while remote clients connect over TCP. Dropping
/// the server stops the acceptor, cuts live connections, and then drops
/// its store reference — the admin endpoint's graceful-shutdown
/// discipline, extended to data traffic.
///
/// ```
/// use dyndex_core::FmConfig;
/// use dyndex_serve::{Client, ServeOptions, Server};
/// use dyndex_store::StoreOptions;
/// use dyndex_text::FmIndexCompressed;
///
/// let server: Server<FmIndexCompressed> = Server::create(
///     FmConfig { sample_rate: 8 },
///     StoreOptions::default(),
///     ServeOptions::default(),
/// )
/// .unwrap();
///
/// // Local API still available through Deref…
/// server.insert(1, b"served documents").unwrap();
///
/// // …and the same data over TCP.
/// let mut client = Client::connect(server.addr()).unwrap();
/// assert_eq!(client.count(b"served").unwrap(), 1);
/// ```
pub struct Server<I: StaticIndex + Sync> {
    store: Arc<ShardedStore<I>>,
    shared: Arc<Shared>,
    options: ServeOptions,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl<I: StaticIndex + Sync> std::fmt::Debug for Server<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl<I: StaticIndex + Sync> Server<I> {
    /// Builds a fresh store and serves it — the one-call path mirroring
    /// [`ShardedStore::new`].
    ///
    /// # Errors
    /// Propagates the listener bind failure.
    pub fn create(
        config: I::Config,
        store_options: StoreOptions,
        options: ServeOptions,
    ) -> std::io::Result<Server<I>> {
        Server::over(Arc::new(ShardedStore::new(config, store_options)), options)
    }

    /// Serves an existing store. The `Arc` lets callers keep their own
    /// handle (or share the store with a durability layer).
    ///
    /// # Errors
    /// Propagates the listener bind failure.
    pub fn over(store: Arc<ShardedStore<I>>, options: ServeOptions) -> std::io::Result<Server<I>> {
        let listener = TcpListener::bind(parse_addr(&options.addr)?)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            metrics: store.metrics().map(|r| ServeMetrics::bind(&r)),
        });
        let accept_thread = {
            let store = Arc::clone(&store);
            let shared = Arc::clone(&shared);
            let options = options.clone();
            std::thread::Builder::new()
                .name("dyndex-serve".to_string())
                .spawn(move || accept_loop(&listener, &store, &shared, &options))?
        };
        Ok(Server {
            store,
            shared,
            options,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A fresh handle to the served store.
    pub fn store(&self) -> Arc<ShardedStore<I>> {
        Arc::clone(&self.store)
    }

    /// The options this server runs with.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::Acquire)
    }
}

impl<I: StaticIndex + Sync> Deref for Server<I> {
    type Target = ShardedStore<I>;

    fn deref(&self) -> &ShardedStore<I> {
        &self.store
    }
}

impl<I: StaticIndex + Sync> Drop for Server<I> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Cut every live connection: handlers blocked in a read observe
        // EOF/reset instead of waiting out their idle timeout.
        if let Ok(conns) = self.shared.conns.lock() {
            for conn in conns.values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        // Wake the blocked accept and join the acceptor.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Bounded wait for handler threads to drain; they exit promptly
        // once their sockets are shut down.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.open.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// `ToSocketAddrs` resolution with a typed error for an empty result.
fn parse_addr(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("address {addr:?} resolved to nothing"),
        )
    })
}

fn accept_loop<I: StaticIndex + Sync>(
    listener: &TcpListener,
    store: &Arc<ShardedStore<I>>,
    shared: &Arc<Shared>,
    options: &ServeOptions,
) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(conn) = conn else { continue };
        if shared.open.load(Ordering::Acquire) >= options.max_connections {
            // Connection-level shed: tell the peer explicitly (best
            // effort — it may already be gone) rather than silently
            // queueing it behind a full house.
            if let Some(m) = &shared.metrics {
                m.shed_total.inc();
            }
            let _ = conn.set_write_timeout(Some(options.write_timeout));
            let busy = Response::Busy {
                shard: None,
                queued: shared.open.load(Ordering::Acquire) as u64,
            };
            let _ = busy.write_frame(&mut &conn, options.max_frame_len);
            let _ = conn.shutdown(Shutdown::Both);
            continue;
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = conn.try_clone() {
            if let Ok(mut conns) = shared.conns.lock() {
                conns.insert(conn_id, clone);
            }
        }
        shared.open.fetch_add(1, Ordering::AcqRel);
        if let Some(m) = &shared.metrics {
            m.connections_total.inc();
            m.connections_open
                .set(shared.open.load(Ordering::Acquire) as u64);
        }
        let store = Arc::clone(store);
        let handler_shared = Arc::clone(shared);
        let options = options.clone();
        let spawned = std::thread::Builder::new()
            .name("dyndex-serve-conn".to_string())
            .spawn(move || {
                serve_connection(&conn, &store, &handler_shared, &options);
                if let Ok(mut conns) = handler_shared.conns.lock() {
                    conns.remove(&conn_id);
                }
                handler_shared.open.fetch_sub(1, Ordering::AcqRel);
                if let Some(m) = &handler_shared.metrics {
                    m.connections_open
                        .set(handler_shared.open.load(Ordering::Acquire) as u64);
                }
            });
        if spawned.is_err() {
            // Thread spawn failed (resource exhaustion): roll the
            // admission back so the slot frees up.
            if let Ok(mut conns) = shared.conns.lock() {
                conns.remove(&conn_id);
            }
            shared.open.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// One connection's request/response loop. Returns when the peer closes,
/// a deadline fires, framing desyncs, or shutdown cuts the socket. Owns
/// the connection's buffers: `frames` receives (and keeps what a `read`
/// delivered past the current frame), `out` is the reply, one `write_all`.
fn serve_connection<I: StaticIndex + Sync>(
    conn: &TcpStream,
    store: &ShardedStore<I>,
    shared: &Shared,
    options: &ServeOptions,
) {
    let _ = conn.set_write_timeout(Some(options.write_timeout));
    let _ = conn.set_nodelay(true);
    let max_frame = options.max_frame_len;
    let (mut frames, mut out) = (FrameReader::default(), Vec::new());
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Phase 1: wait out the idle gap for a frame's first byte (a
        // `read` for the previous frame may already have delivered it).
        let mut idle = DeadlineReader::new(conn, options.idle_timeout);
        match frames.await_frame(&mut idle) {
            Ok(true) => {}
            _ => return, // clean close, idle timeout or reset
        }
        // Phase 2: the rest of the frame under the (much tighter) frame
        // deadline — the slow-loris defense. That first `read` normally
        // brought a small frame whole, and this phase reads nothing.
        let mut reader = DeadlineReader::new(conn, options.frame_timeout);
        let (opcode, payload) = match frames.read_frame(&mut reader, max_frame) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(err) => {
                // Framing is broken (desync, timeout, oversize): answer
                // with the typed error if the socket still writes, then
                // close — resynchronizing a byte stream is not possible.
                if let Some(m) = &shared.metrics {
                    m.proto_errors_total.inc();
                }
                let reply = Response::Error(WireError::Malformed {
                    detail: err.to_string(),
                });
                let _ = reply.write_frame(&mut &*conn, max_frame);
                return;
            }
        };
        // The frame is intact; a payload that does not decode leaves the
        // stream in sync, so the connection survives the typed error.
        let response = match Request::decode(opcode, payload) {
            Ok(request) => handle_request(store, shared, options, request),
            Err(err) => {
                if let Some(m) = &shared.metrics {
                    m.proto_errors_total.inc();
                }
                if (0x80..=0xFF).contains(&opcode) {
                    Response::Error(WireError::Unsupported { opcode })
                } else {
                    Response::Error(WireError::Malformed {
                        detail: err.to_string(),
                    })
                }
            }
        };
        out.clear();
        out.shrink_to(proto::READ_AHEAD);
        let encoded = match response.encode_frame(&mut out, max_frame) {
            // Refused before a byte reached the socket, so the stream is
            // still in sync: say why and keep the connection.
            Err(proto::ProtoError::FrameTooLarge { len, max }) => {
                let reply = Response::Error(WireError::Internal {
                    detail: format!(
                        "reply of {len} bytes exceeds the {max}-byte frame cap; use find_limit"
                    ),
                });
                reply.encode_frame(&mut out, max_frame)
            }
            encoded => encoded,
        };
        if encoded.is_err() || (&mut &*conn).write_all(&out).is_err() {
            return;
        }
    }
}

/// Executes one decoded request: shed check, store call (panic-contained),
/// metrics, and a flight-recorder root span.
fn handle_request<I: StaticIndex + Sync>(
    store: &ShardedStore<I>,
    shared: &Shared,
    options: &ServeOptions,
    request: Request,
) -> Response {
    let flight = store.flight_recorder();
    let span = flight.as_ref().map(|f| (f.next_span_id(), f.now_nanos()));
    let opcode = request.opcode();
    let started = Instant::now();

    let response = match shed_verdict(store, options, &request) {
        Some(busy) => {
            if let Some(m) = &shared.metrics {
                m.shed_total.inc();
            }
            busy
        }
        None => execute(store, request),
    };

    if let Some(m) = &shared.metrics {
        m.requests_total.inc();
        m.request_duration
            .record(started.elapsed().as_nanos() as u64);
    }
    if let (Some(flight), Some((id, start_nanos))) = (flight, span) {
        flight.finish_root(Span {
            start_nanos,
            duration_nanos: started.elapsed().as_nanos() as u64,
            detail: opcode as u64,
            ..Span::root(id, SpanKind::ServeRequest)
        });
    }
    response
}

/// The backpressure decision: `Some(Busy)` when the queue a write would
/// contend with is already at the shed threshold.
///
/// Writes gate on *their* shard's queue (depth there means its worker —
/// which shares the shard's write lock via maintenance — is behind).
/// Reads always pass: they ride no queue, and the connection cap at
/// accept already bounds how many run at once. `Stats` and `Health`
/// always pass: under overload they are the requests an operator needs
/// answered.
fn shed_verdict<I: StaticIndex + Sync>(
    store: &ShardedStore<I>,
    options: &ServeOptions,
    request: &Request,
) -> Option<Response> {
    let threshold = options.shed_queue_depth;
    match request {
        Request::Insert { doc_id, .. } | Request::Delete { doc_id } => {
            let shard = store.shard_of(*doc_id);
            let depth = store.shard_queue_depth(shard);
            (depth >= threshold).then_some(Response::Busy {
                shard: Some(shard as u32),
                queued: depth as u64,
            })
        }
        Request::Count { .. }
        | Request::Find { .. }
        | Request::FindLimit { .. }
        | Request::Stats
        | Request::Health => None,
    }
}

/// Runs the request against the store. Every panic is contained to an
/// [`WireError::Internal`] response: hostile or buggy input can poison a
/// shard (that is the store's contract) but never kills the server.
fn execute<I: StaticIndex + Sync>(store: &ShardedStore<I>, request: Request) -> Response {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match request {
        Request::Insert { doc_id, bytes } => {
            // Precheck keeps the normal duplicate path typed; the
            // catch_unwind above is the backstop for the insert/insert
            // race on the same id.
            if store.contains(doc_id) {
                return Response::Error(WireError::DuplicateDocument { doc_id });
            }
            match store.insert(doc_id, &bytes) {
                Ok(()) => Response::Inserted,
                Err(poisoned) => Response::Error(WireError::ShardPoisoned {
                    shard: poisoned.shard as u32,
                }),
            }
        }
        Request::Delete { doc_id } => match store.delete(doc_id) {
            Ok(previous) => Response::Deleted { previous },
            Err(poisoned) => Response::Error(WireError::ShardPoisoned {
                shard: poisoned.shard as u32,
            }),
        },
        Request::Count { pattern } => Response::Count(store.count(&pattern) as u64),
        Request::Find { pattern } => Response::Occurrences(
            store
                .find(&pattern)
                .into_iter()
                .map(|hit| (hit.doc, hit.offset as u64))
                .collect(),
        ),
        Request::FindLimit { pattern, limit } => {
            let limit = usize::try_from(limit).unwrap_or(usize::MAX);
            Response::Occurrences(
                store
                    .find_limit(&pattern, limit)
                    .into_iter()
                    .map(|hit| (hit.doc, hit.offset as u64))
                    .collect(),
            )
        }
        Request::Stats => {
            let stats = store.stats();
            Response::Stats(RemoteStats {
                docs: stats.total_docs() as u64,
                symbols: stats.total_symbols() as u64,
                shards: stats.shards.len() as u32,
                pending_jobs: stats.pending_jobs() as u64,
                queued_requests: stats.queued_requests() as u64,
                busy_workers: stats.busy_workers() as u32,
            })
        }
        Request::Health => {
            let report = store.health();
            Response::Health {
                status: match report.status {
                    HealthStatus::Ok => RemoteHealth::Ok,
                    HealthStatus::Degraded => RemoteHealth::Degraded,
                    HealthStatus::Unhealthy => RemoteHealth::Unhealthy,
                },
                detail: report.to_string(),
            }
        }
    }));
    outcome.unwrap_or_else(|panic| {
        let detail = if let Some(s) = panic.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = panic.downcast_ref::<String>() {
            s.clone()
        } else {
            "request panicked".to_string()
        };
        Response::Error(WireError::Internal { detail })
    })
}
