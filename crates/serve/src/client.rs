//! A blocking client handle over one TCP connection: typed methods,
//! typed errors, one in-flight request at a time.

use crate::proto::{
    FrameReader, ProtoError, RemoteHealth, RemoteStats, Request, Response, WireError,
    DEFAULT_MAX_FRAME, READ_AHEAD,
};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// A framing or socket failure (the connection should be dropped).
    Proto(ProtoError),
    /// The server shed the request under load; retry after backoff.
    Busy {
        /// The overloaded shard, `None` for store-wide pressure.
        shard: Option<u32>,
        /// Queue depth the server observed.
        queued: u64,
    },
    /// The server answered with a typed request failure.
    Remote(WireError),
    /// The server closed the connection before answering.
    Disconnected,
    /// The server answered with a response that does not match the
    /// request (a protocol bug, not an operational condition).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol failure: {e}"),
            ClientError::Busy {
                shard: Some(s),
                queued,
            } => {
                write!(f, "server busy (shard {s}, {queued} queued)")
            }
            ClientError::Busy {
                shard: None,
                queued,
            } => {
                write!(f, "server busy ({queued} queued)")
            }
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(e.into())
    }
}

/// A blocking connection to a [`Server`](crate::Server).
///
/// Each method sends one request frame and reads one response frame; the
/// connection is request/response, never pipelined. A [`ClientError::Proto`]
/// means the connection is unusable — reconnect; [`ClientError::Busy`]
/// and [`ClientError::Remote`] leave it healthy.
///
/// ```no_run
/// use dyndex_serve::Client;
///
/// let mut client = Client::connect("127.0.0.1:7070").unwrap();
/// client.insert(1, b"remote document").unwrap();
/// assert_eq!(client.count(b"remote").unwrap(), 1);
/// let hits = client.find(b"document").unwrap();
/// assert_eq!(hits, vec![(1, 7)]);
/// ```
#[derive(Debug)]
pub struct Client {
    conn: TcpStream,
    max_frame: u32,
    /// The connection's receive and send buffers: a reply normally
    /// arrives in one `read`, a request leaves in one `write`.
    frames: FrameReader,
    out: Vec<u8>,
}

impl Client {
    /// Connects with a 30-second response timeout.
    ///
    /// # Errors
    /// Connection failures surface as [`ClientError::Proto`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let mut client = Client {
            conn,
            max_frame: DEFAULT_MAX_FRAME,
            frames: FrameReader::default(),
            out: Vec::new(),
        };
        client.set_timeout(Duration::from_secs(30))?;
        Ok(client)
    }

    /// How long to wait for a response before failing with
    /// [`ProtoError::Timeout`].
    ///
    /// # Errors
    /// Propagates the socket option failure.
    pub fn set_timeout(&mut self, timeout: Duration) -> Result<(), ClientError> {
        self.conn.set_read_timeout(Some(timeout))?;
        self.conn.set_write_timeout(Some(timeout))?;
        Ok(())
    }

    /// Caps frames in both directions (mirror the server's
    /// [`ServeOptions::max_frame_len`](crate::ServeOptions::max_frame_len)
    /// when it differs from the default).
    pub fn set_max_frame(&mut self, max_frame: u32) {
        self.max_frame = max_frame;
    }

    /// One request/response exchange.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.out.clear();
        self.out.shrink_to(READ_AHEAD);
        request.encode_frame(&mut self.out, self.max_frame)?;
        self.conn.write_all(&self.out)?;
        let (opcode, payload) = self
            .frames
            .read_frame(&mut self.conn, self.max_frame)?
            .ok_or(ClientError::Disconnected)?;
        match Response::decode(opcode, payload)? {
            Response::Busy { shard, queued } => Err(ClientError::Busy { shard, queued }),
            Response::Error(err) => Err(ClientError::Remote(err)),
            other => Ok(other),
        }
    }

    /// Inserts a document. Duplicate ids fail with
    /// [`WireError::DuplicateDocument`] under [`ClientError::Remote`].
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn insert(&mut self, doc_id: u64, bytes: &[u8]) -> Result<(), ClientError> {
        match self.call(&Request::Insert {
            doc_id,
            bytes: bytes.to_vec(),
        })? {
            Response::Inserted => Ok(()),
            _ => Err(ClientError::Unexpected("insert answered non-Inserted")),
        }
    }

    /// Deletes a document, returning its bytes if it was alive.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn delete(&mut self, doc_id: u64) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&Request::Delete { doc_id })? {
            Response::Deleted { previous } => Ok(previous),
            _ => Err(ClientError::Unexpected("delete answered non-Deleted")),
        }
    }

    /// Counts occurrences of `pattern`.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn count(&mut self, pattern: &[u8]) -> Result<u64, ClientError> {
        match self.call(&Request::Count {
            pattern: pattern.to_vec(),
        })? {
            Response::Count(n) => Ok(n),
            _ => Err(ClientError::Unexpected("count answered non-Count")),
        }
    }

    /// Locates every occurrence of `pattern` as sorted `(doc, offset)`
    /// pairs — byte-identical to the local
    /// [`ShardedStore::find`](dyndex_store::ShardedStore::find) merge.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn find(&mut self, pattern: &[u8]) -> Result<Vec<(u64, u64)>, ClientError> {
        match self.call(&Request::Find {
            pattern: pattern.to_vec(),
        })? {
            Response::Occurrences(hits) => Ok(hits),
            _ => Err(ClientError::Unexpected("find answered non-Occurrences")),
        }
    }

    /// Locates any `min(limit, count)` distinct occurrences of `pattern`,
    /// sorted. Which ones is unspecified — not a prefix of [`Client::find`]:
    /// [`ShardedStore::find_limit`](dyndex_store::ShardedStore::find_limit)
    /// draws them shard by shard.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn find_limit(
        &mut self,
        pattern: &[u8],
        limit: u64,
    ) -> Result<Vec<(u64, u64)>, ClientError> {
        match self.call(&Request::FindLimit {
            pattern: pattern.to_vec(),
            limit,
        })? {
            Response::Occurrences(hits) => Ok(hits),
            _ => Err(ClientError::Unexpected(
                "find_limit answered non-Occurrences",
            )),
        }
    }

    /// The server's whole-store census.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<RemoteStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ClientError::Unexpected("stats answered non-Stats")),
        }
    }

    /// The server's health verdict plus the rendered report.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn health(&mut self) -> Result<(RemoteHealth, String), ClientError> {
        match self.call(&Request::Health)? {
            Response::Health { status, detail } => Ok((status, detail)),
            _ => Err(ClientError::Unexpected("health answered non-Health")),
        }
    }
}
