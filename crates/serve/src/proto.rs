//! The wire protocol: length-prefixed, versioned, checksummed binary
//! frames over TCP, one request or response per frame.
//!
//! ## Frame layout
//!
//! ```text
//! magic "DYXS" | version u16 | opcode u16 | payload_len u32
//! payload bytes…                          | crc32(payload) u32
//! ```
//!
//! The 12-byte header is fixed-width, so a reader always knows how much
//! to expect next; the payload is decoded only after its CRC verifies.
//! This is the `dyndex-persist` frame discipline applied to a socket —
//! the primitive encoders/decoders and the CRC are literally the persist
//! codec's ([`dyndex_persist::codec`]), with two deltas for a network
//! peer instead of a trusted file: the length prefix is a `u32` checked
//! against a configurable cap *before* any payload byte is read, and
//! every failure is a typed [`ProtoError`] that the server answers or
//! closes on — never a panic.

use dyndex_persist::codec::{
    crc32, read_bytes, read_str, read_u16, read_u32, read_u64, read_u8, write_bytes, write_str,
    write_u16, write_u32, write_u64, write_u8,
};
use dyndex_persist::PersistError;
use std::io::{Read, Write};

/// Magic bytes opening every frame ("DYndex eXchange/Serve").
pub const MAGIC: [u8; 4] = *b"DYXS";
/// Protocol version this build speaks (and the only one it accepts).
pub const VERSION: u16 = 1;
/// Fixed frame header length: magic + version + opcode + payload_len.
pub const HEADER_LEN: usize = 12;
/// Default cap on a frame's payload length.
pub const DEFAULT_MAX_FRAME: u32 = 16 << 20;

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Everything that can go wrong reading or writing a frame. Malformed
/// input from a peer always lands in one of these variants — framing
/// code never panics on untrusted bytes.
#[derive(Debug)]
pub enum ProtoError {
    /// An underlying socket failure (reset, EPIPE, unexpected EOF).
    Io(std::io::Error),
    /// The peer's read or write did not complete within its deadline.
    Timeout,
    /// The frame does not start with [`MAGIC`] — the peer is not
    /// speaking this protocol, or framing sync was lost.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// The frame's payload length exceeds the reader's cap.
    FrameTooLarge {
        /// Length declared in the header.
        len: u32,
        /// The reader's configured cap.
        max: u32,
    },
    /// The payload bytes do not match the frame's CRC.
    ChecksumMismatch,
    /// The frame checksums but its payload does not decode as the
    /// opcode's message (or the opcode is unknown).
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::Timeout => write!(f, "frame deadline exceeded"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::UnsupportedVersion { found, expected } => {
                write!(f, "protocol version {found} (this build speaks {expected})")
            }
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame payload {len} bytes exceeds cap {max}")
            }
            ProtoError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ProtoError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ProtoError::Timeout,
            _ => ProtoError::Io(e),
        }
    }
}

impl From<PersistError> for ProtoError {
    fn from(e: PersistError) -> Self {
        match e {
            // Primitive reads off an in-memory payload only fail on
            // truncation/invalid bytes — all decode problems here.
            PersistError::Io(io) => ProtoError::Malformed(format!("payload truncated: {io}")),
            other => ProtoError::Malformed(other.to_string()),
        }
    }
}

/// A typed failure the server reports *to the client* inside an
/// [`Response::Error`] frame. Unlike [`ProtoError`] (a local framing
/// failure), these travel over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The write targeted a shard whose writer previously panicked;
    /// reads keep serving, writes are refused.
    ShardPoisoned {
        /// The poisoned shard.
        shard: u32,
    },
    /// An insert reused a live document id.
    DuplicateDocument {
        /// The id already present in the store.
        doc_id: u64,
    },
    /// The request frame checksummed but did not decode (bad payload or
    /// unknown request opcode); echoes the decoder's detail.
    Malformed {
        /// What failed to decode.
        detail: String,
    },
    /// The opcode is recognized as a *response* opcode, or reserved —
    /// not something a client may send.
    Unsupported {
        /// The offending opcode.
        opcode: u16,
    },
    /// The request panicked or failed inside the store; the server
    /// survived and the connection stays usable.
    Internal {
        /// Human-readable failure description.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::ShardPoisoned { shard } => write!(f, "shard {shard} poisoned"),
            WireError::DuplicateDocument { doc_id } => {
                write!(f, "document {doc_id} already exists")
            }
            WireError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            WireError::Unsupported { opcode } => write!(f, "unsupported opcode {opcode:#06x}"),
            WireError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Insert a document; duplicate ids are refused with
    /// [`WireError::DuplicateDocument`].
    Insert {
        /// Caller-assigned document id.
        doc_id: u64,
        /// Document bytes.
        bytes: Vec<u8>,
    },
    /// Delete a document by id.
    Delete {
        /// The id to delete.
        doc_id: u64,
    },
    /// Count occurrences of `pattern` across all alive documents.
    Count {
        /// The pattern bytes.
        pattern: Vec<u8>,
    },
    /// Locate every occurrence of `pattern`, sorted by `(doc, offset)`.
    Find {
        /// The pattern bytes.
        pattern: Vec<u8>,
    },
    /// Locate any `min(limit, count)` distinct occurrences of `pattern`,
    /// sorted; which ones is unspecified (drawn shard by shard).
    FindLimit {
        /// The pattern bytes.
        pattern: Vec<u8>,
        /// Maximum occurrences to return.
        limit: u64,
    },
    /// A whole-store census.
    Stats,
    /// The store's health verdict.
    Health,
}

impl Request {
    /// This request's wire opcode.
    pub fn opcode(&self) -> u16 {
        match self {
            Request::Insert { .. } => 0x01,
            Request::Delete { .. } => 0x02,
            Request::Count { .. } => 0x03,
            Request::Find { .. } => 0x04,
            Request::FindLimit { .. } => 0x05,
            Request::Stats => 0x06,
            Request::Health => 0x07,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        // Writes into a Vec cannot fail.
        match self {
            Request::Insert { doc_id, bytes } => {
                write_u64(out, *doc_id).unwrap();
                write_bytes(out, bytes).unwrap();
            }
            Request::Delete { doc_id } => write_u64(out, *doc_id).unwrap(),
            Request::Count { pattern } | Request::Find { pattern } => {
                write_bytes(out, pattern).unwrap();
            }
            Request::FindLimit { pattern, limit } => {
                write_bytes(out, pattern).unwrap();
                write_u64(out, *limit).unwrap();
            }
            Request::Stats | Request::Health => {}
        }
    }

    /// Decodes a request from a verified frame.
    pub fn decode(opcode: u16, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = std::io::Cursor::new(payload);
        let request = match opcode {
            0x01 => Request::Insert {
                doc_id: read_u64(&mut r)?,
                bytes: read_bytes(&mut r)?,
            },
            0x02 => Request::Delete {
                doc_id: read_u64(&mut r)?,
            },
            0x03 => Request::Count {
                pattern: read_bytes(&mut r)?,
            },
            0x04 => Request::Find {
                pattern: read_bytes(&mut r)?,
            },
            0x05 => Request::FindLimit {
                pattern: read_bytes(&mut r)?,
                limit: read_u64(&mut r)?,
            },
            0x06 => Request::Stats,
            0x07 => Request::Health,
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown request opcode {other:#06x}"
                )))
            }
        };
        expect_consumed(&r)?;
        Ok(request)
    }

    /// Appends this request as one whole frame to `out` — a connection's
    /// reusable send buffer, which then goes out in one `write_all`.
    ///
    /// # Errors
    /// [`ProtoError::FrameTooLarge`], leaving `out` as it was.
    pub fn encode_frame(&self, out: &mut Vec<u8>, max_frame: u32) -> Result<(), ProtoError> {
        encode_frame(out, self.opcode(), max_frame, |out| {
            self.encode_payload(out)
        })
    }

    /// Frames this request into `w` with one `write_all`.
    ///
    /// # Errors
    /// [`ProtoError::FrameTooLarge`] when the encoded payload exceeds
    /// `max_frame`; otherwise only socket failures.
    pub fn write_frame<W: Write>(&self, w: &mut W, max_frame: u32) -> Result<(), ProtoError> {
        let mut frame = Vec::new();
        self.encode_frame(&mut frame, max_frame)?;
        Ok(w.write_all(&frame)?)
    }
}

/// The store's health verdict, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteHealth {
    /// Every detector passed.
    Ok,
    /// Serving continues but something needs attention.
    Degraded,
    /// Part of the store cannot make progress.
    Unhealthy,
}

impl RemoteHealth {
    fn code(self) -> u8 {
        match self {
            RemoteHealth::Ok => 0,
            RemoteHealth::Degraded => 1,
            RemoteHealth::Unhealthy => 2,
        }
    }

    fn from_code(code: u8) -> Result<RemoteHealth, ProtoError> {
        match code {
            0 => Ok(RemoteHealth::Ok),
            1 => Ok(RemoteHealth::Degraded),
            2 => Ok(RemoteHealth::Unhealthy),
            other => Err(ProtoError::Malformed(format!(
                "bad health status byte {other:#04x}"
            ))),
        }
    }
}

/// A whole-store census, as carried on the wire — the remote projection
/// of [`dyndex_store::StoreStats`]'s aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteStats {
    /// Alive documents across all shards.
    pub docs: u64,
    /// Alive bytes across all shards.
    pub symbols: u64,
    /// Number of shards.
    pub shards: u32,
    /// In-flight background jobs across all shards.
    pub pending_jobs: u64,
    /// Requests waiting across all worker queues.
    pub queued_requests: u64,
    /// Workers executing a request at census time.
    pub busy_workers: u32,
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The insert succeeded.
    Inserted,
    /// The delete completed; carries the deleted document's bytes when
    /// the id was alive.
    Deleted {
        /// The removed document, `None` if the id was not present.
        previous: Option<Vec<u8>>,
    },
    /// Occurrence count for a [`Request::Count`].
    Count(u64),
    /// Occurrences as `(doc, offset)` pairs, sorted ascending — the
    /// answer to [`Request::Find`] / [`Request::FindLimit`].
    Occurrences(Vec<(u64, u64)>),
    /// The census for a [`Request::Stats`].
    Stats(RemoteStats),
    /// The verdict for a [`Request::Health`].
    Health {
        /// Folded health status.
        status: RemoteHealth,
        /// The full rendered report (status plus findings).
        detail: String,
    },
    /// The server shed this request under load; retry later.
    Busy {
        /// The overloaded shard for a shed write, `None` when the
        /// connection itself was refused at the connection cap.
        shard: Option<u32>,
        /// Queue depth (or open connections) observed at the shed
        /// decision.
        queued: u64,
    },
    /// The request failed with a typed error; the connection remains
    /// usable.
    Error(WireError),
}

/// Sentinel for [`Response::Busy`] with no specific shard.
const NO_SHARD: u32 = u32::MAX;

impl Response {
    /// This response's wire opcode.
    pub fn opcode(&self) -> u16 {
        match self {
            Response::Inserted => 0x81,
            Response::Deleted { .. } => 0x82,
            Response::Count(_) => 0x83,
            Response::Occurrences(_) => 0x84,
            Response::Stats(_) => 0x86,
            Response::Health { .. } => 0x87,
            Response::Busy { .. } => 0x90,
            Response::Error(_) => 0x91,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Response::Inserted => {}
            Response::Deleted { previous } => {
                write_u8(out, previous.is_some() as u8).unwrap();
                if let Some(bytes) = previous {
                    write_bytes(out, bytes).unwrap();
                }
            }
            Response::Count(n) => write_u64(out, *n).unwrap(),
            Response::Occurrences(hits) => {
                write_u64(out, hits.len() as u64).unwrap();
                for (doc, offset) in hits {
                    write_u64(out, *doc).unwrap();
                    write_u64(out, *offset).unwrap();
                }
            }
            Response::Stats(stats) => {
                write_u64(out, stats.docs).unwrap();
                write_u64(out, stats.symbols).unwrap();
                write_u32(out, stats.shards).unwrap();
                write_u64(out, stats.pending_jobs).unwrap();
                write_u64(out, stats.queued_requests).unwrap();
                write_u32(out, stats.busy_workers).unwrap();
            }
            Response::Health { status, detail } => {
                write_u8(out, status.code()).unwrap();
                write_str(out, detail).unwrap();
            }
            Response::Busy { shard, queued } => {
                write_u32(out, shard.unwrap_or(NO_SHARD)).unwrap();
                write_u64(out, *queued).unwrap();
            }
            Response::Error(err) => encode_wire_error(out, err),
        }
    }

    /// Decodes a response from a verified frame.
    pub fn decode(opcode: u16, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = std::io::Cursor::new(payload);
        let response = match opcode {
            0x81 => Response::Inserted,
            0x82 => Response::Deleted {
                previous: match read_u8(&mut r)? {
                    0 => None,
                    1 => Some(read_bytes(&mut r)?),
                    b => {
                        return Err(ProtoError::Malformed(format!(
                            "bad option byte {b:#04x} in delete response"
                        )))
                    }
                },
            },
            0x83 => Response::Count(read_u64(&mut r)?),
            0x84 => {
                let count = read_u64(&mut r)?;
                // Each pair is 16 payload bytes; an honest count can
                // never exceed what the (already bounded) payload holds.
                let remaining = (payload.len() as u64).saturating_sub(8);
                if count > remaining / 16 {
                    return Err(ProtoError::Malformed(format!(
                        "occurrence count {count} exceeds payload"
                    )));
                }
                let mut hits = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    hits.push((read_u64(&mut r)?, read_u64(&mut r)?));
                }
                Response::Occurrences(hits)
            }
            0x86 => Response::Stats(RemoteStats {
                docs: read_u64(&mut r)?,
                symbols: read_u64(&mut r)?,
                shards: read_u32(&mut r)?,
                pending_jobs: read_u64(&mut r)?,
                queued_requests: read_u64(&mut r)?,
                busy_workers: read_u32(&mut r)?,
            }),
            0x87 => Response::Health {
                status: RemoteHealth::from_code(read_u8(&mut r)?)?,
                detail: read_str(&mut r)?,
            },
            0x90 => Response::Busy {
                shard: match read_u32(&mut r)? {
                    NO_SHARD => None,
                    shard => Some(shard),
                },
                queued: read_u64(&mut r)?,
            },
            0x91 => Response::Error(decode_wire_error(&mut r)?),
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown response opcode {other:#06x}"
                )))
            }
        };
        expect_consumed(&r)?;
        Ok(response)
    }

    /// Appends this response as one whole frame to `out`, or fails as
    /// [`Request::encode_frame`] does.
    pub fn encode_frame(&self, out: &mut Vec<u8>, max_frame: u32) -> Result<(), ProtoError> {
        encode_frame(out, self.opcode(), max_frame, |out| {
            self.encode_payload(out)
        })
    }

    /// Frames this response into `w` (see [`Request::write_frame`]).
    ///
    /// # Errors
    /// [`ProtoError::FrameTooLarge`] when the encoded payload exceeds
    /// `max_frame`; otherwise only socket failures.
    pub fn write_frame<W: Write>(&self, w: &mut W, max_frame: u32) -> Result<(), ProtoError> {
        let mut frame = Vec::new();
        self.encode_frame(&mut frame, max_frame)?;
        Ok(w.write_all(&frame)?)
    }
}

fn encode_wire_error(out: &mut Vec<u8>, err: &WireError) {
    match err {
        WireError::ShardPoisoned { shard } => {
            write_u8(out, 1).unwrap();
            write_u32(out, *shard).unwrap();
        }
        WireError::DuplicateDocument { doc_id } => {
            write_u8(out, 2).unwrap();
            write_u64(out, *doc_id).unwrap();
        }
        WireError::Malformed { detail } => {
            write_u8(out, 3).unwrap();
            write_str(out, detail).unwrap();
        }
        WireError::Unsupported { opcode } => {
            write_u8(out, 4).unwrap();
            write_u16(out, *opcode).unwrap();
        }
        WireError::Internal { detail } => {
            write_u8(out, 5).unwrap();
            write_str(out, detail).unwrap();
        }
    }
}

fn decode_wire_error<R: Read>(r: &mut R) -> Result<WireError, ProtoError> {
    Ok(match read_u8(r)? {
        1 => WireError::ShardPoisoned {
            shard: read_u32(r)?,
        },
        2 => WireError::DuplicateDocument {
            doc_id: read_u64(r)?,
        },
        3 => WireError::Malformed {
            detail: read_str(r)?,
        },
        4 => WireError::Unsupported {
            opcode: read_u16(r)?,
        },
        5 => WireError::Internal {
            detail: read_str(r)?,
        },
        tag => {
            return Err(ProtoError::Malformed(format!(
                "bad wire-error tag {tag:#04x}"
            )))
        }
    })
}

fn expect_consumed(r: &std::io::Cursor<&[u8]>) -> Result<(), ProtoError> {
    if r.position() != r.get_ref().len() as u64 {
        return Err(ProtoError::Malformed(format!(
            "{} trailing bytes after payload",
            r.get_ref().len() as u64 - r.position()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Appends one frame to `out`: header, the payload `payload` writes,
/// CRC. On [`ProtoError::FrameTooLarge`] `out` is left as it was.
fn encode_frame(
    out: &mut Vec<u8>,
    opcode: u16,
    max_frame: u32,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), ProtoError> {
    let start = out.len();
    out.reserve(64); // a small frame whole, where `out` starts empty
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&opcode.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let body = start + HEADER_LEN;
    let len = out.len() - body;
    if len as u64 > max_frame as u64 {
        out.truncate(start);
        return Err(ProtoError::FrameTooLarge {
            len: len.min(u32::MAX as usize) as u32,
            max: max_frame,
        });
    }
    out[body - 4..body].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[body..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Writes one frame — header, payload, CRC — with one `write_all`.
///
/// # Errors
/// [`ProtoError::FrameTooLarge`] when `payload` exceeds `max_frame`
/// (checked before anything touches the socket, so an oversized message
/// never desyncs the stream); socket errors otherwise.
pub fn write_frame<W: Write>(
    w: &mut W,
    opcode: u16,
    payload: &[u8],
    max_frame: u32,
) -> Result<(), ProtoError> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    encode_frame(&mut frame, opcode, max_frame, |out| {
        out.extend_from_slice(payload)
    })?;
    Ok(w.write_all(&frame)?)
}

/// Validates a frame header; returns `(opcode, payload_len)`.
fn parse_header(header: &[u8], max_frame: u32) -> Result<(u16, usize), ProtoError> {
    if header[..4] != MAGIC {
        return Err(ProtoError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(ProtoError::UnsupportedVersion {
            found: version,
            expected: VERSION,
        });
    }
    let opcode = u16::from_le_bytes([header[6], header[7]]);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > max_frame {
        return Err(ProtoError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    Ok((opcode, len as usize))
}

/// Room a [`FrameReader`] offers each `read`: a small request or reply
/// — header, payload and CRC — arrives in one. Also what a connection's
/// buffers shrink back to after a large frame.
pub(crate) const READ_AHEAD: usize = 4096;

/// One connection's receive buffer, kept for the connection's lifetime
/// by whoever reads it: a `read` may deliver bytes of the *next* frame,
/// which wait here for the next [`FrameReader::read_frame`] call.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// `buf[start..end]` holds bytes received and not yet handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Never read past the frame being read (no [`READ_AHEAD`]).
    exact: bool,
}

impl FrameReader {
    /// Waits for the next frame's first byte unless it is already
    /// buffered — the idle gap between frames, which a server bounds
    /// apart from the frame itself. `Ok(false)` is a clean close.
    pub fn await_frame<R: Read>(&mut self, r: &mut R) -> Result<bool, ProtoError> {
        self.release();
        self.fill(r, 1)
    }

    /// Drops the frame handed out last (only now: its payload was lent
    /// out of the buffer) and moves what followed it to the front.
    fn release(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() > READ_AHEAD && self.end <= READ_AHEAD {
            self.buf.truncate(READ_AHEAD);
            self.buf.shrink_to_fit();
        }
    }

    /// Reads one frame, validating magic, version, length cap (before
    /// the buffer grows for the payload) and CRC; returns the
    /// authenticated `(opcode, payload)`, the payload borrowed from the
    /// buffer. `Ok(None)` is a clean close: EOF before a frame's first
    /// byte. After an error (EOF inside a frame is [`ProtoError::Io`])
    /// the stream is out of sync and the reader of no further use.
    pub fn read_frame<R: Read>(
        &mut self,
        r: &mut R,
        max_frame: u32,
    ) -> Result<Option<(u16, &[u8])>, ProtoError> {
        self.release();
        if !self.fill(r, HEADER_LEN)? {
            return Ok(None);
        }
        let (opcode, len) = parse_header(&self.buf[..HEADER_LEN], max_frame)?;
        let total = HEADER_LEN + len + 4;
        self.fill(r, total)?;
        let (payload, crc) = self.buf[HEADER_LEN..total].split_at(len);
        if crc != crc32(payload).to_le_bytes() {
            return Err(ProtoError::ChecksumMismatch);
        }
        self.start = total;
        Ok(Some((opcode, payload)))
    }

    /// Reads until `buf[..need]` is filled. `Ok(false)` on EOF with
    /// nothing buffered; EOF after that is an error.
    fn fill<R: Read>(&mut self, r: &mut R, need: usize) -> Result<bool, ProtoError> {
        if self.buf.len() < need {
            let ahead = if self.exact { 0 } else { READ_AHEAD };
            self.buf.resize(need.max(ahead), 0);
        }
        while self.end < need {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(false),
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }
}

/// Reads one whole frame from a source no [`FrameReader`] is kept for,
/// taking exactly the frame's bytes; `Ok(None)` on a clean close before
/// any byte.
///
/// # Examples
///
/// ```
/// use dyndex_serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
///
/// let mut wire = Vec::new();
/// write_frame(&mut wire, 0x03, b"pattern", DEFAULT_MAX_FRAME).unwrap();
/// let (opcode, payload) = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME)
///     .unwrap()
///     .expect("a frame was written");
/// assert_eq!((opcode, payload.as_slice()), (0x03, b"pattern".as_slice()));
///
/// // EOF before any byte is a clean close, not an error.
/// assert!(read_frame(&mut [].as_slice(), DEFAULT_MAX_FRAME).unwrap().is_none());
/// ```
pub fn read_frame<R: Read>(
    r: &mut R,
    max_frame: u32,
) -> Result<Option<(u16, Vec<u8>)>, ProtoError> {
    // No buffer outlives this call, so nothing may be read ahead.
    let mut reader = FrameReader {
        exact: true,
        ..FrameReader::default()
    };
    let frame = reader.read_frame(r, max_frame)?;
    Ok(frame.map(|(opcode, payload)| (opcode, payload.to_vec())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        req.write_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap();
        let (opcode, payload) = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(Request::decode(opcode, &payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let mut wire = Vec::new();
        resp.write_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap();
        let (opcode, payload) = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(Response::decode(opcode, &payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Insert {
            doc_id: 42,
            bytes: b"document body".to_vec(),
        });
        roundtrip_request(Request::Delete { doc_id: u64::MAX });
        roundtrip_request(Request::Count {
            pattern: b"pat".to_vec(),
        });
        roundtrip_request(Request::Find { pattern: vec![] });
        roundtrip_request(Request::FindLimit {
            pattern: vec![0, 255, 7],
            limit: 10,
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Health);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Inserted);
        roundtrip_response(Response::Deleted { previous: None });
        roundtrip_response(Response::Deleted {
            previous: Some(b"old bytes".to_vec()),
        });
        roundtrip_response(Response::Count(9_000));
        roundtrip_response(Response::Occurrences(vec![]));
        roundtrip_response(Response::Occurrences(vec![(1, 0), (1, 7), (2, 3)]));
        roundtrip_response(Response::Stats(RemoteStats {
            docs: 100,
            symbols: 5_000,
            shards: 4,
            pending_jobs: 2,
            queued_requests: 1,
            busy_workers: 3,
        }));
        roundtrip_response(Response::Health {
            status: RemoteHealth::Degraded,
            detail: "degraded: shard 1 poisoned".to_string(),
        });
        roundtrip_response(Response::Busy {
            shard: Some(3),
            queued: 17,
        });
        roundtrip_response(Response::Busy {
            shard: None,
            queued: 64,
        });
        for err in [
            WireError::ShardPoisoned { shard: 2 },
            WireError::DuplicateDocument { doc_id: 7 },
            WireError::Malformed {
                detail: "short".to_string(),
            },
            WireError::Unsupported { opcode: 0x99 },
            WireError::Internal {
                detail: "panic".to_string(),
            },
        ] {
            roundtrip_response(Response::Error(err));
        }
    }

    #[test]
    fn oversized_frames_are_refused_on_both_sides() {
        let req = Request::Insert {
            doc_id: 1,
            bytes: vec![0u8; 64],
        };
        let mut wire = Vec::new();
        assert!(matches!(
            req.write_frame(&mut wire, 16),
            Err(ProtoError::FrameTooLarge { .. })
        ));
        assert!(wire.is_empty(), "nothing written for a refused frame");

        req.write_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 16),
            Err(ProtoError::FrameTooLarge { len: _, max: 16 })
        ));
    }

    #[test]
    fn corrupted_frames_yield_typed_errors() {
        let mut wire = Vec::new();
        Request::Count {
            pattern: b"needle".to_vec(),
        }
        .write_frame(&mut wire, DEFAULT_MAX_FRAME)
        .unwrap();

        // Flipped payload byte: checksum catches it.
        let mut bad = wire.clone();
        bad[HEADER_LEN + 9] ^= 0x40;
        assert!(matches!(
            read_frame(&mut bad.as_slice(), DEFAULT_MAX_FRAME),
            Err(ProtoError::ChecksumMismatch)
        ));

        // Wrong magic.
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice(), DEFAULT_MAX_FRAME),
            Err(ProtoError::BadMagic(_))
        ));

        // Foreign version.
        let mut bad = wire.clone();
        bad[4] = 0xEE;
        assert!(matches!(
            read_frame(&mut bad.as_slice(), DEFAULT_MAX_FRAME),
            Err(ProtoError::UnsupportedVersion { found: 0xEE, .. })
        ));

        // Truncation mid-payload.
        let short = &wire[..wire.len() - 6];
        assert!(matches!(
            read_frame(&mut short.to_vec().as_slice(), DEFAULT_MAX_FRAME),
            Err(ProtoError::Io(_))
        ));
    }

    /// A `Write` that counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        wire: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` that delivers one scripted chunk per `read` call, then
    /// EOF, and counts the calls.
    struct Chunks {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Chunks {
        fn new(chunks: impl IntoIterator<Item = Vec<u8>>) -> Chunks {
            Chunks {
                chunks: chunks.into_iter().collect(),
                reads: 0,
            }
        }
    }

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            assert!(
                chunk.len() <= buf.len(),
                "the reader offered too little room"
            );
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    fn count_frame(pattern: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        let request = Request::Count {
            pattern: pattern.to_vec(),
        };
        request.encode_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap();
        wire
    }

    #[test]
    fn framing_one_write_per_frame() {
        let request = Request::Insert {
            doc_id: 7,
            bytes: vec![0xAB; 10_000],
        };
        let response = Response::Occurrences(vec![(1, 2), (3, 4)]);
        let mut w = CountingWriter::default();
        request.write_frame(&mut w, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(w.writes, 1);
        response.write_frame(&mut w, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(w.writes, 2);
        write_frame(&mut w, 0x03, b"raw payload", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(w.writes, 3);

        // What was written is the three frames, back to back.
        let mut wire = w.wire.as_slice();
        let (opcode, payload) = read_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(Request::decode(opcode, &payload).unwrap(), request);
        let (opcode, payload) = read_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(Response::decode(opcode, &payload).unwrap(), response);
        let (opcode, payload) = read_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!((opcode, payload.as_slice()), (0x03, &b"raw payload"[..]));
        assert!(read_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn framing_survives_one_byte_per_read() {
        let wire = [count_frame(b"first"), count_frame(b"second")].concat();
        let mut source = Chunks::new(wire.iter().map(|&b| vec![b]));
        let mut frames = FrameReader::default();
        for pattern in [&b"first"[..], b"second"] {
            let (opcode, payload) = frames
                .read_frame(&mut source, DEFAULT_MAX_FRAME)
                .unwrap()
                .expect("a frame");
            let pattern = pattern.to_vec();
            assert_eq!(
                Request::decode(opcode, payload).unwrap(),
                Request::Count { pattern }
            );
        }
        assert_eq!(source.reads, wire.len());
        assert!(frames
            .read_frame(&mut source, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn framing_serves_a_pipelined_frame_from_the_buffer() {
        // One `read` delivers the first frame, the second, and the head
        // of a third; a later `read` delivers the rest of the third.
        let (a, b, c) = (count_frame(b"a"), count_frame(b"bb"), count_frame(b"ccc"));
        let first = [&a[..], &b[..], &c[..5]].concat();
        let mut source = Chunks::new([first, c[5..].to_vec()]);
        let mut frames = FrameReader::default();

        let (_, payload) = frames
            .read_frame(&mut source, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(payload, &a[HEADER_LEN..a.len() - 4]);
        assert_eq!(source.reads, 1, "a small frame is one read");
        assert!(frames.await_frame(&mut source).unwrap());
        assert_eq!(source.reads, 1, "the next frame has already arrived");

        let (_, payload) = frames
            .read_frame(&mut source, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(payload, &b[HEADER_LEN..b.len() - 4]);
        assert_eq!(source.reads, 1, "served from the buffer, no read");

        let (_, payload) = frames
            .read_frame(&mut source, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(payload, &c[HEADER_LEN..c.len() - 4]);
        assert_eq!(source.reads, 2);

        // EOF between frames is a clean close.
        assert!(frames
            .read_frame(&mut source, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn framing_eof_mid_frame_is_a_typed_error() {
        let wire = count_frame(b"cut short");
        for cut in [
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 3,
            wire.len() - 1,
        ] {
            let mut source = Chunks::new([wire[..cut].to_vec()]);
            match FrameReader::default().read_frame(&mut source, DEFAULT_MAX_FRAME) {
                Err(ProtoError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}")
                }
                other => panic!("cut {cut}: expected an EOF error, got {other:?}"),
            }
            assert!(matches!(
                read_frame(&mut &wire[..cut], DEFAULT_MAX_FRAME),
                Err(ProtoError::Io(_))
            ));
        }
    }

    #[test]
    fn framing_rejects_an_over_cap_length_before_growing_the_buffer() {
        let mut header = count_frame(b"")[..HEADER_LEN].to_vec();
        header[8..12].copy_from_slice(&(DEFAULT_MAX_FRAME + 1).to_le_bytes());
        // The source holds nothing after the header: a reader that went
        // on to fetch the payload would report EOF, not the cap.
        let mut source = Chunks::new([header]);
        let mut frames = FrameReader::default();
        assert!(matches!(
            frames.read_frame(&mut source, DEFAULT_MAX_FRAME),
            Err(ProtoError::FrameTooLarge { len, max: DEFAULT_MAX_FRAME }) if len == DEFAULT_MAX_FRAME + 1
        ));
        assert_eq!(source.reads, 1);
        assert_eq!(frames.buf.len(), READ_AHEAD, "no room made for the payload");
    }

    #[test]
    fn framing_releases_a_large_frame_buffer() {
        let big = count_frame(&vec![b'x'; 10 * READ_AHEAD]);
        let mut source = Chunks::new([
            big[..READ_AHEAD].to_vec(),
            big[READ_AHEAD..].to_vec(),
            count_frame(b"small"),
        ]);
        let mut frames = FrameReader::default();
        let (_, payload) = frames
            .read_frame(&mut source, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(payload.len(), 8 + 10 * READ_AHEAD);
        assert_eq!(frames.buf.len(), big.len());
        frames
            .read_frame(&mut source, DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(frames.buf.len(), READ_AHEAD);
    }

    #[test]
    fn trailing_bytes_in_a_payload_are_malformed() {
        let mut payload = Vec::new();
        write_u64(&mut payload, 5).unwrap();
        payload.push(0xAB); // one byte too many for a Delete
        assert!(matches!(
            Request::decode(0x02, &payload),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn bogus_occurrence_count_is_malformed_not_oom() {
        let mut payload = Vec::new();
        write_u64(&mut payload, u64::MAX).unwrap(); // claims 2^64-1 pairs
        assert!(matches!(
            Response::decode(0x84, &payload),
            Err(ProtoError::Malformed(_))
        ));
    }
}
