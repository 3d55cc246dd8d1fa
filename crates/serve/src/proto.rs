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
    /// Locate at most `limit` occurrences of `pattern`.
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

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        // Writes into a Vec cannot fail.
        match self {
            Request::Insert { doc_id, bytes } => {
                write_u64(&mut out, *doc_id).unwrap();
                write_bytes(&mut out, bytes).unwrap();
            }
            Request::Delete { doc_id } => write_u64(&mut out, *doc_id).unwrap(),
            Request::Count { pattern } | Request::Find { pattern } => {
                write_bytes(&mut out, pattern).unwrap();
            }
            Request::FindLimit { pattern, limit } => {
                write_bytes(&mut out, pattern).unwrap();
                write_u64(&mut out, *limit).unwrap();
            }
            Request::Stats | Request::Health => {}
        }
        out
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

    /// Frames this request into `w`.
    ///
    /// # Errors
    /// [`ProtoError::FrameTooLarge`] when the encoded payload exceeds
    /// `max_frame`; otherwise only socket failures.
    pub fn write_frame<W: Write>(&self, w: &mut W, max_frame: u32) -> Result<(), ProtoError> {
        write_frame(w, self.opcode(), &self.payload(), max_frame)
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

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Inserted => {}
            Response::Deleted { previous } => {
                write_u8(&mut out, previous.is_some() as u8).unwrap();
                if let Some(bytes) = previous {
                    write_bytes(&mut out, bytes).unwrap();
                }
            }
            Response::Count(n) => write_u64(&mut out, *n).unwrap(),
            Response::Occurrences(hits) => {
                write_u64(&mut out, hits.len() as u64).unwrap();
                for (doc, offset) in hits {
                    write_u64(&mut out, *doc).unwrap();
                    write_u64(&mut out, *offset).unwrap();
                }
            }
            Response::Stats(stats) => {
                write_u64(&mut out, stats.docs).unwrap();
                write_u64(&mut out, stats.symbols).unwrap();
                write_u32(&mut out, stats.shards).unwrap();
                write_u64(&mut out, stats.pending_jobs).unwrap();
                write_u64(&mut out, stats.queued_requests).unwrap();
                write_u32(&mut out, stats.busy_workers).unwrap();
            }
            Response::Health { status, detail } => {
                write_u8(&mut out, status.code()).unwrap();
                write_str(&mut out, detail).unwrap();
            }
            Response::Busy { shard, queued } => {
                write_u32(&mut out, shard.unwrap_or(NO_SHARD)).unwrap();
                write_u64(&mut out, *queued).unwrap();
            }
            Response::Error(err) => encode_wire_error(&mut out, err),
        }
        out
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

    /// Frames this response into `w` (see [`Request::write_frame`]).
    ///
    /// # Errors
    /// [`ProtoError::FrameTooLarge`] when the encoded payload exceeds
    /// `max_frame`; otherwise only socket failures.
    pub fn write_frame<W: Write>(&self, w: &mut W, max_frame: u32) -> Result<(), ProtoError> {
        write_frame(w, self.opcode(), &self.payload(), max_frame)
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

/// Writes one frame: header, payload, CRC.
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
    if payload.len() as u64 > max_frame as u64 {
        return Err(ProtoError::FrameTooLarge {
            len: payload.len().min(u32::MAX as usize) as u32,
            max: max_frame,
        });
    }
    w.write_all(&MAGIC)?;
    write_u16(w, VERSION)?;
    write_u16(w, opcode)?;
    write_u32(w, payload.len() as u32)?;
    w.write_all(payload)?;
    write_u32(w, crc32(payload))?;
    Ok(())
}

/// Reads one byte — the start of the next frame — distinguishing a
/// clean close (`Ok(None)`: EOF before any byte) from everything else.
/// The serving loop uses this to wait out a connection's idle gap under
/// a different deadline than the frame that follows.
pub fn read_first_byte<R: Read>(r: &mut R) -> Result<Option<u8>, ProtoError> {
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Reads the rest of a frame whose first magic byte (`first`) was
/// already consumed; validates magic, version, length cap, and CRC, and
/// returns the authenticated `(opcode, payload)`.
pub fn read_frame_rest<R: Read>(
    first: u8,
    r: &mut R,
    max_frame: u32,
) -> Result<(u16, Vec<u8>), ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    r.read_exact(&mut header[1..])?;
    if header[..4] != MAGIC {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&header[..4]);
        return Err(ProtoError::BadMagic(magic));
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
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut crc = [0u8; 4];
    r.read_exact(&mut crc)?;
    if u32::from_le_bytes(crc) != crc32(&payload) {
        return Err(ProtoError::ChecksumMismatch);
    }
    Ok((opcode, payload))
}

/// Reads one whole frame; `Ok(None)` on a clean close before any byte.
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
    match read_first_byte(r)? {
        None => Ok(None),
        Some(first) => read_frame_rest(first, r, max_frame).map(Some),
    }
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
