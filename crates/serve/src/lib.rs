//! # dyndex-serve
//!
//! The network serving layer for dyndex sharded stores: a
//! zero-dependency `std::net` TCP server speaking a small
//! length-prefixed binary wire protocol, plus the matching blocking
//! [`Client`].
//!
//! The protocol ([`proto`]) reuses the `dyndex-persist` codec
//! discipline — little-endian primitives, versioned frames, CRC-32
//! payload checksums — so both the durable format and the wire format
//! share one set of encoders and one set of bogus-input defenses.
//! Malformed frames never panic the server: every failure is a typed
//! [`ProtoError`] locally and a typed [`WireError`] on the wire.
//!
//! The server ([`Server`]) multiplexes connections onto a bounded
//! acceptor/handler thread set. Handlers translate requests into the
//! store's normal operations — a read runs right on its handler thread
//! against the shards' published views, so it waits on no queue and no
//! shard lock, and the connection cap bounds reads in flight.
//! Backpressure is explicit: a connection past the cap, or a write whose
//! shard's worker queue has reached the shed threshold, is answered
//! [`Response::Busy`], counted by the `dyndex_serve_shed_total` metric.
//! Per-request metrics and flight-recorder root spans flow into the
//! store's `dyndex-obs` telemetry.
//!
//! ```
//! use dyndex_core::FmConfig;
//! use dyndex_serve::{Client, ServeOptions, Server};
//! use dyndex_store::StoreOptions;
//! use dyndex_text::FmIndexCompressed;
//!
//! // A store serving on an ephemeral local port.
//! let server: Server<FmIndexCompressed> = Server::create(
//!     FmConfig { sample_rate: 8 },
//!     StoreOptions::default(),
//!     ServeOptions::default(),
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.insert(1, b"documents over the wire").unwrap();
//! client.insert(2, b"the wire protocol serves dynamic indexes").unwrap();
//! assert_eq!(client.count(b"wire").unwrap(), 2);
//!
//! // Remote answers are byte-identical to the local store's.
//! let remote = client.find(b"wire").unwrap();
//! let local: Vec<(u64, u64)> = server
//!     .find(b"wire")
//!     .into_iter()
//!     .map(|hit| (hit.doc, hit.offset as u64))
//!     .collect();
//! assert_eq!(remote, local);
//!
//! drop(server); // graceful shutdown: acceptor joined, connections cut
//! ```

pub mod proto;

mod client;
mod server;

pub use client::{Client, ClientError};
pub use proto::{ProtoError, RemoteHealth, RemoteStats, Request, Response, WireError};
pub use server::{ServeOptions, Server};
