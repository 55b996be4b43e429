//! # iotls-tls
//!
//! Sans-IO TLS substrate for the IoTLS reproduction (Paracha et al.,
//! IMC 2021).
//!
//! Everything the paper measures about TLS lives here:
//!
//! * [`version`] / [`ciphersuite`] — protocol versions and a registry
//!   of real IANA ciphersuite code points classified exactly as the
//!   paper classifies them (insecure / null-anon / forward-secret);
//! * [`record`], [`handshake`], [`extension`], [`alert`] — the wire
//!   format: record framing, handshake messages, hello extensions,
//!   and alert messages (the root-store side channel's carrier). The
//!   codec is written once per direction: [`write_record`],
//!   [`HandshakeMessage::encode_into`] and
//!   [`extension::encode_extensions_into`] write, and the zero-copy
//!   [`Deframer`] and [`HandshakeMessage::decode`] read, for the
//!   endpoints and the gateway tap alike;
//! * [`client`] / [`server`] — event-driven state machines in the
//!   smoltcp style: bytes in, bytes out, no sockets, no clock of
//!   their own;
//! * [`middleware`] — observe/rewrite/intercept hook chains fed a
//!   session's wire bytes from a gateway tap's position
//!   (`Chain::feed`);
//! * [`fingerprint`] — JA3-shaped client fingerprinting (§5.3);
//! * [`profile`] — per-library alert behavior from Table 4, which
//!   determines amenability to the root-store probe;
//! * [`prf`] / [`session`] — the RFC 5246 key schedule and record
//!   protection.

pub mod alert;
pub mod ciphersuite;
pub mod client;
pub mod codec;
pub mod extension;
pub mod fingerprint;
pub mod handshake;
pub mod middleware;
pub mod prf;
pub mod profile;
pub mod record;
pub mod server;
pub mod session;
pub mod version;

pub use alert::{Alert, AlertDescription, AlertLevel};
pub use ciphersuite::{by_id, by_name, BulkCipher, CipherSuite, KeyExchange, MacAlgorithm};
pub use client::{CachedSession, ClientConfig, ClientConnection, HandshakeFailure, HandshakeSummary};
pub use extension::Extension;
pub use fingerprint::{Fingerprint, FingerprintId};
pub use handshake::{ClientHello, HandshakeMessage, ServerHello};
pub use middleware::{Chain, ChainStats, Flow, Middleware, RecordCounter, Signal, Stage, Verdict};
pub use profile::LibraryProfile;
pub use record::{write_record, ContentType, Deframer, RecordRef, SessionBuf};
pub use server::{ServerConfig, ServerConnection, ServerFailure, SessionCache};
pub use session::{SessionScratch, Status};
pub use version::ProtocolVersion;
