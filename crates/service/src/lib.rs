//! Multi-tenant F0 sketch service.
//!
//! Named sessions own one sketch each (Minimum / Bucketing / Estimation /
//! AMS F2 / structured F0), kept in the session's entry as two partials:
//! home and helper. The batch picks the partition: a `u64` batch of 2048
//! items or more is cut into two halves, and the caller moves the helper
//! partial to the service's one helper thread, which applies the second
//! half and hands the partial back, while the caller applies the first;
//! anything smaller goes whole to the home partial on the calling thread. Estimates, pairwise merges,
//! snapshots and serde-based save/restore all operate on the deterministic
//! home-then-helper merge of the partials.
//!
//! ## The determinism contract
//!
//! The split and batching are **pure routing, never a semantic change**.
//! Every F0 sketch here is a function of the distinct item *set*, its
//! repetition rows are independent given their hash draws, and both
//! partials of a session re-derive the identical draw from the session
//! seed — so partitioning a stream and re-merging the partial sketches
//! (distinct-union semantics; multiset-sum for the linear AMS sketch)
//! reproduces the unpartitioned sketch bit for bit. The same argument makes the
//! cross-*session* [`SketchService::merge_sessions`] sound, mirroring the
//! mergeable-sketch protocols of the paper's distributed F0 section. The
//! differential test suite replays every command trace against the
//! unpartitioned [`reference::ReferenceService`] and pins estimates,
//! ledgers and serialized snapshots bit-identical across batch sizes on
//! both sides of the split.
//!
//! ## The fault contract
//!
//! Failures are **values, never panics**: a panic inside a partial, on the
//! caller's thread or the helper's, is caught under `catch_unwind`, retires
//! the service and surfaces as [`ServiceError::ShardPanicked`]; storage
//! IO goes through the [`storage::Storage`] trait, is retried under a
//! deterministic [`storage::RetryPolicy`], and an exhausted budget flips
//! the durable store into degraded read-only mode
//! ([`ServiceError::Degraded`]) from which [`DurableSketchService::heal`]
//! recovers. The fault-schedule suite injects a scripted fault at *every*
//! IO operation of a reference trace via [`storage::FaultyStorage`] and
//! pins that the service either continues bit-identically or degrades
//! cleanly and heals — clippy's `disallowed-methods` keeps `unwrap`/`expect`
//! out of the non-test code so that contract cannot silently regress.
//!
//! ## Quick tour
//!
//! ```
//! use mcf0_service::{ServiceCommand, SessionSpec, SketchKind, SketchService};
//!
//! let mut service = SketchService::new(1); // the argument is ignored
//! let spec = SessionSpec::new(SketchKind::Minimum, 32, 64, 5, 7);
//! service.create_session("tenant-a", spec).unwrap();
//! service.ingest("tenant-a", &[1, 2, 3, 2, 1]).unwrap();
//! assert_eq!(service.estimate("tenant-a").unwrap(), 3.0);
//!
//! // Snapshot → restore round trips are byte-identical.
//! let saved = service.save("tenant-a").unwrap();
//! service.drop_session("tenant-a").unwrap();
//! service.restore(&saved).unwrap();
//! assert_eq!(service.save("tenant-a").unwrap(), saved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The fault contract bans panicking shortcuts from production code paths:
// `unwrap`/`expect` are denied via clippy's `disallowed-methods` (see
// clippy.toml; CI runs clippy with `-D warnings`). Unit tests may use them.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod command;
pub mod durable;
pub mod error;
pub mod net;
pub mod reference;
pub mod service;
pub mod session;
pub mod sketch;
pub mod snapshot;
pub mod storage;
pub mod wal;

mod shard;

pub use command::{CommandReply, ServiceCommand};
pub use durable::{DurableConfig, DurableSketchService, Health, RecoveryReport};
pub use error::ServiceError;
pub use net::{
    serve, ApplyService, ErrorCode, Request, Response, ServerConfig, ServerHandle, TenantDirectory,
    TenantQuota, WireError,
};
pub use reference::ReferenceService;
pub use service::{SessionSnapshot, SketchService, MAX_WINDOW_EPOCHS};
pub use session::{SessionLedger, SessionSpec, SketchKind, MAX_SESSION_BITS};
pub use sketch::{set_algebra_estimates, SessionSketch, TenantSketch};
pub use storage::{
    with_retries, FaultKind, FaultPlan, FaultyStorage, FsStorage, RetryPolicy, Storage,
    StorageFile, StorageOp,
};
