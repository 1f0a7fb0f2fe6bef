//! The network front-end: a `std::net` TCP server speaking
//! newline-delimited JSON over the existing [`crate::ServiceCommand`]
//! surface.
//!
//! Five modules, in the order a request meets them:
//!
//! * [`poll`] — the readiness abstraction: epoll plus a self-pipe
//!   [`poll::Waker`], layered over the `mcf0-syspoll` FFI shim.
//! * `evented` — the event-loop thread owning all connection state, a
//!   sticky worker pool decoding/applying frames, and pipelined
//!   write-backs coalesced into one flush per readiness cycle.
//! * [`proto`] — the wire codec: typed [`proto::Request`] /
//!   [`proto::Response`] lines, stable [`proto::ErrorCode`]s, and the
//!   [`proto::MAX_FRAME_BYTES`]-capped [`proto::LineReader`] that turns
//!   hostile line lengths into typed rejections instead of allocations.
//! * [`server`] — [`serve`], its one [`ServerConfig`] knob
//!   (`max_connections`), and the shared core lock whose acquisition
//!   order defines the `seq` numbers that make interleaved multi-client
//!   traffic replayable.
//! * [`tenant`] — auth tokens → tenant ids, per-tenant session
//!   namespacing (`{tenant}::{name}`), and request-count / space quotas
//!   with typed `quota_exceeded` rejections, all under that lock.
//!
//! The server adds **nothing** to the command semantics: every admitted
//! command is the ordinary [`crate::ServiceCommand`], rewritten into the
//! tenant's namespace, applied through [`crate::SketchService::apply`].
//! That is what the socket differential harness leans on — it replays the
//! same scoped commands in `seq` order against the in-process
//! [`crate::ReferenceService`] and pins every reply line byte-identical.

mod evented;
pub mod poll;
pub mod proto;
pub mod server;
pub mod tenant;

pub use proto::{ErrorCode, Request, Response, WireError, MAX_FRAME_BYTES};
pub use server::{serve, ApplyService, ServerConfig, ServerHandle};
pub use tenant::{TenantDirectory, TenantQuota, TenantUsage};
