//! The TCP accept layer: [`serve`] binds a listener and hands it to the
//! one accept path, a single readiness-driven event-loop thread over
//! non-blocking sockets (epoll via [`super::poll`]) that dispatches
//! decoded frames to a small fixed worker pool; see the `evented` module.
//! Idle connections cost zero CPU and the default ceiling is
//! [`ServerConfig::max_connections`] = 1024. Linux only: elsewhere
//! [`serve`] returns the poller's typed `Unsupported` error.
//!
//! It serves any [`ApplyService`] — the in-memory [`SketchService`] or
//! the crash-safe [`crate::DurableSketchService`] (networked durability
//! needs no extra wiring: the WAL append happens inside `apply`, under the
//! same lock acquisition that assigns `seq`).
//!
//! All request execution shares one `Mutex` around the service, the
//! tenant directory and the `seq` counter. The lock-acquisition order *is*
//! the acknowledged order: `seq` is assigned and the command applied under
//! the same critical section, which is what lets the differential harness
//! replay interleaved multi-client traffic in `seq` order against the
//! reference interpreter and demand byte-identical replies. (Quota
//! accounting happens on the same lock, *before* partial routing —
//! admission is control-plane work; only admitted commands ever reach the
//! partials.) The worker pool changes *who* takes that lock, never the
//! contract.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] (or drop) raises a
//! stop flag and wakes the event loop through its [`super::poll::Waker`].
//! Every thread is joined before shutdown returns.

use super::evented;
use super::poll::Waker;
use super::proto::{self, ErrorCode, Response, WireError, MAX_FRAME_BYTES};
use super::tenant::TenantDirectory;
use crate::command::{CommandReply, ServiceCommand};
use crate::error::ServiceError;
use crate::service::SketchService;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Anything [`serve`] can put behind the wire: one mutable `apply` entry
/// point over the shared [`ServiceCommand`] surface. Implemented by the
/// in-memory [`SketchService`], the crash-safe
/// [`crate::DurableSketchService`] (its write-ahead logging rides inside
/// `apply`, so networked durability comes for free), and the
/// [`crate::ReferenceService`] ground-truth interpreter.
pub trait ApplyService: Send + 'static {
    /// Applies one command, returning its reply or typed rejection.
    fn apply(&mut self, command: &ServiceCommand) -> Result<CommandReply, ServiceError>;
}

impl ApplyService for SketchService {
    fn apply(&mut self, command: &ServiceCommand) -> Result<CommandReply, ServiceError> {
        SketchService::apply(self, command)
    }
}

impl ApplyService for crate::durable::DurableSketchService {
    fn apply(&mut self, command: &ServiceCommand) -> Result<CommandReply, ServiceError> {
        crate::durable::DurableSketchService::apply(self, command)
    }
}

impl ApplyService for crate::reference::ReferenceService {
    fn apply(&mut self, command: &ServiceCommand) -> Result<CommandReply, ServiceError> {
        crate::reference::ReferenceService::apply(self, command)
    }
}

/// The accept layer's one knob.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Live-connection cap; connection `max_connections + 1` is refused
    /// with one `server_busy` line.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 1024,
        }
    }
}

/// What every execution thread shares.
pub(super) struct Shared<S> {
    pub(super) core: Mutex<Core<S>>,
    pub(super) stop: Arc<AtomicBool>,
    pub(super) config: ServerConfig,
}

/// The state behind the lock; its acquisition order defines `seq`.
pub(super) struct Core<S> {
    pub(super) service: S,
    pub(super) tenants: TenantDirectory,
    pub(super) seq: u64,
}

pub(super) fn lock_core<S>(core: &Mutex<Core<S>>) -> MutexGuard<'_, Core<S>> {
    // A panicking execution thread must not wedge the server: take the
    // data as-is (commands are applied atomically under the lock, so a
    // poisoned guard still holds consistent state).
    match core.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running server; dropping it (or calling [`ServerHandle::shutdown`])
/// stops the event loop and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins every server thread, and returns once the
    /// server is fully torn down (the service has been dropped — for a
    /// durable service that includes its best-effort final sync).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `service` to the tenants
/// in `directory` until the returned handle is shut down or dropped. The
/// service can be any [`ApplyService`]; fronting a
/// [`crate::DurableSketchService`] gives networked crash safety with no
/// further wiring.
pub fn serve<S: ApplyService>(
    addr: &str,
    service: S,
    directory: TenantDirectory,
    config: ServerConfig,
) -> Result<ServerHandle, ServiceError> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| ServiceError::Storage(format!("TCP bind {addr}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServiceError::Storage(format!("TCP listener setup: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| ServiceError::Storage(format!("TCP listener address: {e}")))?;
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        core: Mutex::new(Core {
            service,
            tenants: directory,
            seq: 0,
        }),
        stop: Arc::clone(&stop),
        config,
    });
    let (thread, waker) = evented::spawn(listener, shared)?;
    Ok(ServerHandle {
        addr: local,
        stop,
        waker,
        thread: Some(thread),
    })
}

/// The `server_busy` response line an over-cap connection is refused with.
pub(super) fn busy_line() -> String {
    proto::encode_line(&Response {
        id: None,
        seq: None,
        body: Err(WireError::protocol(
            ErrorCode::ServerBusy,
            "connection cap reached; retry later",
        )),
    })
}

/// Accept failures that clear on their own as resources free — the
/// process/system fd tables (`EMFILE`/`ENFILE`), socket buffers
/// (`ENOBUFS`), kernel memory (`ENOMEM`). Plausible under load at the
/// 1024-connection default, and fds free again as connections close, so
/// the accept path must retry these rather than die. Only `ENOMEM` has a
/// stable `ErrorKind` mapping; the rest are matched by raw errno.
pub(super) fn accept_resource_exhausted(e: &std::io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;
    e.kind() == std::io::ErrorKind::OutOfMemory
        || matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS))
}

/// The typed response for a line that tripped [`MAX_FRAME_BYTES`].
pub(super) fn oversized_response() -> Response {
    Response {
        id: None,
        seq: None,
        body: Err(WireError::protocol(
            ErrorCode::FrameTooLarge,
            format!("request line exceeds the {MAX_FRAME_BYTES}-byte frame cap"),
        )),
    }
}

/// Decode → authenticate → admit (quotas) → scope → apply, with `seq`
/// assigned under the same lock acquisition as the apply. Runs on a pool
/// worker, off the event loop.
pub(super) fn handle_frame<S: ApplyService>(bytes: &[u8], shared: &Shared<S>) -> Response {
    let request = match proto::decode_request(bytes) {
        Ok(request) => request,
        Err(err) => {
            return Response {
                id: None,
                seq: None,
                body: Err(err),
            }
        }
    };
    let id = Some(request.id);
    let mut core = lock_core(&shared.core);
    let Some(tenant) = core
        .tenants
        .authenticate(&request.token)
        .map(str::to_string)
    else {
        return Response {
            id,
            seq: None,
            body: Err(WireError::protocol(
                ErrorCode::AuthFailed,
                "unknown auth token",
            )),
        };
    };
    if let Err(err) = core.tenants.admit(&tenant, &request.command) {
        return Response {
            id,
            seq: None,
            body: Err(err),
        };
    }
    let scoped = TenantDirectory::scope_command(&tenant, &request.command);
    let seq = core.seq;
    core.seq += 1;
    let outcome = core.service.apply(&scoped);
    core.tenants
        .settle(&tenant, &request.command, outcome.is_ok());
    Response {
        id,
        seq: Some(seq),
        body: outcome.map_err(|e| WireError::from_service(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::accept_resource_exhausted;
    use std::io::{Error, ErrorKind};

    /// The accept path must retry resource exhaustion (it clears as
    /// connections close) but treat descriptor-level errors as fatal.
    #[test]
    fn accept_error_classification() {
        // ENFILE / EMFILE.
        for errno in [23, 24] {
            assert!(accept_resource_exhausted(&Error::from_raw_os_error(errno)));
        }
        #[cfg(target_os = "linux")]
        assert!(accept_resource_exhausted(&Error::from_raw_os_error(105))); // ENOBUFS
        assert!(accept_resource_exhausted(&Error::from(
            ErrorKind::OutOfMemory
        )));
        // EBADF / EINVAL stay fatal.
        for errno in [9, 22] {
            assert!(!accept_resource_exhausted(&Error::from_raw_os_error(errno)));
        }
        assert!(!accept_resource_exhausted(&Error::from(
            ErrorKind::WouldBlock
        )));
    }
}
