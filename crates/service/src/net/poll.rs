//! The readiness abstraction of the network front-end: a [`Poller`] that
//! multiplexes every registered socket through one blocking `epoll` wait
//! (level-triggered, O(ready) per wait), plus a cross-thread [`Waker`].
//!
//! This is the safe layer over `mcf0-syspoll`'s FFI shim (the workspace's
//! only `unsafe`).
//!
//! The [`Waker`] is a non-blocking self-pipe whose read end is registered
//! under `WAKE_TOKEN`: worker threads finishing a response (and the
//! server handle requesting shutdown) write one byte, which breaks the
//! event loop out of its otherwise indefinite wait. [`Poller::wait`]
//! drains the pipe internally and never surfaces the wake token — an
//! empty event batch after a wake simply sends the loop through its
//! completion-draining phase. With no traffic and no wakes the loop is
//! fully blocked in the kernel: idle connections cost **zero** CPU.

use mcf0_syspoll as syspoll;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::RawFd;
use std::sync::Arc;

pub use syspoll::Event;

/// The token [`Waker`] bytes arrive under; reserved, never surfaced.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// What a registered descriptor should be watched for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Watch for readability (and peer hang-up).
    pub readable: bool,
    /// Watch for writability.
    pub writable: bool,
}

/// A readiness multiplexer owning the wake pipe's read end.
pub struct Poller {
    epoll: syspoll::Epoll,
    wake_rx: File,
}

/// Wakes a [`Poller`] blocked in [`Poller::wait`] from any thread.
/// Cloneable and cheap; a full pipe means a wake-up is already pending,
/// so the (ignored) `WouldBlock` loses nothing.
#[derive(Clone)]
pub struct Waker(Arc<File>);

impl Waker {
    /// Breaks the poller out of its current (or next) wait.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1u8]);
    }
}

impl Poller {
    /// Creates a poller plus its [`Waker`].
    pub fn new() -> io::Result<(Self, Waker)> {
        let (wake_rx, wake_tx) = syspoll::wake_pipe()?;
        let mut poller = Poller {
            epoll: syspoll::Epoll::new()?,
            wake_rx,
        };
        poller.register(
            raw_fd(&poller.wake_rx),
            WAKE_TOKEN,
            Interest {
                readable: true,
                writable: false,
            },
        )?;
        Ok((poller, Waker(Arc::new(wake_tx))))
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll
            .register(fd, token, interest.readable, interest.writable)
    }

    /// Replaces the interest set of an already registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll
            .modify(fd, token, interest.readable, interest.writable)
    }

    /// Removes `fd` from the poller.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.epoll.deregister(fd)
    }

    /// Blocks until something is ready (or `timeout_ms` elapses; `None`
    /// waits indefinitely), clears `events` and fills it with this cycle's
    /// readiness. Wake-pipe bytes are drained internally and their token
    /// filtered out — a pure wake (or a timeout) yields an empty batch,
    /// which tells the loop "re-check stop flag and completion queue".
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<()> {
        events.clear();
        self.epoll.wait(events, timeout_ms)?;
        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            let mut drain = [0u8; 256];
            loop {
                match self.wake_rx.read(&mut drain) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            events.retain(|e| e.token != WAKE_TOKEN);
        }
        Ok(())
    }
}

/// `AsRawFd` without importing the trait at every call site.
pub(crate) fn raw_fd<T: std::os::fd::AsRawFd>(io: &T) -> RawFd {
    io.as_raw_fd()
}
