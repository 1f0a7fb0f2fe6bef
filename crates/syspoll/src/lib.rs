//! Minimal FFI shim over the OS readiness syscalls — the **only** `unsafe`
//! in the workspace.
//!
//! `mcf0-service` is built under `#![forbid(unsafe_code)]`; its network
//! front-end needs two kernel facilities that `std` does not expose:
//! `epoll` (scalable readiness on Linux) and a non-blocking self-pipe to
//! wake a blocked wait from other threads. This crate wraps exactly those
//! — no `libc` crate, just `extern "C"` declarations against the libc
//! every Rust binary on a glibc/musl target already links — behind a fully
//! safe API:
//!
//! * [`Epoll`] — `epoll_create1` / `epoll_ctl` / `epoll_wait`, level
//!   triggered, one `u64` token per registered descriptor.
//! * [`wake_pipe`] — a `pipe2(O_NONBLOCK | O_CLOEXEC)` pair returned as
//!   two `std::fs::File`s (reads and writes go through ordinary safe IO).
//!
//! Every call reports failures as `std::io::Error` (from `errno` via
//! `Error::last_os_error`), and `EINTR` is retried inside the wait call.
//! File descriptors are owned [`std::os::fd::OwnedFd`]s, so nothing leaks
//! on panic or early return.
//!
//! Only Linux is wired up (the deployment and CI target); on other
//! platforms every constructor returns `ErrorKind::Unsupported`, which
//! the service's `serve` surfaces as a typed error rather than switching
//! to some other accept layer. Supporting another Unix means a second
//! shim (kqueue) next to the Linux one.

#![warn(missing_docs)]

/// One readiness event: the registered token plus what the descriptor is
/// ready for. `error` covers fatal conditions (`EPOLLERR`);
/// peer hang-ups surface through `readable` so buffered bytes still drain
/// and the owner discovers EOF from `read() == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The `u64` the descriptor was registered under.
    pub token: u64,
    /// Ready for reading (or hung up — drain until EOF).
    pub readable: bool,
    /// Ready for writing.
    pub writable: bool,
    /// Fatal descriptor error; the owner should drop the connection.
    pub error: bool,
}

#[cfg(target_os = "linux")]
mod linux {
    use super::Event;
    use std::fs::File;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    // `extern "C"` declarations against the already-linked libc. Kept to
    // the absolute minimum the readiness loop needs.
    mod ffi {
        use core::ffi::c_int;

        /// Mirror of the kernel's `struct epoll_event`. The kernel (and
        /// glibc/musl via `__EPOLL_PACKED`) packs the struct **only on
        /// x86-64**: 4-byte `events` immediately followed by the 8-byte
        /// user data, 12 bytes total. Every other architecture uses
        /// natural C layout (on aarch64 that is 16 bytes with `data` at
        /// offset 8), so the repr is selected per-arch to match — the
        /// same split the `libc` crate ships. Getting this wrong is a
        /// heap overflow: `epoll_wait` would write kernel-stride events
        /// into a buffer allocated at the smaller stride.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        // Compile-time ABI guard for the arch split above: packed x86-64
        // is 12 bytes; natural layout is 16 wherever `u64` is 8-aligned
        // (and 12 on ILP32 ABIs whose `u64` is 4-aligned, matching C).
        const _: () = {
            let expected = if cfg!(target_arch = "x86_64") {
                12
            } else if core::mem::align_of::<u64>() == 8 {
                16
            } else {
                12
            };
            assert!(core::mem::size_of::<EpollEvent>() == expected);
        };

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        }

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const O_NONBLOCK: c_int = 0o4000;
        pub const O_CLOEXEC: c_int = 0o2000000;
    }

    /// Converts a `-1`-on-error libc return into `io::Result`.
    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn interest_mask(readable: bool, writable: bool) -> u32 {
        let mut mask = ffi::EPOLLRDHUP;
        if readable {
            mask |= ffi::EPOLLIN;
        }
        if writable {
            mask |= ffi::EPOLLOUT;
        }
        mask
    }

    /// A level-triggered `epoll` instance.
    pub struct Epoll {
        fd: OwnedFd,
        /// Reused kernel-side event buffer for [`Epoll::wait`].
        buf: Vec<ffi::EpollEvent>,
    }

    impl Epoll {
        /// Creates the instance (`EPOLL_CLOEXEC`).
        pub fn new() -> io::Result<Self> {
            let raw = cvt(unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) })?;
            Ok(Epoll {
                // SAFETY: epoll_create1 returned a fresh descriptor we
                // exclusively own.
                fd: unsafe { OwnedFd::from_raw_fd(raw) },
                buf: vec![ffi::EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
            let mut event = ffi::EpollEvent {
                events: mask,
                data: token,
            };
            // SAFETY: `event` outlives the call; the fd numbers come from
            // live std sockets owned by the caller.
            cvt(unsafe { ffi::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(|_| ())
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn register(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(
                ffi::EPOLL_CTL_ADD,
                fd,
                interest_mask(readable, writable),
                token,
            )
        }

        /// Replaces the interest set of an already registered `fd`.
        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(
                ffi::EPOLL_CTL_MOD,
                fd,
                interest_mask(readable, writable),
                token,
            )
        }

        /// Removes `fd` from the instance.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(ffi::EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until at least one registered descriptor is ready (or
        /// `timeout_ms` elapses; `None` waits forever), appending events to
        /// `out`. `EINTR` is retried.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<()> {
            let timeout = timeout_ms.unwrap_or(-1);
            let n = loop {
                // SAFETY: `buf` is a live, exclusively borrowed slice of
                // EpollEvent; maxevents matches its length.
                let ret = unsafe {
                    ffi::epoll_wait(
                        self.fd.as_raw_fd(),
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout,
                    )
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for raw in &self.buf[..n] {
                let events = raw.events;
                out.push(Event {
                    token: raw.data,
                    readable: events & (ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLHUP) != 0,
                    writable: events & ffi::EPOLLOUT != 0,
                    error: events & ffi::EPOLLERR != 0,
                });
            }
            Ok(())
        }
    }

    /// A non-blocking self-pipe, `(read_end, write_end)`. Writing any byte
    /// to the write end wakes a wait that has the read end registered;
    /// `WouldBlock` on a full pipe is harmless (a wake-up is already
    /// pending). Both ends are ordinary `File`s — all IO stays safe code.
    pub fn wake_pipe() -> io::Result<(File, File)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live 2-element buffer; pipe2 fills it.
        cvt(unsafe { ffi::pipe2(fds.as_mut_ptr(), ffi::O_NONBLOCK | ffi::O_CLOEXEC) })?;
        // SAFETY: both descriptors are freshly created and exclusively ours.
        let read = unsafe { OwnedFd::from_raw_fd(fds[0]) };
        let write = unsafe { OwnedFd::from_raw_fd(fds[1]) };
        Ok((File::from(read), File::from(write)))
    }
}

#[cfg(target_os = "linux")]
pub use linux::{wake_pipe, Epoll};

#[cfg(not(target_os = "linux"))]
mod stub {
    use super::Event;
    use std::fs::File;
    use std::io;
    use std::os::fd::RawFd;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mcf0-syspoll readiness syscalls are only wired up on Linux",
        ))
    }

    /// Unsupported on this platform; every constructor fails.
    pub struct Epoll(());

    impl Epoll {
        /// Always `ErrorKind::Unsupported` on this platform.
        pub fn new() -> io::Result<Self> {
            unsupported()
        }
        /// Unreachable (no instance can exist).
        pub fn register(&self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
            unsupported()
        }
        /// Unreachable (no instance can exist).
        pub fn modify(&self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
            unsupported()
        }
        /// Unreachable (no instance can exist).
        pub fn deregister(&self, _: RawFd) -> io::Result<()> {
            unsupported()
        }
        /// Unreachable (no instance can exist).
        pub fn wait(&mut self, _: &mut Vec<Event>, _: Option<i32>) -> io::Result<()> {
            unsupported()
        }
    }

    /// Always `ErrorKind::Unsupported` on this platform.
    pub fn wake_pipe() -> io::Result<(File, File)> {
        unsupported()
    }
}

#[cfg(not(target_os = "linux"))]
pub use stub::{wake_pipe, Epoll};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// Readiness + token plumbing over a real loopback socket.
    #[test]
    fn epoll_socket_readiness() {
        fn wait(epoll: &mut Epoll, timeout_ms: i32) -> Vec<Event> {
            let mut out = Vec::new();
            epoll.wait(&mut out, Some(timeout_ms)).unwrap();
            out
        }
        let mut epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // Nothing to read yet: a zero timeout returns no event for the
        // socket's read interest.
        epoll.register(server.as_raw_fd(), 7, true, false).unwrap();
        assert!(wait(&mut epoll, 0)
            .iter()
            .all(|e| e.token != 7 || !e.readable));

        client.write_all(b"ping").unwrap();
        let events = wait(&mut epoll, 1000);
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "readable after peer write: {events:?}"
        );

        // Write interest on an empty send buffer fires immediately.
        epoll.modify(server.as_raw_fd(), 7, true, true).unwrap();
        let events = wait(&mut epoll, 1000);
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Drain and hang up: readable again (EOF surfaces via read() == 0).
        let mut buf = [0u8; 16];
        let mut readable = &server;
        assert_eq!(readable.read(&mut buf).unwrap(), 4);
        drop(client);
        let events = wait(&mut epoll, 1000);
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        assert_eq!(readable.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn wake_pipe_wakes_a_blocked_wait() {
        let (reader, writer) = wake_pipe().unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll
            .register(reader.as_raw_fd(), u64::MAX, true, false)
            .unwrap();

        // No wake yet.
        let mut out = Vec::new();
        epoll.wait(&mut out, Some(0)).unwrap();
        assert!(out.is_empty());

        // A wake from another thread breaks the wait.
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            (&writer).write_all(&[1]).unwrap();
            writer
        });
        epoll.wait(&mut out, Some(5000)).unwrap();
        assert_eq!(
            out,
            vec![Event {
                token: u64::MAX,
                readable: true,
                writable: false,
                error: false
            }]
        );
        let writer = handle.join().unwrap();

        // Drain; a full pipe's WouldBlock on wake is harmless.
        let mut drain = [0u8; 64];
        let mut r = &reader;
        assert_eq!(r.read(&mut drain).unwrap(), 1);
        for _ in 0..100_000 {
            match (&writer).write(&[1]) {
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected pipe error: {e}"),
            }
        }
        assert!(r.read(&mut drain).unwrap() > 0);
    }
}
