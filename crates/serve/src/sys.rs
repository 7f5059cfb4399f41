//! The one OS call the reactor needs: `poll(2)`.
//!
//! The workspace builds against an offline registry, so the usual
//! `libc`/`mio` route is unavailable; this module declares the single
//! foreign function and the `pollfd` layout itself.  It is the only
//! `unsafe` code in the workspace: every other library crate and the
//! `ujam` binary are `forbid(unsafe_code)`, and this crate is
//! `deny(unsafe_code)` with this one module allowed.  The surface is
//! one safe function: [`poll_fds`].
//!
//! Level-triggered readiness is all the reactor wants: it rebuilds the
//! fd set each iteration anyway (connections come and go, interest
//! flips with backpressure), which makes `poll`'s "pass the whole set
//! every time" model a feature rather than a cost at daemon scale
//! (hundreds of connections, not hundreds of thousands).

#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::RawFd;

/// Readable data (or a listener with a pending accept).
pub const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub const POLLOUT: c_short = 0x004;
/// Error condition (always reported, never requested).
pub const POLLERR: c_short = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLLHUP: c_short = 0x010;
/// Invalid fd (always reported, never requested).
pub const POLLNVAL: c_short = 0x020;

/// One entry of a `poll(2)` set, matching the C `struct pollfd` layout.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: c_short,
    /// Returned events, filled in by the kernel.
    pub revents: c_short,
}

impl PollFd {
    /// An entry watching `fd` for `events`.
    pub fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until at least one fd is ready or `timeout_ms` elapses
/// (negative waits forever), returning how many entries have non-zero
/// `revents`.  `EINTR` is retried internally.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs; the kernel reads `fd` /
        // `events` and writes `revents` for exactly `fds.len()`
        // entries, which is the allocation we hand it.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_reports_readability_and_timeouts() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Nothing written yet: a short poll times out with 0 ready.
        assert_eq!(poll_fds(&mut fds, 10).expect("poll"), 0);
        a.write_all(b"x").expect("write");
        let ready = poll_fds(&mut fds, 1000).expect("poll");
        assert_eq!(ready, 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn poll_reports_hangup_on_peer_drop() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let ready = poll_fds(&mut fds, 1000).expect("poll");
        assert_eq!(ready, 1);
        assert_ne!(fds[0].revents & (POLLIN | POLLHUP), 0);
    }
}
