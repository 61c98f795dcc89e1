//! Edge-triggered readiness polling over raw epoll.
//!
//! The reactor registers every descriptor once with the full interest
//! mask (`EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP`) and tracks
//! readiness in userspace, clearing flags on `EAGAIN`. That avoids
//! per-request `epoll_ctl` churn: after registration the only syscalls
//! on the hot path are `epoll_wait`, `read`, `write`, and `accept`.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

use crate::sys;

/// Interest flags for [`Poller::add`]. Combine with `|`.
pub mod interest {
    pub const READ: u32 = super::sys::EPOLLIN;
    pub const WRITE: u32 = super::sys::EPOLLOUT;
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer shut down its write half (or the connection is gone).
    pub hangup: bool,
    /// Error condition on the descriptor.
    pub error: bool,
}

/// Owner of an epoll instance. Dropping closes the epoll fd; the
/// registered descriptors are unaffected (the kernel detaches them
/// when they are closed).
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::epoll_event>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let epfd = sys::sys_epoll_create1()?;
        Ok(Poller {
            epfd,
            buf: vec![sys::epoll_event { events: 0, data: 0 }; 1024],
        })
    }

    /// Register `fd` edge-triggered with the given interest set.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        sys::sys_epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            interest | sys::EPOLLET | sys::EPOLLRDHUP,
            token,
        )
    }

    /// Replace the interest set of an already-registered descriptor.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        sys::sys_epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            interest | sys::EPOLLET | sys::EPOLLRDHUP,
            token,
        )
    }

    /// Deregister a descriptor (used for accept-pause backpressure).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        sys::sys_epoll_del(self.epfd, fd)
    }

    /// Wait for readiness, replacing the contents of `events` with the
    /// events of this wake: the buffer is cleared first, so a caller
    /// reusing one `Vec` across iterations never sees an earlier batch
    /// again. `None` blocks indefinitely. Returns the number of events
    /// delivered; `EINTR` is swallowed and reported as zero events.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let timeout_ms = match timeout {
            // Round up so a 0.5ms deadline does not spin at timeout 0.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
            None => -1,
        };
        events.clear();
        let n = match sys::sys_epoll_wait(self.epfd, &mut self.buf, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for raw in &self.buf[..n] {
            let bits = raw.events;
            events.push(Event {
                token: raw.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                error: bits & sys::EPOLLERR != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::sys_close(self.epfd);
    }
}
