//! tpn-aio — std-only event-driven I/O building blocks.
//!
//! The pieces of the daemon's epoll listener, without any external
//! dependency:
//!
//! - [`poll::Poller`] — edge-triggered epoll via thin `extern "C"`
//!   syscall bindings (Linux only);
//! - [`wake::Waker`] — eventfd wakeups for cross-thread nudges
//!   (Linux only);
//! - [`timer::TimerWheel`] — hashed-wheel deadlines with lazy
//!   cancellation;
//! - [`slab::Slab`] — generation-guarded connection storage keyed by
//!   epoll tokens;
//! - [`http1`] — the incremental HTTP/1.1 request parser the listener
//!   resumes across readiness events, plus a response parser with
//!   chunked decoding for load generation and tests;
//! - [`rlimit::ensure_nofile`] — descriptor-limit raising for
//!   high-connection-count runs (Unix).
//!
//! Only the epoll and eventfd layer is Linux-specific; the timer
//! wheel, slab and HTTP parsers build everywhere.

pub mod http1;
pub mod slab;
pub mod timer;

#[cfg(unix)]
pub mod rlimit;

#[cfg(target_os = "linux")]
mod sys;

#[cfg(target_os = "linux")]
pub mod poll;

#[cfg(target_os = "linux")]
pub mod wake;
