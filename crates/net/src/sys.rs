//! Minimal raw syscall declarations for [`crate::Poller`].
//!
//! The workspace builds with vendored stand-ins only, so the epoll
//! syscalls are declared here instead of pulling in `libc`/`mio`. The declarations are
//! Linux-shaped; the crate is only built on the Linux hosts the daemon
//! targets.

/// `EPOLL_CTL_ADD`: register a new fd with the epoll instance.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `EPOLL_CTL_DEL`: remove an fd from the epoll instance.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `EPOLL_CTL_MOD`: change the event mask of a registered fd.
pub const EPOLL_CTL_MOD: i32 = 3;

/// `EPOLLIN`: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: an error condition is pending (always reported).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: the peer shut down its write side.
pub const EPOLLRDHUP: u32 = 0x2000;

/// `EPOLL_CLOEXEC` for [`epoll_create1`] (same value as `O_CLOEXEC`).
pub const EPOLL_CLOEXEC: i32 = 0o2000000;

/// One readiness event, kernel ABI layout (packed on x86_64, naturally
/// aligned elsewhere — matching glibc's per-arch definition).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token echoed back with the event.
    pub data: u64,
}

extern "C" {
    /// `epoll_create1(2)`: creates an epoll instance, returns its fd.
    pub fn epoll_create1(flags: i32) -> i32;
    /// `epoll_ctl(2)`: adds/modifies/removes an fd in the interest list.
    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    /// `epoll_wait(2)`: blocks until events are ready or the timeout lapses.
    pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    /// `close(2)`: releases the epoll fd.
    pub fn close(fd: i32) -> i32;
}
