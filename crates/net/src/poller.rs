//! Thin safe wrapper over an `epoll(7)` instance.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys;

/// Which readiness conditions a registration is interested in.
///
/// Error and hangup conditions are always reported by the kernel and need
/// no interest bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Report when the fd becomes readable (includes peer write-shutdown).
    pub readable: bool,
    /// Report when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut events = 0;
        if self.readable {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.writable {
            events |= sys::EPOLLOUT;
        }
        events
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (data pending, or the peer shut down writes).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// Error or hangup: the connection is unusable and should be closed,
    /// except that a peer write-shutdown (`EPOLLRDHUP`) still allows
    /// responses to be written.
    pub closed: bool,
}

/// An `epoll(7)` instance: level-triggered readiness for many fds.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

impl Poller {
    /// Creates a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers involved.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: ev is a valid, live EpollEvent for the duration of the
        // call; fd and epfd are owned by the caller/self.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Updates the interest of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the interest list.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::default())
    }

    /// Waits for readiness, appending events to `out`. A `None` timeout
    /// blocks indefinitely. Returns the number of events delivered; an
    /// interrupting signal counts as zero events, not an error, so the
    /// caller's loop can observe shutdown flags set by signal handlers.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        // SAFETY: buf is a live, properly laid out EpollEvent array of the
        // advertised length; the kernel writes at most that many entries.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        let n = n as usize;
        for i in 0..n {
            let ev = self.buf[i];
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd came from a successful epoll_create1 and is closed
        // exactly once here.
        unsafe {
            sys::close(self.epfd);
        }
    }
}
