//! Zero-dependency nonblocking network core for smrseekd.
//!
//! The crate supplies the daemon's event-driven connection layer: an
//! `epoll(7)`-based readiness loop ([`serve`]) owning every connection on
//! one reactor thread, incremental HTTP/1.1 request framing and parsing
//! ([`RequestFramer`] → [`Request`]) with head/body size limits and
//! idle/slow-loris reaping, a pluggable [`Dispatcher`] that answers each
//! parsed request with an [`Action`] (respond inline, stream an
//! [`EventStream`], or defer blocking work to an auxiliary pool), and a
//! self-pipe [`Waker`] so producers on any thread can nudge the loop.
//!
//! The raw syscalls are declared in [`sys`] instead of pulling in
//! `libc`/`mio`: the workspace builds offline with vendored stand-ins
//! only.

pub mod sys;

mod conn;
mod poller;
mod reactor;
mod stream;
mod wake;

pub use conn::{FrameStatus, FramingLimits, Request, RequestFramer};
pub use poller::{Event, Interest, Poller};
pub use reactor::{serve, Action, Dispatcher, LoopStats, NetConfig, NetHandle};
pub use stream::EventStream;
pub use wake::Waker;
