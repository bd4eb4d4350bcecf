//! Zero-dependency blocking network core for smrseekd.
//!
//! Every connection carries one request and gets `Connection: close`, so
//! [`serve`] runs one accept thread plus one thread per open connection,
//! parked and reused between connections. A connection's thread frames
//! its request ([`RequestFramer`] → [`Request`]) under size limits and a
//! deadline, hands it to a [`Dispatcher`] whose [`Action`] answers it or
//! follows an [`EventStream`] as Server-Sent Events, and writes the answer
//! under a deadline. Above a connection cap the accept thread answers 503.
//!
//! The wire format lives here whole: [`Request`] in, [`Response`] out,
//! and [`fetch`], the one blocking client (connect, write, read to EOF,
//! [`parse_response`]) that fleet forwards and `smrseek trace` use.
//!
//! [`Poller`] wraps `epoll(7)` over the raw syscalls in [`sys`] (the
//! workspace builds offline, without `libc`); only a nonblocking benchmark
//! client uses it.

pub mod sys;

mod conn;
mod http;
mod poller;
mod server;
mod stream;

pub use conn::{FrameStatus, FramingLimits, Request, RequestFramer};
pub use http::{fetch, parse_response, FetchError, Response};
pub use poller::{Event, Interest, Poller};
pub use server::{serve, Action, Dispatcher, LoopStats, NetConfig, NetHandle};
pub use stream::EventStream;
