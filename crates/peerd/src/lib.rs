//! # peerd — the real-socket driver for the sans-io protocol cores
//!
//! The second driver of the two-driver architecture (`p2pclassify::sansio`):
//! where [`p2pclassify::sansio::SimDriver`] replays a core through a
//! virtual-time queue, `peerd` runs the *same* core behind a real TCP
//! socket, an `epoll` readiness loop and a monotonic timer wheel (both from
//! the vendored [`reactor`] crate). One protocol body, two executions — the
//! `sim_vs_socket` equivalence tests pin that the installed models and
//! predictions come out identical.
//!
//! The crate is deliberately thread-per-peer, not one shared event loop:
//! each [`daemon()`] owns one core, one listening socket and one command
//! channel, which is exactly the deployment shape of the paper's
//! peer-as-a-process architecture and keeps every core single-threaded (the
//! cores are `!Sync`-agnostic pure state machines; nothing here locks). One
//! thread per peer is meant literally: the `PeerCore` entry points run any
//! `vendor/parallel` call inline, so a daemon never spawns workers.
//!
//! The loop is event-driven, with no periodic tick: a daemon sleeps in
//! `epoll_wait` until a socket is readable, its earliest core timer is due,
//! or a command arrives — [`command_channel`] couples the `mpsc` queue with
//! a [`reactor::Waker`], so a command costs a wake-up (under a microsecond),
//! not a polling interval.
//!
//! `peerd` and `vendor/reactor` are the workspace's two audited wall-clock /
//! thread boundaries: everything protocol-side stays virtual-time and
//! deterministic, and `xtask lint` enforces that the rest of the workspace
//! cannot reach for `Instant`, `thread::spawn` or `mpsc`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod corpus;
pub mod daemon;
pub mod framing;
pub mod loopback;

pub use daemon::{command_channel, daemon, Command, CommandReceiver, CommandSender, Snapshot};
pub use framing::{encode_frame, FrameReader};
pub use loopback::LoopbackHarness;
