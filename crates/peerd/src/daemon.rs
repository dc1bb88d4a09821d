//! The per-peer daemon loop: one sans-io core behind one TCP listener.
//!
//! Each daemon owns a [`PeerCore`], a listening socket, a set of
//! connections, a [`reactor::Poller`] and a [`reactor::TimerWheel`]. The
//! loop is purely event-driven — it blocks in `Poller::wait` until one of
//! three things happens and makes no wake-up otherwise (an idle daemon
//! sleeps in `epoll_wait` indefinitely):
//!
//! * **sockets** — readable connections feed complete frames into
//!   `core.ingest`, and the resulting `Emit` outputs are written to lazily
//!   established outbound connections (one directed connection per ordered
//!   peer pair; the sender id travels in the transport header);
//! * **commands** — the application half of the driver contract: train,
//!   predict, anti-entropy, snapshot, shutdown. [`command_channel`] pairs an
//!   `mpsc` channel with a [`reactor::Waker`] registered with the poller:
//!   [`CommandSender::send`] queues the command, then wakes the loop, which
//!   drains the waker and then the queue. Dropping the sender closes both,
//!   and the daemon exits as on [`Command::Shutdown`];
//! * **timers** — core timers (`SetTimer`/`CancelTimer` outputs, virtual
//!   milliseconds) map onto the wall clock as `epoch + at`, and the earliest
//!   one is the `wait` timeout. The daemon's epoch is its start instant, so
//!   `now` passed to the core is simply elapsed wall milliseconds. This is
//!   the audited boundary where virtual time meets real time — nothing
//!   outside `peerd`/`vendor/reactor` touches a clock.
//!
//! The core runs on the daemon's thread and nowhere else: the `PeerCore`
//! entry points execute `vendor/parallel` calls inline, so a fleet is
//! exactly one thread per peer.

use crate::framing::{encode_frame, FrameReader};
use ml::multilabel::TagPrediction;
use ml::MultiLabelDataset;
use p2pclassify::sansio::{LocalEffect, Output, PeerCore, ProtocolCore};
use p2pclassify::LinkStats;
use p2psim::PeerId;
use reactor::{Drained, Interest, Poller, TimerWheel, Token, WakeReceiver, Waker};
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};
use textproc::SparseVector;

/// A request to a running daemon.
#[derive(Debug)]
pub enum Command {
    /// Append a dataset to the peer's collection, retrain, propagate.
    Train(MultiLabelDataset),
    /// Start a prediction; the scores are sent back on the channel once the
    /// core's `Prediction` effect fires (immediately for local protocols,
    /// after the response round-trip for routed ones).
    Predict(SparseVector, Sender<Vec<TagPrediction>>),
    /// Send an anti-entropy digest of this peer's holdings to `partner`.
    AntiEntropy(PeerId),
    /// Report current state (non-blocking observable for harness barriers).
    Snapshot(Sender<Snapshot>),
    /// Leave the loop; the thread returns.
    Shutdown,
}

/// The sending half of a daemon's command channel.
///
/// Dropping it without [`Command::Shutdown`] also ends the daemon, after the
/// commands already queued.
#[derive(Debug)]
pub struct CommandSender {
    // Declared (so dropped) before the waker: by the time the daemon sees
    // the waker closed, the queue already reports disconnected.
    queue: Sender<Command>,
    waker: Waker,
}

impl CommandSender {
    /// Queues `command` and wakes the daemon to handle it.
    pub fn send(&self, command: Command) -> io::Result<()> {
        self.queue
            .send(command)
            .map_err(|_| io::Error::new(ErrorKind::BrokenPipe, "daemon exited"))?;
        self.waker.wake()
    }
}

/// The daemon's half of a command channel; hand it to [`daemon`].
#[derive(Debug)]
pub struct CommandReceiver {
    queue: Receiver<Command>,
    wake: WakeReceiver,
}

/// A command channel for one daemon: an `mpsc` queue whose sender also
/// wakes the daemon's poller, since `epoll` cannot wait on an `mpsc`.
pub fn command_channel() -> io::Result<(CommandSender, CommandReceiver)> {
    let (queue_tx, queue_rx) = channel();
    let (waker, wake) = Waker::pair()?;
    Ok((
        CommandSender {
            queue: queue_tx,
            waker,
        },
        CommandReceiver {
            queue: queue_rx,
            wake,
        },
    ))
}

/// A daemon's externally observable state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The core's installed `(source, version)` pairs.
    pub installed: Vec<(u64, u64)>,
    /// The core's reliable-layer counters.
    pub link: LinkStats,
    /// Frames put on the wire by this daemon.
    pub frames_sent: u64,
    /// Frame bytes put on the wire by this daemon (transport header
    /// excluded — same accounting basis as the simulator).
    pub bytes_sent: u64,
    /// `GaveUp` effects observed (reliable mode only).
    pub gave_up: u64,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

/// The daemon state behind [`daemon`].
struct Daemon {
    core: PeerCore,
    epoch: Instant,
    poller: Poller,
    wheel: TimerWheel,
    listener: TcpListener,
    /// Inbound connections by poll token index.
    conns: BTreeMap<usize, Conn>,
    next_token: usize,
    /// Outbound (write-only) connections by destination peer.
    outbound: BTreeMap<u64, TcpStream>,
    /// Destination addresses for every peer in the fleet.
    addrs: BTreeMap<u64, SocketAddr>,
    /// Predictions awaiting their effect, by request id.
    pending_predictions: BTreeMap<u64, Sender<Vec<TagPrediction>>>,
    frames_sent: u64,
    bytes_sent: u64,
    gave_up: u64,
}

const LISTENER_TOKEN: usize = 0;
const COMMAND_TOKEN: usize = 1;

impl Daemon {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Executes one batch of core outputs.
    fn dispatch(&mut self, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::Emit { to, frame, .. } => self.send(to, &frame),
                Output::SetTimer { id, at } => {
                    self.wheel
                        .insert(id.0, self.epoch + Duration::from_millis(at));
                }
                Output::CancelTimer { id } => self.wheel.cancel(id.0),
                Output::Effect(LocalEffect::Prediction { request, scores }) => {
                    if let Some(reply) = self.pending_predictions.remove(&request) {
                        // A vanished requester is not the daemon's problem.
                        let _ = reply.send(scores);
                    }
                }
                Output::Effect(LocalEffect::GaveUp { .. }) => self.gave_up += 1,
                Output::Effect(LocalEffect::Installed { .. }) => {}
            }
        }
    }

    /// Writes one frame to `to`, connecting on first use. Write errors drop
    /// the connection; in reliable mode the core's retransmit timer recovers,
    /// in passthrough mode anti-entropy does.
    fn send(&mut self, to: PeerId, frame: &[u8]) {
        let Some(&addr) = self.addrs.get(&to.0) else {
            return;
        };
        if let std::collections::btree_map::Entry::Vacant(slot) = self.outbound.entry(to.0) {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    slot.insert(stream);
                }
                Err(_) => return,
            }
        }
        let message = encode_frame(self.core.id().0, frame);
        let stream = self.outbound.get_mut(&to.0).expect("just inserted");
        if stream.write_all(&message).is_err() {
            self.outbound.remove(&to.0);
            return;
        }
        self.frames_sent += 1;
        self.bytes_sent += frame.len() as u64;
    }

    /// Accepts every connection currently queued on the listener.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
                        .is_ok()
                    {
                        self.conns.insert(
                            token,
                            Conn {
                                stream,
                                reader: FrameReader::new(),
                            },
                        );
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Drains a readable connection into its frame reader and ingests every
    /// complete frame. Returns `false` when the connection is finished
    /// (closed or desynced) and should be dropped.
    fn read_ready(&mut self, token: usize) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.reader.push(&buf[..n]);
                    loop {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return false;
                        };
                        match conn.reader.next_frame() {
                            Ok(Some((from, frame))) => {
                                let now = self.now_ms();
                                let outputs = self.core.ingest(now, PeerId(from), &frame);
                                self.dispatch(outputs);
                            }
                            Ok(None) => break,
                            Err(()) => return false,
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    fn drop_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            installed: self.core.installed_versions(),
            link: *self.core.link_stats(),
            frames_sent: self.frames_sent,
            bytes_sent: self.bytes_sent,
            gave_up: self.gave_up,
        }
    }

    /// Handles one command. Returns `false` on shutdown.
    fn handle(&mut self, command: Command) -> bool {
        match command {
            Command::Train(data) => {
                let now = self.now_ms();
                let outputs = self.core.train(now, &data);
                self.dispatch(outputs);
            }
            Command::Predict(x, reply) => {
                let now = self.now_ms();
                let (request, outputs) = self.core.predict(now, &x);
                // Register the reply before dispatching: protocols that
                // answer inline carry the effect in `outputs`.
                self.pending_predictions.insert(request, reply);
                self.dispatch(outputs);
            }
            Command::AntiEntropy(partner) => {
                let now = self.now_ms();
                let outputs = self.core.start_anti_entropy(now, partner);
                self.dispatch(outputs);
            }
            Command::Snapshot(reply) => {
                let _ = reply.send(self.snapshot());
            }
            Command::Shutdown => return false,
        }
        true
    }

    /// Handles every queued command after a wake-up. Returns `false` when
    /// the daemon should exit: on [`Command::Shutdown`], or when the
    /// [`CommandSender`] is gone — a closed waker stays readable forever on
    /// the level-triggered poller, so carrying on would spin.
    fn drain_commands(&mut self, commands: &CommandReceiver) -> bool {
        // Waker first: a command sent during the drain below leaves it
        // readable, and the next wait picks that command up.
        let Ok(drained) = commands.wake.drain() else {
            return false;
        };
        loop {
            match commands.queue.try_recv() {
                Ok(command) => {
                    if !self.handle(command) {
                        return false;
                    }
                }
                Err(TryRecvError::Empty) => return drained == Drained::Open,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }
}

/// Runs one peer daemon to completion (until [`Command::Shutdown`] or the
/// [`CommandSender`] is dropped). This is the thread body: the caller binds
/// the listener first (so the fleet's address map exists before any daemon
/// starts) and hands it over together with the full address map.
pub fn daemon(
    core: PeerCore,
    listener: TcpListener,
    addrs: BTreeMap<u64, SocketAddr>,
    commands: CommandReceiver,
) {
    let Ok(poller) = Poller::new() else {
        return;
    };
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    if poller
        .register(
            listener.as_raw_fd(),
            Token(LISTENER_TOKEN),
            Interest::READABLE,
        )
        .is_err()
        || poller
            .register(
                commands.wake.as_raw_fd(),
                Token(COMMAND_TOKEN),
                Interest::READABLE,
            )
            .is_err()
    {
        return;
    }
    let mut d = Daemon {
        core,
        epoch: Instant::now(),
        poller,
        wheel: TimerWheel::new(),
        listener,
        conns: BTreeMap::new(),
        next_token: COMMAND_TOKEN + 1,
        outbound: BTreeMap::new(),
        addrs,
        pending_predictions: BTreeMap::new(),
        frames_sent: 0,
        bytes_sent: 0,
        gave_up: 0,
    };
    let mut events = Vec::new();
    loop {
        // Block until a socket, a command or the next core timer.
        let timeout = d.wheel.timeout_from(Instant::now());
        events.clear();
        if d.poller.wait(&mut events, timeout).is_err() {
            return;
        }
        for &event in &events {
            match event.token.0 {
                LISTENER_TOKEN => d.accept_ready(),
                COMMAND_TOKEN => {
                    if !d.drain_commands(&commands) {
                        return;
                    }
                }
                token => {
                    if event.readable && !d.read_ready(token) {
                        d.drop_conn(token);
                    }
                }
            }
        }
        // Fire due core timers.
        if !d.wheel.pop_due(Instant::now()).is_empty() {
            let now = d.now_ms();
            let outputs = d.core.poll_timers(now);
            d.dispatch(outputs);
        }
    }
}
