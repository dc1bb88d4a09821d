//! Multi-peer loopback harness: a fleet of peer daemons over 127.0.0.1.
//!
//! [`LoopbackHarness::start`] binds one listener per core *first* (so every
//! daemon is born with the complete address map — no discovery protocol),
//! then spawns one daemon thread per peer. The harness methods mirror the
//! simulator driver's verbs (`train`, `predict`, `anti_entropy`) plus the
//! convergence barrier real sockets need: [`LoopbackHarness::wait_installed`]
//! polls a peer's snapshot until its installed-version set reaches an
//! expected value — the socket-world analogue of the simulator's
//! `run_until_quiescent`.

use crate::daemon::{command_channel, daemon, Command, CommandSender, Snapshot};
use ml::multilabel::TagPrediction;
use ml::MultiLabelDataset;
use p2pclassify::sansio::PeerCore;
use p2psim::PeerId;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::channel;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use textproc::SparseVector;

/// Pause between the snapshots of [`LoopbackHarness::wait_installed`]: a
/// snapshot round trip costs tens of microseconds, so a finer poll would
/// only take CPU from the daemons that are converging.
const INSTALL_POLL: Duration = Duration::from_millis(1);

/// A running fleet of peer daemons on loopback TCP.
pub struct LoopbackHarness {
    peers: Vec<PeerId>,
    addrs: BTreeMap<u64, SocketAddr>,
    commands: BTreeMap<u64, CommandSender>,
    handles: Vec<JoinHandle<()>>,
}

impl LoopbackHarness {
    /// Binds a listener per core on `127.0.0.1:0`, then spawns the daemons.
    pub fn start(cores: Vec<PeerCore>) -> io::Result<LoopbackHarness> {
        let mut listeners = Vec::with_capacity(cores.len());
        let mut addrs: BTreeMap<u64, SocketAddr> = BTreeMap::new();
        for core in &cores {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(core.id().0, listener.local_addr()?);
            listeners.push(listener);
        }
        let peers: Vec<PeerId> = cores.iter().map(|c| c.id()).collect();
        let mut commands = BTreeMap::new();
        let mut handles = Vec::with_capacity(cores.len());
        for (core, listener) in cores.into_iter().zip(listeners) {
            let (tx, rx) = command_channel()?;
            commands.insert(core.id().0, tx);
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                daemon(core, listener, addrs, rx)
            }));
        }
        Ok(LoopbackHarness {
            peers,
            addrs,
            commands,
            handles,
        })
    }

    /// The fleet's peer ids, in core order.
    pub fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// The address `peer`'s daemon listens on, for a client that writes
    /// frames to it directly.
    pub fn addr(&self, peer: PeerId) -> Option<SocketAddr> {
        self.addrs.get(&peer.0).copied()
    }

    fn command(&self, peer: PeerId, command: Command) -> io::Result<()> {
        self.commands
            .get(&peer.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown peer"))?
            .send(command)
    }

    /// Trains `peer` on `data` (asynchronous: propagation happens in the
    /// background; use [`Self::wait_installed`] as the barrier).
    pub fn train(&self, peer: PeerId, data: &MultiLabelDataset) -> io::Result<()> {
        self.command(peer, Command::Train(data.clone()))
    }

    /// Runs a prediction at `peer`, blocking until the scores arrive or
    /// `timeout` elapses.
    pub fn predict(
        &self,
        peer: PeerId,
        x: &SparseVector,
        timeout: Duration,
    ) -> io::Result<Vec<TagPrediction>> {
        let (tx, rx) = channel();
        self.command(peer, Command::Predict(x.clone(), tx))?;
        rx.recv_timeout(timeout)
            .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "prediction timed out"))
    }

    /// Starts an anti-entropy exchange from `peer` towards `partner`.
    pub fn anti_entropy(&self, peer: PeerId, partner: PeerId) -> io::Result<()> {
        self.command(peer, Command::AntiEntropy(partner))
    }

    /// Fetches `peer`'s current snapshot.
    pub fn snapshot(&self, peer: PeerId) -> io::Result<Snapshot> {
        let (tx, rx) = channel();
        self.command(peer, Command::Snapshot(tx))?;
        rx.recv_timeout(Duration::from_secs(10))
            .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "snapshot timed out"))
    }

    /// Polls `peer` until its installed `(source, version)` set equals
    /// `expected` (sorted), or `timeout` elapses. Returns the final set.
    pub fn wait_installed(
        &self,
        peer: PeerId,
        expected: &[(u64, u64)],
        timeout: Duration,
    ) -> io::Result<Vec<(u64, u64)>> {
        let deadline = Instant::now() + timeout;
        loop {
            let snapshot = self.snapshot(peer)?;
            if snapshot.installed == expected {
                return Ok(snapshot.installed);
            }
            if Instant::now() >= deadline {
                return Ok(snapshot.installed);
            }
            std::thread::sleep(INSTALL_POLL);
        }
    }

    /// Shuts every daemon down and joins the threads.
    pub fn shutdown(self) {
        for tx in self.commands.values() {
            let _ = tx.send(Command::Shutdown);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}
