//! The local-only baseline as a per-peer sans-io core.
//!
//! The degenerate case that anchors the driver contract: training and
//! prediction never produce an [`Output::Emit`], so a local-only fleet is
//! bitwise-trivially identical across drivers — and any network traffic a
//! driver observes from one is a bug.

use super::{LocalEffect, Millis, Output, ProtocolCore};
use crate::local::{train_local_only, LocalModel};
use crate::reliable::LinkStats;
use ml::MultiLabelDataset;
use p2psim::PeerId;
use textproc::SparseVector;

/// A single local-only peer as a pure state machine.
#[derive(Debug, Clone)]
pub struct LocalCore {
    id: PeerId,
    local_data: MultiLabelDataset,
    model: Option<LocalModel>,
    version: u64,
    next_request: u64,
}

impl LocalCore {
    /// A fresh core for `id`.
    pub fn new(id: PeerId) -> Self {
        Self {
            id,
            local_data: MultiLabelDataset::new(),
            model: None,
            version: 0,
            next_request: 0,
        }
    }

    /// The peer this core belongs to.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The link counters: all zero, since a local-only peer never sends.
    pub fn link_stats(&self) -> LinkStats {
        LinkStats::default()
    }

    /// This peer's own `(source, version)` — nothing else is ever installed.
    pub fn installed_versions(&self) -> Vec<(u64, u64)> {
        if self.version > 0 {
            vec![(self.id.0, self.version)]
        } else {
            Vec::new()
        }
    }

    /// Appends `data` and refits the local model (warm when one exists).
    pub fn train(&mut self, _now: Millis, data: &MultiLabelDataset) -> Vec<Output> {
        self.local_data.extend_from(data);
        let warm = self.model.as_ref().map(|m| &m.model);
        match train_local_only(&self.local_data, warm) {
            Some(model) => {
                self.model = Some(model);
                self.version += 1;
                vec![Output::Effect(LocalEffect::Installed {
                    source: self.id.0,
                    version: self.version,
                })]
            }
            None => Vec::new(),
        }
    }

    /// Starts (and immediately finishes) a purely local prediction.
    pub fn predict(&mut self, _now: Millis, x: &SparseVector) -> (u64, Vec<Output>) {
        let request = self.next_request;
        self.next_request += 1;
        let scores = match &self.model {
            Some(local) => local.matrix.scores(x),
            None => Vec::new(),
        };
        (
            request,
            vec![Output::Effect(LocalEffect::Prediction { request, scores })],
        )
    }
}

impl ProtocolCore for LocalCore {
    fn ingest(&mut self, _now: Millis, _from: PeerId, _frame: &[u8]) -> Vec<Output> {
        // Local-only peers ignore the network entirely.
        Vec::new()
    }

    fn poll_timers(&mut self, _now: Millis) -> Vec<Output> {
        Vec::new()
    }
}
