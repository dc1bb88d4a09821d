//! Activity logging ("log activities" in Figure 2 of the paper).
//!
//! A bounded, in-memory log of notable simulation events. Experiments and
//! examples use it to narrate what the protocols did (model propagated, lookup
//! failed, peer churned out, …) without polluting stdout.

use crate::peer::PeerId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One logged event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Simulation time of the event.
    pub time: SimTime,
    /// Peer the event concerns (if any).
    pub peer: Option<PeerId>,
    /// Short category string, e.g. `"join"`, `"model-propagation"`.
    pub category: String,
    /// Human-readable description.
    pub message: String,
}

/// Bounded in-memory activity log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActivityLog {
    entries: VecDeque<LogEntry>,
    capacity: usize,
    total_logged: u64,
}

impl Default for ActivityLog {
    fn default() -> Self {
        Self::with_capacity(10_000)
    }
}

impl ActivityLog {
    /// Creates a log retaining at most `capacity` recent entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            total_logged: 0,
        }
    }

    /// Appends an entry, evicting the oldest one if the log is full.
    pub fn log(
        &mut self,
        time: SimTime,
        peer: Option<PeerId>,
        category: impl Into<String>,
        message: impl Into<String>,
    ) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(LogEntry {
            time,
            peer,
            category: category.into(),
            message: message.into(),
        });
        self.total_logged += 1;
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of entries ever logged (including evicted ones).
    pub fn total_logged(&self) -> u64 {
        self.total_logged
    }

    /// Iterates over retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }

    /// Entries matching a category.
    #[cfg(test)]
    pub fn by_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a LogEntry> {
        self.entries.iter().filter(move |e| e.category == category)
    }

    /// Clears the log (the total count is preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_and_iterates_in_order() {
        let mut log = ActivityLog::with_capacity(10);
        log.log(
            SimTime::from_secs(1),
            Some(PeerId(1)),
            "join",
            "peer 1 joined",
        );
        log.log(SimTime::from_secs(2), None, "lookup", "lookup for tag rust");
        assert_eq!(log.len(), 2);
        let cats: Vec<&str> = log.iter().map(|e| e.category.as_str()).collect();
        assert_eq!(cats, vec!["join", "lookup"]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = ActivityLog::with_capacity(3);
        for i in 0..5u64 {
            log.log(SimTime::from_secs(i), None, "tick", format!("tick {i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_logged(), 5);
        assert_eq!(log.iter().next().unwrap().time, SimTime::from_secs(2));
    }

    #[test]
    fn filter_by_category() {
        let mut log = ActivityLog::default();
        log.log(SimTime::ZERO, None, "a", "1");
        log.log(SimTime::ZERO, None, "b", "2");
        log.log(SimTime::ZERO, None, "a", "3");
        assert_eq!(log.by_category("a").count(), 2);
        assert_eq!(log.by_category("c").count(), 0);
    }

    #[test]
    fn clear_retains_total() {
        let mut log = ActivityLog::default();
        log.log(SimTime::ZERO, None, "x", "y");
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.total_logged(), 1);
    }
}
