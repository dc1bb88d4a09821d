//! The session driver's wall-clock boundary.
//!
//! Everything in the simulation stack runs on **virtual time**
//! ([`p2psim::SimTime`]); reading the host clock from sim code would make
//! replays scheduling-dependent, so the workspace lint (`xtask lint`,
//! `wall-clock` rule) bans `Instant`/`SystemTime` outside `crates/bench`
//! — and this module, its single allowlisted exception in library code.
//!
//! The exception exists because the session driver reports *measurement*
//! alongside simulation: the per-epoch `learn_secs`/`refine_secs`/
//! `auto_secs` fields of [`crate::session::EpochReport`] are how the
//! repository benchmark (`benchmark/`) times a session's phases. Those readings
//! are observability output only — nothing in the epoch loop branches on
//! them, so they cannot perturb replay determinism. Keeping the clock
//! behind [`Stopwatch`] makes that boundary auditable: a grep for
//! `Instant` in sim code finds exactly this file, and the lint keeps it
//! that way.

use std::time::Instant;

/// A started wall-clock measurement for a benchmark-facing report field.
///
/// Deliberately minimal: it can only report elapsed seconds, so the value
/// is only useful as observability output, never as simulation state.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
