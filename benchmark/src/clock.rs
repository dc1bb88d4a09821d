//! The benchmark's one clock.
//!
//! Every time the benchmark reads is an offset from a single process-wide
//! [`doctagger::timing::Stopwatch`] — the workspace's audited wall-clock
//! boundary — so spans from every module share one epoch and this package
//! needs no clock of its own (`xtask lint` bans `Instant` here as it does in
//! the simulator crates).

use doctagger::timing::Stopwatch;
use std::sync::OnceLock;

static EPOCH: OnceLock<Stopwatch> = OnceLock::new();

/// Seconds since the first call in this process (the trace epoch).
pub fn now_s() -> f64 {
    EPOCH.get_or_init(Stopwatch::start).elapsed_secs()
}

/// Microseconds since the trace epoch, for span boundaries.
pub fn now_us() -> u64 {
    (now_s() * 1e6) as u64
}

/// Runs `f` and returns its result with the seconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now_s();
    let out = f();
    (out, now_s() - start)
}

/// Calls `f` in doubling batches until at least `min_secs` have been
/// measured; returns `(calls, seconds per call)`. The closure must route its
/// inputs and results through [`std::hint::black_box`].
pub fn per_call(min_secs: f64, mut f: impl FnMut()) -> (u64, f64) {
    let mut calls = 0u64;
    let mut secs = 0.0;
    let mut batch = 1u64;
    while secs < min_secs {
        let start = now_s();
        for _ in 0..batch {
            f();
        }
        secs += now_s() - start;
        calls += batch;
        batch = batch.saturating_mul(2);
    }
    (calls, secs / calls as f64)
}
