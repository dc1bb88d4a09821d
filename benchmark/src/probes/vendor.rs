//! `vendor/reactor` and `vendor/parallel`. The timer wheel takes
//! `std::time::Instant` deadlines, which nothing outside the audited clock
//! boundary may construct, so it cannot be probed from here.

use super::{Inputs, Sink};
use reactor::{Interest, Poller, Token};
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Runs `reactor.poller_wake_us` and `parallel.par_map_overhead_us`.
pub fn run(inputs: &Inputs, sink: &mut Sink<'_>) {
    // One end of a socket pair registered with the poller; each call makes
    // it readable and times the wait that reports it.
    let poller_ready = Poller::new().and_then(|poller| {
        let (mut tx, rx) = UnixStream::pair()?;
        poller.register(rx.as_raw_fd(), Token(1), Interest::READABLE)?;
        tx.write_all(&[1])?;
        Ok((poller, tx, rx))
    });
    match poller_ready {
        Ok((poller, mut tx, mut rx)) => {
            let mut events = Vec::new();
            let mut byte = [0u8; 1];
            sink.time_prepared(
                "reactor.poller_wake_us",
                "us",
                1,
                || {
                    // Drain the previous byte, then make the socket readable again.
                    let _ = rx.read(&mut byte);
                    let _ = tx.write_all(&[1]);
                },
                |()| {
                    events.clear();
                    black_box(poller.wait(&mut events, Some(Duration::from_secs(1))).ok());
                },
            );
        }
        Err(_) => sink.value("reactor.poller_wake_us", f64::NAN, "us", 0),
    }

    // The fan-out cost itself: a thousand items, nothing to do for each.
    let items: Vec<u64> = (0..1_000).map(|i| i ^ inputs.seed).collect();
    sink.time("parallel.par_map_overhead_us", "us", 1, || {
        black_box(parallel::par_map(black_box(&items), |&item| item));
    });
}
