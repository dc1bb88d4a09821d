// Fixture: wall-clock reads outside the timing helper and the socket boundary.
// Simulation code runs on virtual time; Instant::now here breaks replay.

fn measure() -> f64 {
    let t = std::time::Instant::now();
    let _epoch = std::time::SystemTime::now();
    t.elapsed().as_secs_f64()
}
