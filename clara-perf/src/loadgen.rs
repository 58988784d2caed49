//! Closed-loop load generation. Each element of `states` is one client
//! thread's private state (its connection and buffers); request indices
//! come from one shared counter, so requests go out in the generator's
//! order whichever thread sends them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What a closed-loop run measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Round trip of every request in µs, failed ones as +∞.
    pub lat_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Wall time from the first send to the last reply.
    pub wall: Duration,
}

impl Tally {
    /// Successful requests per second of wall time.
    pub fn rps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64()
    }

    /// Adds a later window's requests and wall time to this one.
    pub fn absorb(&mut self, later: Tally) {
        self.lat_us.extend(later.lat_us);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.wall += later.wall;
    }
}

/// Closed loop: every thread sends its next request as soon as its
/// previous reply arrives, until `window` has passed. Request indices
/// start at `first`. `send` returns whether the request succeeded with
/// the right answer.
pub fn closed_loop<S: Send>(
    states: &mut [S],
    window: Duration,
    first: u64,
    send: impl Fn(&mut S, u64) -> bool + Sync,
) -> Tally {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let end = start + window;
    let per_thread: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let (next, send) = (&next, &send);
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(1 << 16);
                    let mut failed = 0;
                    while Instant::now() < end {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let ok = send(state, i);
                        if ok {
                            lat.push(t0.elapsed().as_nanos() as f64 / 1e3);
                        } else {
                            lat.push(f64::INFINITY);
                            failed += 1;
                        }
                    }
                    (lat, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut t = Tally {
        wall,
        ..Tally::default()
    };
    for (lat, failed) in per_thread {
        t.attempted += lat.len() as u64;
        t.failed += failed;
        t.lat_us.extend(lat);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_failures_as_infinite_latency() {
        let mut states = [0u64, 0u64];
        let t = closed_loop(&mut states, Duration::from_millis(20), 0, |n, i| {
            *n += 1;
            i % 2 == 0
        });
        assert_eq!(t.attempted, states.iter().sum::<u64>());
        assert_eq!(
            t.lat_us.iter().filter(|l| l.is_infinite()).count() as u64,
            t.failed
        );
        assert!(t.failed > 0 && t.failed < t.attempted);
    }

    #[test]
    fn absorbed_windows_pool_samples_counts_and_wall_time() {
        let window = |lat: Vec<f64>, failed, ms| Tally {
            attempted: lat.len() as u64,
            lat_us: lat,
            failed,
            wall: Duration::from_millis(ms),
        };
        let mut t = window(vec![1.0, 2.0], 0, 100);
        t.absorb(window(vec![3.0, f64::INFINITY, 5.0], 1, 300));
        assert_eq!(t.lat_us, [1.0, 2.0, 3.0, f64::INFINITY, 5.0]);
        assert_eq!((t.attempted, t.failed), (5, 1));
        assert_eq!(t.rps(), 10.0);
    }
}
