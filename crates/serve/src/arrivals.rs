//! Seeded Poisson request arrivals in simulated time.

use crate::request::Request;
use gpu_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Poisson arrival process: exponential inter-arrival times at a given
/// mean rate, drawn from a seeded RNG. Arrival times are simulated
/// nanoseconds offset from a configurable origin.
#[derive(Debug)]
pub struct PoissonArrivals {
    rng: StdRng,
    rate_rps: f64,
    clock_ns: f64,
    next_id: u64,
}

impl PoissonArrivals {
    /// An arrival process at `rate_rps` requests per (simulated) second,
    /// starting at `origin_ns`.
    ///
    /// # Panics
    /// Panics unless `rate_rps` is finite and positive.
    pub fn new(rate_rps: f64, origin_ns: SimTime, seed: u64) -> Self {
        assert!(
            rate_rps.is_finite() && rate_rps > 0.0,
            "arrival rate must be positive, got {rate_rps}"
        );
        PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
            rate_rps,
            clock_ns: origin_ns as f64,
            next_id: 0,
        }
    }

    /// Draw the next arrival.
    fn next_request(&mut self) -> Request {
        // Inverse-CDF exponential sample; 1 - u in (0, 1] avoids ln(0).
        let u: f64 = self.rng.gen();
        let gap_s = -(1.0 - u).ln() / self.rate_rps;
        self.clock_ns += gap_s * 1e9;
        let r = Request {
            id: self.next_id,
            arrival_ns: self.clock_ns.ceil() as SimTime,
        };
        self.next_id += 1;
        r
    }

    /// Draw `n` arrivals in order.
    pub fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_sorted_and_deterministic() {
        let a = PoissonArrivals::new(1000.0, 0, 7).take(500);
        let b = PoissonArrivals::new(1000.0, 0, 7).take(500);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(a.windows(2).all(|w| w[0].id + 1 == w[1].id));
    }

    #[test]
    fn different_seeds_differ() {
        let a = PoissonArrivals::new(1000.0, 0, 7).take(100);
        let b = PoissonArrivals::new(1000.0, 0, 8).take(100);
        assert_ne!(a, b);
    }

    #[test]
    fn mean_gap_approximates_rate() {
        // 2000 req/s -> mean gap 0.5 ms = 500_000 ns.
        let reqs = PoissonArrivals::new(2000.0, 0, 3).take(4000);
        let span = reqs[3999].arrival_ns - reqs[0].arrival_ns;
        let mean_gap = span as f64 / 3999.0;
        assert!(
            (mean_gap - 500_000.0).abs() < 50_000.0,
            "mean inter-arrival drifted: {mean_gap}"
        );
    }

    #[test]
    fn origin_offsets_all_arrivals() {
        let base = PoissonArrivals::new(1000.0, 0, 9).take(10);
        let offset = PoissonArrivals::new(1000.0, 1_000_000, 9).take(10);
        for (a, b) in base.iter().zip(&offset) {
            assert_eq!(a.arrival_ns + 1_000_000, b.arrival_ns);
        }
    }
}
