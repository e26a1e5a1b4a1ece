//! Requests and deterministic request payloads.

use gpu_sim::SimTime;

/// One inference request: a single sample awaiting service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Monotonically increasing request id (doubles as the payload seed).
    pub id: u64,
    /// Simulated arrival time (ns).
    pub arrival_ns: SimTime,
}

/// Fill one sample's input slice with the request's deterministic payload.
///
/// The pattern depends only on the request id, so an offline forward over
/// the same ids reproduces the served inputs exactly — the basis of the
/// served-equals-offline integration test.
pub fn fill_sample(sample: &mut [f32], id: u64) {
    for (j, v) in sample.iter_mut().enumerate() {
        let h = id.wrapping_mul(31).wrapping_add(j as u64 * 7) % 251;
        *v = (h as f32 - 125.0) * 0.01;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_deterministic_and_id_dependent() {
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        let mut c = vec![0.0f32; 64];
        fill_sample(&mut a, 3);
        fill_sample(&mut b, 3);
        fill_sample(&mut c, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| v.abs() <= 1.26));
    }
}
