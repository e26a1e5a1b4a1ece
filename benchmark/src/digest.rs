//! Order-sensitive 64-bit digest (FNV-1a) over simulated outputs.
//!
//! Everything folded in is a simulated quantity — timestamps, counts,
//! weight bits — never a host time, so a digest repeats exactly for the
//! same inputs on the same program.

use gpu_sim::KernelTrace;

/// A running FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold one integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a slice of `f32`s by bit pattern — trained weights.
    pub fn f32s(&mut self, v: &[f32]) -> &mut Self {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        self
    }

    /// Fold a string (length-prefixed so concatenations differ).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Fold a device timeline: every kernel's name, stream and span.
    pub fn timeline(&mut self, trace: &[KernelTrace]) -> &mut Self {
        self.u64(trace.len() as u64);
        for t in trace {
            self.str(t.name.as_str())
                .u64(u64::from(t.stream.raw()))
                .u64(t.start_ns)
                .u64(t.end_ns);
        }
        self
    }

    /// The hash value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Pinned value: a change to the folding breaks every committed
        // expected digest, so it must not pass silently.
        let mut a = Digest::new();
        a.u64(1).u64(2).str("sgemm").f32s(&[1.5]);
        assert_eq!(a.value(), 0x6560_7295_f21c_a88f_u64, "{:#x}", a.value());
        let mut b = Digest::new();
        b.u64(2).u64(1).str("sgemm").f32s(&[1.5]);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::new();
        c.u64(1).u64(2).str("sgemm").f32s(&[1.5]);
        assert_eq!(a, c);
    }

    #[test]
    fn float_bits_not_values_are_hashed() {
        let (mut z, mut nz) = (Digest::new(), Digest::new());
        z.f32s(&[0.0]);
        nz.f32s(&[-0.0]);
        assert_ne!(z.value(), nz.value(), "+0 and -0 differ bitwise");
        let (mut s, mut t) = (Digest::new(), Digest::new());
        s.str("ab").str("c");
        t.str("a").str("bc");
        assert_ne!(s.value(), t.value());
    }
}
