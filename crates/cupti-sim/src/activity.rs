//! Activity record types and their binary wire format.
//!
//! Records are fixed-layout little-endian structures plus a length-prefixed
//! kernel name, mirroring CUPTI's `CUpti_ActivityKernel` records. The binary
//! round-trip is what makes the buffer pool's memory accounting honest.

/// Kind of activity record (subset of CUPTI's activity kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityKind {
    /// A kernel execution (`CUPTI_ACTIVITY_KIND_KERNEL`).
    Kernel,
    /// A concurrent kernel execution record
    /// (`CUPTI_ACTIVITY_KIND_CONCURRENT_KERNEL`).
    ConcurrentKernel,
}

impl ActivityKind {
    fn to_u8(self) -> u8 {
        match self {
            ActivityKind::Kernel => 1,
            ActivityKind::ConcurrentKernel => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ActivityKind::Kernel),
            2 => Some(ActivityKind::ConcurrentKernel),
            _ => None,
        }
    }
}

/// Why decoding an activity record from a buffer failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the record did. `available == 0` is the
    /// ordinary end-of-buffer condition a drain loop stops on; anything
    /// else is a truncated record.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The kind byte matches no known activity kind.
    BadKind(u8),
    /// The kernel-name bytes are not valid UTF-8.
    BadName,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => write!(
                f,
                "truncated activity record: needed {needed} bytes, {available} available"
            ),
            DecodeError::BadKind(k) => write!(f, "unknown activity kind code {k}"),
            DecodeError::BadName => write!(f, "kernel name is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One kernel activity record, as the resource tracker consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityRecord {
    /// Record kind.
    pub kind: ActivityKind,
    /// Kernel name.
    pub name: String,
    /// Correlation tag carried from the launch site (layer id etc.).
    pub tag: u64,
    /// Stream the kernel executed in.
    pub stream: u32,
    /// Grid dimensions.
    pub grid: (u32, u32, u32),
    /// Block dimensions.
    pub block: (u32, u32, u32),
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per block (bytes).
    pub smem_static: u32,
    /// Dynamic shared memory per block (bytes).
    pub smem_dynamic: u32,
    /// Execution start timestamp (ns).
    pub start_ns: u64,
    /// Execution end timestamp (ns).
    pub end_ns: u64,
}

impl ActivityRecord {
    /// Fixed-field portion of the encoded record, in bytes (everything but
    /// the name bytes). This is the paper's `mem_K` unit: the per-kernel
    /// configuration footprint.
    pub const FIXED_ENCODED_BYTES: usize = 1 + 8 + 4 + 6 * 4 + 3 * 4 + 8 + 8 + 2;

    /// Bytes of this record devoted to timestamps (`mem_tt` unit).
    pub const TIMESTAMP_BYTES: usize = 16;

    /// Total encoded size of this record.
    pub fn encoded_len(&self) -> usize {
        Self::FIXED_ENCODED_BYTES + self.name.len()
    }

    /// Kernel duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Append to `buf` (little-endian, name length-prefixed u16).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.kind.to_u8());
        buf.extend_from_slice(&self.tag.to_le_bytes());
        buf.extend_from_slice(&self.stream.to_le_bytes());
        buf.extend_from_slice(&self.grid.0.to_le_bytes());
        buf.extend_from_slice(&self.grid.1.to_le_bytes());
        buf.extend_from_slice(&self.grid.2.to_le_bytes());
        buf.extend_from_slice(&self.block.0.to_le_bytes());
        buf.extend_from_slice(&self.block.1.to_le_bytes());
        buf.extend_from_slice(&self.block.2.to_le_bytes());
        buf.extend_from_slice(&self.regs_per_thread.to_le_bytes());
        buf.extend_from_slice(&self.smem_static.to_le_bytes());
        buf.extend_from_slice(&self.smem_dynamic.to_le_bytes());
        buf.extend_from_slice(&self.start_ns.to_le_bytes());
        buf.extend_from_slice(&self.end_ns.to_le_bytes());
        buf.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        buf.extend_from_slice(self.name.as_bytes());
    }

    /// Deserialize one record off the front of `buf`, reporting exactly how
    /// malformed input is malformed.
    pub fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        if buf.len() < Self::FIXED_ENCODED_BYTES {
            return Err(DecodeError::Truncated {
                needed: Self::FIXED_ENCODED_BYTES,
                available: buf.len(),
            });
        }
        let [kind_code] = take(buf);
        let kind = ActivityKind::from_u8(kind_code).ok_or(DecodeError::BadKind(kind_code))?;
        let tag = u64::from_le_bytes(take(buf));
        let [stream, g0, g1, g2, b0, b1, b2, regs_per_thread, smem_static, smem_dynamic] =
            std::array::from_fn(|_| u32::from_le_bytes(take(buf)));
        let start_ns = u64::from_le_bytes(take(buf));
        let end_ns = u64::from_le_bytes(take(buf));
        let name_len = u16::from_le_bytes(take(buf)) as usize;
        if buf.len() < name_len {
            return Err(DecodeError::Truncated {
                needed: name_len,
                available: buf.len(),
            });
        }
        let (name, rest) = buf.split_at(name_len);
        *buf = rest;
        let name = String::from_utf8(name.to_vec()).map_err(|_| DecodeError::BadName)?;
        Ok(ActivityRecord {
            kind,
            name,
            tag,
            stream,
            grid: (g0, g1, g2),
            block: (b0, b1, b2),
            regs_per_thread,
            smem_static,
            smem_dynamic,
            start_ns,
            end_ns,
        })
    }

    /// Build a record from a simulator kernel trace.
    pub fn from_trace(t: &gpu_sim::KernelTrace) -> Self {
        ActivityRecord {
            kind: if t.stream.is_default() {
                ActivityKind::Kernel
            } else {
                ActivityKind::ConcurrentKernel
            },
            name: t.name.to_string(),
            tag: t.tag,
            stream: t.stream.raw(),
            grid: (t.launch.grid.x, t.launch.grid.y, t.launch.grid.z),
            block: (t.launch.block.x, t.launch.block.y, t.launch.block.z),
            regs_per_thread: t.launch.regs_per_thread,
            smem_static: t.launch.smem_static,
            smem_dynamic: t.launch.smem_dynamic,
            start_ns: t.start_ns,
            end_ns: t.end_ns,
        }
    }
}

/// Consume the next `N` bytes of `buf`; `decode` checks the length first.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_first_chunk().expect("decode checked the length");
    *buf = rest;
    *head
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ActivityRecord {
        ActivityRecord {
            kind: ActivityKind::ConcurrentKernel,
            name: "sgemm_128x64".to_string(),
            tag: 42,
            stream: 3,
            grid: (18, 1, 1),
            block: (256, 1, 1),
            regs_per_thread: 33,
            smem_static: 4096,
            smem_dynamic: 512,
            start_ns: 1_000,
            end_ns: 51_000,
        }
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        assert_eq!(buf[1..9], 42u64.to_le_bytes(), "the tag is little-endian");
        let mut cur = buf.as_slice();
        let back = ActivityRecord::decode(&mut cur).unwrap();
        assert_eq!(back, r);
        assert!(cur.is_empty());
    }

    #[test]
    fn multiple_records_in_sequence() {
        let mut buf = Vec::new();
        let a = sample();
        let mut b = sample();
        b.name = "im2col".to_string();
        b.tag = 7;
        a.encode(&mut buf);
        b.encode(&mut buf);
        let mut cur = buf.as_slice();
        assert_eq!(ActivityRecord::decode(&mut cur).unwrap(), a);
        assert_eq!(ActivityRecord::decode(&mut cur).unwrap(), b);
        // Clean exhaustion reads as a truncation with nothing available.
        assert_eq!(
            ActivityRecord::decode(&mut cur),
            Err(DecodeError::Truncated {
                needed: ActivityRecord::FIXED_ENCODED_BYTES,
                available: 0
            })
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let r = sample();
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let mut cur = &buf[..10];
        let err = ActivityRecord::decode(&mut cur).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                needed: ActivityRecord::FIXED_ENCODED_BYTES,
                available: 10
            }
        );
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn decode_rejects_bad_kind_and_name() {
        let r = sample();
        let mut bytes = Vec::new();
        r.encode(&mut bytes);
        bytes[0] = 99; // corrupt the kind byte
        let mut cur = bytes.as_slice();
        assert_eq!(
            ActivityRecord::decode(&mut cur),
            Err(DecodeError::BadKind(99))
        );

        let mut bytes = Vec::new();
        r.encode(&mut bytes);
        let name_at = bytes.len() - r.name.len();
        bytes[name_at] = 0xFF; // invalid UTF-8 lead byte
        let mut cur = bytes.as_slice();
        let err = ActivityRecord::decode(&mut cur).unwrap_err();
        assert_eq!(err, DecodeError::BadName);
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn duration_and_sizes() {
        let r = sample();
        assert_eq!(r.duration_ns(), 50_000);
        assert_eq!(ActivityRecord::TIMESTAMP_BYTES, 16);
        assert!(r.encoded_len() > ActivityRecord::FIXED_ENCODED_BYTES);
    }

    #[test]
    fn kind_codes() {
        assert_eq!(ActivityKind::from_u8(1), Some(ActivityKind::Kernel));
        assert_eq!(
            ActivityKind::from_u8(2),
            Some(ActivityKind::ConcurrentKernel)
        );
        assert_eq!(ActivityKind::from_u8(99), None);
    }
}
