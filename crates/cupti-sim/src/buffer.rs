//! Activity buffer pool.
//!
//! CUPTI delivers activity records through a buffer-request / buffer-complete
//! protocol: the client pre-allocates fixed-size buffers; CUPTI fills one at
//! a time and hands full buffers back. The pool's resident size is the
//! dominant term of GLP4NN's memory overhead (`mem_cupti` in Fig. 10 — "much
//! larger than the other two parts in our experiments").

use crate::activity::ActivityRecord;

/// Default size of one activity buffer (CUPTI's default is 3 MiB; the
/// compact tracker uses smaller 512 KiB buffers).
pub const DEFAULT_BUFFER_BYTES: usize = 512 * 1024;

/// Default number of buffers kept in flight (double buffering + spare).
pub const DEFAULT_POOL_BUFFERS: usize = 2;

/// One fixed-capacity activity buffer being filled.
#[derive(Debug)]
pub struct ActivityBuffer {
    buf: Vec<u8>,
    capacity: usize,
    records: usize,
}

impl ActivityBuffer {
    /// Allocate an empty buffer with `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        ActivityBuffer {
            buf: Vec::with_capacity(capacity),
            capacity,
            records: 0,
        }
    }

    /// Try to append a record; `false` when the buffer is full.
    pub fn push(&mut self, rec: &ActivityRecord) -> bool {
        if self.buf.len() + rec.encoded_len() > self.capacity {
            return false;
        }
        rec.encode(&mut self.buf);
        self.records += 1;
        true
    }

    /// Number of records held.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Bytes used.
    pub fn used(&self) -> usize {
        self.buf.len()
    }

    /// Allocated capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Take the contents, leaving an empty buffer that allocates again on
    /// its next push.
    pub fn complete(&mut self) -> Vec<u8> {
        self.records = 0;
        std::mem::take(&mut self.buf)
    }
}

/// A pool of activity buffers with CUPTI's requested/completed life-cycle.
#[derive(Debug)]
pub struct BufferPool {
    current: ActivityBuffer,
    completed: Vec<Vec<u8>>,
    buffer_bytes: usize,
    num_buffers: usize,
    dropped: usize,
}

impl BufferPool {
    /// Pool with `num_buffers` buffers of `buffer_bytes` each.
    pub fn new(buffer_bytes: usize, num_buffers: usize) -> Self {
        BufferPool {
            current: ActivityBuffer::new(buffer_bytes),
            completed: Vec::new(),
            buffer_bytes,
            num_buffers: num_buffers.max(1),
            dropped: 0,
        }
    }

    /// Append a record, rotating to a fresh buffer when the current one
    /// fills. Records are dropped (and counted) if every buffer in the pool
    /// is already completed and unread — CUPTI behaves the same way when
    /// the client does not drain fast enough.
    pub fn push(&mut self, rec: &ActivityRecord) {
        if self.current.push(rec) {
            return;
        }
        if self.completed.len() + 1 >= self.num_buffers {
            self.dropped += 1;
            return;
        }
        let full = self.current.complete();
        self.completed.push(full);
        if !self.current.push(rec) {
            // Record larger than a whole buffer: drop.
            self.dropped += 1;
        }
    }

    /// Complete the current buffer and return all full buffers, emptying
    /// the pool (the client-side "drain").
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        if self.current.records() > 0 {
            let b = self.current.complete();
            self.completed.push(b);
        }
        std::mem::take(&mut self.completed)
    }

    /// Records dropped due to back-pressure.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Resident memory the pool pins, in bytes (`mem_cupti`).
    pub fn resident_bytes(&self) -> usize {
        self.buffer_bytes * self.num_buffers
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new(DEFAULT_BUFFER_BYTES, DEFAULT_POOL_BUFFERS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityKind;

    fn rec(name: &str) -> ActivityRecord {
        ActivityRecord {
            kind: ActivityKind::Kernel,
            name: name.to_string(),
            tag: 0,
            stream: 0,
            grid: (1, 1, 1),
            block: (32, 1, 1),
            regs_per_thread: 16,
            smem_static: 0,
            smem_dynamic: 0,
            start_ns: 0,
            end_ns: 10,
        }
    }

    #[test]
    fn buffer_fills_and_rejects() {
        let r = rec("kernel_name");
        let mut b = ActivityBuffer::new(r.encoded_len() * 2 + 1);
        assert!(b.push(&r));
        assert!(b.push(&r));
        assert!(!b.push(&r));
        assert_eq!(b.records(), 2);
        assert_eq!(b.used(), r.encoded_len() * 2);
    }

    #[test]
    fn complete_resets() {
        let r = rec("k");
        let mut b = ActivityBuffer::new(1024);
        b.push(&r);
        let bytes = b.complete();
        assert_eq!(bytes.len(), r.encoded_len());
        assert_eq!(b.records(), 0);
        assert_eq!(b.used(), 0);
        assert!(b.push(&r));
    }

    #[test]
    fn pool_rotates_buffers() {
        let r = rec("k");
        let cap = r.encoded_len() * 2;
        let mut p = BufferPool::new(cap, 4);
        for _ in 0..5 {
            p.push(&r);
        }
        let bufs = p.drain();
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        assert_eq!(total, 5 * r.encoded_len());
        assert_eq!(p.dropped(), 0);
    }

    #[test]
    fn pool_drops_under_backpressure() {
        let r = rec("k");
        let cap = r.encoded_len(); // 1 record per buffer
        let mut p = BufferPool::new(cap, 2);
        p.push(&r); // fills current
        p.push(&r); // rotates: completed=1 (== num_buffers-1), current holds 1
        p.push(&r); // no buffer available -> dropped
        assert!(p.dropped() > 0);
    }

    #[test]
    fn resident_bytes_is_capacity_times_buffers() {
        let p = BufferPool::new(1024, 3);
        assert_eq!(p.resident_bytes(), 3072);
        let d = BufferPool::default();
        assert_eq!(
            d.resident_bytes(),
            DEFAULT_BUFFER_BYTES * DEFAULT_POOL_BUFFERS
        );
    }

    #[test]
    fn drain_empties_pool() {
        let r = rec("k");
        let mut p = BufferPool::default();
        p.push(&r);
        assert_eq!(p.drain().len(), 1);
        assert!(p.drain().is_empty());
    }
}
