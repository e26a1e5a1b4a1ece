//! Chunked arena for per-kernel runtime state.
//!
//! The engine's steady-state event loop must not allocate (pinned by the
//! `engine_alloc_probe` integration test). Host-side launch calls are
//! allowed to allocate — they model driver work that happens off the
//! simulated critical path — so the allocation policy is:
//!
//! * **Launch time** (`Device::launch`, `enqueue_*`): reserve everything
//!   the kernel's lifetime will need — its [`Arena`] slot here, plus one
//!   slot of trace/cmd-log capacity on the device's contiguous log
//!   vectors.
//! * **Event time** (`step_one` and its handlers): consume only
//!   pre-reserved capacity. The event queue's heap keeps its storage
//!   across episodes, the arena's chunks are never moved or freed, and
//!   the log vectors were sized at launch.
//!
//! The arena hands out stable indices into fixed-size chunks: a push
//! never reallocates existing elements (unlike `Vec`), so `&mut` access
//! to one slot stays valid while new kernels are launched. A chunk is
//! allocated by the first push that lands in it, and [`Arena::skip`]
//! hands out indices that hold nothing: a memo-applied replay's kernels
//! keep their ids but no slot (DESIGN.md, "Quiescent-replay memo").

/// Elements per chunk. Power of two so index math is shift/mask.
const CHUNK: usize = 256;

/// A chunked arena: stable indices, O(1) push/index, chunks allocated on
/// first use.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    chunks: Vec<Option<Box<[Option<T>; CHUNK]>>>,
    len: usize,
}

impl<T> Arena<T> {
    /// An empty arena (no chunks yet).
    pub(crate) fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of indices handed out, skipped ones included.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append a value, returning its stable index.
    pub(crate) fn push(&mut self, value: T) -> usize {
        let idx = self.len;
        let c = idx / CHUNK;
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| Box::new([(); CHUNK].map(|_| None)));
        chunk[idx % CHUNK] = Some(value);
        self.len += 1;
        idx
    }

    /// Hand out the next `n` indices without a value or a chunk.
    pub(crate) fn skip(&mut self, n: usize) {
        self.len += n;
    }

    /// Slot `idx`, if it was pushed (not skipped, not past the end).
    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        self.chunks.get(idx / CHUNK)?.as_ref()?[idx % CHUNK].as_ref()
    }
}

impl<T> std::ops::Index<usize> for Arena<T> {
    type Output = T;
    fn index(&self, idx: usize) -> &T {
        self.get(idx)
            .unwrap_or_else(|| panic!("arena index {idx} out of bounds or skipped"))
    }
}

impl<T> std::ops::IndexMut<usize> for Arena<T> {
    fn index_mut(&mut self, idx: usize) -> &mut T {
        let slot = self.chunks.get_mut(idx / CHUNK).and_then(|c| c.as_mut());
        (slot.and_then(|c| c[idx % CHUNK].as_mut()))
            .unwrap_or_else(|| panic!("arena index {idx} out of bounds or skipped"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> Arena<T> {
        /// Chunks allocated so far.
        pub(crate) fn chunks_allocated(&self) -> usize {
            self.chunks.iter().flatten().count()
        }
    }

    #[test]
    fn push_index_iter() {
        let mut a = Arena::new();
        for i in 0..1000usize {
            assert_eq!(a.push(i * 2), i);
        }
        assert_eq!(a.len(), 1000);
        assert_eq!(a[0], 0);
        assert_eq!(a[999], 1998);
        a[500] = 7;
        assert_eq!(a[500], 7);
        let collected: Vec<usize> = (0..a.len()).map(|i| a[i]).collect();
        assert_eq!(collected.len(), 1000);
        assert_eq!(collected[499], 998);
    }

    #[test]
    fn stable_across_chunk_growth() {
        let mut a = Arena::new();
        let first = a.push(String::from("first"));
        // Force several chunk allocations; the first slot must not move.
        let p0 = a[first].as_ptr();
        for i in 0..4 * CHUNK {
            a.push(format!("k{i}"));
        }
        assert_eq!(a[first].as_ptr(), p0);
        assert_eq!(a[first], "first");
    }

    #[test]
    fn skipped_indices_hold_nothing_and_allocate_no_chunk() {
        let mut a = Arena::new();
        a.push(1u32);
        a.skip(10 * CHUNK);
        assert_eq!((a.len(), a.chunks_allocated()), (1 + 10 * CHUNK, 1));
        assert_eq!(
            (a.get(0), a.get(1), a.get(5 * CHUNK)),
            (Some(&1), None, None)
        );
        assert_eq!(a.push(42), 1 + 10 * CHUNK);
        assert_eq!((a[1 + 10 * CHUNK], a.chunks_allocated()), (42, 2));
        assert_eq!(a.get(2 + 10 * CHUNK), None, "past the end");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let a: Arena<u32> = Arena::new();
        let _ = a[0];
    }
}
