//! The stream manager: default stream + concurrent stream pool (§3.1).
//!
//! "To support concurrent kernel execution without consuming too many
//! system thread or process resources on the host side, a stream manager
//! is designed within the GLP4NN framework." The pool pre-creates CUDA
//! streams on each device and hands out round-robin assignments; the
//! default stream is reserved for profiling runs and synchronization.
//! Growing the pool is monotonic — plans for different layers reuse the
//! same streams, so a device never accumulates more streams than the
//! largest `C_out` seen.

use gpu_sim::{Device, StreamId};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Error from stream-manager operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// A GPU index outside the managed range was requested.
    UnknownGpu {
        /// The requested GPU index.
        gpu: usize,
        /// How many GPUs the manager was built for.
        num_gpus: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::UnknownGpu { gpu, num_gpus } => write!(
                f,
                "unknown GPU index {gpu}: stream manager holds {num_gpus} pool(s)"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Shared stream manager: one pool per GPU.
#[derive(Debug)]
pub struct StreamManager {
    pools: Mutex<Vec<Vec<StreamId>>>,
}

impl StreamManager {
    /// Manager for `num_gpus` devices, all pools initially empty.
    pub fn new(num_gpus: usize) -> Self {
        StreamManager {
            pools: Mutex::new(vec![Vec::new(); num_gpus]),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Vec<StreamId>>> {
        self.pools.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of managed GPUs.
    pub fn num_gpus(&self) -> usize {
        self.lock().len()
    }

    /// Current pool size on `gpu`.
    pub fn pool_size(&self, gpu: usize) -> Result<usize, StreamError> {
        let pools = self.lock();
        pools.get(gpu).map(Vec::len).ok_or(StreamError::UnknownGpu {
            gpu,
            num_gpus: pools.len(),
        })
    }

    /// Ensure the pool on `gpu` holds at least `n` streams (creating them
    /// on `dev` as needed) and return the first `n` of them.
    pub fn pool(
        &self,
        dev: &mut Device,
        gpu: usize,
        n: usize,
    ) -> Result<Vec<StreamId>, StreamError> {
        let mut pools = self.lock();
        let num_gpus = pools.len();
        let pool = pools
            .get_mut(gpu)
            .ok_or(StreamError::UnknownGpu { gpu, num_gpus })?;
        while pool.len() < n {
            pool.push(dev.create_stream());
        }
        Ok(pool[..n].to_vec())
    }

    /// The synchronization stream (CUDA default stream).
    pub fn default_stream(&self, dev: &Device) -> StreamId {
        dev.default_stream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProps;

    #[test]
    fn pool_grows_monotonically_and_reuses() {
        let mut dev = Device::new(DeviceProps::p100());
        let mgr = StreamManager::new(1);
        let a = mgr.pool(&mut dev, 0, 3).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(mgr.pool_size(0).unwrap(), 3);
        let b = mgr.pool(&mut dev, 0, 2).unwrap();
        assert_eq!(b, a[..2].to_vec(), "smaller requests reuse the pool");
        let c = mgr.pool(&mut dev, 0, 5).unwrap();
        assert_eq!(c[..3], a[..], "growth preserves existing streams");
        assert_eq!(mgr.pool_size(0).unwrap(), 5);
        // Device: default stream + 5 pool streams.
        assert_eq!(dev.num_streams(), 6);
    }

    #[test]
    fn pool_streams_are_not_the_default() {
        let mut dev = Device::new(DeviceProps::k40c());
        let mgr = StreamManager::new(1);
        for s in mgr.pool(&mut dev, 0, 4).unwrap() {
            assert!(!s.is_default());
        }
        assert!(mgr.default_stream(&dev).is_default());
    }

    #[test]
    fn pool_never_exceeds_largest_request() {
        // A varying-C_out request sequence (as a serving batcher produces
        // when batch shapes vary) must leave the pool sized at the largest
        // C_out seen, never at the running total.
        let mut dev = Device::new(DeviceProps::titan_xp());
        let mgr = StreamManager::new(1);
        let requests = [4usize, 2, 7, 1, 7, 3, 6];
        let mut largest = 0;
        for n in requests {
            let pool = mgr.pool(&mut dev, 0, n).unwrap();
            assert_eq!(pool.len(), n);
            largest = largest.max(n);
            assert_eq!(mgr.pool_size(0).unwrap(), largest);
        }
        assert_eq!(mgr.pool_size(0).unwrap(), 7);
        assert_eq!(dev.num_streams(), 8, "default stream + 7 pool streams");
    }

    #[test]
    fn interleaved_multi_gpu_requests_grow_pools_independently() {
        let mut d0 = Device::new(DeviceProps::k40c());
        let mut d1 = Device::new(DeviceProps::p100());
        let mgr = StreamManager::new(2);
        // Interleave growth across the two devices; each pool must follow
        // only its own request history.
        for (gpu, n) in [(0usize, 2usize), (1, 3), (0, 4), (1, 1), (0, 3), (1, 5)] {
            if gpu == 0 {
                mgr.pool(&mut d0, 0, n).unwrap();
            } else {
                mgr.pool(&mut d1, 1, n).unwrap();
            }
        }
        assert_eq!(mgr.pool_size(0).unwrap(), 4);
        assert_eq!(mgr.pool_size(1).unwrap(), 5);
        // Stream IDs on each device stay dense and device-local.
        assert_eq!(d0.num_streams(), 5);
        assert_eq!(d1.num_streams(), 6);
        let p0 = mgr.pool(&mut d0, 0, 4).unwrap();
        let p1 = mgr.pool(&mut d1, 1, 5).unwrap();
        assert!(p0.iter().all(|s| !s.is_default()));
        assert!(p1.iter().all(|s| !s.is_default()));
    }

    #[test]
    fn unknown_gpu_is_a_typed_error() {
        let mut dev = Device::new(DeviceProps::p100());
        let mgr = StreamManager::new(2);
        let err = mgr.pool(&mut dev, 5, 3).unwrap_err();
        assert_eq!(
            err,
            StreamError::UnknownGpu {
                gpu: 5,
                num_gpus: 2
            }
        );
        assert!(err.to_string().contains("unknown GPU index 5"));
        assert_eq!(
            mgr.pool_size(2),
            Err(StreamError::UnknownGpu {
                gpu: 2,
                num_gpus: 2
            })
        );
        assert_eq!(dev.num_streams(), 1, "failed requests create no streams");
    }

    #[test]
    fn per_gpu_pools_are_independent() {
        let mut d0 = Device::new(DeviceProps::k40c());
        let mut d1 = Device::new(DeviceProps::p100());
        let mgr = StreamManager::new(2);
        mgr.pool(&mut d0, 0, 2).unwrap();
        mgr.pool(&mut d1, 1, 4).unwrap();
        assert_eq!(mgr.pool_size(0).unwrap(), 2);
        assert_eq!(mgr.pool_size(1).unwrap(), 4);
        assert_eq!(mgr.num_gpus(), 2);
    }

    /// A panic while one of the shared locks is held poisons neither: the
    /// tracker and the stream manager both recover the guard.
    #[test]
    fn a_panic_inside_the_lock_poisons_nothing() {
        use crate::tracker::ResourceTracker;
        use std::panic::catch_unwind;

        let tracker = ResourceTracker::new(1);
        assert!(catch_unwind(|| tracker.enable(99)).is_err(), "no GPU 99");
        assert_eq!(tracker.num_gpus(), 1);
        tracker.enable(0);

        let mut dev = Device::new(DeviceProps::p100());
        let mgr = StreamManager::new(1);
        let held = catch_unwind(|| {
            let _pools = mgr.pools.lock();
            panic!("panic while the pool lock is held");
        });
        assert!(held.is_err());
        assert_eq!(mgr.pool(&mut dev, 0, 2).unwrap().len(), 2);
    }
}
