//! CUDA-style streams and events.
//!
//! A stream is an in-order FIFO of commands; different streams may run
//! their kernels concurrently. Events provide cross-stream ordering:
//! `record` completes when all prior work in its stream completes, and
//! `wait` blocks a stream until the awaited event completes. GLP4NN's
//! stream manager builds its *concurrent stream pool* and *default stream*
//! on these primitives.

use crate::kernel::KernelId;
use std::collections::VecDeque;

/// Identifier of a stream within a device. Stream 0 is the default stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) u32);

impl StreamId {
    /// The default stream (stream 0).
    pub const DEFAULT: StreamId = StreamId(0);

    /// Raw index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Whether this is the default stream.
    pub fn is_default(self) -> bool {
        self.0 == 0
    }
}

/// Identifier of a recorded event within a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// Raw index.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Identifier of a peer-to-peer copy. Allocated by the
/// [`Fabric`](crate::fabric::Fabric), unique across all devices of a
/// fabric (unlike [`KernelId`]s / [`EventId`]s, which are per-device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CopyId(pub(crate) u64);

impl CopyId {
    /// Raw index (fabric-wide enqueue order).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One command in a stream's FIFO.
#[derive(Debug, Clone)]
pub enum Command {
    /// Launch a kernel (already assigned a [`KernelId`]; the descriptor
    /// lives in the device's kernel table).
    Launch(KernelId),
    /// Record `EventId`: completes when all prior work in this stream done.
    RecordEvent(EventId),
    /// Block this stream until `EventId` completes.
    WaitEvent(EventId),
    /// Source half of a peer-to-peer copy: when it reaches the stream
    /// front the transfer may start (the fabric schedules it on the link);
    /// the stream stays busy until the transfer completes.
    CopySrc(CopyId),
    /// Destination half of a peer-to-peer copy: blocks the stream until
    /// the transfer has arrived (a cross-device event wait).
    CopyDst(CopyId),
}

/// One entry of the device command log: every host-issued stream command
/// in issue order, plus [`Sync`](CmdRecord::Sync) markers for completed
/// device-wide barriers ([`crate::Device::run`]).
///
/// The log is what a CUPTI-style activity API would expose as the *driver
/// command trace*; the schedule sanitizer replays it with vector clocks to
/// reconstruct the happens-before order of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdRecord {
    /// A kernel launch was enqueued on `stream`.
    Launch {
        /// Target stream.
        stream: StreamId,
        /// Kernel instance id (index into the device's kernel table).
        kernel: KernelId,
    },
    /// An event record was enqueued on `stream`.
    RecordEvent {
        /// Recording stream.
        stream: StreamId,
        /// Event recorded.
        event: EventId,
    },
    /// A wait on `event` was enqueued on `stream`.
    WaitEvent {
        /// Waiting stream.
        stream: StreamId,
        /// Event awaited.
        event: EventId,
    },
    /// The source half of a peer-to-peer copy was enqueued on `stream`
    /// (this device reads the source buffer).
    CopySrc {
        /// Sending stream.
        stream: StreamId,
        /// Fabric-wide copy id.
        copy: CopyId,
    },
    /// The destination half of a peer-to-peer copy was enqueued on
    /// `stream` (this device's buffer is written when the copy lands).
    CopyDst {
        /// Receiving stream.
        stream: StreamId,
        /// Fabric-wide copy id.
        copy: CopyId,
    },
    /// A [`crate::Device::run`] episode completed: everything logged before
    /// this marker happened before everything logged after it.
    Sync,
}

/// Runtime state of one stream.
#[derive(Debug, Default)]
pub struct StreamState {
    /// Pending commands, front is next to execute.
    pub queue: VecDeque<Command>,
    /// A kernel from this stream currently executing (streams are in-order,
    /// so at most one).
    pub inflight: Option<KernelId>,
    /// A peer-to-peer copy sourced from this stream currently in transit
    /// (in-order: the stream is parked until the transfer completes).
    pub copy_inflight: Option<CopyId>,
}

impl StreamState {
    /// Whether the stream has no pending or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_none() && self.copy_inflight.is_none()
    }

    /// Whether the stream is blocked on fabric-scheduled copy traffic: a
    /// copy in transit, or a copy command at its front (resolved only by
    /// [`Fabric::run`](crate::fabric::Fabric::run), not [`Device::run`]).
    ///
    /// [`Device::run`]: crate::Device::run
    pub fn copy_parked(&self) -> bool {
        self.copy_inflight.is_some()
            || matches!(
                self.queue.front(),
                Some(Command::CopySrc(_)) | Some(Command::CopyDst(_))
            )
    }
}

/// Lifecycle of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventState {
    /// Created, not yet recorded into a stream.
    Created,
    /// Recorded; completes when prior stream work finishes.
    Pending,
    /// Completed at the contained simulated time.
    Completed(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stream_identity() {
        assert!(StreamId::DEFAULT.is_default());
        assert!(!StreamId(3).is_default());
        assert_eq!(StreamId(3).raw(), 3);
    }

    #[test]
    fn stream_state_idle() {
        let mut s = StreamState::default();
        assert!(s.is_idle());
        s.inflight = Some(KernelId(0));
        assert!(!s.is_idle());
        s.inflight = None;
        s.queue.push_back(Command::RecordEvent(EventId(0)));
        assert!(!s.is_idle());
    }
}
