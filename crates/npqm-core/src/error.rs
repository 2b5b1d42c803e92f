//! Error types for queue-management operations.

use crate::id::FlowId;
use core::fmt;

/// Errors returned by [`crate::QueueManager`] operations.
///
/// Every variant corresponds to a condition the paper's hardware signals
/// out-of-band (backpressure, bad command) or that a software caller can
/// provoke (invalid configuration, protocol misuse of the SAR interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueueError {
    /// The segment free list is exhausted — the data memory is full.
    OutOfSegments,
    /// The flow id is outside the configured flow-table range.
    UnknownFlow {
        /// The offending flow.
        flow: FlowId,
        /// Number of configured flows.
        num_flows: u32,
    },
    /// The queue has no (complete) packet to serve.
    QueueEmpty {
        /// The queried flow.
        flow: FlowId,
    },
    /// A mid-packet segment was enqueued while no packet was open, or a
    /// start-of-packet segment while one was still open.
    SarProtocol {
        /// The offending flow.
        flow: FlowId,
        /// What the engine expected.
        expected_start: bool,
    },
    /// The head packet is partially consumed (mid-service, segments
    /// already dequeued) and cannot be relocated behind other packets —
    /// only a queue's head packet may be partially consumed.
    PacketInService {
        /// The flow whose head packet is mid-service.
        flow: FlowId,
    },
    /// The supplied payload exceeds the configured segment size, or a
    /// length rewrite exceeds the head segment's length.
    SegmentOverflow {
        /// Bytes supplied.
        len: usize,
        /// Configured segment size (for a length rewrite, the head
        /// segment's length).
        segment_bytes: u32,
    },
    /// A two-queue command (move, copy or a fused overwrite-and-move)
    /// names queues on different shards of a sharded engine: shards share
    /// no memory, so it is refused and neither queue changes.
    CrossShard {
        /// The source queue.
        src: FlowId,
        /// The destination queue, on another shard.
        dst: FlowId,
    },
    /// A zero-length payload was supplied where data is required.
    EmptyPayload,
    /// The configuration is invalid.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::OutOfSegments => write!(f, "segment free list exhausted"),
            QueueError::UnknownFlow { flow, num_flows } => {
                write!(f, "{flow} outside configured range of {num_flows} flows")
            }
            QueueError::QueueEmpty { flow } => {
                write!(f, "no complete packet queued on {flow}")
            }
            QueueError::SarProtocol {
                flow,
                expected_start,
            } => {
                if *expected_start {
                    write!(f, "mid-packet segment on {flow} but no packet is open")
                } else {
                    write!(
                        f,
                        "start-of-packet segment on {flow} while a packet is open"
                    )
                }
            }
            QueueError::PacketInService { flow } => {
                write!(
                    f,
                    "head packet of {flow} is partially consumed and cannot be re-queued"
                )
            }
            QueueError::SegmentOverflow { len, segment_bytes } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds segment size {segment_bytes}"
                )
            }
            QueueError::CrossShard { src, dst } => {
                write!(f, "{src} and {dst} live on different shards")
            }
            QueueError::EmptyPayload => write!(f, "payload must not be empty"),
            QueueError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for QueueError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(QueueError, &str)> = vec![
            (QueueError::OutOfSegments, "segment free list exhausted"),
            (
                QueueError::UnknownFlow {
                    flow: FlowId::new(99),
                    num_flows: 64,
                },
                "flow:99 outside configured range of 64 flows",
            ),
            (
                QueueError::QueueEmpty {
                    flow: FlowId::new(1),
                },
                "no complete packet queued on flow:1",
            ),
            (
                QueueError::SegmentOverflow {
                    len: 100,
                    segment_bytes: 64,
                },
                "payload of 100 bytes exceeds segment size 64",
            ),
            (QueueError::EmptyPayload, "payload must not be empty"),
            (
                QueueError::CrossShard {
                    src: FlowId::new(0),
                    dst: FlowId::new(3),
                },
                "flow:0 and flow:3 live on different shards",
            ),
            (
                QueueError::PacketInService {
                    flow: FlowId::new(4),
                },
                "head packet of flow:4 is partially consumed and cannot be re-queued",
            ),
            (
                QueueError::InvalidConfig {
                    what: "num_flows must be non-zero",
                },
                "invalid configuration: num_flows must be non-zero",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn sar_protocol_messages() {
        let open = QueueError::SarProtocol {
            flow: FlowId::new(2),
            expected_start: false,
        };
        assert!(open.to_string().contains("while a packet is open"));
        let closed = QueueError::SarProtocol {
            flow: FlowId::new(2),
            expected_start: true,
        };
        assert!(closed.to_string().contains("no packet is open"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<QueueError>();
    }
}
