//! When the log writer fsyncs, and how a segment header spells it.

/// When (if ever) the log writer calls `fsync` on the commit path.
///
/// The policy trades commit latency against the durability horizon recovery
/// can promise: under [`FsyncPolicy::GroupCommit`] every acknowledged commit
/// survives a crash; under [`FsyncPolicy::Never`] a suffix of acknowledged
/// commits may be lost. Recovery applies the same consistent-prefix cut
/// under both (see `DURABILITY.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync on the commit path: buffered writes only (the OS flushes
    /// eventually, or the caller syncs explicitly). The in-memory cost
    /// profile, plus a real file for post-mortem replay.
    Never,
    /// Leader-driven group commit with a durable acknowledgment: committers
    /// never fsync on their own commit path. They install and release
    /// immediately after logging, then park on the partition's durability
    /// watermark; the first parked committer becomes the *leader*, waits up
    /// to `max_wait_us` microseconds for more committers to join (cutting
    /// the window short once `max_batch` are parked), and issues one fsync
    /// covering every group staged so far. Acknowledgments wait for the
    /// global durability horizon, so an acknowledged commit always survives
    /// a crash. `GroupCommit { max_batch: 1, max_wait_us: 0 }` fsyncs once
    /// per commit before `commit()` returns.
    GroupCommit {
        /// Batch size that cuts the leader's accumulation window short.
        max_batch: u32,
        /// Longest time (µs) the leader waits for joiners before syncing.
        /// Capped at `u32::MAX` by the segment-header codec.
        max_wait_us: u64,
    },
}

impl FsyncPolicy {
    /// Encodes the policy as a (tag, argument) pair for the segment header.
    /// Tags 1 (`EveryCommit`), 2 and 3 belonged to retired policies and are
    /// never reused.
    pub(super) fn encode(self) -> (u8, u64) {
        match self {
            FsyncPolicy::Never => (0, 0),
            FsyncPolicy::GroupCommit {
                max_batch,
                max_wait_us,
            } => (
                4,
                (max_batch as u64) << 32 | max_wait_us.min(u32::MAX as u64),
            ),
        }
    }

    /// Decodes a (tag, argument) pair written by [`FsyncPolicy::encode`].
    pub(super) fn decode(tag: u8, arg: u64) -> Option<Self> {
        Some(match tag {
            0 => FsyncPolicy::Never,
            4 => FsyncPolicy::GroupCommit {
                max_batch: (arg >> 32) as u32,
                max_wait_us: arg & u32::MAX as u64,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The surviving policies keep their header tags; the retired tags (1,
    /// 2 and 3, see `FsyncPolicy::encode`) are rejected like any unknown
    /// tag.
    #[test]
    fn policy_header_tags_are_stable_and_retired_tags_rejected() {
        let group = FsyncPolicy::GroupCommit {
            max_batch: 8,
            max_wait_us: 100,
        };
        assert_eq!(FsyncPolicy::Never.encode().0, 0);
        assert_eq!(group.encode().0, 4);
        for policy in [FsyncPolicy::Never, group] {
            let (tag, arg) = policy.encode();
            assert_eq!(FsyncPolicy::decode(tag, arg), Some(policy));
        }
        for tag in [1, 2, 3, 5, 0xFF] {
            assert_eq!(FsyncPolicy::decode(tag, 8), None);
        }
    }
}
