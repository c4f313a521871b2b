//! Durable per-partition log segments and checkpoint files.
//!
//! This module is the **only** place in `bamboo_core`/`bamboo_storage` that
//! touches the filesystem (enforced by `bamboo_check`'s `file-io` rule): it
//! owns the on-disk record format, segment rotation, fsync policy, and the
//! checkpoint data files that recovery rebuilds the catalog from. Everything
//! above it — the `WalHandle` seam, the commit path, the recovery
//! orchestration — deals in [`WalRecord`]s and [`Lsn`]s, never in files.
//!
//! # Record framing
//!
//! Every record is framed as `[len: u32][crc32: u32][payload: len bytes]`
//! (little-endian). The CRC covers the payload only; a frame whose length
//! field runs past the segment or whose CRC mismatches marks the torn tail
//! of the log — the scan stops cleanly there instead of panicking, which is
//! exactly what a `kill -9` mid-append leaves behind. Every payload starts
//! with its kind byte, so no frame has a zero length word: a zero word
//! (or a zero remainder shorter than one) is where a segment's data ends,
//! cleanly, not a tear.
//!
//! The payload starts with a one-byte record kind:
//!
//! | kind | record       | body |
//! |------|--------------|------|
//! | 1    | `Begin`      | txn id, commit ts, partition mask |
//! | 2    | `Update`     | table, key, after-image row |
//! | 3    | `Insert`     | table, key, row, optional (index, skey) |
//! | 4    | `Commit`     | txn id, commit ts |
//! | 5    | `Checkpoint` | stable ts, per-partition cut LSNs |
//!
//! # LSNs and segments
//!
//! An [`Lsn`] is the logical byte offset of a frame in the partition's
//! *stream* of frames — segment headers don't count, so LSNs survive
//! rotation and name replay positions stably. Segment files are named
//! `wal-p{partition:03}-{index:08}.seg`; each opens with a fixed header
//! carrying magic, format version, partition id, segment index, the stream
//! LSN at which the segment starts, and the fsync policy the writer was
//! configured with (a header whose policy tag is retired or unknown does
//! not parse).
//!
//! A new segment is **preallocated**: zero-filled to header +
//! `segment_bytes` and synced once when it is created, so the commit path's
//! `fdatasync` overwrites blocks the file already owns and never changes
//! its size — on a journaling filesystem it has no size change to commit.
//! The active segment's file is therefore longer than its data; its data
//! ends at the first zero length word. A group that would not fit in the
//! rest of the segment rotates first (only a group larger than a whole
//! segment grows a file). Rotation trims the segment it seals, so a sealed
//! segment's file is exactly header + data, and reopening a log trims the
//! last segment the same way before writing resumes in a fresh one.

mod backend;
mod checkpoint;
mod codec;
mod fault;
mod io;
mod policy;
mod scan;
mod segment;

pub use backend::{FileBarrier, LogBackend, LogDir, LogFile, RealBackend};
pub use checkpoint::{CheckpointMeta, CheckpointPart, TableDump, TableMeta};
pub use codec::{
    crc32, decode_record, encode_record, encode_row, frame_insert, frame_payload, frame_record,
    frame_update, WalRecord,
};
pub use fault::{FaultBackend, FaultInjector, FaultPlan};
pub use io::{classify_io_error, IoClass, IoFailure};
pub use policy::FsyncPolicy;
pub use scan::LogScan;
pub use segment::{SegmentWriter, SyncBarrier, SEG_HEADER_LEN};

/// Logical byte offset in a partition's frame stream (segment headers
/// excluded).
pub type Lsn = u64;

#[cfg(test)]
mod fixtures {
    //! What the modules' unit tests share.

    use std::fs;
    use std::path::{Path, PathBuf};

    use super::{SegmentWriter, WalRecord};
    use crate::row::Row;
    use crate::value::Value;

    pub(super) fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bamboo-log-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    pub(super) fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin {
                txn_id: 7,
                commit_ts: 42,
                parts_mask: 0b101,
            },
            WalRecord::Update {
                table: 3,
                key: 99,
                row: Row::from(vec![Value::U64(1), Value::I64(-5), Value::from("abc")]),
            },
            WalRecord::Insert {
                table: 2,
                key: 11,
                row: Row::from(vec![Value::F64(2.5)]),
                secondary: Some((0, 4242)),
            },
            WalRecord::Insert {
                table: 2,
                key: 12,
                row: Row::from(vec![Value::F64(0.0)]),
                secondary: None,
            },
            WalRecord::Commit {
                txn_id: 7,
                commit_ts: 42,
            },
            WalRecord::Checkpoint {
                stable_ts: 40,
                cuts: vec![0, 128, 77],
            },
        ]
    }

    pub(super) fn file_len(path: &Path) -> u64 {
        fs::metadata(path).unwrap().len()
    }

    pub(super) fn stage_txn(w: &mut SegmentWriter, txn_id: u64) {
        w.stage_record(&WalRecord::Begin {
            txn_id,
            commit_ts: txn_id,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id,
            commit_ts: txn_id,
        });
    }
}
