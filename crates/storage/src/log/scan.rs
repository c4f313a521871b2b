//! Reading a partition's segment chain back. One walk reads every segment
//! file the log code reads: the scan recovery replays, the end of the log
//! a reopened writer resumes from, and the sealed prefix retirement
//! deletes all come from it.

use std::io;
use std::path::PathBuf;

use super::backend::LogDir;
use super::codec::{crc32, decode_record, WalRecord};
use super::segment::{parse_segment_header, SEG_HEADER_LEN};
use super::Lsn;

/// Result of scanning one partition's segment chain.
pub struct LogScan {
    /// Valid records at or after the requested start LSN, in log order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// LSN just past the last valid frame (the truncation point when torn).
    pub end_lsn: Lsn,
    /// True when the scan stopped at a torn or corrupt frame.
    pub torn: bool,
}

/// What a walk of one partition's segment chain found.
pub(super) struct Chain {
    /// Every segment file of the partition, sorted by index.
    pub(super) files: Vec<(u64, PathBuf)>,
    /// Start LSN of each segment the walk accepted, a prefix of `files`:
    /// its header parsed, named the partition and the file's index, and
    /// started where the segment before it ended.
    pub(super) starts: Vec<Lsn>,
    /// LSN just past the last valid frame.
    pub(super) end_lsn: Lsn,
    /// True when the walk stopped at a torn or corrupt frame or at one its
    /// sink refused, or at a segment that does not join the chain.
    pub(super) torn: bool,
}

impl LogDir {
    /// Scans partition `p`'s segments, decoding records whose LSN is
    /// `>= from_lsn`. Frames below `from_lsn` are CRC-verified but not
    /// decoded; whole segments that end below `from_lsn` are skipped
    /// without parsing. The scan stops cleanly at the first torn or corrupt
    /// frame.
    pub fn scan_partition_from(&self, partition: u32, from_lsn: Lsn) -> io::Result<LogScan> {
        let mut records = Vec::new();
        let chain = self.walk_chain(partition, from_lsn, |lsn, payload| {
            decode_record(payload)
                .map(|rec| records.push((lsn, rec)))
                .is_some()
        })?;
        Ok(LogScan {
            records,
            end_lsn: chain.end_lsn,
            torn: chain.torn,
        })
    }

    /// Walks partition `p`'s segment chain in index order, reading each
    /// file whole, and hands every CRC-checked frame at or past `from_lsn`
    /// to `sink` with its LSN; a `false` from the sink ends the walk at
    /// that frame. Frames below `from_lsn` are CRC-checked and not handed
    /// over, and a sealed segment that ends at or below `from_lsn` is
    /// skipped by its length. The walk ends cleanly at the first torn or
    /// corrupt frame and at the first segment that does not join the
    /// chain. A read error fails it.
    pub(super) fn walk_chain(
        &self,
        partition: u32,
        from_lsn: Lsn,
        mut sink: impl FnMut(Lsn, &[u8]) -> bool,
    ) -> io::Result<Chain> {
        let files = self.list_segments(partition)?;
        let mut chain = Chain {
            files: Vec::new(),
            starts: Vec::new(),
            end_lsn: 0,
            torn: false,
        };
        for (pos, (index, path)) in files.iter().enumerate() {
            let bytes = self.backend.read(path)?;
            let tail = pos + 1 == files.len();
            if !scan_segment(
                &bytes, partition, *index, from_lsn, tail, &mut chain, &mut sink,
            ) {
                chain.torn = true;
                break;
            }
        }
        chain.files = files;
        Ok(chain)
    }
}

/// Walks one segment's bytes onto `chain`. Returns `false` when the walk
/// ends here: the segment does not join the chain, or a frame is torn,
/// corrupt or refused by `sink`. `tail` marks the chain's last segment
/// (the only one allowed to tear without being an error in sealed data),
/// whose frames are walked even below `from_lsn`.
fn scan_segment(
    bytes: &[u8],
    partition: u32,
    index: u64,
    from_lsn: Lsn,
    tail: bool,
    chain: &mut Chain,
    sink: &mut impl FnMut(Lsn, &[u8]) -> bool,
) -> bool {
    let Some(header) = bytes
        .get(..SEG_HEADER_LEN as usize)
        .and_then(parse_segment_header)
    else {
        return false;
    };
    // A gap in the chain (missing segment or start-LSN mismatch) ends the
    // usable stream at the previous segment.
    if header.partition != partition
        || header.index != index
        || (!chain.starts.is_empty() && header.start_lsn != chain.end_lsn)
    {
        return false;
    }
    chain.starts.push(header.start_lsn);
    chain.end_lsn = header.start_lsn;
    let data = &bytes[SEG_HEADER_LEN as usize..];
    if !tail && header.start_lsn + data.len() as u64 <= from_lsn {
        // Entirely below `from_lsn`: trust the sealed segment's length
        // (rotation trimmed it to header + data) without parsing its frames.
        chain.end_lsn += data.len() as u64;
        return true;
    }
    let mut off = 0usize;
    loop {
        // No frame has a zero length word (every payload has a kind byte),
        // so zeros here are the unwritten rest of a preallocated segment, or
        // the end of the file: the data ends cleanly.
        let rest = &data[off..];
        if rest[..rest.len().min(4)].iter().all(|&b| b == 0) {
            return true;
        }
        if rest.len() < 8 {
            return false;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let Some(payload) = rest[8..].get(..len) else {
            return false;
        };
        let lsn = header.start_lsn + off as u64;
        if crc32(payload) != crc || (lsn >= from_lsn && !sink(lsn, payload)) {
            return false;
        }
        off += 8 + len;
        chain.end_lsn = lsn + 8 + len as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::fixtures::{sample_records, tmp_dir};
    use crate::log::{FsyncPolicy, SegmentWriter};
    use std::fs::{self, OpenOptions};

    #[test]
    fn segment_write_scan_round_trip() {
        let dir = tmp_dir("roundtrip");
        let recs = sample_records();
        {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            for r in &recs {
                w.append_record(r).unwrap();
            }
            w.sync().unwrap();
        }
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        let got: Vec<_> = scan.records.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(got, recs);
        // LSNs are strictly increasing and end_lsn covers the last frame.
        for pair in scan.records.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        assert!(scan.end_lsn > scan.records.last().unwrap().0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_scan_reads_through() {
        let dir = tmp_dir("rotate");
        let n = 64;
        {
            // Tiny segment budget: force many rotations.
            let mut w = SegmentWriter::open(&dir, 2, FsyncPolicy::Never, 256).unwrap();
            for i in 0..n {
                w.append_record(&WalRecord::Commit {
                    txn_id: i,
                    commit_ts: i + 1,
                })
                .unwrap();
            }
            w.sync().unwrap();
        }
        assert!(LogDir::real(&dir).list_segments(2).unwrap().len() > 1);
        let scan = LogDir::real(&dir).scan_partition_from(2, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), n as usize);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_from_lsn_skips_prefix() {
        let dir = tmp_dir("skip");
        let mut cut = 0;
        {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 200).unwrap();
            for i in 0..20u64 {
                let at = w
                    .append_record(&WalRecord::Commit {
                        txn_id: i,
                        commit_ts: i + 1,
                    })
                    .unwrap();
                if i == 10 {
                    cut = at;
                }
            }
            w.sync().unwrap();
        }
        let scan = LogDir::real(&dir).scan_partition_from(0, cut).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert!(scan.records.iter().all(|(lsn, _)| *lsn >= cut));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_scan_and_open_truncates_it() {
        let dir = tmp_dir("torn");
        let data_end = {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            for i in 0..5u64 {
                w.append_record(&WalRecord::Commit {
                    txn_id: i,
                    commit_ts: i + 1,
                })
                .unwrap();
            }
            w.sync().unwrap();
            SEG_HEADER_LEN + w.lsn()
        };
        // Chop the file 3 bytes short of its data end, landing mid-frame.
        let (_, path) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(data_end - 3).unwrap();
        drop(f);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 4);
        let valid_end = scan.end_lsn;
        // Re-opening truncates the torn frame and appends a new segment.
        {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            assert_eq!(w.lsn(), valid_end);
            w.append_record(&WalRecord::Commit {
                txn_id: 9,
                commit_ts: 10,
            })
            .unwrap();
            w.sync().unwrap();
        }
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 5);
        assert!(matches!(
            scan.records.last().unwrap().1,
            WalRecord::Commit { txn_id: 9, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_mid_log_stops_cleanly() {
        let dir = tmp_dir("crcflip");
        let data_len = {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            for i in 0..5u64 {
                w.append_record(&WalRecord::Commit {
                    txn_id: i,
                    commit_ts: i + 1,
                })
                .unwrap();
            }
            w.sync().unwrap();
            w.lsn()
        };
        let (_, path) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the third record (frames are uniform
        // here, so locate it arithmetically).
        let frame = data_len / 5;
        let at = SEG_HEADER_LEN as usize + 2 * frame as usize + 9;
        bytes[at] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
