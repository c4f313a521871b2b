//! Reading a partition's segment chain back: the scan recovery replays and
//! a reopened writer resumes from.

use std::io;

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

impl LogDir {
    /// Scans partition `p`'s segments, decoding records whose LSN is
    /// `>= from_lsn`. Frames below `from_lsn` are CRC-verified but not
    /// decoded; whole segments that end below `from_lsn` are skipped
    /// without parsing. The scan stops cleanly at the first torn or corrupt
    /// frame.
    pub fn scan_partition_from(&self, partition: u32, from_lsn: Lsn) -> io::Result<LogScan> {
        let segments = self.list_segments(partition)?;
        let mut scan = LogScan {
            records: Vec::new(),
            end_lsn: 0,
            torn: false,
        };
        let mut expect_start: Option<Lsn> = None;
        for (pos, (index, path)) in segments.iter().enumerate() {
            let last_segment = pos + 1 == segments.len();
            let bytes = self.backend.read(path)?;
            let step = scan_segment(
                &bytes,
                partition,
                *index,
                from_lsn,
                &mut expect_start,
                &mut scan,
                last_segment,
            );
            if step.is_err() {
                scan.torn = true;
                break;
            }
        }
        Ok(scan)
    }
}

/// Parses one segment's bytes into the scan accumulators. Returns `Err(())`
/// when the stream tears here. `tail` marks the chain's last segment (the
/// only one allowed to tear without being an error in sealed data).
fn scan_segment(
    bytes: &[u8],
    partition: u32,
    index: u64,
    from_lsn: Lsn,
    expect_start: &mut Option<Lsn>,
    scan: &mut LogScan,
    tail: bool,
) -> Result<(), ()> {
    if bytes.len() < SEG_HEADER_LEN as usize {
        return Err(());
    }
    let Some(header) = parse_segment_header(&bytes[..SEG_HEADER_LEN as usize]) else {
        return Err(());
    };
    if header.partition != partition || header.index != index {
        return Err(());
    }
    // A gap in the chain (missing segment or start-LSN mismatch) ends the
    // usable stream at the previous segment.
    if let Some(expected) = *expect_start {
        if header.start_lsn != expected {
            return Err(());
        }
    }
    scan.end_lsn = header.start_lsn;
    let data = &bytes[SEG_HEADER_LEN as usize..];
    if !tail && header.start_lsn + data.len() as u64 <= from_lsn {
        // Entirely below the replay cut: trust the sealed segment's length
        // (rotation trimmed it to header + data) without parsing its frames.
        scan.end_lsn = header.start_lsn + data.len() as u64;
        *expect_start = Some(scan.end_lsn);
        return Ok(());
    }
    let mut off = 0usize;
    let local_torn;
    loop {
        // No frame has a zero length word (every payload has a kind byte),
        // so zeros here are the unwritten rest of a preallocated segment, or
        // the end of the file: the data ends cleanly.
        let rest = &data[off..];
        if rest[..rest.len().min(4)].iter().all(|&b| b == 0) {
            local_torn = false;
            break;
        }
        if rest.len() < 8 {
            local_torn = true;
            break;
        }
        let len =
            u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]) as usize;
        let crc = u32::from_le_bytes([data[off + 4], data[off + 5], data[off + 6], data[off + 7]]);
        if off + 8 + len > data.len() {
            local_torn = true;
            break;
        }
        let payload = &data[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            local_torn = true;
            break;
        }
        let lsn = header.start_lsn + off as u64;
        if lsn >= from_lsn {
            let Some(rec) = decode_record(payload) else {
                local_torn = true;
                break;
            };
            scan.records.push((lsn, rec));
        }
        off += 8 + len;
        scan.end_lsn = header.start_lsn + off as u64;
    }
    if local_torn {
        return Err(());
    }
    *expect_start = Some(scan.end_lsn);
    Ok(())
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
