//! Segment files: naming, the header, the append-only [`SegmentWriter`] and
//! its sync barrier, and the truncation and retirement of a partition's
//! segment chain.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::backend::{FileBarrier, LogDir, LogFile};
use super::codec::{
    enc_u32, enc_u64, frame_record, frame_update, Cursor, WalRecord, FORMAT_VERSION,
};
use super::policy::FsyncPolicy;
use super::Lsn;
use crate::row::Row;

/// Magic prefix of a WAL segment file.
const SEG_MAGIC: &[u8; 8] = b"BBWAL1\0\0";

/// Fixed size of a segment header: magic + version + partition + segment
/// index + start LSN + policy tag + policy argument. A segment's frame data
/// starts at this file offset.
pub const SEG_HEADER_LEN: u64 = 8 + 4 + 4 + 8 + 8 + 1 + 8;

/// Name of partition `p`'s segment number `index`.
fn segment_name(partition: u32, index: u64) -> String {
    format!("wal-p{partition:03}-{index:08}.seg")
}

impl LogDir {
    /// Lists partition `p`'s segment files, sorted by segment index.
    pub(super) fn list_segments(&self, partition: u32) -> io::Result<Vec<(u64, PathBuf)>> {
        let prefix = format!("wal-p{partition:03}-");
        let mut out = Vec::new();
        for name in self.backend.list_dir(&self.path)? {
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some(idx) = rest
                    .strip_suffix(".seg")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    out.push((idx, self.path.join(&name)));
                }
            }
        }
        out.sort_by_key(|(idx, _)| *idx);
        Ok(out)
    }
}

fn write_segment_header(
    buf: &mut Vec<u8>,
    partition: u32,
    index: u64,
    start_lsn: Lsn,
    policy: FsyncPolicy,
) {
    buf.extend_from_slice(SEG_MAGIC);
    enc_u32(buf, FORMAT_VERSION);
    enc_u32(buf, partition);
    enc_u64(buf, index);
    enc_u64(buf, start_lsn);
    let (tag, arg) = policy.encode();
    buf.push(tag);
    enc_u64(buf, arg);
}

/// A parsed segment header.
pub(super) struct SegHeader {
    pub(super) partition: u32,
    pub(super) index: u64,
    pub(super) start_lsn: Lsn,
}

pub(super) fn parse_segment_header(bytes: &[u8]) -> Option<SegHeader> {
    let mut c = Cursor::new(bytes);
    if c.take(8)? != SEG_MAGIC {
        return None;
    }
    if c.u32()? != FORMAT_VERSION {
        return None;
    }
    let partition = c.u32()?;
    let index = c.u64()?;
    let start_lsn = c.u64()?;
    // A retired or unknown policy tag fails the parse; nothing reads the
    // policy back.
    FsyncPolicy::decode(c.u8()?, c.u64()?)?;
    Some(SegHeader {
        partition,
        index,
        start_lsn,
    })
}

/// Append-only writer for one partition's segment chain.
///
/// Not internally synchronized: the caller (`WalHandle`) serializes appends
/// behind its mutex, exactly like the in-memory ring.
///
/// Appends are **group-staged**: a transaction's records are encoded into
/// an in-memory staging buffer ([`SegmentWriter::stage_record`] and
/// friends) and land on the file as a single write
/// ([`SegmentWriter::flush_group`]). A failed flush leaves the staging
/// buffer intact so the caller can retry after
/// [`SegmentWriter::rewind_partial`] cut any torn prefix back out — the
/// retry loop of `WalHandle`'s append never needs to re-produce the
/// records.
///
/// Each segment it creates is preallocated to header + `segment_bytes`
/// (see the module docs), and a group that would not fit in what is left
/// of it goes to the next segment, so the file never grows under the
/// commit path's fsync unless one group alone is larger than a segment.
pub struct SegmentWriter {
    dir: LogDir,
    partition: u32,
    policy: FsyncPolicy,
    segment_bytes: u64,
    file: Box<dyn LogFile>,
    seg_index: u64,
    seg_start_lsn: Lsn,
    /// Next LSN to assign (= bytes of frames written so far).
    lsn: Lsn,
    /// LSN up to which data is known durable (advanced by `sync`).
    synced_lsn: Lsn,
    /// Start LSN of the group most recently flushed by `flush_group`.
    group_start: Lsn,
    /// Identity of the bytes below `lsn`: replaced whenever
    /// `abandon_group` cuts written bytes back out, so a [`SyncBarrier`]
    /// taken before the cut — or from another writer — cannot vouch for
    /// what was later written in their place.
    epoch: Arc<()>,
    /// Framed bytes of the staged (not yet flushed) record group.
    stage: Vec<u8>,
    scratch: Vec<u8>,
}

impl LogDir {
    /// Opens (or creates) partition `p`'s log in this directory for
    /// appending.
    ///
    /// One walk of the existing segments finds the end of valid data: it
    /// checks every frame's CRC from LSN 0 and decodes none. Acting on that
    /// walk, without reading a file again, the segment holding the end is
    /// cut back to it, which drops a torn tail and the unused preallocation
    /// after it, so the stream ends on a frame boundary and the segment
    /// holds nothing but its header and data; every segment file after it
    /// (one starting at the end, or one the walk did not accept) is
    /// deleted. Writing resumes at that LSN in a *new* (preallocated)
    /// segment after the last one kept. An empty directory starts segment
    /// 0 at LSN 0. A read error fails the call before anything is cut or
    /// deleted.
    pub fn open_writer(
        &self,
        partition: u32,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> io::Result<SegmentWriter> {
        let segment_bytes = segment_bytes.max(SEG_HEADER_LEN + 1);
        self.backend.create_dir_all(&self.path)?;
        let chain = self.walk_chain(partition, 0, |_, _| true)?;
        let start_lsn = chain.end_lsn;
        let mut next_index = 0;
        for (pos, (index, path)) in chain.files.iter().enumerate() {
            match chain.starts.get(pos) {
                Some(&start) if start < start_lsn => {
                    self.trim_segment(path, SEG_HEADER_LEN + (start_lsn - start))?;
                    next_index = index + 1;
                }
                _ => self.backend.remove_file(path)?,
            }
        }
        let file =
            self.open_segment_file(partition, next_index, start_lsn, policy, segment_bytes)?;
        Ok(SegmentWriter {
            dir: self.clone(),
            partition,
            policy,
            segment_bytes,
            file,
            seg_index: next_index,
            seg_start_lsn: start_lsn,
            lsn: start_lsn,
            synced_lsn: start_lsn,
            group_start: start_lsn,
            epoch: Arc::new(()),
            stage: Vec::with_capacity(512),
            scratch: Vec::with_capacity(512),
        })
    }
}

impl SegmentWriter {
    /// [`LogDir::open_writer`] on the real filesystem.
    pub fn open(
        dir: &Path,
        partition: u32,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> io::Result<Self> {
        LogDir::real(dir).open_writer(partition, policy, segment_bytes)
    }

    /// Stages one record into the pending group.
    pub fn stage_record(&mut self, rec: &WalRecord) {
        frame_record(&mut self.stage, &mut self.scratch, rec);
    }

    /// Stages an `Update` record without materializing a [`WalRecord`]
    /// (the commit hot path borrows the after-image instead of cloning it).
    pub fn stage_update(&mut self, table: u32, key: u64, row: &Row) {
        frame_update(&mut self.stage, &mut self.scratch, table, key, row);
    }

    /// Stages bytes that were already framed with [`frame_payload`](super::frame_payload) /
    /// [`frame_record`]. This is the group-commit fast path: the committer
    /// encodes and frames its whole record group into a private buffer
    /// *before* taking the partition sink lock, so the lock covers only the
    /// file write.
    pub fn stage_framed(&mut self, framed: &[u8]) {
        self.stage.extend_from_slice(framed);
    }

    /// Drops the staged group without writing it (give-up path).
    pub fn clear_group(&mut self) {
        self.stage.clear();
    }

    /// Writes the staged group to the active segment as one write, rotating
    /// first when the group would not fit in what is left of a segment that
    /// already holds data. On success the staging buffer is cleared, the LSN
    /// advances past the group, and the group's start LSN is returned. On
    /// failure the writer's LSN state is unchanged and the staged bytes are
    /// kept, so the caller may [`SegmentWriter::rewind_partial`] and retry,
    /// or [`SegmentWriter::clear_group`] and give up.
    pub fn flush_group(&mut self) -> io::Result<Lsn> {
        let used = self.lsn - self.seg_start_lsn;
        if used > 0 && used + self.stage.len() as u64 > self.segment_bytes {
            self.rotate()?;
        }
        let at = self.lsn;
        self.file.write_all(&self.stage)?;
        self.group_start = at;
        self.lsn = at + self.stage.len() as u64;
        self.stage.clear();
        Ok(at)
    }

    /// Seals the active segment and starts the next, preallocated, at the
    /// writer's LSN. Sealing syncs the segment — a sealed segment is always
    /// fully durable, so only the active tail can tear — then trims its
    /// unused preallocation, so a sealed segment's file is exactly header +
    /// data: the chain walk skips a sealed segment below the LSN it walks
    /// from (recovery's replay cut, retirement's cut) by reading its data
    /// length off its file length. Every step leaves the writer unchanged on
    /// failure (`self.file` only rebinds after a successful open), so a
    /// retry re-runs them.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.dir
            .trim_segment(&self.segment_path(), self.file_offset(self.lsn))?;
        self.file = self.dir.open_segment_file(
            self.partition,
            self.seg_index + 1,
            self.lsn,
            self.policy,
            self.segment_bytes,
        )?;
        self.seg_index += 1;
        self.seg_start_lsn = self.lsn;
        Ok(())
    }

    /// Path of the active segment's file.
    fn segment_path(&self) -> PathBuf {
        self.dir
            .path
            .join(segment_name(self.partition, self.seg_index))
    }

    /// File offset in the active segment of the frame at `lsn`.
    fn file_offset(&self, lsn: Lsn) -> u64 {
        SEG_HEADER_LEN + (lsn - self.seg_start_lsn)
    }

    /// Appends one record as its own group and returns its LSN (the
    /// single-record convenience the checkpoint marker and the unit tests
    /// use; commit groups go through the staging API).
    pub fn append_record(&mut self, rec: &WalRecord) -> io::Result<Lsn> {
        debug_assert!(self.stage.is_empty(), "append_record with a staged group");
        self.stage_record(rec);
        let res = self.flush_group();
        if res.is_err() {
            self.stage.clear();
        }
        res
    }

    /// Cuts a torn prefix of a *failed* group flush back out of the active
    /// segment: flushes buffered bytes so the on-disk length is
    /// authoritative, truncates the file back to the writer's LSN, and
    /// re-opens the handle for appending. The staged group is kept for a
    /// retry. Any error here means the segment's tail state is unknown —
    /// the caller must treat it as a permanent failure and degrade.
    pub fn rewind_partial(&mut self) -> io::Result<()> {
        self.rewind_to(self.lsn)
    }

    /// Durably removes the group most recently flushed by
    /// [`SegmentWriter::flush_group`]: a cross-partition commit landed it,
    /// a later partition's append failed, and the commit is being revoked —
    /// the group must not survive into recovery. (The checkpoint marker
    /// whose sync failed goes the same way.) Any error leaves the group's
    /// fate ambiguous; the caller must degrade.
    pub fn abandon_group(&mut self) -> io::Result<()> {
        let target = self.group_start;
        self.rewind_to(target)?;
        self.lsn = target;
        if self.synced_lsn > target {
            self.synced_lsn = target;
        }
        self.epoch = Arc::new(());
        Ok(())
    }

    /// Truncates the active segment so exactly `[seg_start_lsn, target)`
    /// frame bytes remain, then re-opens the handle for appending. The cut
    /// takes the rest of the segment's preallocation with it: later groups
    /// in this segment grow the file again, a price paid only on the fault
    /// path and only until the next rotation.
    ///
    /// There is no check that the file holds every byte below the writer's
    /// LSN, because the `flush` below makes it hold: `lsn` advances only
    /// after `write_all` accepted a whole group, every handle this writer
    /// replaces was flushed first, and once this flush succeeds every
    /// accepted byte is in the file. (A file-length check could not tell
    /// anyway: a preallocated segment is longer than its data from birth,
    /// and a gap would read as zeros, which the scan takes for the end of
    /// the data.)
    fn rewind_to(&mut self, target: Lsn) -> io::Result<()> {
        debug_assert!(target >= self.seg_start_lsn, "rewind into a sealed segment");
        // Push buffered bytes down so the cut below also covers what this
        // handle accepted past the target (a short write's persisted prefix).
        self.file.flush()?;
        let path = self.segment_path();
        self.dir.trim_segment(&path, self.file_offset(target))?;
        self.file = self.dir.backend.open_append(&path)?;
        Ok(())
    }

    /// Flushes buffered bytes and fsyncs the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        let barrier = self.begin_sync()?;
        barrier.wait()?;
        self.finish_sync(&barrier);
        Ok(())
    }

    /// First half of a sync the caller waits out *without* holding the
    /// writer: pushes buffered bytes to the OS and returns the barrier
    /// covering everything up to the current LSN. The caller runs
    /// [`SyncBarrier::wait`] (other threads may append meanwhile), then
    /// reports success through [`SegmentWriter::finish_sync`].
    pub fn begin_sync(&mut self) -> io::Result<SyncBarrier> {
        Ok(SyncBarrier {
            file: self.file.barrier()?,
            lsn: self.lsn,
            epoch: Arc::clone(&self.epoch),
        })
    }

    /// Records that `barrier` reached stable media: `synced_lsn` rises to
    /// the LSN the barrier was taken at. It never moves backwards (a
    /// rotation in between already sealed the old segment at a higher
    /// LSN), and a barrier from before an [`SegmentWriter::abandon_group`]
    /// is ignored — the bytes it covered are no longer the bytes below its
    /// LSN. A [`SegmentWriter::rewind_partial`] in between is harmless: it
    /// only cuts bytes *above* the writer's LSN.
    pub fn finish_sync(&mut self, barrier: &SyncBarrier) {
        if Arc::ptr_eq(&self.epoch, &barrier.epoch) && barrier.lsn > self.synced_lsn {
            self.synced_lsn = barrier.lsn;
        }
    }

    /// Next LSN to be assigned (= total frame bytes written).
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// Index of the active segment: it rises by one at each rotation.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// LSN up to which data is known durable.
    pub fn synced_lsn(&self) -> Lsn {
        self.synced_lsn
    }

    /// The writer's fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

/// A sync in flight: taken by [`SegmentWriter::begin_sync`] under the
/// caller's append lock, waited out with the lock released.
pub struct SyncBarrier {
    file: FileBarrier,
    lsn: Lsn,
    epoch: Arc<()>,
}

impl SyncBarrier {
    /// Blocks until every byte below the barrier's LSN is on stable media.
    pub fn wait(&self) -> io::Result<()> {
        self.file.wait()
    }
}

impl LogDir {
    /// Creates segment file `index` for `partition`, writes its header and
    /// preallocates room for `segment_bytes` of frames (one `fdatasync`).
    /// The handle is left positioned at the first frame.
    fn open_segment_file(
        &self,
        partition: u32,
        index: u64,
        start_lsn: Lsn,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> io::Result<Box<dyn LogFile>> {
        let path = self.path.join(segment_name(partition, index));
        // A truncating create (not `create_new`): a retried rotation whose
        // first attempt died between creating the file and landing its header
        // must be able to start the segment over.
        let mut file = self.backend.create(&path)?;
        let mut header = Vec::with_capacity(SEG_HEADER_LEN as usize);
        write_segment_header(&mut header, partition, index, start_lsn, policy);
        debug_assert_eq!(header.len() as u64, SEG_HEADER_LEN);
        file.write_all(&header)?;
        file.preallocate(SEG_HEADER_LEN + segment_bytes)?;
        Ok(file)
    }

    /// Shrinks the segment at `path` to `len` bytes (synced) unless it is
    /// no longer than that already.
    fn trim_segment(&self, path: &Path, len: u64) -> io::Result<()> {
        if self.backend.file_len(path)? > len {
            self.backend.truncate(path, len)?;
        }
        Ok(())
    }
}

impl LogDir {
    /// Retires (deletes) every **sealed** segment of partition `p` whose
    /// frame range lies entirely at or below `cut_lsn` — the newest
    /// checkpoint's replay cut makes those bytes dead weight. This is the
    /// chain walk from the cut, stopped at its first frame: the walk skips
    /// each sealed segment below the cut by its length (rotation trimmed it
    /// to header + data), and a segment retires when the next accepted one
    /// starts at or below the cut, so the chain's last segment (the
    /// writer's active one) never does. A read error fails the call before
    /// anything is deleted. Returns the number of segments removed.
    pub fn retire_segments_below(&self, partition: u32, cut_lsn: Lsn) -> io::Result<u64> {
        let chain = self.walk_chain(partition, cut_lsn, |_, _| false)?;
        let below = chain
            .starts
            .iter()
            .skip(1)
            .take_while(|&&start| start <= cut_lsn)
            .count();
        for (_, path) in &chain.files[..below] {
            self.backend.remove_file(path)?;
        }
        Ok(below as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::fixtures::{file_len, sample_records, stage_txn, tmp_dir};
    use crate::log::{FaultBackend, FaultInjector, FaultPlan, LogBackend};
    use std::fs;

    /// A new segment owns its full size from the start; appends overwrite
    /// its zeros without growing it, and the zeros past the data scan as
    /// the clean end of the log.
    #[test]
    fn a_fresh_segment_is_preallocated_and_scans_clean() {
        let dir = tmp_dir("prealloc");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 4096).unwrap();
        let (_, path) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        assert_eq!(file_len(&path), SEG_HEADER_LEN + 4096);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert!(scan.records.is_empty());
        assert_eq!(scan.end_lsn, 0);

        for txn in 0..3 {
            stage_txn(&mut w, txn);
            w.flush_group().unwrap();
        }
        w.sync().unwrap();
        assert_eq!(
            file_len(&path),
            SEG_HEADER_LEN + 4096,
            "appends never grow it"
        );
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.end_lsn, w.lsn());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rotation seals a segment at exactly header + data and starts the
    /// next one preallocated. A group that would not fit rotates first; one
    /// larger than a whole segment gets a segment of its own and grows it.
    #[test]
    fn a_sealed_segment_is_exactly_header_plus_data() {
        let dir = tmp_dir("sealed");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 200).unwrap();
        let (mut sealed_at, mut txns) = (0, 0);
        while w.seg_index == 0 {
            sealed_at = w.lsn();
            stage_txn(&mut w, 1);
            w.flush_group().unwrap();
            txns += 1;
        }
        assert!(
            sealed_at <= 200,
            "the group that would not fit went to segment 1"
        );
        let segs = LogDir::real(&dir).list_segments(0).unwrap();
        assert_eq!(file_len(&segs[0].1), SEG_HEADER_LEN + sealed_at);
        assert_eq!(file_len(&segs[1].1), SEG_HEADER_LEN + 200);

        // Five transactions in one group: 290 bytes, more than a segment.
        let big_at = w.lsn();
        (2..7).for_each(|txn| stage_txn(&mut w, txn));
        w.flush_group().unwrap();
        let big = w.lsn() - big_at;
        assert!(big > 200);
        stage_txn(&mut w, 7);
        w.flush_group().unwrap();
        w.sync().unwrap();
        let segs = LogDir::real(&dir).list_segments(0).unwrap();
        assert_eq!(segs.len(), 4);
        assert_eq!(file_len(&segs[1].1), SEG_HEADER_LEN + big_at - sealed_at);
        assert_eq!(file_len(&segs[2].1), SEG_HEADER_LEN + big);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.end_lsn, w.lsn());
        assert_eq!(scan.records.len(), 2 * (txns + 6));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopening a log trims the zero tail its last writer left, and
    /// writing resumes at the end of the data in a fresh preallocated
    /// segment.
    #[test]
    fn reopen_trims_the_zero_tail_and_resumes() {
        let dir = tmp_dir("reopen");
        let end = {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 4096).unwrap();
            for txn in 0..3 {
                stage_txn(&mut w, txn);
                w.flush_group().unwrap();
            }
            w.sync().unwrap();
            w.lsn()
        };
        let (_, first) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        assert_eq!(file_len(&first), SEG_HEADER_LEN + 4096);

        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 4096).unwrap();
        assert_eq!(w.lsn(), end);
        assert_eq!(file_len(&first), SEG_HEADER_LEN + end);
        let segs = LogDir::real(&dir).list_segments(0).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(file_len(&segs[1].1), SEG_HEADER_LEN + 4096);
        stage_txn(&mut w, 9);
        w.flush_group().unwrap();
        w.sync().unwrap();
        drop(w);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 8);
        assert!(matches!(
            scan.records.last().unwrap().1,
            WalRecord::Commit { txn_id: 9, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A short write lands a prefix of a group on the preallocation's
    /// zeros. The scan still reports it torn (its length word is not zero),
    /// and reopening cuts the segment back to the last whole group. Seed 7
    /// cuts the group 10 bytes in, inside its first frame's checksum.
    #[test]
    fn a_short_write_into_the_preallocation_is_torn_and_cut_on_reopen() {
        let dir = tmp_dir("prealloc-torn");
        let inj = FaultInjector::new(FaultPlan {
            seed: 7,
            short_write_permille: 1000,
            ..FaultPlan::quiet(7)
        });
        let backend: Arc<dyn LogBackend> = Arc::new(FaultBackend::new(Arc::clone(&inj)));
        let mut w = LogDir::new(&dir, backend)
            .open_writer(0, FsyncPolicy::Never, 4096)
            .unwrap();
        stage_txn(&mut w, 1);
        w.flush_group().unwrap();
        let clean_end = w.lsn();
        inj.arm();
        stage_txn(&mut w, 2);
        assert!(w.flush_group().is_err(), "the schedule tears every write");
        drop(w); // the handle's buffered prefix reaches the file

        let (_, path) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        assert_eq!(file_len(&path), SEG_HEADER_LEN + 4096);
        let at = (SEG_HEADER_LEN + clean_end) as usize;
        assert_ne!(
            fs::read(&path).unwrap()[at..at + 4],
            [0; 4],
            "a prefix landed"
        );
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.end_lsn, clean_end);
        assert_eq!(scan.records.len(), 2);

        let w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 4096).unwrap();
        assert_eq!(w.lsn(), clean_end);
        assert_eq!(file_len(&path), SEG_HEADER_LEN + clean_end);
        drop(w);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `rewind_partial` after a torn flush restores the writer to the last
    /// clean boundary: re-staging and flushing the same group yields a log
    /// identical to a never-failed write.
    #[test]
    fn rewind_partial_then_rewrite_matches_clean_log() {
        let recs = sample_records();
        let write_group = |w: &mut SegmentWriter| {
            for r in &recs {
                w.stage_record(r);
            }
            w.flush_group().unwrap();
            w.sync().unwrap();
        };
        // Reference: one clean group.
        let clean = tmp_dir("rewind-clean");
        {
            let mut w = SegmentWriter::open(&clean, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            write_group(&mut w);
        }
        // Faulted: a short write tears the first flush; rewind + retry.
        let torn = tmp_dir("rewind-torn");
        {
            let inj = FaultInjector::new(FaultPlan {
                seed: 99,
                short_write_permille: 1000,
                ..FaultPlan::quiet(99)
            });
            let backend: Arc<dyn LogBackend> = Arc::new(FaultBackend::new(Arc::clone(&inj)));
            let mut w = LogDir::new(&torn, backend)
                .open_writer(0, FsyncPolicy::Never, 1 << 20)
                .unwrap();
            inj.arm();
            for r in &recs {
                w.stage_record(r);
            }
            assert!(w.flush_group().is_err(), "the schedule tears every write");
            inj.disarm();
            w.rewind_partial().unwrap();
            w.flush_group().unwrap();
            w.sync().unwrap();
        }
        let a = LogDir::real(&clean).scan_partition_from(0, 0).unwrap();
        let b = LogDir::real(&torn).scan_partition_from(0, 0).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.end_lsn, b.end_lsn);
        fs::remove_dir_all(&clean).unwrap();
        fs::remove_dir_all(&torn).unwrap();
    }

    /// `abandon_group` durably removes a flushed-but-unsynced group: the
    /// scan sees only what preceded it, and the next group lands at the
    /// abandoned group's start LSN.
    #[test]
    fn abandon_group_removes_it_from_disk() {
        let dir = tmp_dir("abandon");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        w.stage_record(&WalRecord::Begin {
            txn_id: 1,
            commit_ts: 10,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id: 1,
            commit_ts: 10,
        });
        let start = w.flush_group().unwrap();
        w.sync().unwrap();

        w.stage_record(&WalRecord::Begin {
            txn_id: 2,
            commit_ts: 11,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id: 2,
            commit_ts: 11,
        });
        let doomed = w.flush_group().unwrap();
        assert!(doomed > start);
        w.abandon_group().unwrap();
        assert_eq!(w.lsn(), doomed, "lsn rewound to the abandoned group start");

        w.stage_record(&WalRecord::Begin {
            txn_id: 3,
            commit_ts: 12,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id: 3,
            commit_ts: 12,
        });
        w.flush_group().unwrap();
        w.sync().unwrap();
        drop(w);

        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        let ids: Vec<u64> = scan
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Begin { txn_id, .. } => Some(*txn_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![1, 3], "the abandoned group never replays");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A rotation whose new segment cannot be opened (created, headed or
    /// preallocated: one function, one failure path) fails the flush and
    /// leaves the writer where it was. The rewind and retry that
    /// `WalHandle`'s retry loop runs then re-run the whole rotation, and the
    /// log scans clean.
    #[test]
    fn a_failed_segment_open_fails_the_rotation_and_the_retry_reruns_it() {
        let dir = tmp_dir("rotate-open-fails");
        let inj = FaultInjector::new(FaultPlan {
            seed: 5,
            open_permille: 1000,
            ..FaultPlan::quiet(5)
        });
        let backend: Arc<dyn LogBackend> = Arc::new(FaultBackend::new(Arc::clone(&inj)));
        let mut w = LogDir::new(&dir, backend)
            .open_writer(0, FsyncPolicy::Never, 200)
            .unwrap();
        for txn in 0..3 {
            stage_txn(&mut w, txn);
            w.flush_group().unwrap();
        }
        let sealed_at = w.lsn();
        inj.arm();
        stage_txn(&mut w, 3);
        assert!(w.flush_group().is_err(), "the group needs a new segment");
        inj.disarm();
        assert_eq!((w.segment_index(), w.lsn()), (0, sealed_at));
        w.rewind_partial().unwrap();
        w.flush_group().unwrap();
        assert_eq!(w.segment_index(), 1);
        w.sync().unwrap();
        let segs = LogDir::real(&dir).list_segments(0).unwrap();
        assert_eq!(file_len(&segs[0].1), SEG_HEADER_LEN + sealed_at);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2 * 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A rotation between `begin_sync` and `finish_sync` seals the old
    /// segment at a higher LSN than the barrier's; the late `finish_sync`
    /// must not pull `synced_lsn` back down to it.
    #[test]
    fn finish_sync_after_a_rotation_never_lowers_synced_lsn() {
        let dir = tmp_dir("barrier-rotate");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 200).unwrap();
        stage_txn(&mut w, 1);
        w.flush_group().unwrap();
        let barrier = w.begin_sync().unwrap();
        let taken_at = w.lsn();
        while w.seg_index == 0 {
            stage_txn(&mut w, 2);
            w.flush_group().unwrap();
        }
        let sealed = w.synced_lsn();
        assert!(sealed > taken_at, "rotation synced past the barrier");
        barrier.wait().unwrap();
        w.finish_sync(&barrier);
        assert_eq!(w.synced_lsn(), sealed);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A barrier taken before `abandon_group` covered bytes that are gone:
    /// it is ignored both while it points above the writer's LSN and after
    /// new groups have been written over the range it covered.
    #[test]
    fn finish_sync_after_abandon_group_is_ignored() {
        let dir = tmp_dir("barrier-abandon");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        stage_txn(&mut w, 1);
        w.flush_group().unwrap();
        stage_txn(&mut w, 2);
        w.flush_group().unwrap();
        let barrier = w.begin_sync().unwrap();
        let taken_at = w.lsn();
        barrier.wait().unwrap();
        w.abandon_group().unwrap();
        assert!(taken_at > w.lsn());
        w.finish_sync(&barrier);
        assert_eq!(w.synced_lsn(), 0, "a barrier above the writer's lsn");
        for txn in 3..6 {
            stage_txn(&mut w, txn);
            w.flush_group().unwrap();
        }
        assert!(w.lsn() > taken_at);
        w.finish_sync(&barrier);
        assert_eq!(w.synced_lsn(), 0, "the covered range was rewritten");
        // A barrier of the current epoch works as ever.
        w.sync().unwrap();
        assert_eq!(w.synced_lsn(), w.lsn());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `rewind_partial` re-opens the segment's append handle but only cuts
    /// bytes above the writer's LSN, so a barrier in flight across it still
    /// covers what it covered.
    #[test]
    fn a_barrier_survives_a_concurrent_rewind_partial() {
        let dir = tmp_dir("barrier-rewind");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        stage_txn(&mut w, 1);
        w.flush_group().unwrap();
        let barrier = w.begin_sync().unwrap();
        let taken_at = w.lsn();
        stage_txn(&mut w, 2);
        w.rewind_partial().unwrap();
        w.flush_group().unwrap();
        barrier.wait().unwrap();
        w.finish_sync(&barrier);
        assert_eq!(w.synced_lsn(), taken_at);
        drop(w);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert_eq!(scan.records.len(), 4, "both groups intact");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One seed, one schedule: the fsync fault is drawn when the barrier is
    /// taken, so a fixed sequence of appends and split syncs replays with
    /// the same outcome per step and the same injected-fault count.
    #[test]
    fn split_sync_replays_identically_per_seed() {
        let plan = FaultPlan {
            seed: 4242,
            fsync_permille: 300,
            short_write_permille: 200,
            ..FaultPlan::quiet(4242)
        };
        let run = |tag: &str| {
            let dir = tmp_dir(tag);
            let inj = FaultInjector::new(plan);
            let backend: Arc<dyn LogBackend> = Arc::new(FaultBackend::new(Arc::clone(&inj)));
            let mut w = LogDir::new(&dir, backend)
                .open_writer(0, FsyncPolicy::Never, 1 << 20)
                .unwrap();
            inj.arm();
            let mut outcomes = Vec::new();
            for txn in 0..48 {
                stage_txn(&mut w, txn);
                let landed = w.flush_group().is_ok();
                if !landed {
                    w.rewind_partial().unwrap();
                    w.clear_group();
                }
                let synced = w.begin_sync().and_then(|b| {
                    b.wait()?;
                    w.finish_sync(&b);
                    Ok(())
                });
                outcomes.push((landed, synced.is_ok(), w.synced_lsn()));
            }
            inj.disarm();
            drop(w);
            fs::remove_dir_all(&dir).unwrap();
            (outcomes, inj.injected())
        };
        let (a, ia) = run("split-sync-a");
        let (b, ib) = run("split-sync-b");
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        assert!(a.iter().any(|&(landed, synced, _)| landed && !synced));
        assert!(a.iter().any(|&(_, synced, _)| synced));
    }

    /// `retire_segments_below` deletes exactly the sealed segments whose
    /// whole record range sits below the cut; the retained suffix still
    /// scans from the cut.
    #[test]
    fn retire_segments_below_keeps_the_scannable_suffix() {
        let dir = tmp_dir("retire");
        let mut boundaries = Vec::new();
        {
            // 200-byte segments force frequent rotation.
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 200).unwrap();
            for i in 0..30u64 {
                w.append_record(&WalRecord::Begin {
                    txn_id: i,
                    commit_ts: i,
                    parts_mask: 1,
                })
                .unwrap();
                w.append_record(&WalRecord::Commit {
                    txn_id: i,
                    commit_ts: i,
                })
                .unwrap();
                boundaries.push(w.lsn());
            }
            w.sync().unwrap();
        }
        let total_segs = LogDir::real(&dir).list_segments(0).unwrap().len();
        assert!(total_segs > 3, "rotation must have split the log");

        // Cut at a mid-log group boundary.
        let cut = boundaries[14];
        let retired = LogDir::real(&dir).retire_segments_below(0, cut).unwrap();
        assert!(retired > 0, "some sealed prefix must retire");
        assert_eq!(
            LogDir::real(&dir).list_segments(0).unwrap().len() as u64,
            total_segs as u64 - retired
        );

        // The suffix from the cut is intact.
        let scan = LogDir::real(&dir).scan_partition_from(0, cut).unwrap();
        let ids: Vec<u64> = scan
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Begin { txn_id, .. } => Some(*txn_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, (15..30).collect::<Vec<u64>>());

        // Retiring below the same cut again is a no-op.
        assert_eq!(LogDir::real(&dir).retire_segments_below(0, cut).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
