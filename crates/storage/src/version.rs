//! Committed version chains (MVCC substrate).
//!
//! Each [`crate::Tuple`] keeps, besides the newest committed image, a short
//! chain of *older* committed images tagged with the commit timestamp at
//! which each became current. Read-only snapshot transactions resolve their
//! reads against this chain with **no lock-manager interaction**: a
//! snapshot at timestamp `s` sees, for every tuple, the newest version
//! whose commit timestamp is `<= s`.
//!
//! Lifecycle of a version:
//!
//! 1. A committing writer calls [`VersionChain::install_at`] with its
//!    commit timestamp and a watermark. When no snapshot is registered,
//!    `bamboo-core` passes the commit timestamp itself as the watermark
//!    (`Database::install_watermark`): no snapshot can ever read the
//!    previous newest image, and the install drops it at once, while it is
//!    still warm from the writer's copy. Otherwise the previous image
//!    moves into the `older` chain, tagged with the timestamp it had been
//!    current since.
//! 2. Snapshot readers call [`VersionChain::read_at`]; rows whose first
//!    version postdates the snapshot are *invisible* (`None`), which is how
//!    snapshot scans avoid phantoms from later inserts.
//! 3. [`VersionChain::gc`] reclaims the versions no live snapshot can see:
//!    those superseded at or below the watermark: the published snapshot
//!    floor kept by `bamboo-core`'s snapshot registry, or at an install
//!    with no snapshot registered, the commit's own timestamp. Dead versions
//!    are a prefix of the chain (successor timestamps ascend), so a trim
//!    with nothing to do is one comparison. The 2PL family's writer trims
//!    just before it requests its exclusive lock, so the dead image's
//!    chunk is free when the grant copies the row into one of the same
//!    size; every install with a non-empty chain trims too, the backstop
//!    for writers that skip that request (Silo, IC3, lock upgrades). No
//!    dead version outlives the next write, so a chain is bounded by the
//!    commits since the oldest live snapshot, and is empty on a database
//!    that runs no snapshot.
//!
//! The chain stores `(commit_ts, row)` pairs sorted by ascending timestamp;
//! commit timestamps are forced per-tuple monotonic so a chain can never
//! contain two versions with the same tag.

use crate::row::Row;

/// Commit timestamp of loader-inserted rows: visible to every snapshot.
pub const TS_LOADER: u64 = 0;

/// The trim threshold [`VersionChain::install_at`] passes on. Unused: a trim
/// reclaims exactly the dead versions, whatever the chain's length.
pub const DEFAULT_TRIM_THRESHOLD: usize = 8;

/// A tuple's committed image plus its retained older versions.
pub struct VersionChain {
    /// Commit timestamp at which `latest` became the current image.
    latest_ts: u64,
    /// The newest committed image.
    latest: Row,
    /// Older committed images as `(commit_ts, row)`, ascending by
    /// timestamp. Empty unless a live snapshot pins history.
    older: Vec<(u64, Row)>,
}

impl VersionChain {
    /// A chain whose initial image is visible to every snapshot (loader
    /// path).
    pub fn new(row: Row) -> Self {
        Self::new_at(row, TS_LOADER)
    }

    /// A chain created at commit timestamp `commit_ts` (transactional
    /// insert): invisible to snapshots older than `commit_ts`.
    pub fn new_at(row: Row, commit_ts: u64) -> Self {
        VersionChain {
            latest_ts: commit_ts,
            latest: row,
            older: Vec::new(),
        }
    }

    /// The newest committed image.
    #[inline]
    pub fn latest(&self) -> &Row {
        &self.latest
    }

    /// Commit timestamp of the newest image.
    #[inline]
    pub fn latest_ts(&self) -> u64 {
        self.latest_ts
    }

    /// Overwrites the newest image in place without creating a version
    /// (non-MVCC legacy install path; the timestamp is unchanged).
    pub fn overwrite(&mut self, row: Row) {
        self.latest = row;
    }

    /// Installs `row` as the new current image committed at `commit_ts`.
    /// Timestamps are forced monotonic per tuple, so an out-of-order or
    /// zero `commit_ts` still yields a valid chain.
    ///
    /// The previous image is dead at once when the new timestamp is at or
    /// below `watermark`: the install drops it and leaves `older` alone.
    /// Otherwise it is pushed onto the chain. Either way a non-empty chain
    /// is then trimmed ([`VersionChain::gc`]), one comparison when nothing
    /// in it is dead.
    pub fn install_at(&mut self, row: Row, commit_ts: u64, watermark: u64) {
        self.install_at_with(row, commit_ts, watermark, DEFAULT_TRIM_THRESHOLD);
    }

    /// [`VersionChain::install_at`]. `_trim_threshold` is unused: dead
    /// versions are a prefix of the chain, so a length threshold would
    /// start trims that reclaim nothing the dead check misses.
    pub fn install_at_with(
        &mut self,
        row: Row,
        commit_ts: u64,
        watermark: u64,
        _trim_threshold: usize,
    ) {
        let ts = commit_ts.max(self.latest_ts + 1);
        let prev = std::mem::replace(&mut self.latest, row);
        if ts > watermark {
            self.older.push((self.latest_ts, prev));
        }
        self.latest_ts = ts;
        if !self.older.is_empty() {
            self.gc(watermark);
        }
    }

    /// Commit timestamp of the version that superseded `older[i]`.
    #[inline]
    fn successor_ts(&self, i: usize) -> u64 {
        self.older.get(i + 1).map_or(self.latest_ts, |(ts, _)| *ts)
    }

    /// The newest version visible at snapshot timestamp `snap`, or `None`
    /// when the tuple did not yet exist at `snap` (or the needed version
    /// was reclaimed — callers must register their snapshot with the
    /// watermark registry to rule that out).
    pub fn read_at(&self, snap: u64) -> Option<&Row> {
        if self.latest_ts <= snap {
            return Some(&self.latest);
        }
        // Newest older version with ts <= snap (chain is ascending).
        self.older
            .iter()
            .rev()
            .find(|(ts, _)| *ts <= snap)
            .map(|(_, row)| row)
    }

    /// Like [`VersionChain::read_at`], but also returns the version's
    /// commit timestamp. Checkpoint dumps use the timestamp as the redo
    /// guard: replay skips any logged write at or below it.
    pub fn version_at(&self, snap: u64) -> Option<(u64, &Row)> {
        if self.latest_ts <= snap {
            return Some((self.latest_ts, &self.latest));
        }
        self.older
            .iter()
            .rev()
            .find(|(ts, _)| *ts <= snap)
            .map(|(ts, row)| (*ts, row))
    }

    /// True when some version of this tuple is visible at `snap`.
    #[inline]
    pub fn visible_at(&self, snap: u64) -> bool {
        self.latest_ts <= snap || self.older.first().is_some_and(|(ts, _)| *ts <= snap)
    }

    /// Reclaims every version that no snapshot at or above `watermark` can
    /// see: a version is dead once its *successor* was already committed at
    /// or below the watermark. Dead versions are a prefix, so with none the
    /// call is one comparison. Returns the number of versions reclaimed.
    pub fn gc(&mut self, watermark: u64) -> usize {
        let mut cut = 0;
        while cut < self.older.len() && self.successor_ts(cut) <= watermark {
            cut += 1;
        }
        self.older.drain(..cut);
        cut
    }

    /// Number of retained *older* versions (0 when only the newest image
    /// exists).
    #[inline]
    pub fn retained(&self) -> usize {
        self.older.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(v: i64) -> Row {
        Row::from(vec![Value::I64(v)])
    }

    fn val(r: &Row) -> i64 {
        r.get_i64(0)
    }

    #[test]
    fn loader_row_visible_at_any_snapshot() {
        let c = VersionChain::new(row(1));
        assert_eq!(c.read_at(0).map(val), Some(1));
        assert_eq!(c.read_at(u64::MAX).map(val), Some(1));
        assert!(c.visible_at(0));
        assert_eq!(c.retained(), 0);
    }

    #[test]
    fn insert_at_ts_invisible_before_it() {
        let c = VersionChain::new_at(row(7), 10);
        assert_eq!(c.read_at(9), None);
        assert!(!c.visible_at(9));
        assert_eq!(c.read_at(10).map(val), Some(7));
    }

    #[test]
    fn install_retains_history_without_gc() {
        let mut c = VersionChain::new(row(0));
        c.install_at(row(1), 10, 0);
        c.install_at(row(2), 20, 0);
        assert_eq!(c.retained(), 2);
        assert_eq!(c.read_at(0).map(val), Some(0));
        assert_eq!(c.read_at(9).map(val), Some(0));
        assert_eq!(c.read_at(10).map(val), Some(1));
        assert_eq!(c.read_at(19).map(val), Some(1));
        assert_eq!(c.read_at(20).map(val), Some(2));
        assert_eq!(c.latest_ts(), 20);
    }

    #[test]
    fn gc_reclaims_only_below_watermark() {
        let mut c = VersionChain::new(row(0));
        c.install_at(row(1), 10, 0);
        c.install_at(row(2), 20, 0);
        // Watermark 15: a snapshot at 15 needs the ts=10 version; only the
        // ts=0 version (superseded at 10 <= 15) is dead.
        assert_eq!(c.gc(15), 1);
        assert_eq!(c.retained(), 1);
        assert_eq!(c.read_at(15).map(val), Some(1));
        // Watermark 20: the ts=10 version is superseded at 20 <= 20.
        assert_eq!(c.gc(20), 1);
        assert_eq!(c.retained(), 0);
        assert_eq!(c.read_at(20).map(val), Some(2));
    }

    #[test]
    fn eager_gc_at_install_keeps_chain_empty_without_snapshots() {
        let mut c = VersionChain::new(row(0));
        for i in 1..100u64 {
            // Watermark tracks the clock when no snapshot is live.
            c.install_at(row(i as i64), i, i);
            assert_eq!(c.retained(), 0, "chain must stay empty at install {i}");
        }
        assert_eq!(c.read_at(99).map(val), Some(99));
    }

    #[test]
    fn an_install_at_or_below_the_watermark_keeps_no_history() {
        // No snapshot: the watermark is the commit timestamp itself, and
        // the replaced image goes at the install.
        let mut c = VersionChain::new(row(0));
        c.install_at(row(1), 10, 10);
        assert_eq!(c.retained(), 0);
        assert_eq!(c.read_at(10).map(val), Some(1));
        // A snapshot at 15 pinned two images; once it is gone, the next
        // install at or below its watermark drops the replaced image and
        // everything the chain still held.
        c.install_at(row(2), 20, 15);
        c.install_at(row(3), 30, 15);
        assert_eq!(c.retained(), 2);
        c.install_at(row(4), 40, 40);
        assert_eq!(c.retained(), 0);
        assert_eq!(c.read_at(40).map(val), Some(4));
        // A forced-monotonic timestamp above the watermark still pushes.
        c.install_at(row(5), 40, 40);
        assert_eq!(c.latest_ts(), 41);
        assert_eq!(c.retained(), 1);
        assert_eq!(c.read_at(40).map(val), Some(4));
    }

    #[test]
    fn install_keeps_pinned_versions_until_the_watermark_passes_them() {
        let mut c = VersionChain::new(row(0));
        // A live snapshot pins the watermark at 5: every retained version
        // is still needed, so no install reclaims anything, however long
        // the chain grows, and the ts<=5 image stays readable.
        let n = DEFAULT_TRIM_THRESHOLD as u64 + 3;
        for i in 1..=n {
            c.install_at(row(i as i64), 10 + i, 5);
            assert_eq!(c.read_at(5).map(val), Some(0), "pinned version lost");
        }
        assert_eq!(c.retained(), n as usize, "all versions still pinned");
        // The snapshot moved on: the next install finds its oldest version
        // dead and trims in one sweep, keeping only the newest version at
        // or below the watermark.
        c.install_at(row(99), 100, 50);
        assert_eq!(c.retained(), 1);
        assert_eq!(c.read_at(50).map(val), Some(n as i64));
        assert_eq!(c.read_at(100).map(val), Some(99));
    }

    #[test]
    fn a_dead_version_does_not_outlive_the_next_install() {
        // The watermark sits still at 25. Every version it has passed goes
        // at the next install; the ones a snapshot at 25 may read stay.
        let mut c = VersionChain::new(row(0));
        c.install_at(row(1), 10, 25);
        assert_eq!(c.retained(), 0, "ts 0 superseded at 10 <= 25");
        c.install_at(row(2), 20, 25);
        assert_eq!(c.retained(), 0, "ts 10 superseded at 20 <= 25");
        c.install_at(row(3), 30, 25);
        assert_eq!(c.retained(), 1, "ts 20 is what a snapshot at 25 reads");
        c.install_at(row(4), 40, 25);
        assert_eq!(c.retained(), 2);
        assert_eq!(c.read_at(25).map(val), Some(2));
    }

    #[test]
    fn no_dead_backlog_forms_whatever_the_threshold() {
        for threshold in [0, 2, DEFAULT_TRIM_THRESHOLD, usize::MAX] {
            let mut c = VersionChain::new(row(0));
            for i in 1..=20u64 {
                c.install_at_with(row(i as i64), 10 * i, 1_000, threshold);
                assert_eq!(c.retained(), 0, "threshold {threshold}, install {i}");
            }
            // A pinned watermark: whatever the threshold, no live version
            // is reclaimed.
            for i in 21..=25u64 {
                c.install_at_with(row(i as i64), 800 + 10 * i, 1_000, threshold);
            }
            assert_eq!(c.retained(), 5, "threshold {threshold}");
            assert_eq!(c.read_at(1_000).map(val), Some(20));
        }
    }

    #[test]
    fn trims_exactly_when_the_oldest_retained_version_is_dead() {
        // Threshold out of the way: only the dead check can start a trim.
        let mut c = VersionChain::new(row(0));
        c.install_at_with(row(1), 10, 0, usize::MAX);
        c.install_at_with(row(2), 20, 0, usize::MAX);
        c.install_at_with(row(3), 30, 9, usize::MAX);
        // ts 0 is superseded at 10 > 9: live, so nothing went.
        assert_eq!(c.retained(), 3);
        assert_eq!(c.read_at(9).map(val), Some(0));
        // Watermark 10: ts 0 is dead; the trim takes it and stops at ts 10,
        // superseded at 20 > 10.
        c.install_at_with(row(4), 40, 10, usize::MAX);
        assert_eq!(c.retained(), 3);
        assert_eq!(c.read_at(10).map(val), Some(1));
        // Watermark 19: the oldest (ts 10, superseded at 20) is live again.
        c.install_at_with(row(5), 50, 19, usize::MAX);
        assert_eq!(c.retained(), 4);
        // Watermark 45: the oldest is dead, and the trim takes every dead
        // version behind it (ts 10, 20, 30), not only the oldest.
        c.install_at_with(row(6), 60, 45, usize::MAX);
        assert_eq!(c.retained(), 2);
        assert_eq!(c.read_at(45).map(val), Some(4));
        assert_eq!(c.read_at(60).map(val), Some(6));
    }

    #[test]
    fn monotonic_timestamps_forced() {
        let mut c = VersionChain::new(row(0));
        c.install_at(row(1), 10, 0);
        // Out-of-order (or legacy ts=0) install still moves forward.
        c.install_at(row(2), 0, 0);
        assert_eq!(c.latest_ts(), 11);
        assert_eq!(c.read_at(10).map(val), Some(1));
        assert_eq!(c.read_at(11).map(val), Some(2));
    }

    #[test]
    fn overwrite_keeps_timestamp_and_history() {
        let mut c = VersionChain::new(row(0));
        c.install_at(row(1), 5, 0);
        c.overwrite(row(9));
        assert_eq!(c.latest_ts(), 5);
        assert_eq!(c.read_at(5).map(val), Some(9));
        assert_eq!(c.read_at(4).map(val), Some(0));
    }
}
