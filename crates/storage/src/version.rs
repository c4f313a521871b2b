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
//!    commit timestamp: the previous newest image moves into the `older`
//!    chain, tagged with the timestamp it had been current since.
//! 2. Snapshot readers call [`VersionChain::read_at`]; rows whose first
//!    version postdates the snapshot are *invisible* (`None`), which is how
//!    snapshot scans avoid phantoms from later inserts.
//! 3. Installs garbage-collect ([`VersionChain::gc`]) versions that no
//!    live snapshot can still see — i.e. versions superseded at or below
//!    the global snapshot watermark maintained by `bamboo-core`'s
//!    active-transaction registry. The trim is *amortized*, not eager:
//!    [`VersionChain::install_at`] only walks the chain when it grew past
//!    a small threshold or the published watermark advanced since the
//!    last trim, so a hot tuple's steady-state install is a push with no
//!    GC scan. Chain length stays bounded by the number of commits since
//!    the oldest live snapshot (plus the threshold), and returns to ~zero
//!    when no snapshot is active.
//!
//! The chain stores `(commit_ts, row)` pairs sorted by ascending timestamp;
//! commit timestamps are forced per-tuple monotonic so a chain can never
//! contain two versions with the same tag.

use crate::row::Row;

/// Commit timestamp of loader-inserted rows: visible to every snapshot.
pub const TS_LOADER: u64 = 0;

/// Default retained-version count above which [`VersionChain::install_at`]
/// trims even if the watermark looks unchanged — bounds per-install trim
/// work while keeping idle chains short. Every commit installs with it;
/// [`VersionChain::install_at_with`] takes another for the benchmark's
/// `version.*` probes.
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
    /// Watermark passed to the most recent trim; installs skip the GC
    /// scan entirely while it has not advanced and the chain is short.
    last_trim_wm: u64,
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
            last_trim_wm: 0,
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

    /// Installs `row` as the new current image committed at `commit_ts`,
    /// pushing the previous image onto the chain. Timestamps are forced
    /// monotonic per tuple, so an out-of-order or zero `commit_ts` still
    /// yields a valid chain.
    ///
    /// GC is **amortized**: the trim scan only runs when the chain grew
    /// past [`DEFAULT_TRIM_THRESHOLD`] or `watermark` advanced since the
    /// last trim. On the hot path (watermark republished every epoch tick,
    /// chain short) the install is a plain push.
    pub fn install_at(&mut self, row: Row, commit_ts: u64, watermark: u64) {
        self.install_at_with(row, commit_ts, watermark, DEFAULT_TRIM_THRESHOLD);
    }

    /// [`VersionChain::install_at`] with an explicit trim threshold: the
    /// chain trims once it retains more than `trim_threshold` older
    /// versions, or when `watermark` advanced since the last trim.
    pub fn install_at_with(
        &mut self,
        row: Row,
        commit_ts: u64,
        watermark: u64,
        trim_threshold: usize,
    ) {
        let ts = commit_ts.max(self.latest_ts + 1);
        let prev = std::mem::replace(&mut self.latest, row);
        self.older.push((self.latest_ts, prev));
        self.latest_ts = ts;
        if self.older.len() > trim_threshold || watermark > self.last_trim_wm {
            self.gc(watermark);
        }
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
    /// or below the watermark. Returns the number of versions reclaimed.
    pub fn gc(&mut self, watermark: u64) -> usize {
        self.last_trim_wm = watermark;
        let mut cut = 0;
        while cut < self.older.len() {
            let successor_ts = self
                .older
                .get(cut + 1)
                .map_or(self.latest_ts, |(ts, _)| *ts);
            if successor_ts <= watermark {
                cut += 1;
            } else {
                break;
            }
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
    fn install_defers_trim_until_threshold_or_watermark_advance() {
        let mut c = VersionChain::new(row(0));
        // A live snapshot pins the watermark at 5: every retained version
        // is still needed, and installs below the threshold skip the trim
        // scan entirely (amortization) — nothing may be reclaimed either
        // way, and the ts<=5 image stays readable throughout.
        let n = DEFAULT_TRIM_THRESHOLD as u64 + 3;
        for i in 1..=n {
            c.install_at(row(i as i64), 10 + i, 5);
            assert_eq!(c.read_at(5).map(val), Some(0), "pinned version lost");
        }
        assert_eq!(c.retained(), n as usize, "all versions still pinned");
        // The snapshot moved on: the next install sees the advanced
        // watermark and runs the deferred trim in one sweep, keeping only
        // the newest version at or below the watermark.
        c.install_at(row(99), 100, 50);
        assert_eq!(c.retained(), 1);
        assert_eq!(c.read_at(50).map(val), Some(n as i64));
        assert_eq!(c.read_at(100).map(val), Some(99));
    }

    #[test]
    fn install_with_static_watermark_skips_gc_scan() {
        // With the watermark unchanged since the last trim and the chain
        // short, install is a plain push: the superseded-below-watermark
        // version from before the last trim wave is reclaimed only once
        // the watermark moves or the threshold trips.
        let mut c = VersionChain::new(row(0));
        c.install_at(row(1), 10, 8); // trims (watermark 8 > 0), sets wm=8
        c.install_at(row(2), 20, 8); // amortized: no scan, chain grows
        c.install_at(row(3), 30, 8); // amortized: no scan
        assert_eq!(c.retained(), 3);
        // Watermark advance reclaims the backlog in one sweep.
        c.install_at(row(4), 40, 30);
        assert_eq!(c.retained(), 1);
    }

    #[test]
    fn custom_trim_threshold_bounds_the_backlog() {
        // With a threshold of 2 the dead-version backlog
        // that accumulates while the watermark sits still is swept several
        // installs earlier than under the default of 8.
        let mut c = VersionChain::new(row(0));
        c.install_at_with(row(1), 10, 100, 2); // wm 100 > 0: trims, wm=100
        assert_eq!(c.retained(), 0);
        c.install_at_with(row(2), 20, 100, 2); // push (1 retained, dead)
        c.install_at_with(row(3), 30, 100, 2); // push (2 retained, dead)
        assert_eq!(c.retained(), 2, "below threshold: no scan, backlog grows");
        // The next push exceeds the threshold: the trim runs even though
        // the watermark has not moved since the last sweep.
        c.install_at_with(row(4), 40, 100, 2);
        assert_eq!(c.retained(), 0, "threshold tripped the deferred sweep");
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
