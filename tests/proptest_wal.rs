//! Property-based tests for the WAL record codec and segment framing:
//!
//! * every record round-trips bit-exactly through encode/decode;
//! * any truncation of a segment file yields a clean record prefix on
//!   scan — the checksum catches the torn frame, nothing decodes to
//!   garbage, and nothing before the tear is lost;
//! * flipping any single byte of a frame never yields a *different*
//!   record silently: the scan either still sees the original tail or
//!   stops at the corruption;
//! * the borrowed-row fast paths (`frame_update`, `frame_insert`,
//!   `SegmentWriter::stage_update`) frame exactly the bytes the
//!   `WalRecord` path does.

use std::path::PathBuf;

use bamboo_repro::storage::log::{
    decode_record, encode_record, frame_insert, frame_record, frame_update, LogDir, SegmentWriter,
    SEG_HEADER_LEN,
};
use bamboo_repro::storage::{FsyncPolicy, Row, Value, WalRecord};
use proptest::prelude::*;

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bamboo-pwal-{}-{}-{}",
        std::process::id(),
        tag,
        case
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Arbitrary `Value` — floats from a finite range only, so `PartialEq`
/// round-trip comparison is well-defined (NaN never equals itself).
fn value_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        (-1.0e18f64..1.0e18).prop_map(Value::F64),
        collection::vec(32u8..127, 0..24)
            .prop_map(|bytes| { Value::from(String::from_utf8(bytes).unwrap().as_str()) }),
    ]
    .boxed()
}

fn row_strategy() -> BoxedStrategy<Row> {
    collection::vec(value_strategy(), 0..6)
        .prop_map(Row::from)
        .boxed()
}

/// `Option<(u32, u64)>` — the shim has no `prop::option`, so model it as
/// a two-arm union.
fn secondary_strategy() -> BoxedStrategy<Option<(u32, u64)>> {
    prop_oneof![Just(None), (any::<u32>(), any::<u64>()).prop_map(Some),].boxed()
}

fn record_strategy() -> BoxedStrategy<WalRecord> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(txn_id, commit_ts, parts_mask)| {
            WalRecord::Begin {
                txn_id,
                commit_ts,
                parts_mask,
            }
        }),
        (any::<u32>(), any::<u64>(), row_strategy())
            .prop_map(|(table, key, row)| WalRecord::Update { table, key, row }),
        (
            any::<u32>(),
            any::<u64>(),
            row_strategy(),
            secondary_strategy()
        )
            .prop_map(|(table, key, row, secondary)| WalRecord::Insert {
                table,
                key,
                row,
                secondary,
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(txn_id, commit_ts)| WalRecord::Commit { txn_id, commit_ts }),
        (any::<u64>(), collection::vec(any::<u64>(), 0..8))
            .prop_map(|(stable_ts, cuts)| WalRecord::Checkpoint { stable_ts, cuts }),
    ]
    .boxed()
}

proptest! {
    // Default config: CI pins PROPTEST_CASES / PROPTEST_SEED.
    #![proptest_config(ProptestConfig::default())]

    /// Every record decodes back to itself from its own encoding.
    #[test]
    fn record_codec_round_trips(rec in record_strategy()) {
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        prop_assert_eq!(decode_record(&buf), Some(rec));
    }

    /// The `Update`/`Insert` body has one spelling: the borrowed-row fast
    /// paths (`frame_update` / `frame_insert`, and `stage_update` through
    /// a real segment) produce byte-for-byte the frame that
    /// `frame_record` produces from the materialized `WalRecord`.
    #[test]
    fn borrowed_row_fast_paths_frame_identical_bytes(
        table in any::<u32>(),
        key in any::<u64>(),
        row in row_strategy(),
        secondary in secondary_strategy(),
        case in any::<u64>(),
    ) {
        let (mut scratch, mut via_record, mut via_fast) = (Vec::new(), Vec::new(), Vec::new());
        let update = WalRecord::Update { table, key, row: row.clone() };
        frame_record(&mut via_record, &mut scratch, &update);
        frame_update(&mut via_fast, &mut scratch, table, key, &row);
        prop_assert_eq!(&via_fast, &via_record, "frame_update vs frame_record(Update)");

        // `stage_update` lands the same frame on disk: the segment's bytes
        // from its header to its data end are exactly the frame.
        let dir = tmp_dir("stage", case);
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        w.stage_update(table, key, &row);
        w.flush_group().unwrap();
        w.sync().unwrap();
        let frame_len = w.lsn() as usize;
        drop(w);
        let seg = std::fs::read_dir(&dir).unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        let data_start = SEG_HEADER_LEN as usize;
        prop_assert_eq!(&bytes[data_start..data_start + frame_len], &via_record[..], "stage_update");
        let _ = std::fs::remove_dir_all(&dir);

        let insert = WalRecord::Insert { table, key, row: row.clone(), secondary };
        via_record.clear();
        via_fast.clear();
        frame_record(&mut via_record, &mut scratch, &insert);
        frame_insert(&mut via_fast, &mut scratch, table, key, &row, secondary);
        prop_assert_eq!(&via_fast, &via_record, "frame_insert vs frame_record(Insert)");
    }

    /// Truncating a segment at any byte leaves a scannable record
    /// *prefix*: the scan returns exactly the records whose frames fit
    /// entirely below the cut, and never decodes garbage.
    #[test]
    fn truncated_segment_scans_to_clean_prefix(
        recs in collection::vec(record_strategy(), 1..12),
        cut_frac in 0.0f64..1.0,
        case in any::<u64>(),
    ) {
        let dir = tmp_dir("chop", case);
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        let mut frame_ends = Vec::new();
        for r in &recs {
            w.append_record(r).unwrap();
            frame_ends.push(w.lsn());
        }
        w.sync().unwrap();
        drop(w);

        // Chop the single segment file at an arbitrary byte offset of its
        // data.
        let seg = std::fs::read_dir(&dir).unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let total = *frame_ends.last().unwrap();
        let data_start = SEG_HEADER_LEN;
        let cut = data_start + (cut_frac * total as f64) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        let kept = cut - data_start;
        let expect: Vec<_> = recs.iter()
            .zip(&frame_ends)
            .take_while(|(_, end)| **end <= kept)
            .map(|(r, _)| r.clone())
            .collect();
        let got: Vec<_> = scan.records.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(got, expect, "scan after cut at byte {} of {}", kept, total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping one byte anywhere in the record stream never silently
    /// *changes* a record: every record the scan does return was one of
    /// the originals (the frame checksum stops the scan at the
    /// corruption).
    #[test]
    fn corrupt_byte_never_yields_a_forged_record(
        recs in collection::vec(record_strategy(), 1..8),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        case in any::<u64>(),
    ) {
        let dir = tmp_dir("flip", case);
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        for r in &recs {
            w.append_record(r).unwrap();
        }
        let total = w.lsn();
        w.sync().unwrap();
        drop(w);

        let seg = std::fs::read_dir(&dir).unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let data_start = SEG_HEADER_LEN as usize;
        let pos = data_start + ((pos_frac * total as f64) as usize).min(total as usize - 1);
        bytes[pos] ^= flip;
        std::fs::write(&seg, &bytes).unwrap();

        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        for (_, got) in &scan.records {
            prop_assert!(
                recs.iter().any(|r| r == got),
                "scan returned a record that was never written: {:?}",
                got
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

mod fault_schedule {
    use std::sync::Arc;

    use bamboo_repro::core::partition::{PartSession, PartitionedDb};
    use bamboo_repro::core::protocol::{LockingProtocol, Protocol};
    use bamboo_repro::core::DbOptions;
    use bamboo_repro::storage::log::{FaultInjector, LogDir};
    use bamboo_repro::storage::{
        DataType, FaultBackend, FaultPlan, FsyncPolicy, PartitionId, RouteStrategy, Row, Schema,
        Value, WalRecord,
    };
    use proptest::prelude::*;

    const ACCOUNTS_PER_PART: u64 = 8;
    const PARTS: u32 = 2;
    const INITIAL: i64 = 1000;
    /// Group commit with a batch of one: one fsync per commit.
    const GROUP_COMMIT_1: FsyncPolicy = FsyncPolicy::GroupCommit {
        max_batch: 1,
        max_wait_us: 0,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any prefix of a seeded fault schedule leaves every partition's
        /// log scannable to a clean record-group boundary: the scan
        /// succeeds, every group except (at most) a torn tail is a
        /// contiguous `Begin … Commit`, and full recovery conserves money.
        #[test]
        fn any_fault_schedule_prefix_leaves_clean_group_boundaries(
            seed in any::<u64>(),
            fsync_pm in 0u16..400,
            short_pm in 0u16..400,
            enospc_pm in 0u16..200,
            attempts in 1u64..30,
            case in any::<u64>(),
        ) {
            let dir = super::tmp_dir("fault-sched", case);
            let plan = FaultPlan {
                seed,
                fsync_permille: fsync_pm,
                short_write_permille: short_pm,
                enospc_permille: enospc_pm,
                ..FaultPlan::quiet(seed)
            };
            let injector = FaultInjector::new(plan);
            let backend = Arc::new(FaultBackend::new(Arc::clone(&injector)));
            let mut b = PartitionedDb::builder(PARTS);
            let t = b.add_table(
                "accounts",
                Schema::build()
                    .column("k", DataType::U64)
                    .column("v", DataType::I64),
                RouteStrategy::Range(vec![ACCOUNTS_PER_PART]),
            );
            b.with_options(
                DbOptions::new()
                    .with_wal_dir(dir.clone())
                    .with_fsync_policy(GROUP_COMMIT_1)
                    .with_log_backend(backend),
            );
            let pdb = b.build();
            for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
                pdb.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(INITIAL)]));
            }
            pdb.checkpoint().expect("genesis checkpoint (disarmed)");

            // `attempts` transfers of the schedule — the "prefix" under
            // test ends wherever the schedule leaves the log when the
            // fire stops (possibly mid-degradation).
            let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
            let session = PartSession::new(Arc::clone(&pdb), proto);
            injector.arm();
            for i in 0..attempts {
                let from = i % ACCOUNTS_PER_PART;
                let to = ACCOUNTS_PER_PART + (i + 1) % ACCOUNTS_PER_PART;
                let mut txn = session.begin_on(PartitionId(0));
                let _ = txn
                    .update(t, from, |r| r.set(1, Value::I64(r.get_i64(1) - 1)))
                    .and_then(|_| txn.update(t, to, |r| r.set(1, Value::I64(r.get_i64(1) + 1))))
                    .and_then(|_| txn.commit());
                // Heal under fire; a failed heal leaves the partition
                // degraded for the next iteration, which is also a valid
                // prefix of the schedule.
                for p in 0..PARTS {
                    if pdb.parts()[p as usize].wal().is_degraded() {
                        let _ = pdb.heal(PartitionId(p));
                    }
                }
            }
            injector.disarm();
            drop(session);
            drop(pdb);

            // The directory now holds whatever the faulted prefix left
            // behind. Scan each partition on the REAL backend: it must
            // parse, and groups must sit on clean boundaries.
            for p in 0..PARTS {
                let scan = LogDir::real(&dir)
                    .scan_partition_from(p, 0)
                    .unwrap_or_else(|e| panic!("partition {p} log unscannable: {e}"));
                let mut in_group = false;
                let mut complete_groups = 0u64;
                for (_, rec) in &scan.records {
                    match rec {
                        WalRecord::Begin { .. } => {
                            prop_assert!(
                                !in_group,
                                "partition {} log: Begin inside an open group — a failed \
                                 group was not rewound/abandoned before the next append",
                                p
                            );
                            in_group = true;
                        }
                        WalRecord::Commit { .. } => {
                            prop_assert!(in_group, "partition {} log: orphan Commit", p);
                            in_group = false;
                            complete_groups += 1;
                        }
                        WalRecord::Update { .. } | WalRecord::Insert { .. } => {
                            prop_assert!(
                                in_group,
                                "partition {} log: write record outside any group",
                                p
                            );
                        }
                        WalRecord::Checkpoint { .. } => {
                            prop_assert!(
                                !in_group,
                                "partition {} log: checkpoint marker inside a group",
                                p
                            );
                        }
                    }
                }
                // An unterminated group is legal only as the torn TAIL —
                // which is exactly what `in_group` still set at EOF means.
                let _ = (in_group, complete_groups);
            }

            // And the ultimate boundary check: recovery accepts the log
            // and conserves money.
            let (rec, _report) = PartitionedDb::recover(
                DbOptions::new()
                    .with_wal_dir(dir.clone())
                    .with_fsync_policy(GROUP_COMMIT_1),
            )
            .unwrap_or_else(|e| panic!("recovery of the faulted prefix failed: {e}"));
            let mut total = 0i64;
            for part in rec.parts() {
                let table = part.db().table(t);
                for r in 0..table.len() as u64 {
                    total += table.get_by_row_id(r).unwrap().read_row().get_i64(1);
                }
            }
            prop_assert_eq!(
                total,
                PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
                "faulted log prefix leaked money through recovery"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
