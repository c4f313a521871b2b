//! The record, row and value codec, the CRC, and the frame every record is
//! written in (see the module docs of [`crate::log`]).

use super::Lsn;
use crate::row::Row;
use crate::value::Value;

/// On-disk format version (bump on any incompatible codec change).
pub(super) const FORMAT_VERSION: u32 = 1;

/// One redo-log record. Only committed work is ever logged (the commit path
/// logs after the commit-point CAS), so recovery is redo-only: there is no
/// undo information here.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Opens a transaction's record group on one partition. `parts_mask`
    /// has bit `p` set for every partition the transaction logged to, so
    /// recovery can check cross-partition completeness.
    Begin {
        /// Transaction id (unique per run; used to pair Begin/Commit).
        txn_id: u64,
        /// The commit timestamp allocated from the shared clock.
        commit_ts: u64,
        /// Bitmask of partitions this transaction wrote.
        parts_mask: u64,
    },
    /// After-image of one updated row.
    Update {
        /// Table id within the catalog.
        table: u32,
        /// Primary key of the row.
        key: u64,
        /// Full after-image.
        row: Row,
    },
    /// A freshly inserted row, with its optional secondary-index entry.
    Insert {
        /// Table id within the catalog.
        table: u32,
        /// Primary key of the row.
        key: u64,
        /// The inserted row.
        row: Row,
        /// `(index slot, secondary key)` when the insert also registered a
        /// secondary-index entry.
        secondary: Option<(u32, u64)>,
    },
    /// Closes a transaction's record group on one partition. A group whose
    /// `Commit` never reached disk is incomplete and is not replayed.
    Commit {
        /// Transaction id (matches the group's `Begin`).
        txn_id: u64,
        /// The commit timestamp (matches the group's `Begin`).
        commit_ts: u64,
    },
    /// A fuzzy-checkpoint marker: everything at or below `stable_ts` is
    /// captured by the checkpoint data files, and replay may start at
    /// `cuts[p]` on partition `p`.
    Checkpoint {
        /// The commit-clock stable bound the checkpoint captured.
        stable_ts: u64,
        /// Per-partition high-water LSNs at capture time.
        cuts: Vec<Lsn>,
    },
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven, no external dependency)
// ---------------------------------------------------------------------------

/// Byte-indexed CRC32 table for the reflected IEEE polynomial.
static CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Scalar / value codec helpers
// ---------------------------------------------------------------------------

pub(super) fn enc_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn enc_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a byte slice. Every decode
/// path goes through it so a torn or corrupt payload yields `None` instead
/// of a panic.
#[derive(Clone)]
pub(super) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(super) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(super) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(super) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(super) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(super) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    pub(super) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encodes one value with the same tag scheme as the in-memory ring
/// (`U64`=0, `I64`=1, `F64`=2, `Str`=3).
fn enc_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::U64(x) => {
            buf.push(0);
            enc_u64(buf, *x);
        }
        Value::I64(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(3);
            enc_u64(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

fn dec_value(c: &mut Cursor<'_>) -> Option<Value> {
    Some(match c.u8()? {
        0 => Value::U64(c.u64()?),
        1 => Value::I64(c.u64()? as i64),
        2 => Value::F64(f64::from_bits(c.u64()?)),
        3 => {
            let len = c.u64()? as usize;
            let bytes = c.take(len)?;
            Value::from(std::str::from_utf8(bytes).ok()?)
        }
        _ => return None,
    })
}

/// Encodes a row as its length followed by its tagged values. Shared with
/// the in-memory ring's `CMT!` record (`bamboo_core::wal`), so both formats
/// spell a value one way.
#[inline]
pub fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    enc_u64(buf, row.len() as u64);
    for v in row.values() {
        enc_value(buf, v);
    }
}

/// Steps over one encoded value, checking only that it lies in bounds.
fn skip_value(c: &mut Cursor<'_>) -> Option<()> {
    let len = match c.u8()? {
        3 => c.u64()? as usize,
        _ => 8,
    };
    c.take(len).map(drop)
}

pub(super) fn dec_row(c: &mut Cursor<'_>) -> Option<Row> {
    let n = c.u64()? as usize;
    // Walk the values on a copy first. A corrupt length fails there, before
    // anything is allocated; a sound one lets the row be collected from an
    // exact-size iterator, in one allocation with no `Vec` in between.
    let mut probe = c.clone();
    (0..n).try_for_each(|_| skip_value(&mut probe))?;
    let mut ok = true;
    let row = (0..n)
        .map(|_| {
            dec_value(c).unwrap_or_else(|| {
                ok = false;
                Value::U64(0)
            })
        })
        .collect();
    ok.then_some(row)
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// Frames one encoded payload — `[len: u32][crc32: u32][payload]` — into
/// `buf`, exactly as the segment writer's staging path does. Lets callers
/// build a fully framed record group *outside* the WAL sink lock and hand
/// it to [`SegmentWriter::stage_framed`](super::SegmentWriter::stage_framed).
pub fn frame_payload(buf: &mut Vec<u8>, payload: &[u8]) {
    let mut frame = [0u8; 8];
    frame[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(&frame);
    buf.extend_from_slice(payload);
}

/// Encodes and frames one record into `buf` (see [`frame_payload`]),
/// using `scratch` for the unframed payload bytes.
pub fn frame_record(buf: &mut Vec<u8>, scratch: &mut Vec<u8>, rec: &WalRecord) {
    scratch.clear();
    encode_record(rec, scratch);
    frame_payload(buf, scratch);
}

/// Encodes and frames an `Update` record into `buf` without materializing
/// a [`WalRecord`] (the commit hot path borrows the after-image).
pub fn frame_update(buf: &mut Vec<u8>, scratch: &mut Vec<u8>, table: u32, key: u64, row: &Row) {
    scratch.clear();
    enc_update(scratch, table, key, row);
    frame_payload(buf, scratch);
}

/// Encodes and frames an `Insert` record into `buf` without materializing
/// a [`WalRecord`].
pub fn frame_insert(
    buf: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    table: u32,
    key: u64,
    row: &Row,
    secondary: Option<(u32, u64)>,
) {
    scratch.clear();
    enc_insert(scratch, table, key, row, secondary);
    frame_payload(buf, scratch);
}

/// The one spelling of an `Update` payload (kind byte + body).
fn enc_update(buf: &mut Vec<u8>, table: u32, key: u64, row: &Row) {
    buf.push(2);
    enc_u32(buf, table);
    enc_u64(buf, key);
    encode_row(buf, row);
}

/// The one spelling of an `Insert` payload (kind byte + body).
fn enc_insert(buf: &mut Vec<u8>, table: u32, key: u64, row: &Row, secondary: Option<(u32, u64)>) {
    buf.push(3);
    enc_u32(buf, table);
    enc_u64(buf, key);
    encode_row(buf, row);
    match secondary {
        Some((idx, skey)) => {
            buf.push(1);
            enc_u32(buf, idx);
            enc_u64(buf, skey);
        }
        None => buf.push(0),
    }
}

/// Encodes one record's payload (kind byte + body) into `buf`.
pub fn encode_record(rec: &WalRecord, buf: &mut Vec<u8>) {
    match rec {
        WalRecord::Begin {
            txn_id,
            commit_ts,
            parts_mask,
        } => {
            buf.push(1);
            enc_u64(buf, *txn_id);
            enc_u64(buf, *commit_ts);
            enc_u64(buf, *parts_mask);
        }
        WalRecord::Update { table, key, row } => enc_update(buf, *table, *key, row),
        WalRecord::Insert {
            table,
            key,
            row,
            secondary,
        } => enc_insert(buf, *table, *key, row, *secondary),
        WalRecord::Commit { txn_id, commit_ts } => {
            buf.push(4);
            enc_u64(buf, *txn_id);
            enc_u64(buf, *commit_ts);
        }
        WalRecord::Checkpoint { stable_ts, cuts } => {
            buf.push(5);
            enc_u64(buf, *stable_ts);
            enc_u32(buf, cuts.len() as u32);
            for &c in cuts {
                enc_u64(buf, c);
            }
        }
    }
}

/// Decodes one record payload. Returns `None` on any malformed byte — the
/// caller treats that as a torn tail.
pub fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        1 => WalRecord::Begin {
            txn_id: c.u64()?,
            commit_ts: c.u64()?,
            parts_mask: c.u64()?,
        },
        2 => WalRecord::Update {
            table: c.u32()?,
            key: c.u64()?,
            row: dec_row(&mut c)?,
        },
        3 => {
            let table = c.u32()?;
            let key = c.u64()?;
            let row = dec_row(&mut c)?;
            let secondary = match c.u8()? {
                0 => None,
                1 => Some((c.u32()?, c.u64()?)),
                _ => return None,
            };
            WalRecord::Insert {
                table,
                key,
                row,
                secondary,
            }
        }
        4 => WalRecord::Commit {
            txn_id: c.u64()?,
            commit_ts: c.u64()?,
        },
        5 => {
            let stable_ts = c.u64()?;
            let n = c.u32()? as usize;
            let mut cuts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                cuts.push(c.u64()?);
            }
            WalRecord::Checkpoint { stable_ts, cuts }
        }
        _ => return None,
    };
    if !c.done() {
        return None;
    }
    Some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::fixtures::sample_records;

    #[test]
    fn record_codec_round_trips_every_kind() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            assert_eq!(decode_record(&buf).as_ref(), Some(&rec));
        }
    }

    #[test]
    fn decode_rejects_flipped_and_truncated_bytes() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            // Truncation at any point either fails to decode or (only for a
            // prefix that is never a valid full record here) differs.
            for cut in 0..buf.len() {
                assert_ne!(decode_record(&buf[..cut]).as_ref(), Some(&rec));
            }
            // An unknown kind byte is rejected outright.
            let mut bad = buf.clone();
            bad[0] = 0xFF;
            assert_eq!(decode_record(&bad), None);
        }
    }

    /// The row decoder's failure paths: a value count the payload cannot
    /// hold (it must fail before sizing an allocation by it), an unknown
    /// value tag, and a string that is not UTF-8.
    #[test]
    fn decode_rejects_malformed_rows() {
        let update = |row: &[u8]| {
            let mut buf = vec![2u8];
            enc_u32(&mut buf, 3);
            enc_u64(&mut buf, 99);
            buf.extend_from_slice(row);
            buf
        };
        let mut good = Vec::new();
        encode_row(
            &mut good,
            &Row::from(vec![Value::U64(1), Value::from("ab")]),
        );
        assert!(decode_record(&update(&good)).is_some());
        let mut huge = good.clone();
        huge[..8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert_eq!(decode_record(&update(&huge)), None);
        let mut tag = good.clone();
        tag[8] = 9;
        assert_eq!(decode_record(&update(&tag)), None);
        let mut utf8 = good.clone();
        let last = utf8.len() - 1;
        utf8[last] = 0xFF;
        assert_eq!(decode_record(&update(&utf8)), None);
    }

    #[test]
    fn crc_matches_known_vector() {
        // The classic IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
