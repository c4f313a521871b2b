//! Checkpoint files: the meta file with the schema and the replay cuts,
//! one data file per partition, each behind a CRC footer.

use std::io;

use super::backend::LogDir;
use super::codec::{crc32, dec_row, enc_u32, enc_u64, encode_row, Cursor, FORMAT_VERSION};
use super::Lsn;
use crate::partition::RouteStrategy;
use crate::row::Row;
use crate::schema::{DataType, Schema};

/// Magic prefix of a checkpoint meta file.
const CKPT_META_MAGIC: &[u8; 8] = b"BBCKM1\0\0";
/// Magic prefix of a per-partition checkpoint data file.
const CKPT_PART_MAGIC: &[u8; 8] = b"BBCKP1\0\0";

/// Per-table metadata captured by a checkpoint: enough to rebuild the
/// catalog shards before replay.
#[derive(Clone, Debug)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// Effective routing strategy for the table.
    pub route: RouteStrategy,
    /// Whether the table keeps an ordered PK index.
    pub ordered: bool,
    /// Number of secondary-index slots.
    pub secondary: u32,
}

/// The checkpoint meta file: schema-level state plus the replay cuts.
#[derive(Clone, Debug)]
pub struct CheckpointMeta {
    /// Commit-clock stable bound captured by the checkpoint.
    pub stable_ts: u64,
    /// Number of partitions.
    pub partitions: u32,
    /// Per-table metadata, in table-id order.
    pub tables: Vec<TableMeta>,
    /// Per-partition WAL cut: replay starts here.
    pub cuts: Vec<Lsn>,
}

/// One table's dumped tuples and index entries within one partition shard.
#[derive(Clone, Debug, Default)]
pub struct TableDump {
    /// `(key, version_ts, row)` in the shard's insertion order.
    pub tuples: Vec<(u64, u64, Row)>,
    /// Per secondary-index slot: `(secondary key, primary key)` postings,
    /// in the index's per-key insertion order.
    pub secondary: Vec<Vec<(u64, u64)>>,
}

/// A per-partition checkpoint data file.
#[derive(Clone, Debug)]
pub struct CheckpointPart {
    /// The owning checkpoint's stable bound.
    pub stable_ts: u64,
    /// Which partition shard this file captures.
    pub partition: u32,
    /// Per-table dumps, in table-id order.
    pub tables: Vec<TableDump>,
}

fn ckpt_meta_name(stable_ts: u64) -> String {
    format!("ckpt-{stable_ts:020}.meta")
}

fn ckpt_part_name(stable_ts: u64, partition: u32) -> String {
    format!("ckpt-{stable_ts:020}-p{partition:03}.dat")
}

fn enc_str(buf: &mut Vec<u8>, s: &str) {
    enc_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn dec_str(c: &mut Cursor<'_>) -> Option<String> {
    let len = c.u64()? as usize;
    let bytes = c.take(len)?;
    Some(std::str::from_utf8(bytes).ok()?.to_owned())
}

fn enc_route(buf: &mut Vec<u8>, r: &RouteStrategy) {
    match r {
        RouteStrategy::Hash => buf.push(0),
        RouteStrategy::Range(bounds) => {
            buf.push(1);
            enc_u64(buf, bounds.len() as u64);
            for &b in bounds {
                enc_u64(buf, b);
            }
        }
        RouteStrategy::ShiftDiv { shift, div } => {
            buf.push(2);
            enc_u32(buf, *shift);
            enc_u64(buf, *div);
        }
        RouteStrategy::Replicated => buf.push(3),
        RouteStrategy::Pin(p) => {
            buf.push(4);
            enc_u32(buf, *p);
        }
    }
}

fn dec_route(c: &mut Cursor<'_>) -> Option<RouteStrategy> {
    Some(match c.u8()? {
        0 => RouteStrategy::Hash,
        1 => {
            let n = c.u64()? as usize;
            let mut bounds = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                bounds.push(c.u64()?);
            }
            RouteStrategy::Range(bounds)
        }
        2 => RouteStrategy::ShiftDiv {
            shift: c.u32()?,
            div: c.u64()?,
        },
        3 => RouteStrategy::Replicated,
        4 => RouteStrategy::Pin(c.u32()?),
        _ => return None,
    })
}

fn datatype_tag(ty: DataType) -> u8 {
    match ty {
        DataType::U64 => 0,
        DataType::I64 => 1,
        DataType::F64 => 2,
        DataType::Str => 3,
    }
}

fn dec_datatype(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::U64,
        1 => DataType::I64,
        2 => DataType::F64,
        3 => DataType::Str,
        _ => return None,
    })
}

impl LogDir {
    /// Writes `body` to file `name` with a trailing CRC32 footer, fsyncing
    /// the file before returning.
    fn write_checksummed(&self, name: &str, mut body: Vec<u8>) -> io::Result<()> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let mut file = self.backend.create(&self.path.join(name))?;
        file.write_all(&body)?;
        file.sync_data()?;
        Ok(())
    }

    /// Reads file `name`, verifies the CRC footer, and returns the body
    /// bytes.
    fn read_checksummed(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut bytes = self.backend.read(&self.path.join(name))?;
        if bytes.len() < 4 {
            return Err(corrupt(name, "shorter than its CRC footer"));
        }
        let body_len = bytes.len() - 4;
        let stored = u32::from_le_bytes([
            bytes[body_len],
            bytes[body_len + 1],
            bytes[body_len + 2],
            bytes[body_len + 3],
        ]);
        if crc32(&bytes[..body_len]) != stored {
            return Err(corrupt(name, "CRC mismatch"));
        }
        bytes.truncate(body_len);
        Ok(bytes)
    }
}

fn corrupt(name: &str, what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {what}"))
}

impl LogDir {
    /// Writes the checkpoint meta file (call **after** every part file is
    /// on disk: the meta file's presence is what makes a checkpoint
    /// complete).
    pub fn write_checkpoint_meta(&self, meta: &CheckpointMeta) -> io::Result<()> {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(CKPT_META_MAGIC);
        enc_u32(&mut buf, FORMAT_VERSION);
        enc_u64(&mut buf, meta.stable_ts);
        enc_u32(&mut buf, meta.partitions);
        enc_u32(&mut buf, meta.tables.len() as u32);
        for t in &meta.tables {
            enc_str(&mut buf, &t.name);
            enc_u32(&mut buf, t.schema.len() as u32);
            for col in t.schema.columns() {
                enc_str(&mut buf, &col.name);
                buf.push(datatype_tag(col.ty));
            }
            enc_route(&mut buf, &t.route);
            buf.push(t.ordered as u8);
            enc_u32(&mut buf, t.secondary);
        }
        enc_u32(&mut buf, meta.cuts.len() as u32);
        for &c in &meta.cuts {
            enc_u64(&mut buf, c);
        }
        self.write_checksummed(&ckpt_meta_name(meta.stable_ts), buf)
    }
}

fn parse_checkpoint_meta(name: &str, body: &[u8]) -> io::Result<CheckpointMeta> {
    let bad = || corrupt(name, "malformed meta body");
    let mut c = Cursor::new(body);
    if c.take(8).ok_or_else(bad)? != CKPT_META_MAGIC {
        return Err(corrupt(name, "bad magic"));
    }
    if c.u32().ok_or_else(bad)? != FORMAT_VERSION {
        return Err(corrupt(name, "unsupported format version"));
    }
    let stable_ts = c.u64().ok_or_else(bad)?;
    let partitions = c.u32().ok_or_else(bad)?;
    let n_tables = c.u32().ok_or_else(bad)? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(1024));
    for _ in 0..n_tables {
        let table_name = dec_str(&mut c).ok_or_else(bad)?;
        let n_cols = c.u32().ok_or_else(bad)? as usize;
        let mut schema = Schema::build();
        for _ in 0..n_cols {
            let col = dec_str(&mut c).ok_or_else(bad)?;
            let ty = dec_datatype(c.u8().ok_or_else(bad)?).ok_or_else(bad)?;
            schema = schema.column(&col, ty);
        }
        let route = dec_route(&mut c).ok_or_else(bad)?;
        let ordered = c.u8().ok_or_else(bad)? != 0;
        let secondary = c.u32().ok_or_else(bad)?;
        tables.push(TableMeta {
            name: table_name,
            schema,
            route,
            ordered,
            secondary,
        });
    }
    let n_cuts = c.u32().ok_or_else(bad)? as usize;
    let mut cuts = Vec::with_capacity(n_cuts.min(1024));
    for _ in 0..n_cuts {
        cuts.push(c.u64().ok_or_else(bad)?);
    }
    if !c.done() {
        return Err(bad());
    }
    Ok(CheckpointMeta {
        stable_ts,
        partitions,
        tables,
        cuts,
    })
}

impl LogDir {
    /// Writes one partition's checkpoint data file (fsynced).
    pub fn write_checkpoint_part(&self, part: &CheckpointPart) -> io::Result<()> {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(CKPT_PART_MAGIC);
        enc_u32(&mut buf, FORMAT_VERSION);
        enc_u64(&mut buf, part.stable_ts);
        enc_u32(&mut buf, part.partition);
        enc_u32(&mut buf, part.tables.len() as u32);
        for t in &part.tables {
            enc_u64(&mut buf, t.tuples.len() as u64);
            for (key, version_ts, row) in &t.tuples {
                enc_u64(&mut buf, *key);
                enc_u64(&mut buf, *version_ts);
                encode_row(&mut buf, row);
            }
            enc_u32(&mut buf, t.secondary.len() as u32);
            for entries in &t.secondary {
                enc_u64(&mut buf, entries.len() as u64);
                for (skey, primary) in entries {
                    enc_u64(&mut buf, *skey);
                    enc_u64(&mut buf, *primary);
                }
            }
        }
        self.write_checksummed(&ckpt_part_name(part.stable_ts, part.partition), buf)
    }

    /// Reads one partition's checkpoint data file.
    pub fn read_checkpoint_part(
        &self,
        stable_ts: u64,
        partition: u32,
    ) -> io::Result<CheckpointPart> {
        let name = ckpt_part_name(stable_ts, partition);
        let body = self.read_checksummed(&name)?;
        let bad = || corrupt(&name, "malformed part body");
        let mut c = Cursor::new(&body);
        if c.take(8).ok_or_else(bad)? != CKPT_PART_MAGIC {
            return Err(corrupt(&name, "bad magic"));
        }
        if c.u32().ok_or_else(bad)? != FORMAT_VERSION {
            return Err(corrupt(&name, "unsupported format version"));
        }
        let file_ts = c.u64().ok_or_else(bad)?;
        let file_part = c.u32().ok_or_else(bad)?;
        if file_ts != stable_ts || file_part != partition {
            return Err(corrupt(&name, "identity mismatch"));
        }
        let n_tables = c.u32().ok_or_else(bad)? as usize;
        let mut tables = Vec::with_capacity(n_tables.min(1024));
        for _ in 0..n_tables {
            let n_tuples = c.u64().ok_or_else(bad)? as usize;
            let mut tuples = Vec::with_capacity(n_tuples.min(1 << 20));
            for _ in 0..n_tuples {
                let key = c.u64().ok_or_else(bad)?;
                let version_ts = c.u64().ok_or_else(bad)?;
                let row = dec_row(&mut c).ok_or_else(bad)?;
                tuples.push((key, version_ts, row));
            }
            let n_idx = c.u32().ok_or_else(bad)? as usize;
            let mut secondary = Vec::with_capacity(n_idx.min(64));
            for _ in 0..n_idx {
                let n_entries = c.u64().ok_or_else(bad)? as usize;
                let mut entries = Vec::with_capacity(n_entries.min(1 << 20));
                for _ in 0..n_entries {
                    entries.push((c.u64().ok_or_else(bad)?, c.u64().ok_or_else(bad)?));
                }
                secondary.push(entries);
            }
            tables.push(TableDump { tuples, secondary });
        }
        if !c.done() {
            return Err(bad());
        }
        Ok(CheckpointPart {
            stable_ts,
            partition,
            tables,
        })
    }

    /// Returns the newest complete checkpoint in the directory (largest
    /// stable ts whose meta file parses and whose partition count matches
    /// its cut list), if any.
    pub fn latest_checkpoint(&self) -> io::Result<Option<CheckpointMeta>> {
        let mut stamps = Vec::new();
        for name in self.backend.list_dir(&self.path)? {
            if let Some(ts) = name
                .strip_prefix("ckpt-")
                .and_then(|r| r.strip_suffix(".meta"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                stamps.push(ts);
            }
        }
        stamps.sort_unstable();
        for ts in stamps.into_iter().rev() {
            let name = ckpt_meta_name(ts);
            let Ok(body) = self.read_checksummed(&name) else {
                continue;
            };
            if let Ok(meta) = parse_checkpoint_meta(&name, &body) {
                if meta.cuts.len() == meta.partitions as usize {
                    return Ok(Some(meta));
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::fixtures::tmp_dir;
    use crate::value::Value;
    use std::fs;

    #[test]
    fn checkpoint_files_round_trip_and_latest_picks_newest() {
        let dir = tmp_dir("ckpt");
        let meta = CheckpointMeta {
            stable_ts: 17,
            partitions: 2,
            tables: vec![TableMeta {
                name: "accounts".into(),
                schema: Schema::build()
                    .column("id", DataType::U64)
                    .column("balance", DataType::I64),
                route: RouteStrategy::ShiftDiv { shift: 4, div: 3 },
                ordered: true,
                secondary: 1,
            }],
            cuts: vec![100, 228],
        };
        let part = CheckpointPart {
            stable_ts: 17,
            partition: 1,
            tables: vec![TableDump {
                tuples: vec![
                    (5, 3, Row::from(vec![Value::U64(5), Value::I64(-1)])),
                    (9, 17, Row::from(vec![Value::U64(9), Value::I64(8)])),
                ],
                secondary: vec![vec![(77, 0), (77, 1)]],
            }],
        };
        LogDir::real(&dir).write_checkpoint_part(&part).unwrap();
        LogDir::real(&dir).write_checkpoint_meta(&meta).unwrap();
        // An older checkpoint is ignored in favor of the newest.
        LogDir::real(&dir)
            .write_checkpoint_meta(&CheckpointMeta {
                stable_ts: 3,
                partitions: 2,
                tables: vec![],
                cuts: vec![0, 0],
            })
            .unwrap();
        let got = LogDir::real(&dir).latest_checkpoint().unwrap().unwrap();
        assert_eq!(got.stable_ts, 17);
        assert_eq!(got.cuts, meta.cuts);
        assert_eq!(got.tables.len(), 1);
        assert_eq!(got.tables[0].name, "accounts");
        assert_eq!(got.tables[0].route, meta.tables[0].route);
        assert_eq!(got.tables[0].schema.columns().len(), 2);
        let rp = LogDir::real(&dir).read_checkpoint_part(17, 1).unwrap();
        assert_eq!(rp.tables[0].tuples, part.tables[0].tuples);
        assert_eq!(rp.tables[0].secondary, part.tables[0].secondary);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_meta_falls_back_to_older_checkpoint() {
        let dir = tmp_dir("ckpt-fallback");
        let older = CheckpointMeta {
            stable_ts: 5,
            partitions: 1,
            tables: vec![],
            cuts: vec![42],
        };
        LogDir::real(&dir).write_checkpoint_meta(&older).unwrap();
        let newer = CheckpointMeta {
            stable_ts: 9,
            partitions: 1,
            tables: vec![],
            cuts: vec![64],
        };
        LogDir::real(&dir).write_checkpoint_meta(&newer).unwrap();
        // Corrupt the newer meta: latest_checkpoint must fall back.
        let path = dir.join(ckpt_meta_name(9));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let got = LogDir::real(&dir).latest_checkpoint().unwrap().unwrap();
        assert_eq!(got.stable_ts, 5);
        assert_eq!(got.cuts, vec![42]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
