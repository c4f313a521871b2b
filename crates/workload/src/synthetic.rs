//! The synthetic hotspot microbenchmark of paper §5.2–5.3.
//!
//! Each transaction issues `ops_per_txn` operations: uniform-random reads
//! over a large table, except at the configured *hotspot positions*, where
//! it performs a read-modify-write on a globally shared hot tuple. §5.2
//! studies one hotspot ("a single read-modify-write hotspot at the
//! beginning"), varying transaction length and hotspot position; §5.3 adds
//! a second hotspot to induce cascading aborts and sweeps the distance
//! between them.

use std::sync::Arc;

use bamboo_core::executor::{TxnSpec, Workload};
use bamboo_core::{Abort, Database, Txn};
use bamboo_storage::{DataType, Row, Schema, TableId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration of the synthetic workload.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Table size. The paper uses a >100 GB dataset; the default scales
    /// that to laptop memory — hotspot contention is independent of the
    /// cold-table size once conflicts on cold keys are negligible.
    pub rows: u64,
    /// Operations per transaction (the paper's K; 16 by default, {4,16,64}
    /// in Figure 3a).
    pub ops_per_txn: usize,
    /// Fractional positions (0 = first op, 1 = last op) of read-modify-
    /// write hotspots. Hotspot `i` targets key `i`.
    pub hotspot_positions: Vec<f64>,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            rows: 1 << 18,
            ops_per_txn: 16,
            hotspot_positions: vec![0.0],
        }
    }
}

impl SyntheticConfig {
    /// One hotspot at fractional position `pos` (Figure 3b's sweep).
    pub fn one_hotspot(pos: f64) -> Self {
        SyntheticConfig {
            hotspot_positions: vec![pos],
            ..Default::default()
        }
    }

    /// Two hotspots (Figures 4–5's sweeps).
    pub fn two_hotspots(first: f64, second: f64) -> Self {
        SyntheticConfig {
            hotspot_positions: vec![first, second],
            ..Default::default()
        }
    }

    /// Sets the transaction length.
    pub fn with_ops(mut self, k: usize) -> Self {
        self.ops_per_txn = k;
        self
    }

    /// Sets the table size.
    pub fn with_rows(mut self, rows: u64) -> Self {
        self.rows = rows;
        self
    }

    /// Maps a fractional position to an operation index in `0..K`.
    pub fn position_to_index(&self, pos: f64) -> usize {
        ((pos * (self.ops_per_txn - 1) as f64).round() as usize).min(self.ops_per_txn - 1)
    }
}

/// Loads the synthetic table: `rows` tuples of (key, value, payload).
pub fn load(cfg: &SyntheticConfig) -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table_with_capacity(
        "synthetic",
        Schema::build()
            .column("key", DataType::U64)
            .column("value", DataType::I64)
            .column("payload", DataType::U64),
        cfg.rows as usize,
    );
    let db = b.build();
    let table = db.table(t);
    for k in 0..cfg.rows {
        table.insert(
            k,
            Row::from(vec![Value::U64(k), Value::I64(0), Value::U64(k ^ 0xDEAD)]),
        );
    }
    (db, t)
}

enum Op {
    Read(u64),
    HotRmw(u64),
}

/// One synthetic transaction instance.
struct SyntheticTxn {
    table: TableId,
    ops: Vec<Op>,
}

impl TxnSpec for SyntheticTxn {
    fn planned_ops(&self) -> Option<usize> {
        Some(self.ops.len())
    }

    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        // Start the cold reads' cache misses before the hot lock is
        // requested, so they overlap its wait instead of its hold.
        txn.prefetch(self.ops.iter().filter_map(|op| match op {
            Op::Read(k) => Some((self.table, *k)),
            Op::HotRmw(_) => None,
        }));
        for op in &self.ops {
            match op {
                Op::Read(k) => {
                    let row = txn.read(self.table, *k)?;
                    std::hint::black_box(row.get_i64(1));
                }
                Op::HotRmw(k) => {
                    txn.update(self.table, *k, |row| {
                        let v = row.get_i64(1);
                        row.set(1, Value::I64(v + 1));
                    })?;
                }
            }
        }
        Ok(())
    }
}

/// Generator for the synthetic workload.
pub struct SyntheticWorkload {
    cfg: SyntheticConfig,
    table: TableId,
    hotspot_idx: Vec<(usize, u64)>,
}

impl SyntheticWorkload {
    /// Builds the generator for a loaded table.
    pub fn new(cfg: SyntheticConfig, table: TableId) -> Self {
        let hotspot_idx = cfg
            .hotspot_positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (cfg.position_to_index(p), i as u64))
            .collect();
        SyntheticWorkload {
            cfg,
            table,
            hotspot_idx,
        }
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        "synthetic-hotspot"
    }

    fn generate(&self, _worker: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        let k = self.cfg.ops_per_txn;
        let n_hot = self.cfg.hotspot_positions.len() as u64;
        let mut ops: Vec<Op> = (0..k)
            .map(|_| Op::Read(rng.gen_range(n_hot..self.cfg.rows)))
            .collect();
        for &(idx, key) in &self.hotspot_idx {
            ops[idx] = Op::HotRmw(key);
        }
        Box::new(SyntheticTxn {
            table: self.table,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_core::executor::{run_bench, BenchConfig};
    use bamboo_core::protocol::{LockingProtocol, Protocol};

    #[test]
    fn position_mapping_covers_endpoints() {
        let cfg = SyntheticConfig::default(); // K=16
        assert_eq!(cfg.position_to_index(0.0), 0);
        assert_eq!(cfg.position_to_index(1.0), 15);
        assert_eq!(cfg.position_to_index(0.5), 8);
    }

    #[test]
    fn generated_txn_has_hotspots_at_positions() {
        let cfg = SyntheticConfig::two_hotspots(0.0, 1.0).with_rows(1024);
        let wl = SyntheticWorkload::new(cfg, TableId(0));
        let mut rng = SmallRng::seed_from_u64(1);
        let _spec = wl.generate(0, &mut rng);
        assert_eq!(wl.hotspot_idx, vec![(0, 0), (15, 1)]);
    }

    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn hotspot_increments_are_conserved_under_bamboo() {
        let cfg = SyntheticConfig::one_hotspot(0.0)
            .with_rows(4096)
            .with_ops(4);
        let (db, t) = load(&cfg);
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg, t));
        let res = run_bench(&db, &proto, &wl, &BenchConfig::quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0);
        let hot = db.table(t).get(0).unwrap().read_row().get_i64(1);
        assert!(
            hot >= res.totals.commits as i64,
            "hot counter {hot} < measured commits {}",
            res.totals.commits
        );
    }
}
