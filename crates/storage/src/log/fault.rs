//! Deterministic fault injection behind the [`LogBackend`] seam.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use super::backend::{FileBarrier, LogBackend, LogFile, RealBackend};

/// Per-seed fault schedule: each probability is in permille (0–1000) per
/// I/O opportunity of the matching class. All zeros injects nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// PRNG seed; the printed repro handle for a failing chaos run.
    pub seed: u64,
    /// `fsync` returns a *transient* failure (`EINTR`-like).
    pub fsync_permille: u16,
    /// A write persists only a prefix, then fails transiently (torn write).
    pub short_write_permille: u16,
    /// A write fails with `ENOSPC` (permanent: retrying cannot help).
    pub enospc_permille: u16,
    /// Opening or creating a file fails permanently.
    pub open_permille: u16,
    /// Reading a file fails permanently (scan/recovery paths).
    pub read_permille: u16,
}

impl FaultPlan {
    /// A schedule that injects nothing (useful as a base to tweak).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }
}

/// The outcome of one fault draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    Fsync,
    ShortWrite,
    Enospc,
}

/// Seeded fault scheduler shared by every file a [`FaultBackend`] hands
/// out. Draws are deterministic per (seed, file name, per-file operation
/// index): a partition's fault schedule does not depend on how threads of
/// *other* partitions interleave with it, which keeps per-seed chaos runs
/// reproducible.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Faults fire only while armed — harness setup (schema load, genesis
    /// checkpoint) runs disarmed so only the measured phase sees faults.
    armed: Mutex<bool>,
    /// Total faults injected (all classes).
    injected: Mutex<u64>,
    /// Per-file operation counters, the deterministic draw index.
    ops: Mutex<HashMap<String, u64>>,
}

/// splitmix64: tiny, seedable, and good enough to decorrelate draw indexes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a file name, to give each file its own draw stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultInjector {
    /// Creates a disarmed injector for `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            armed: Mutex::new(false),
            injected: Mutex::new(0),
            ops: Mutex::new(HashMap::new()),
        })
    }

    /// Starts injecting faults.
    pub fn arm(&self) {
        *self.armed.lock() = true;
    }

    /// Stops injecting faults (drain/teardown phases).
    pub fn disarm(&self) {
        *self.armed.lock() = false;
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.plan.seed
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        *self.injected.lock()
    }

    /// Draws the fault decision for the next operation on `name`. The
    /// cumulative permille ranges mean at most one fault class fires per
    /// operation; `extra` returns a second independent value (short-write
    /// prefix length).
    fn draw(&self, name: &str, write_classes: bool) -> (Fault, u64) {
        if !*self.armed.lock() {
            return (Fault::None, 0);
        }
        let idx = {
            let mut ops = self.ops.lock();
            let n = ops.entry(name.to_owned()).or_insert(0);
            let v = *n;
            *n += 1;
            v
        };
        let x = splitmix64(self.plan.seed ^ fnv1a(name) ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let roll = (x % 1000) as u16;
        let extra = splitmix64(x);
        let p = &self.plan;
        let fault = if write_classes {
            let mut bound = p.short_write_permille;
            if roll < bound {
                Fault::ShortWrite
            } else {
                bound = bound.saturating_add(p.enospc_permille);
                if roll < bound {
                    Fault::Enospc
                } else {
                    Fault::None
                }
            }
        } else if roll < p.fsync_permille {
            Fault::Fsync
        } else {
            Fault::None
        };
        if fault != Fault::None {
            *self.injected.lock() += 1;
        }
        (fault, extra)
    }

    /// Draw for open/create (`true` = fail).
    fn draw_open(&self, name: &str) -> bool {
        self.draw_simple(name, self.plan.open_permille)
    }

    /// Draw for whole-file reads (`true` = fail).
    fn draw_read(&self, name: &str) -> bool {
        self.draw_simple(name, self.plan.read_permille)
    }

    fn draw_simple(&self, name: &str, permille: u16) -> bool {
        if !*self.armed.lock() || permille == 0 {
            return false;
        }
        let idx = {
            let mut ops = self.ops.lock();
            let n = ops.entry(name.to_owned()).or_insert(0);
            let v = *n;
            *n += 1;
            v
        };
        let x = splitmix64(self.plan.seed ^ fnv1a(name) ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let hit = ((x % 1000) as u16) < permille;
        if hit {
            *self.injected.lock() += 1;
        }
        hit
    }
}

fn injected_transient(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, format!("injected {what}"))
}

fn injected_permanent(what: &str) -> io::Error {
    io::Error::other(format!("injected {what}"))
}

/// A [`LogBackend`] that delegates to [`RealBackend`] but injects faults
/// from a seeded [`FaultInjector`] schedule: transient fsync failures,
/// short (torn) writes, `ENOSPC`, and open/read errors. The SQLite-test-VFS
/// / FoundationDB-simulation idea in miniature.
#[derive(Debug)]
pub struct FaultBackend {
    real: RealBackend,
    injector: Arc<FaultInjector>,
}

impl FaultBackend {
    /// Wraps the real filesystem with `injector`'s schedule.
    pub fn new(injector: Arc<FaultInjector>) -> Self {
        FaultBackend {
            real: RealBackend,
            injector,
        }
    }

    /// The shared injector (arm/disarm, fault counts).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string_lossy().into_owned())
}

struct FaultFile {
    inner: Box<dyn LogFile>,
    name: String,
    injector: Arc<FaultInjector>,
}

impl LogFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (fault, extra) = self.injector.draw(&self.name, true);
        match fault {
            Fault::ShortWrite => {
                // Persist a prefix so the tail really is torn, then fail.
                let cut = if buf.is_empty() {
                    0
                } else {
                    (extra % buf.len() as u64) as usize
                };
                self.inner.write_all(&buf[..cut])?;
                Err(injected_transient("short write"))
            }
            Fault::Enospc => Err(io::Error::from_raw_os_error(28)), // ENOSPC
            _ => self.inner.write_all(buf),
        }
    }

    /// Draws no fault: preallocation is not an I/O opportunity of the
    /// schedule, so a seed's `(file, op-index)` draws do not depend on it.
    /// A real error still fails the segment open, like any other open
    /// failure.
    fn preallocate(&mut self, len: u64) -> io::Result<()> {
        self.inner.preallocate(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// The fsync fault is drawn here, when the barrier is taken — under
    /// the caller's append lock, so the file's draw order does not depend
    /// on which thread waits out the device.
    fn barrier(&mut self) -> io::Result<FileBarrier> {
        let (fault, _) = self.injector.draw(&self.name, false);
        if fault == Fault::Fsync {
            // The flush may have pushed bytes to the OS; only the
            // durability barrier fails — exactly a flaky fsync.
            let _ = self.inner.flush();
            return Err(injected_transient("fsync failure"));
        }
        self.inner.barrier()
    }
}

impl LogBackend for FaultBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.real.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.real.list_dir(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        let name = file_name_of(path);
        if self.injector.draw_open(&name) {
            return Err(injected_permanent("open failure"));
        }
        let inner = self.real.create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            name,
            injector: Arc::clone(&self.injector),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        let name = file_name_of(path);
        if self.injector.draw_open(&name) {
            return Err(injected_permanent("open failure"));
        }
        let inner = self.real.open_append(path)?;
        Ok(Box::new(FaultFile {
            inner,
            name,
            injector: Arc::clone(&self.injector),
        }))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.real.file_len(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.injector.draw_read(&file_name_of(path)) {
            return Err(injected_permanent("read failure"));
        }
        self.real.read(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.real.truncate(path, len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.real.remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same plan, same per-file operation sequence → byte-identical fault
    /// decisions, independent of wall clock or thread interleaving.
    #[test]
    fn fault_injector_is_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 77,
            fsync_permille: 300,
            short_write_permille: 200,
            enospc_permille: 100,
            open_permille: 50,
            read_permille: 50,
        };
        let run = || {
            let inj = FaultInjector::new(plan);
            inj.arm();
            let mut draws = Vec::new();
            let mut opens = Vec::new();
            for i in 0..64 {
                let name = format!("wal-p{:03}-00000000.seg", i % 3);
                draws.push(inj.draw(&name, i % 2 == 0));
                opens.push(inj.draw_open(&name));
            }
            (draws, opens, inj.injected())
        };
        let (a, oa, ia) = run();
        let (b, ob, ib) = run();
        assert_eq!(a, b);
        assert_eq!(oa, ob);
        assert_eq!(ia, ib);
        assert!(ia > 0, "permilles high enough that something fires");
    }

    /// The injector starts disarmed and injects nothing until armed;
    /// disarm stops it again.
    #[test]
    fn fault_injector_respects_arm_state() {
        let plan = FaultPlan {
            seed: 3,
            fsync_permille: 1000,
            ..FaultPlan::quiet(3)
        };
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.draw("f", false).0, Fault::None);
        inj.arm();
        assert_eq!(inj.draw("f", false).0, Fault::Fsync);
        inj.disarm();
        assert_eq!(inj.draw("f", false).0, Fault::None);
        assert_eq!(inj.injected(), 1);
    }
}
