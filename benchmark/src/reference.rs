//! The reference kernels: fixed work that belongs to the benchmark, not to
//! the engine, run by the two workers after every slice of the workload, so
//! that a run knows how fast the machine was while it measured.
//!
//! The sandbox is a 2-vCPU microVM on a shared host. For minutes at a time
//! its neighbours make everything in it slower by a fifth to a half, without
//! taking CPU time from it that `/proc/stat` would show; ten runs of one
//! build then spread by more than any bound the driver allows. Two kernels
//! see that state from inside:
//!
//! * **memory** — each worker walks a dependent chain of reads and writes
//!   through a private array far larger than its L2 cache: what one core
//!   gets done when every step waits for the shared last-level cache or for
//!   DRAM, as the engine's row, lock and version accesses do;
//! * **wake** — the two workers hand a token back and forth, each parking
//!   until the other has stored it, and time how long after the store the
//!   sleeper runs again: the trip through the futex, the inter-processor
//!   interrupt and the hypervisor that every lock wait, commit-semaphore
//!   wait and group-commit acknowledgment pays.
//!
//! A slice's [`Reading`] is the median of several batches of each, and the
//! machine's [`index`] is the geometric mean of the two readings over their
//! nominal values: 1.0 on the dev box in a quiet hour, 1.4 when both
//! kernels take 1.4 times as long. `norm_throughput_txn_s` is the measured
//! throughput times that index (README, "The machine index").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::driver::WORKERS;

/// Words of a worker's private array: 64 MiB, sixteen times its L2 cache.
const MEM_WORDS: usize = 1 << 23;
/// Steps of the memory chain per batch (about 4 ms).
const MEM_STEPS: u64 = 20_000;
/// Hand-offs each worker receives per batch (about 4 ms).
const WAKE_HANDOFFS: u64 = 60;
/// How long a worker keeps the token before it hands it back: long enough
/// for the partner, which parked when it had handed the token over, to be
/// asleep with its core halted. Without it the two can fall into a rhythm in
/// which neither ever sleeps and a hand-off takes 0.3 µs instead of 15.
const WAKE_HOLD: Duration = Duration::from_micros(20);
/// Batches per slice; a reading is their median. Odd.
const BATCHES: usize = 5;

/// A step of the memory chain on the dev box in a quiet hour, ns.
pub const MEM_NOMINAL_NS: f64 = 150.0;
/// A wake-up on the dev box in a quiet hour, ns.
pub const WAKE_NOMINAL_NS: f64 = 18_000.0;

/// MiB the workers' private arrays keep resident from their start to the
/// end of the run.
pub const RESIDENT_MB: f64 = (WORKERS * MEM_WORDS * 8) as f64 / (1 << 20) as f64;

#[repr(align(128))]
struct Padded(AtomicU64);

/// What the two workers' reference kernels share.
pub struct Shared {
    /// Hand-offs made so far by both workers together; worker `w` makes the
    /// hand-offs whose number is `w` modulo 2.
    token: Padded,
    /// When the token was last handed over, in ns since `epoch`.
    sent_ns: AtomicU64,
    epoch: Instant,
    /// Slices finished, summed over the workers.
    done: Padded,
    threads: Mutex<[Option<Thread>; WORKERS]>,
    /// Woken when both workers have finished a slice.
    main: Thread,
}

impl Shared {
    /// Shared state whose slices wake the calling thread.
    pub fn new() -> Self {
        Shared {
            token: Padded(AtomicU64::new(0)),
            sent_ns: AtomicU64::new(0),
            epoch: Instant::now(),
            done: Padded(AtomicU64::new(0)),
            threads: Mutex::new([const { None }; WORKERS]),
            main: std::thread::current(),
        }
    }

    /// Blocks until both workers have finished `slices` slices.
    pub fn wait_for(&self, slices: u64) {
        // ordering: Acquire pairs with the workers' AcqRel increment; the
        // readings themselves travel through the workers' join.
        while self.done.0.load(Ordering::Acquire) < slices * WORKERS as u64 {
            std::thread::park();
        }
    }
}

/// One worker's reading of one reference slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// Median batch of the memory kernel, ns per step.
    pub mem_ns: f64,
    /// Median batch of the wake kernel, ns per wake-up.
    pub wake_ns: f64,
}

/// How slow the machine was when the workers took `readings` of one slice:
/// the geometric mean of the two kernels' times over their nominal values.
pub fn index(readings: &[Reading]) -> f64 {
    let n = readings.len() as f64;
    let mem = readings.iter().map(|r| r.mem_ns).sum::<f64>() / n;
    let wake = readings.iter().map(|r| r.wake_ns).sum::<f64>() / n;
    ((mem / MEM_NOMINAL_NS) * (wake / WAKE_NOMINAL_NS)).sqrt()
}

fn median_of(mut batches: [f64; BATCHES]) -> f64 {
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

/// One worker's side of the reference kernels.
pub struct Worker<'a> {
    shared: &'a Shared,
    index: usize,
    partner: Option<Thread>,
    array: Vec<u64>,
    at: usize,
    hash: u64,
    handoffs: u64,
    /// One reading per slice, in order.
    pub readings: Vec<Reading>,
}

impl<'a> Worker<'a> {
    /// Worker `index`'s side; fills its private array. To be called on the
    /// worker's own thread.
    pub fn new(shared: &'a Shared, index: usize) -> Self {
        shared.threads.lock().expect("no holder panics")[index] = Some(std::thread::current());
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ index as u64;
        let array = (0..MEM_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Worker {
            shared,
            index,
            partner: None,
            array,
            at: 0,
            hash: 1,
            handoffs: 0,
            readings: Vec::new(),
        }
    }

    /// One batch of the memory kernel: every step reads a word, writes it
    /// back changed, and takes the next position from what it read.
    fn memory_batch(&mut self) -> f64 {
        let (mut at, mut hash) = (self.at, self.hash);
        let t0 = Instant::now();
        for _ in 0..MEM_STEPS {
            let word = self.array[at];
            hash = (hash ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            hash ^= hash >> 29;
            self.array[at] = word.wrapping_add(hash);
            at = hash as usize & (MEM_WORDS - 1);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        (self.at, self.hash) = (at, hash);
        ns / MEM_STEPS as f64
    }

    /// One batch of the wake kernel: `WAKE_HANDOFFS` times this worker parks
    /// until the token is its to advance, notes how long ago the partner
    /// handed it over, holds it for [`WAKE_HOLD`], hands it back and wakes
    /// the partner, which does the same. Returns the mean wake-up.
    fn wake_batch(&mut self) -> f64 {
        let shared = self.shared;
        let partner = self.partner.get_or_insert_with(|| loop {
            // The partner registers when its thread starts.
            let threads = shared.threads.lock().expect("no holder panics");
            if let Some(t) = &threads[1 - self.index] {
                break t.clone();
            }
            drop(threads);
            std::thread::yield_now();
        });
        let now_ns = || shared.epoch.elapsed().as_nanos() as u64;
        let mut asleep_ns = 0;
        for _ in 0..WAKE_HANDOFFS {
            let mine = 2 * self.handoffs + self.index as u64;
            // ordering: Acquire/Release hand over the token and, with it,
            // the time it was sent.
            while shared.token.0.load(Ordering::Acquire) != mine {
                std::thread::park();
            }
            let received = now_ns();
            // The very first hand-off has no sender.
            if mine > 0 {
                asleep_ns += received - shared.sent_ns.load(Ordering::Relaxed);
            }
            while now_ns() < received + WAKE_HOLD.as_nanos() as u64 {
                std::hint::spin_loop();
            }
            shared.sent_ns.store(now_ns(), Ordering::Relaxed);
            shared.token.0.store(mine + 1, Ordering::Release);
            partner.unpark();
            self.handoffs += 1;
        }
        asleep_ns as f64 / WAKE_HANDOFFS as f64
    }

    /// Runs one reference slice and books its reading; the last worker to
    /// finish wakes the main thread. The wake kernel runs first: its first
    /// batch waits for the partner to arrive, which the median drops, and
    /// from then on both workers run the memory kernel side by side.
    pub fn slice(&mut self) {
        let wake_ns = median_of(std::array::from_fn(|_| self.wake_batch()));
        let mem_ns = median_of(std::array::from_fn(|_| self.memory_batch()));
        self.readings.push(Reading { mem_ns, wake_ns });
        // ordering: see `Shared::wait_for`.
        let done = self.shared.done.0.fetch_add(1, Ordering::AcqRel) + 1;
        if done.is_multiple_of(WORKERS as u64) {
            self.shared.main.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_one_at_the_nominal_readings_and_scales_with_both() {
        let nominal = Reading {
            mem_ns: MEM_NOMINAL_NS,
            wake_ns: WAKE_NOMINAL_NS,
        };
        assert!((index(&[nominal, nominal]) - 1.0).abs() < 1e-12);
        let slow = Reading {
            mem_ns: 2.0 * MEM_NOMINAL_NS,
            wake_ns: 2.0 * WAKE_NOMINAL_NS,
        };
        assert!((index(&[slow, slow]) - 2.0).abs() < 1e-12);
        // One kernel twice as slow: the geometric mean.
        let mem_only = Reading {
            mem_ns: 2.0 * MEM_NOMINAL_NS,
            wake_ns: WAKE_NOMINAL_NS,
        };
        assert!((index(&[mem_only, mem_only]) - 2f64.sqrt()).abs() < 1e-12);
        // The two workers' readings are averaged per kernel.
        assert!((index(&[nominal, slow]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_reading_is_the_median_batch() {
        assert_eq!(median_of([9.0, 1.0, 3.0, 200.0, 2.0]), 3.0);
    }

    #[test]
    fn two_workers_finish_their_slices_and_wake_the_caller() {
        let shared = Shared::new();
        let readings: Vec<Vec<Reading>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let shared = &shared;
                    s.spawn(move || {
                        let mut worker = Worker::new(shared, w);
                        for _ in 0..3 {
                            worker.slice();
                        }
                        worker.readings
                    })
                })
                .collect();
            shared.wait_for(3);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // ordering: the workers were joined.
        assert_eq!(
            shared.token.0.load(Ordering::Relaxed),
            3 * BATCHES as u64 * WORKERS as u64 * WAKE_HANDOFFS
        );
        for r in readings.iter().flatten() {
            assert!(r.mem_ns > 0.0 && r.wake_ns > 0.0, "{r:?}");
        }
        assert_eq!(readings[0].len(), 3);
    }
}
