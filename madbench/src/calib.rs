//! A host-speed gauge.
//!
//! The shared host this benchmark runs on changes speed by tens of
//! percent from one tenth of a second to the next, and from one minute to
//! the next. The gauge measures that: short passes of two fixed
//! calibration kernels are timed between slices of the workload's
//! simulation, so they sample the host at the same moments the workload
//! runs. Neither kernel uses engine code, so a change to the engine never
//! changes them; only the host's speed does.
//!
//! No single kernel slows down with the host exactly as the engine does.
//! A memory-bound kernel (binary heap, hash map, copies over 1 MiB) moves
//! less than the engine when the host slows; a compute-bound one (small
//! allocations, short copies, branches in a few KiB) moves more. The
//! gauge reports the geometric mean of the two slowdowns, which tracks
//! the engine on all four workloads (see `NOTES.md`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Mean seconds of one memory-bound pass on the reference host, a
/// 2-vCPU x86-64 VM (Intel Xeon, 2.0 GHz). The two reference times only
/// set the scale of the gauge's readings.
const REF_HEAP_PASS_S: f64 = 0.000_55;

/// Mean seconds of one compute-bound pass on the reference host.
const REF_ALLOC_PASS_S: f64 = 0.000_25;

/// Memory-bound kernel events per pass.
const HEAP_EVENTS: usize = 2_048;

/// Compute-bound kernel steps per pass.
const ALLOC_STEPS: usize = 3_000;

/// The timed calibration kernels and their readings.
pub struct Gauge {
    heap: HeapKernel,
    alloc: AllocKernel,
    readings: Mark,
}

/// Readings of a gauge at one moment, to measure the passes since.
#[derive(Clone, Copy, Default)]
pub struct Mark {
    passes: u64,
    heap_s: f64,
    alloc_s: f64,
}

impl Gauge {
    pub fn new() -> Self {
        let mut g = Gauge {
            heap: HeapKernel::new(0x9e37_79b9_7f4a_7c15),
            alloc: AllocKernel::new(0x2545_f491_4f6c_dd1d),
            readings: Mark::default(),
        };
        // Warm the kernels' memory before the first timed pass.
        g.pass();
        g.readings = Mark::default();
        g
    }

    /// Time one pass of each kernel.
    pub fn pass(&mut self) {
        let t = Instant::now();
        black_box(self.heap.step(HEAP_EVENTS));
        let mid = Instant::now();
        black_box(self.alloc.step(ALLOC_STEPS));
        let end = Instant::now();
        let r = &mut self.readings;
        r.heap_s += mid.duration_since(t).as_secs_f64();
        r.alloc_s += end.duration_since(mid).as_secs_f64();
        r.passes += 1;
    }

    /// Host seconds spent in passes so far.
    pub fn secs(&self) -> f64 {
        self.readings.heap_s + self.readings.alloc_s
    }

    pub fn mark(&self) -> Mark {
        self.readings
    }

    /// How much slower than the reference the host ran over the passes
    /// since `mark`: the geometric mean of each kernel's mean pass time
    /// over its reference time. 1 when no pass was made since.
    pub fn slowdown_since(&self, mark: Mark) -> f64 {
        let r = &self.readings;
        let passes = (r.passes - mark.passes) as f64;
        if passes == 0.0 {
            return 1.0;
        }
        let heap = (r.heap_s - mark.heap_s) / passes / REF_HEAP_PASS_S;
        let alloc = (r.alloc_s - mark.alloc_s) / passes / REF_ALLOC_PASS_S;
        (heap * alloc).sqrt()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Memory-bound: a stand-in event loop with pending events in a binary
/// heap, per-flow counters in a hash map, and a payload copy per event
/// over 1 MiB of buffers.
struct HeapKernel {
    rng: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    flows: HashMap<u64, u64>,
    bufs: Vec<Vec<u8>>,
    acc: u64,
}

const PENDING: usize = 4_096;
const FLOW_IDS: u64 = 65_536;
const BUF: usize = 2_048;
const BUFS: usize = 512;

impl HeapKernel {
    fn new(seed: u64) -> Self {
        let mut rng = seed;
        let heap = (0..PENDING as u64)
            .map(|id| Reverse((xorshift(&mut rng) >> 40, id)))
            .collect();
        HeapKernel {
            rng,
            heap,
            flows: HashMap::with_capacity(2 * PENDING),
            bufs: vec![vec![0u8; BUF]; BUFS],
            acc: 0,
        }
    }

    fn step(&mut self, events: usize) -> u64 {
        for _ in 0..events {
            let Reverse((t, id)) = self.heap.pop().expect("the heap is never empty");
            let r = xorshift(&mut self.rng);
            *self.flows.entry(r % FLOW_IDS).or_insert(0) += t;
            if self.flows.len() > PENDING {
                self.flows.remove(&((r >> 16) % FLOW_IDS));
            }
            let a = (r >> 20) as usize % BUFS;
            let b = (r >> 30) as usize % BUFS;
            if a != b {
                let len = 64 + (r >> 40) as usize % (BUF - 64);
                let (lo, hi) = self.bufs.split_at_mut(a.max(b));
                let (src, dst) = if a < b {
                    (&lo[a], &mut hi[0])
                } else {
                    (&hi[0], &mut lo[b])
                };
                dst[..len].copy_from_slice(&src[..len]);
                dst[0] = dst[0].wrapping_add(r as u8);
            }
            self.acc = self.acc.wrapping_add(t ^ id).rotate_left(5);
            self.heap.push(Reverse((t + (r >> 50) + 1, id)));
        }
        self.acc ^ self.flows.len() as u64 ^ self.bufs[0][0] as u64
    }
}

/// Compute-bound: reference-counted allocations of 8–256 B copied from a
/// 16 KiB pool, with a data-dependent branch per step.
struct AllocKernel {
    rng: u64,
    pool: Vec<Vec<u8>>,
    acc: u64,
}

const POOL: usize = 64;
const POOL_BUF: usize = 256;

impl AllocKernel {
    fn new(seed: u64) -> Self {
        AllocKernel {
            rng: seed,
            pool: (0..POOL).map(|i| vec![i as u8; POOL_BUF]).collect(),
            acc: 0,
        }
    }

    fn step(&mut self, steps: usize) -> u64 {
        for _ in 0..steps {
            let r = xorshift(&mut self.rng);
            let len = 8 + r as usize % (POOL_BUF - 8);
            let msg = Rc::new(self.pool[(r >> 20) as usize % POOL][..len].to_vec());
            self.acc = self.acc.wrapping_add(match r & 3 {
                0 => msg.len() as u64,
                1 => msg[0] as u64 * 3,
                _ => (r >> 7) & 0xff,
            });
            self.pool[(r >> 30) as usize % POOL][0] = self.acc as u8;
        }
        self.acc
    }
}
