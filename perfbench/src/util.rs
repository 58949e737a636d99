//! Measurement helpers shared by every workload: robust statistics, an
//! exact latency recorder, `/proc` readers and the host reference loop.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of `values` (unsorted); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One measurement window: its throughput and exact latency quantiles.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub rate: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub samples: u64,
}

/// Splits a closed loop into fixed-length windows and keeps, per window,
/// the completion rate and the exact p50 and p99 of its round trips.
pub struct Windows {
    len_ns: u64,
    start_ns: Option<u64>,
    done: u64,
    lat: Vec<u32>,
    used: usize,
    pub windows: Vec<Window>,
    pub samples: u64,
}

impl Windows {
    const CAPACITY: usize = 1 << 21;

    pub fn new(len_ns: u64) -> Self {
        // Allocated and touched up front, so the recorder's resident size
        // does not depend on the run's throughput.
        let mut lat = vec![0u32; Self::CAPACITY];
        lat.fill(1);
        Self {
            len_ns,
            start_ns: None,
            done: 0,
            lat,
            used: 0,
            windows: Vec::new(),
            samples: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        if self.used < self.lat.len() {
            self.lat[self.used] = u32::try_from(ns).unwrap_or(u32::MAX);
            self.used += 1;
        }
        self.samples += 1;
    }

    /// Notes `completed` requests finished at `now`, closing the window
    /// when it is full.
    pub fn tick(&mut self, now: u64, completed: u64) {
        let start = *self.start_ns.get_or_insert(now);
        self.done += completed;
        let len = now - start;
        if len < self.len_ns || self.used == 0 {
            return;
        }
        let lat = &mut self.lat[..self.used];
        let mut at = |q: f64| {
            let rank = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
            f64::from(*lat.select_nth_unstable(rank - 1).1)
        };
        let (p50_ns, p99_ns) = (at(0.50), at(0.99));
        self.windows.push(Window {
            rate: self.done as f64 / (len as f64 / 1e9),
            p50_ns,
            p99_ns,
            samples: self.used as u64,
        });
        self.start_ns = Some(now);
        self.done = 0;
        self.used = 0;
    }
}

/// `(on-CPU ns, runqueue-wait ns)` of one thread, from a `schedstat` file
/// (`/proc/thread-self/schedstat` or `/proc/<pid>/task/<tid>/schedstat`).
pub fn schedstat(path: &str) -> (u64, u64) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host reference: ns per step of a fixed dependent integer loop in
/// this file (median of five timings). It tracks host speed and drift,
/// not program behaviour.
pub fn host_ref_ns() -> f64 {
    const STEPS: u64 = 2_000_000;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            // balloc-lint: allow(L002): benchmark timing; no decision or digest reads it.
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..STEPS {
                x ^= x >> 31;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .collect();
    median(&times)
}

/// Wall time of `f` in seconds, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    // balloc-lint: allow(L002): benchmark timing; no decision or digest reads it.
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Restricts the calling thread to `cpus`; returns whether the kernel
/// accepted it (a thread left unpinned still runs correctly).
pub fn pin_to_cpus(cpus: impl IntoIterator<Item = usize>) -> bool {
    pin_thread(0, cpus)
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
pub fn pin_thread(tid: i32, cpus: impl IntoIterator<Item = usize>) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for cpu in cpus {
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word |= 1 << (cpu % 64);
        }
    }
    // SAFETY: `tid` is a plain thread id (0: the caller), and `mask` is a
    // live buffer of exactly `cpusetsize` bytes that the kernel only reads.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Lets the calling thread run on every CPU again (the mask names every
/// CPU the kernel could have; it keeps the online ones).
pub fn unpin() -> bool {
    pin_to_cpus(0..1024)
}
