//! Small measurement helpers: a seeded generator, quantiles, the trace
//! recorder, resident-memory probes and the calibration loop.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so every input and schedule is a
/// pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0DE5_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// An endless seeded sequence of indices into a weighted pool: each block
/// holds every index exactly `weight` times, in shuffled order, so the
/// mix of any run is the weights to within one block.
pub struct Schedule {
    rng: Rng,
    template: Vec<usize>,
    block: Vec<usize>,
}

impl Schedule {
    pub fn new(seed: u64, weights: &[usize]) -> Schedule {
        let template = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
            .collect();
        Schedule {
            rng: Rng::new(seed),
            template,
            block: Vec::new(),
        }
    }

    pub fn next_index(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = self.template.clone();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("a weighted pool is never empty")
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Per-layer timings and counts gathered around calls into the program's
/// public functions; each is reported as its per-verdict median. Switched
/// off, `span` is a plain call.
pub struct Trace {
    on: bool,
    values: BTreeMap<&'static str, Vec<f64>>,
    seen: BTreeSet<&'static str>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            values: BTreeMap::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Starts one verdict's record: each layer is recorded at most once
    /// per verdict, by the first call that names it (the workload's own
    /// path runs first).
    pub fn begin(&mut self) {
        self.seen.clear();
    }

    fn record(&mut self, name: &'static str, value: f64) {
        if self.seen.insert(name) {
            self.values.entry(name).or_default().push(value);
        }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, ms_since(start));
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.record(name, value);
        }
    }

    /// The median of what was recorded under `name`; 0 if nothing was.
    pub fn median(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| median(v))
    }
}

/// The CPUs this process may run on, as `sched_setaffinity(2)` sees them.
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The calling process's set.
    pub fn current() -> Result<CpuSet, String> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the mask is a live buffer of exactly the size passed
        let rc = unsafe { sched_getaffinity(0, size_of_val(&set.0), set.0.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(set)
    }

    pub fn cpus(&self) -> Vec<usize> {
        (0..64 * self.0.len())
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        set
    }

    /// Moves the calling thread (the whole process, when it has one
    /// thread) onto this set.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: the mask is a live buffer of exactly the size passed
        let rc = unsafe { sched_setaffinity(0, size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }
}

/// `VmHWM` (peak resident set) of a process, in KiB.
pub fn vm_hwm_kb(pid: Option<u32>) -> Result<u64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// A fixed pure-CPU loop, timed five times; the median shows machine
/// drift between runs. It is reported only, never used to rescale.
pub fn calib_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut rng = Rng::new(7);
            let mut acc = 0u64;
            for _ in 0..2_000_000 {
                acc = acc.rotate_left(5) ^ rng.next_u64();
            }
            std::hint::black_box(acc);
            ms_since(start)
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn schedule_keeps_the_weights_per_block() {
        let mut s = Schedule::new(1, &[7, 3]);
        let block: Vec<usize> = (0..10).map(|_| s.next_index()).collect();
        assert_eq!(block.iter().filter(|&&i| i == 0).count(), 7);
        let mut again = Schedule::new(1, &[7, 3]);
        let repeat: Vec<usize> = (0..10).map(|_| again.next_index()).collect();
        assert_eq!(block, repeat, "the same seed gives the same order");
    }
}
