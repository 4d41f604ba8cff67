//! What the numbers were measured on, and what the operating system
//! saw while they were: the provenance block of every result file, and
//! process-wide CPU time, context switches and run-queue waiting.

use std::time::Instant;

use crate::json::{obj, Value};

/// The host block: two result files are comparable only when these
/// agree (`--compare` refuses otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub features: String,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

impl HostInfo {
    /// Reads `/proc` and the variables `run.sh` exports (`rustc -V` and
    /// the feature list come from the toolchain, which the binary does
    /// not call).
    pub fn detect() -> HostInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            rustc: env("SPI_BENCH_RUSTC"),
            features: env("SPI_BENCH_FEATURES"),
        }
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("nproc", Value::from(self.nproc)),
            ("cpu_model", Value::from(self.cpu_model.as_str())),
            ("kernel", Value::from(self.kernel.as_str())),
            ("rustc", Value::from(self.rustc.as_str())),
            ("features", Value::from(self.features.as_str())),
        ])
    }

    /// The host block of a parsed result file.
    pub fn from_json(v: &Value) -> Option<HostInfo> {
        let s = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        Some(HostInfo {
            nproc: v.get("nproc")?.as_f64()? as usize,
            cpu_model: s("cpu_model")?,
            kernel: s("kernel")?,
            rustc: s("rustc")?,
            features: s("features")?,
        })
    }
}

/// The commit the binary was built from, as exported by `run.sh`
/// (`unknown` outside a git checkout).
pub fn commit() -> String {
    std::env::var("SPI_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())
}

// ---------------------------------------------------------------------
// getrusage: process-wide totals that survive thread exit
// ---------------------------------------------------------------------

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of x86-64 / aarch64 Linux: two timevals and fourteen
/// longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Process-wide CPU time and context switches, threads that have
/// already exited included (which a walk over `/proc/self/task` after a
/// segment's threads are joined would miss).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

impl Usage {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> Usage {
        const RUSAGE_SELF: i32 = 0;
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the
        // 64-bit Linux layout (the cfg above), which is all the call
        // requires; it writes nothing beyond that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        if rc != 0 {
            return Usage::default();
        }
        let ns = |t: Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
        Usage {
            cpu_ns: ns(ru.utime) + ns(ru.stime),
            voluntary_switches: ru.nvcsw as u64,
            involuntary_switches: ru.nivcsw as u64,
        }
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> Usage {
        Usage::default()
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
            involuntary_switches: self
                .involuntary_switches
                .saturating_sub(earlier.involuntary_switches),
        }
    }
}

// ---------------------------------------------------------------------
// CPU affinity
// ---------------------------------------------------------------------

/// Bits of a `cpu_set_t` the benchmark looks at (glibc's is 1024 wide).
const CPU_WORDS: usize = 16;
type CpuMask = [u64; CPU_WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get_mask() -> Option<CpuMask> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set_mask(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed, only read by the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get_mask() -> Option<CpuMask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_: &CpuMask) -> bool {
    false
}

/// The CPUs the calling thread may run on, ascending; empty where the
/// platform does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let Some(mask) = get_mask() else {
        return Vec::new();
    };
    (0..CPU_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Keeps the calling thread — and every thread it spawns meanwhile,
/// which inherit the mask — on one CPU until dropped, then restores the
/// previous mask. A no-op where affinity cannot be set.
pub struct Pin {
    previous: Option<CpuMask>,
}

impl Pin {
    pub fn to(cpu: usize) -> Pin {
        let previous = get_mask();
        let mut one = [0u64; CPU_WORDS];
        if cpu < CPU_WORDS * 64 {
            one[cpu / 64] = 1 << (cpu % 64);
        }
        let pinned = previous.is_some() && set_mask(&one);
        Pin {
            previous: previous.filter(|_| pinned),
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(mask) = &self.previous {
            set_mask(mask);
        }
    }
}

/// Where the workloads run: `(io, pe)`. Serial workloads (one thread,
/// or threads in lock-step) run wholly on `pe`; `fir2k_*` runs PE0 on
/// `io` and the bottleneck PE1 on `pe`, the CPU the calibration kernel
/// is timed on. CPU 0 takes the guest's interrupts, so `pe` is the
/// highest-numbered CPU allowed and `io` the lowest.
///
/// Decided once, on first use, from the mask the process was started
/// with: a later call from a thread that is already pinned must not
/// mistake its one CPU for the whole machine.
pub fn placement() -> (usize, usize) {
    static PLACEMENT: std::sync::OnceLock<(usize, usize)> = std::sync::OnceLock::new();
    *PLACEMENT.get_or_init(|| {
        let cpus = allowed_cpus();
        (
            cpus.first().copied().unwrap_or(0),
            cpus.last().copied().unwrap_or(0),
        )
    })
}

// ---------------------------------------------------------------------
// /proc/self/task: live threads and their run-queue waiting
// ---------------------------------------------------------------------

/// One walk over `/proc/self/task/*/schedstat`: per live thread the
/// nanoseconds spent on a CPU and the nanoseconds spent runnable but
/// waiting for one.
#[derive(Debug, Clone, Default)]
pub struct TaskSample {
    /// `(tid, on_cpu_ns, runqueue_wait_ns)`.
    pub tasks: Vec<(u64, u64, u64)>,
}

impl TaskSample {
    pub fn take() -> TaskSample {
        let mut tasks = Vec::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry
                    .file_name()
                    .to_str()
                    .and_then(|s| s.parse::<u64>().ok())
                else {
                    continue;
                };
                // A thread may exit between the listing and the read.
                let Ok(stat) = std::fs::read_to_string(entry.path().join("schedstat")) else {
                    continue;
                };
                let mut f = stat
                    .split_whitespace()
                    .map(|x| x.parse::<u64>().unwrap_or(0));
                tasks.push((tid, f.next().unwrap_or(0), f.next().unwrap_or(0)));
            }
        }
        TaskSample { tasks }
    }

    pub fn threads(&self) -> usize {
        self.tasks.len()
    }

    /// `(threads alive mid-run, run-queue wait share between the first
    /// and the last sample)` of the walks taken during one segment.
    pub fn summarize(samples: &[TaskSample]) -> (usize, f64) {
        match samples {
            [a, .., b] => (a.threads().max(b.threads()), b.runqueue_wait_share_since(a)),
            [a] => (a.threads(), 0.0),
            [] => (0, 0.0),
        }
    }

    /// Of the time the threads alive at both samples were runnable,
    /// the share they spent waiting for a CPU.
    pub fn runqueue_wait_share_since(&self, earlier: &TaskSample) -> f64 {
        let (mut cpu, mut wait) = (0u64, 0u64);
        for &(tid, c1, w1) in &self.tasks {
            if let Some(&(_, c0, w0)) = earlier.tasks.iter().find(|t| t.0 == tid) {
                cpu += c1.saturating_sub(c0);
                wait += w1.saturating_sub(w0);
            }
        }
        if cpu + wait == 0 {
            0.0
        } else {
            wait as f64 / (cpu + wait) as f64
        }
    }
}

// ---------------------------------------------------------------------
// Calibration kernel
// ---------------------------------------------------------------------

/// What [`calibrate`] typically reads on the host the benchmark was
/// sized on (a 2-vCPU 2.1 GHz Xeon guest) between the segments of a
/// serial workload, i.e. on a CPU under sustained load. Only the scale
/// of the calibrated metrics depends on it: at this reading calibrated
/// and raw values coincide.
pub const REFERENCE_CALIB_NS: f64 = 400_000.0;

/// One pass of the calibration kernel: eight independent
/// multiply-rotate chains and one small allocation per step, 2^14
/// steps. Throughput-bound like the workloads themselves, so it slows
/// with them whether the host lowers the clock, runs a neighbour on the
/// sibling hyperthread, or takes the vCPU away for a while (a
/// latency-bound dependency chain sees only the first and the last).
fn calibration_pass() -> f64 {
    let start = Instant::now();
    let mut chains = std::hint::black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    let mut boxes: Vec<Box<u64>> = Vec::with_capacity(16);
    for i in 0..(1u64 << 14) {
        for c in chains.iter_mut() {
            *c = c.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13) ^ i;
        }
        boxes.push(Box::new(chains[0]));
        if boxes.len() == 16 {
            boxes.clear();
        }
    }
    std::hint::black_box((chains, boxes));
    start.elapsed().as_nanos() as f64
}

/// How fast the calling thread's CPU is right now: the fastest of three
/// passes of the calibration kernel, in nanoseconds. The calling thread
/// has usually just been woken (it was parked while PE threads ran), and
/// a core that sat idle reads up to 1.5× slow for its first fraction of
/// a millisecond; an interrupt can only lengthen a pass. Both err one
/// way, so the minimum is the reading.
pub fn calibrate() -> f64 {
    (0..3)
        .map(|_| calibration_pass())
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_block_round_trips_through_json() {
        let h = HostInfo::detect();
        assert!(h.nproc >= 1);
        assert_eq!(HostInfo::from_json(&h.to_json()), Some(h));
    }

    #[test]
    fn usage_is_monotonic_and_sees_cpu_time() {
        let a = Usage::now();
        let mut spins = 0;
        // rusage CPU time has coarse resolution on some kernels; burn
        // until it moves rather than assuming a figure.
        while Usage::now().since(a).cpu_ns == 0 && spins < 2_000 {
            calibrate();
            spins += 1;
        }
        let d = Usage::now().since(a);
        assert!(
            d.cpu_ns > 0,
            "no CPU time observed after {spins} calibration loops"
        );
    }

    #[test]
    fn task_sample_sees_this_thread() {
        let a = TaskSample::take();
        assert!(a.threads() >= 1);
        calibrate();
        let share = TaskSample::take().runqueue_wait_share_since(&a);
        assert!((0.0..=1.0).contains(&share));
    }
}
