//! The host: the CPU a run is pinned to, the host speed sampled through a
//! run, and the host and source fingerprint recorded with every result.

use crate::stats::{object, string, Fnv};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The calibration loop's time on the reference host, in µs: about its
/// median time, with a workload running beside it, on the 2-vCPU Xeon host
/// the bounds in BENCHMARK.json were set on.
const REFERENCE_LOOP_US: f64 = 150.0;

/// How fast this host runs a fixed calibration loop right now, relative to
/// the reference host (lower is slower): one build of a 2048-entry
/// `HashMap` from 4096 pseudo-random keys. Allocation, hashing and probing
/// slow down under a busy neighbour about as much as the service does. Of
/// the loops tried (this one, one-byte round trips between two threads
/// over a socket pair, TCP loopback writes and reads in one thread, and
/// `getppid` calls), it tracked the per-second throughput of `small_jobs`
/// best (correlation −0.92 of the logarithms over 60 one-second slices,
/// against −0.87, −0.78 and −0.62). The loop is this benchmark's own code,
/// so no change to the program under test can move it.
fn speed() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let keys: Vec<u32> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let start = Instant::now();
    let mut map = std::collections::HashMap::new();
    for (i, key) in keys.iter().enumerate() {
        *map.entry(key % 2048).or_insert(0u64) += i as u64;
    }
    std::hint::black_box(map.len());
    REFERENCE_LOOP_US / (start.elapsed().as_secs_f64() * 1e6)
}

/// How often a [`Sampler`] times the calibration loop.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Times the calibration loop every [`SAMPLE_EVERY`] on a thread of its
/// own, on the CPU the run is pinned to, while the workload runs there.
///
/// On a shared host the CPU's speed flips between a fast and a slow state,
/// about 30% apart, within seconds, as the neighbours' load comes and goes;
/// one reading after each second of the run caught too few of the flips. A
/// reading takes about 150 µs, under 1% of the CPU.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Reading>>,
}

/// One timing of the calibration loop.
#[derive(Clone, Copy, Debug)]
struct Reading {
    at: Instant,
    took: Duration,
    speed: f64,
}

impl Sampler {
    /// Starts sampling; the first reading is taken at once.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut readings = Vec::new();
            loop {
                let at = Instant::now();
                let speed = speed();
                readings.push(Reading {
                    at,
                    took: at.elapsed(),
                    speed,
                });
                if flag.load(Ordering::Relaxed) {
                    return readings;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        Sampler { stop, thread }
    }

    /// Stops sampling and returns the readings.
    pub fn stop(self) -> Speeds {
        self.stop.store(true, Ordering::Relaxed);
        Speeds(self.thread.join().expect("the speed sampler panicked"))
    }
}

/// The readings of a [`Sampler`], in time order (at least one).
pub struct Speeds(Vec<Reading>);

impl Speeds {
    /// The mean speed over `from..to`: the mean of the readings taken in
    /// it, or the reading nearest to its middle when none was.
    pub fn over(&self, from: Instant, to: Instant) -> f64 {
        let lo = self.0.partition_point(|r| r.at < from);
        let hi = self.0.partition_point(|r| r.at <= to);
        if hi > lo {
            return self.0[lo..hi].iter().map(|r| r.speed).sum::<f64>() / (hi - lo) as f64;
        }
        let middle = from + (to - from) / 2;
        let gap = |i: usize| {
            let t = self.0[i].at;
            t.max(middle) - t.min(middle)
        };
        let nearest = match lo {
            0 => 0,
            i if i == self.0.len() => i - 1,
            i if gap(i - 1) <= gap(i) => i - 1,
            i => i,
        };
        self.0[nearest].speed
    }

    /// How long the calibration loop ran within `from..to`. On the one CPU
    /// of the run, a job in flight waits that long for it.
    pub fn busy(&self, from: Instant, to: Instant) -> Duration {
        let lo = self.0.partition_point(|r| r.at + r.took <= from);
        self.0[lo..]
            .iter()
            .take_while(|r| r.at < to)
            .map(|r| {
                (r.at + r.took)
                    .min(to)
                    .saturating_duration_since(r.at.max(from))
            })
            .sum()
    }

    /// `from..to` at the reference speed, without the calibration loop's
    /// own time in it, in seconds.
    pub fn scaled_secs(&self, from: Instant, to: Instant) -> f64 {
        (to - from)
            .saturating_sub(self.busy(from, to))
            .as_secs_f64()
            * self.over(from, to)
    }

    pub fn values(&self) -> Vec<f64> {
        self.0.iter().map(|r| r.speed).collect()
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Binds the calling thread, and every thread and process it starts from
/// then on, to the highest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes for the whole call.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes for the whole call.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The soft `ulimit -n` of this process (the servers inherit it).
fn open_files_limit() -> String {
    read("/proc/self/limits")
        .lines()
        .find_map(|l| {
            l.strip_prefix("Max open files")?
                .split_whitespace()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run from an exported tree, which has none).
fn commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".into()
        } else {
            head.to_string()
        };
    };
    let loose = read(&format!(".git/{reference}"));
    if !loose.trim().is_empty() {
        return loose.trim().to_string();
    }
    read(".git/packed-refs")
        .lines()
        .find_map(|l| {
            let (hash, name) = l.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
        .unwrap_or_else(|| "none".into())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

/// FNV-1a over the program's sources (`Cargo.*`, `src/`, `crates/`): names
/// the code under test when there is no commit to name it.
fn source_digest() -> String {
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    collect(Path::new("src"), &mut files);
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut digest = Fnv::default();
    for file in files {
        digest.update(file.to_string_lossy().as_bytes());
        digest.update(&std::fs::read(&file).unwrap_or_default());
    }
    format!("fnv1a64:{}", digest.hex())
}

pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(&[
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), string(&cpu_model())),
        (
            "kernel".into(),
            string(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("ulimit_n".into(), string(&open_files_limit())),
        ("commit".into(), string(&commit())),
        ("source_digest".into(), string(&source_digest())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readings(at: &[(u64, u64, f64)]) -> (Instant, Speeds) {
        let origin = Instant::now();
        let ms = Duration::from_millis;
        let speeds = at
            .iter()
            .map(|&(at, took, speed)| Reading {
                at: origin + ms(at),
                took: ms(took),
                speed,
            })
            .collect();
        (origin, Speeds(speeds))
    }

    #[test]
    fn averages_the_readings_in_an_interval_or_takes_the_nearest() {
        let (o, s) = readings(&[(0, 1, 1.0), (20, 1, 0.5), (40, 1, 0.9)]);
        let ms = Duration::from_millis;
        assert_eq!(s.over(o, o + ms(20)), 0.75);
        assert_eq!(s.over(o + ms(25), o + ms(27)), 0.5);
        assert_eq!(s.over(o + ms(33), o + ms(35)), 0.9);
        assert_eq!(s.over(o + ms(90), o + ms(95)), 0.9);
    }

    #[test]
    fn counts_the_calibration_time_inside_an_interval() {
        let (o, s) = readings(&[(0, 2, 1.0), (20, 2, 0.5), (40, 2, 1.0)]);
        let ms = Duration::from_millis;
        assert_eq!(s.busy(o + ms(1), o + ms(41)), ms(1 + 2 + 1));
        assert_eq!(s.busy(o + ms(5), o + ms(15)), Duration::ZERO);
        // 10 ms of wall time, 2 of them calibrating, at speed 0.5.
        assert_eq!(s.scaled_secs(o + ms(15), o + ms(25)), 0.004);
    }
}
