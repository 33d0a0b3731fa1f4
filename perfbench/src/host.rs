//! Host-side measurements read from `/proc`: CPU time, peak resident set,
//! steal time, and a calibration loop that runs no program code.
//!
//! Identical runs of one workload vary widely on a shared host, so every
//! run records `host.calib_s` and `host.steal_s` beside its metrics. A slow
//! calibration loop or a large steal delta marks a slow host, not a slow
//! change.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const TICKS_PER_S: f64 = 100.0;

/// Iterations of the calibration loop (about 0.1 s on a 2020s core).
const CALIB_ITERS: u64 = 40_000_000;

/// Seconds one fixed integer loop takes: a host-speed probe independent of
/// the simulator's code.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Total steal time of the host in seconds (`/proc/stat`, 8th field of
/// the `cpu` line); 0 where the kernel does not report it.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().find(|l| l.starts_with("cpu ")).unwrap_or("");
    line.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / TICKS_PER_S
}

/// CPU time (user + system) this process has used so far, in seconds,
/// over all of its threads.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime is field 14.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<f64> = rest.split_whitespace().map(|v| v.parse().unwrap_or(0.0)).collect();
    let get = |field: usize| f.get(field - 3).copied().unwrap_or(0.0);
    (get(14) + get(15)) / TICKS_PER_S
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(calibrate() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_s() >= 0.0);
        assert!(steal_s() >= 0.0);
    }
}
