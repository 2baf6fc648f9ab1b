//! Process counters and run provenance, read from the operating system.
//!
//! Every workload runs in its own process, so these counters are per
//! workload. CPU time and context switches come from `getrusage`, which
//! accumulates over every thread the process ever had — the threaded and
//! socket workloads spawn workers that exit before the harness can look at
//! them, and `/proc/self/status` counts switches for the main thread only.
//! Peak memory is `VmHWM`.

use std::fmt;

/// Resource counters of this process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// User + system CPU time, microseconds, all threads.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl Usage {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us.saturating_sub(earlier.cpu_us),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s in the order of getrusage(2).
    #[repr(C)]
    #[derive(Default)]
    pub struct RUsage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub longs: [i64; 14],
    }
    pub const RUSAGE_SELF: i32 = 0;
    pub const RU_NVCSW: usize = 12;
    pub const RU_NIVCSW: usize = 13;
    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

/// Reads the process counters now.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut ru = ffi::RUsage::default();
    // SAFETY: `ru` is a live, writable value whose layout is the kernel's
    // `struct rusage` on 64-bit Linux (the cfg above), and RUSAGE_SELF is a
    // valid selector, so the call only writes inside `ru`.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    let tv_us = |tv: [i64; 2]| (tv[0].max(0) as u64) * 1_000_000 + tv[1].max(0) as u64;
    Usage {
        cpu_us: tv_us(ru.utime) + tv_us(ru.stime),
        ctx_switches: (ru.longs[ffi::RU_NVCSW] + ru.longs[ffi::RU_NIVCSW]).max(0) as u64,
    }
}

/// The ledger reads Linux process accounting; elsewhere the counters are
/// zero and the metrics built on them read 0.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

/// The number after `key` on the line of `path` that starts with it.
fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    parse_field(&text, key)
}

fn parse_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads alive in this process right now.
pub fn live_threads() -> u64 {
    proc_field("/proc/self/status", "Threads:").unwrap_or(1)
}

/// Cores the scheduler lets this process use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Environment variables that change what is measured; a run refuses to
/// start while one is set.
const FORBIDDEN_ENV: [&str; 3] = ["PBP_BENCH_SMOKE", "PBP_NET_FAULTS", "PBP_SIMD"];

/// A `PBP_*` variable that would make the numbers incomparable is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForbiddenEnv(pub String);

impl fmt::Display for ForbiddenEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} is set: it changes what is measured, so the ledger refuses to run (unset it)",
            self.0
        )
    }
}

/// Checks `vars` (name/value pairs, as `std::env::vars` yields them).
pub fn check_env(vars: impl Iterator<Item = (String, String)>) -> Result<(), ForbiddenEnv> {
    for (name, _) in vars {
        if FORBIDDEN_ENV.contains(&name.as_str()) {
            return Err(ForbiddenEnv(name));
        }
    }
    Ok(())
}

/// Where and on what a record was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub commit: String,
    pub dirty: bool,
    pub rustc: String,
    pub cpu: String,
    pub nproc: usize,
    pub pool_threads: usize,
    pub simd: &'static str,
    pub pbp_env: Vec<(String, String)>,
    pub date: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    /// Collects provenance. `repo` is the directory git is asked about; a
    /// checkout without git history reports the commit as `unknown`.
    pub fn collect(repo: &std::path::Path) -> Provenance {
        let repo = repo.to_string_lossy().into_owned();
        let commit = command_line("git", &["-C", &repo, "rev-parse", "HEAD"]);
        let dirty = command_line("git", &["-C", &repo, "status", "--porcelain"])
            .is_some_and(|s| !s.is_empty());
        let mut pbp_env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("PBP_"))
            .collect();
        pbp_env.sort();
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Provenance {
            commit: commit.unwrap_or_else(|| "unknown".into()),
            dirty,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|t| {
                    t.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|s| s.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            nproc: nproc(),
            pool_threads: pbp_tensor::pool::configured_threads(),
            simd: pbp_tensor::ops::simd::active_tier().name(),
            pbp_env,
            date: utc_timestamp(secs),
        }
    }
}

/// `YYYY-MM-DDTHH:MM:SSZ` for seconds since the Unix epoch (civil-from-days,
/// proleptic Gregorian).
pub fn utc_timestamp(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbidden_variables_are_refused_by_name() {
        let env = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert_eq!(
            check_env(env(&[("PBP_THREADS", "2"), ("HOME", "/")])),
            Ok(())
        );
        for name in FORBIDDEN_ENV {
            assert_eq!(
                check_env(env(&[("PATH", "/bin"), (name, "")])),
                Err(ForbiddenEnv(name.to_string()))
            );
        }
    }

    #[test]
    fn proc_fields_parse_with_units_and_tabs() {
        let text = "Name:\tx\nVmHWM:\t   12345 kB\nThreads:\t3\n";
        assert_eq!(parse_field(text, "VmHWM:"), Some(12345));
        assert_eq!(parse_field(text, "Threads:"), Some(3));
        assert_eq!(parse_field(text, "missing:"), None);
    }

    #[test]
    fn timestamps_follow_the_civil_calendar() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_790_359_445), "2026-09-25T18:04:05Z");
    }

    #[test]
    fn usage_counters_only_grow() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = usage();
        assert!(b.cpu_us >= a.cpu_us);
        assert_eq!(b.since(&a).cpu_us, b.cpu_us - a.cpu_us);
        assert!(peak_rss_mb() > 0.0);
        assert!(live_threads() >= 1);
    }
}
