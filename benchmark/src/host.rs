//! Facts about the host a result was measured on, and the process's
//! peak memory. Every result file carries these: a number without its
//! `nproc` and CPU model cannot be compared with another.

use uat_base::json::Json;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// repository (the driver's checkout is not; then this is "unknown").
fn git_commit() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read_trimmed(&format!(".git/{r}"))
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Calibrated timestamp-counter rate, the unit `Action::Work` spins in.
pub fn tsc_hz() -> f64 {
    uat_fiber::RunClock::start().hz()
}

pub fn facts() -> Json {
    Json::obj([
        ("nproc", Json::UInt(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "kernel",
            Json::str(
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("tsc_hz", Json::Num(tsc_hz())),
        ("git_commit", Json::str(git_commit())),
    ])
}

/// The prefix of C's `struct rusage` on x86-64 Linux that we read: two
/// `timeval`s, then `ru_maxrss` as the first of fourteen `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set, in KiB, of the largest child this process has
/// reaped (the multiprocess backend's worker processes) — or that the
/// program which `exec`ed into this one had reaped: the counter survives
/// `exec`, and `cargo run` execs the benchmark after reaping `rustc`.
pub fn children_maxrss_kib() -> u64 {
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the kernel's
    // x86-64 layout (144 bytes: 2 timevals + 14 longs); getrusage writes
    // only inside it and keeps no pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc == 0 {
        ru.ru_maxrss.max(0) as u64
    } else {
        0
    }
}

fn own_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Max of this process's own high-water mark and that of its largest
/// reaped child, in MiB.
pub fn peak_rss_mb() -> f64 {
    own_hwm_kib().max(children_maxrss_kib()) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_has_the_kernel_size() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }

    #[test]
    fn peak_rss_is_positive_and_facts_are_complete() {
        assert!(peak_rss_mb() > 0.0);
        let f = facts();
        for key in ["nproc", "cpu_model", "kernel", "tsc_hz", "git_commit"] {
            assert!(f.get(key).is_some(), "missing host fact {key}");
        }
        assert!(f.field("nproc").unwrap().as_u64().unwrap() >= 1);
    }
}
