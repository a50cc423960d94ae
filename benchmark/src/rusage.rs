//! Peak resident set of this process's reaped children, through the one
//! foreign call the benchmark makes. A CLI job is gone by the time its
//! output has been read, so `/proc/<pid>/status` cannot be asked;
//! `getrusage(RUSAGE_CHILDREN)` keeps the high-water mark of every child
//! that has been waited for.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs,
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Largest peak resident set among the children reaped so far, MiB
/// (0 if the call fails).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target (checked by the cfg above), and
    // `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.ru_maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Other targets lay `struct rusage` out differently; report nothing
/// rather than guess.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> f64 {
    0.0
}
