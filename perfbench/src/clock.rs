//! The two clocks of a timed step: wall time, and the time this thread spent
//! on a CPU.
//!
//! The box is a small virtual machine on a shared host. When the host is
//! busy the hypervisor takes the virtual CPU away for milliseconds at a time
//! (`steal` in `/proc/stat`), and a 10 ms step then reads 25 ms on the wall.
//! The guest's scheduler clock leaves stolen time out, so the thread's CPU
//! clock reads what the engine's one thread was given. The workloads never
//! block except `skewed_durable` in `fsync`, so on an idle machine the two
//! clocks agree; README.md says which metric reads which.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_s: f64,
}

/// Seconds between two stamps, on both clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    pub wall: f64,
    pub cpu: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_s: thread_cpu_s(),
        }
    }

    pub fn since(&self, earlier: &Stamp) -> Lap {
        Lap {
            wall: (self.wall - earlier.wall).as_secs_f64(),
            cpu: self.cpu_s - earlier.cpu_s,
        }
    }
}

#[cfg(target_os = "linux")]
fn thread_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, and `Timespec` has that layout on Linux targets whose
    // `time_t` is a `long` (all 64-bit ones); `ts` outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always has the thread CPU-time clock");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the CPU clock is the wall clock.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> f64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// `(stolen, total)` clock ticks of all CPUs since boot, from the first line
/// of `/proc/stat`; `None` where there is no such file.
pub fn stolen_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; the guest fields that
    // follow are already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}
