//! CPU time of the benchmark's process.
//!
//! On a virtual machine the hypervisor can give the vCPU that runs a
//! check to another guest for a while. Wall time counts that stolen
//! time; the kernel's per-task CPU clock does not (Linux subtracts it
//! when it runs as a KVM guest with steal-time accounting). With one
//! worker thread and an idle host both clocks read the same.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Seconds of CPU time that every thread of this process has used.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the layout of `struct timespec` on 64-bit Linux
    // and outlives the call; the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one call of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = process_cpu_s();
    let t = std::time::Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    (out, wall, process_cpu_s() - cpu)
}
