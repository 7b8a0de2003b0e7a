//! The calling thread's CPU clock.
//!
//! The serving metrics time calls of a few microseconds to a few milliseconds on a
//! machine whose cores are shared: by wall time, a call that loses its core to
//! another process reads as slow, so the quantiles of such calls measure the
//! machine's load more than the program. The thread's CPU clock advances only while
//! the thread runs, in user or kernel mode (page faults and frees included), so it
//! counts the work a call does and leaves out the time it waited for a core.

/// Seconds of CPU time the calling thread has used so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere, where `timespec` may be laid out otherwise, the wall clock stands in,
/// measured from the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_s() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::thread_cpu_s;

    #[test]
    fn advances_with_work_and_not_with_sleep() {
        let start = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = thread_cpu_s() - start;
        assert!(busy > 0.0, "{x}");
        let before = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_cpu_s() - before < 0.02);
    }
}
