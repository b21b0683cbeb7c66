//! CPU affinity of the calling thread.
//!
//! A partition issues one operation and waits for it, so over loopback a
//! partition thread and the server thread serving it never run at once.
//! Pinning the pair to one CPU turns each request and each reply into a
//! same-CPU wake-up instead of a cross-CPU one (DESIGN.md, "Co-location").
//! The driver pins its partition threads with [`pin_current_thread`]; the
//! server follows its loopback peers the same way.
//!
//! On Linux both calls bind `sched_getaffinity`/`sched_setaffinity` from the
//! libc the standard library already links; elsewhere they do nothing.

/// The CPUs the calling thread may run on, ascending. Empty when the set
/// cannot be read (or off Linux), which callers treat as "nothing to pin".
pub fn allowed_cpus() -> Vec<usize> {
    sys::allowed_cpus()
}

/// Restrict the calling thread to `cpu`. Returns whether the kernel took
/// it: a CPU outside the process's cpuset, or past the set size, is
/// refused and leaves the thread's affinity as it was.
pub fn pin_current_thread(cpu: usize) -> bool {
    sys::pin_current_thread(cpu)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// glibc's `cpu_set_t`: a 1024-bit mask.
    const SET_WORDS: usize = 16;
    const WORD_BITS: usize = 64;

    #[repr(C)]
    struct CpuSet([u64; SET_WORDS]);

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    pub(super) fn allowed_cpus() -> Vec<usize> {
        let mut set = CpuSet([0; SET_WORDS]);
        // SAFETY: `set` is a writable mask of exactly the size passed; pid
        // 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return Vec::new();
        }
        (0..SET_WORDS * WORD_BITS)
            .filter(|&cpu| set.0[cpu / WORD_BITS] & (1 << (cpu % WORD_BITS)) != 0)
            .collect()
    }

    pub(super) fn pin_current_thread(cpu: usize) -> bool {
        if cpu >= SET_WORDS * WORD_BITS {
            return false;
        }
        let mut set = CpuSet([0; SET_WORDS]);
        set.0[cpu / WORD_BITS] = 1 << (cpu % WORD_BITS);
        // SAFETY: `set` is a valid mask of exactly the size passed; pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub(super) fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_pinned_to_an_allowed_cpu_reports_only_that_cpu() {
        let allowed = allowed_cpus();
        if cfg!(target_os = "linux") {
            assert!(!allowed.is_empty(), "the calling thread may run somewhere");
        }
        let Some(&last) = allowed.last() else { return };
        let seen = std::thread::spawn(move || {
            assert!(pin_current_thread(last));
            allowed_cpus()
        })
        .join()
        .unwrap();
        assert_eq!(seen, vec![last]);
        assert!(!pin_current_thread(usize::MAX), "a CPU past the mask is refused");
    }
}
