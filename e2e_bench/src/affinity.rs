//! Pins the process to one CPU before any thread is spawned.
//!
//! The reference box has two shared virtual CPUs. Waking a thread on the
//! other one costs tens of microseconds there, and whether the kernel
//! places a woken shard worker beside its waker or across from it flipped
//! `live_cluster_spill` between 2.3 and 5.2 M events/s from one repetition
//! to the next. On one CPU the load generator and the system under test
//! time-slice, every wake-up is local, and what is measured is the
//! program's CPU cost per event rather than the scheduler's placement.

#[cfg(target_os = "linux")]
mod sys {
    /// Enough mask words for 1024 CPUs, glibc's `cpu_set_t`.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// Restricts this process to the lowest-numbered CPU it may run on and
/// returns that CPU, or `None` where that is not possible.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; sys::WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // which is all `sched_getaffinity` requires; pid 0 is this thread.
    if unsafe { sys::sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; sys::WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the
    // call only reads; pid 0 is this thread, and threads spawned later
    // inherit its mask.
    (unsafe { sys::sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
