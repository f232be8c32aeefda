//! Keeps the box's cores from halting while a run measures.
//!
//! The benchmark runs in a KVM guest whose host polls a halted vCPU for
//! about 200 µs before it takes the core away; waking a vCPU that has
//! lost its core costs 400–600 µs. A cache-off select keeps the client
//! waiting 150–250 µs, right on that threshold, so each select is either
//! ~220 µs or ~1 300 µs, a slow one makes the next one slow too (the
//! worker halts while the client wakes), and the share of slow ones —
//! 14 % to 55 % from run to run — decides where the median falls. That is
//! the host's idle policy, not this repository's code.
//!
//! One spinning thread per core under `SCHED_IDLE` keeps every vCPU
//! runnable: the kernel runs it only when nothing else wants the core
//! and preempts it the moment a worker or the client wakes, so a wake-up
//! costs a context switch, every time, whatever the host does with idle
//! vCPUs. The spinners touch no memory beyond one flag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    const SCHED_IDLE: i32 = 5;
    const PRIO_PROCESS: i32 = 0;
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }

    /// Drops the calling thread below every normal thread: `SCHED_IDLE`,
    /// or nice 19 where the policy is refused. Lowering one's own
    /// priority needs no privilege; `false` if both were refused anyway.
    pub fn lowest_priority() -> bool {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: plain libc calls on the calling thread (pid / who 0)
        // with a valid pointer to a `sched_param`.
        unsafe {
            sched_setscheduler(0, SCHED_IDLE, &param) == 0 || setpriority(PRIO_PROCESS, 0, 19) == 0
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn lowest_priority() -> bool {
        false
    }
}

/// The spinners; dropping it stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// One idle-priority spinner per available core.
    pub fn start() -> KeepAwake {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // A spinner at normal priority would compete with
                    // the workers it is there to serve: better none.
                    if !sys::lowest_priority() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_stop_when_dropped() {
        let awake = KeepAwake::start();
        assert!(!awake.threads.is_empty());
        drop(awake);
    }
}
