//! Two scheduling measures that keep the *sandbox* out of the numbers.
//!
//! **A CPU split.** A dispatcher that sleeps between sends leaves its core
//! idle, the scheduler places a waking service thread there, and the
//! dispatcher's next wake-up then waits out that thread's time slice (~3 ms
//! here): send lag that has nothing to do with the service. So the process
//! is split once at start-up: the last allowed CPU belongs to the open-loop
//! dispatcher, every other CPU to the service — its worker pools *and* the
//! client threads that run sessions and ingests, which this codebase
//! executes on the caller's thread. Threads inherit the affinity of the
//! thread that spawns them, so pinning the main thread before the service
//! boots places its workers.
//!
//! **Idle pollers.** In a virtual machine an idle CPU halts, and waking it
//! costs an exit to a host whose load the benchmark cannot see: at 35% load
//! the worker sleeps and wakes thousands of times a second, and the median
//! answers latency read 0.36 ms with halting against 0.19 ms without, moving
//! with the host's load, not the program's. One `SCHED_IDLE` thread per
//! allowed CPU spins for the length of the run, so no CPU halts; the kernel
//! runs such a thread only when nothing else wants the CPU and preempts it
//! the moment anything does (the bare-metal equivalent is `idle=poll`).
//!
//! With one allowed CPU, off Linux, or when the kernel refuses, neither
//! measure is taken and the run says so.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// 1024 CPUs: the size glibc's `cpu_set_t` has.
const MASK_WORDS: usize = 16;
/// Linux `SCHED_IDLE`.
#[cfg(target_os = "linux")]
const SCHED_IDLE: i32 = 5;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

#[cfg(target_os = "linux")]
fn allowed_cpus() -> Option<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then(|| {
        (0..MASK_WORDS * 64)
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

#[cfg(target_os = "linux")]
fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Put the calling thread in the `SCHED_IDLE` class.
#[cfg(target_os = "linux")]
fn make_current_thread_idle_class() -> bool {
    // `struct sched_param` is one `int`, and must be 0 for `SCHED_IDLE`.
    let param = 0i32;
    // SAFETY: `param` is a live `int`-sized `sched_param` that is only read;
    // pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Option<Vec<usize>> {
    None
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_cpus: &[usize]) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
fn make_current_thread_idle_class() -> bool {
    false
}

struct Split {
    service: Vec<usize>,
    dispatcher: Vec<usize>,
}

static SPLIT: OnceLock<Option<Split>> = OnceLock::new();

/// Split the allowed CPUs and move the calling (main) thread to the service
/// side. Returns a line describing what was done.
pub fn split_cpus() -> String {
    let split = SPLIT.get_or_init(|| {
        let cpus = allowed_cpus().filter(|c| c.len() >= 2)?;
        let (service, dispatcher) = cpus.split_at(cpus.len() - 1);
        pin_current_thread(service).then(|| Split {
            service: service.to_vec(),
            dispatcher: dispatcher.to_vec(),
        })
    });
    match split {
        Some(s) => format!(
            "affinity: service cpus {:?}, dispatcher cpu {:?}",
            s.service, s.dispatcher
        ),
        None => "affinity: unpinned (one cpu, or not permitted)".to_string(),
    }
}

/// Service worker threads: the service's share of the cores.
pub fn service_cores(all: usize) -> usize {
    match SPLIT.get() {
        Some(Some(s)) => s.service.len(),
        _ => all.saturating_sub(1).max(1),
    }
}

/// Move the calling thread to the dispatcher's CPU (no-op when unsplit).
pub fn enter_dispatcher() {
    if let Some(Some(s)) = SPLIT.get() {
        pin_current_thread(&s.dispatcher);
    }
}

/// Move the calling thread to the service's CPUs (no-op when unsplit).
pub fn enter_service() {
    if let Some(Some(s)) = SPLIT.get() {
        pin_current_thread(&s.service);
    }
}

/// The idle pollers of a run; dropping them stops and joins the threads.
pub struct IdlePollers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<bool>>,
}

impl IdlePollers {
    /// One `SCHED_IDLE` spinner per CPU of the split. A thread that cannot
    /// enter the idle class exits at once rather than compete for its CPU.
    pub fn start() -> (Self, String) {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus: Vec<usize> = match SPLIT.get() {
            Some(Some(s)) => s.service.iter().chain(&s.dispatcher).copied().collect(),
            _ => Vec::new(),
        };
        let threads: Vec<JoinHandle<bool>> = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !(pin_current_thread(&[cpu]) && make_current_thread_idle_class()) {
                        return false;
                    }
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    true
                })
            })
            .collect();
        let note = if threads.is_empty() {
            "idle pollers: none (cpus not split)".to_string()
        } else {
            format!("idle pollers: SCHED_IDLE spinner on cpus {cpus:?}")
        };
        (IdlePollers { stop, threads }, note)
    }
}

impl Drop for IdlePollers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A poller that never entered the idle class returned `false`
            // long ago; a panicked one has nothing to report either.
            let _ = t.join();
        }
    }
}
