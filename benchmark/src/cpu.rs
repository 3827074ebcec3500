//! Where a workload's threads run. Workloads in which one caller thread
//! does the work are pinned to one CPU; those that fan out over the pool or
//! the shards get two CPUs, both held awake (README, "Noise", has the
//! measurements behind both choices). The three scheduler calls come straight from the C
//! library `std` already links, so no crate is added.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];
/// `SCHED_IDLE` of `<sched.h>`: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    /// `param` points at a `struct sched_param`, which is one `int`.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

fn check(ret: i32) -> io::Result<()> {
    if ret == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable `cpu_set_t` of the size passed.
    let got = check(unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) });
    got.expect("sched_getaffinity on the calling thread");
    (0..set.len() * 64)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to `cpus`.
fn pin(cpus: &[usize]) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    check(unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &set) })
}

/// Runs the calling thread, and every thread it spawns afterwards, on the
/// last `n` of `cpus` (interrupts and background work favour the first),
/// held awake while the guard lives when there is more than one.
pub fn place(cpus: &[usize], n: usize) -> io::Result<Option<KeepAwake>> {
    let mine = &cpus[cpus.len() - n..];
    pin(mine)?;
    match n {
        1 => Ok(None),
        _ => KeepAwake::on(mine).map(Some),
    }
}

/// One spinning `SCHED_IDLE` thread per CPU, until dropped.
///
/// Why: this guest halts an idle vCPU, a halted vCPU counts as preempted,
/// and the guest scheduler then keeps new threads off it for about a
/// second — while the threads `par_map` and `NotifyPool::new` spawn live
/// for milliseconds. Left alone, a 2-thread section ran at 2-core speed in
/// one process and at serial speed in the next (4 MiB zstd frame encode
/// 52 ms or 100 ms). A thread that spins at idle priority keeps the vCPU
/// awake and gives way at once to anything runnable: with it the same
/// section took 51–52 ms in every process, and single-thread sections
/// beside it did not slow.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn on(cpus: &[usize]) -> io::Result<Self> {
        let mut awake = KeepAwake {
            stop: Arc::new(AtomicBool::new(false)),
            spinners: Vec::new(),
        };
        for &cpu in cpus {
            let stop = Arc::clone(&awake.stop);
            let (ready, is_ready) = mpsc::channel();
            awake.spinners.push(std::thread::spawn(move || {
                // SAFETY: pid 0 is the calling thread; the parameter is a
                // valid `sched_param` with the only priority the policy has.
                let idle = || check(unsafe { sched_setscheduler(0, SCHED_IDLE, &0) });
                let set_up = pin(&[cpu]).and_then(|()| idle());
                let spin = set_up.is_ok();
                let _ = ready.send(set_up);
                while spin && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
            // On an error the spinners started so far stop when `awake` drops.
            is_ready
                .recv()
                .expect("the spinner reports before it ends")?;
        }
        Ok(awake)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_calling_thread_and_its_children() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        let last = cpus[cpus.len() - 1];
        pin(&[last]).unwrap();
        assert_eq!(allowed(), [last]);
        assert_eq!(std::thread::spawn(allowed).join().unwrap(), [last]);
        // An empty set is the kernel's to refuse.
        assert!(pin(&[]).is_err());
    }

    #[test]
    fn spinners_start_and_stop() {
        let cpus = allowed();
        let awake = place(&cpus, cpus.len()).unwrap();
        // One CPU needs nobody to hold it awake.
        assert_eq!(awake.map_or(1, |a| a.spinners.len()), cpus.len());
        // The spinners pinned themselves, not this thread.
        assert_eq!(allowed(), cpus);
    }
}
