//! CPU placement for the client and server threads.
//!
//! On a small box the scheduler otherwise moves the client thread and the
//! server's worker between sharing one CPU and running on two, and the
//! per-call latency is bimodal across runs. The benchmark pins the client
//! thread to the first CPU the process may use and spawns the server from
//! a thread pinned to the second, so every server thread inherits that
//! mask. With a single allowed CPU both sides share it.

use std::io;

/// Bits in the affinity mask passed to the kernel (glibc's `cpu_set_t`).
const MASK_WORDS: usize = 1024 / 64;

mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Which CPU each side of the loopback conversation runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// CPU of the client thread (the thread that runs the call loop).
    pub client_cpu: usize,
    /// CPU of every server thread.
    pub server_cpu: usize,
}

impl Placement {
    /// Whether client and server share one CPU (the one-CPU fallback).
    pub fn shared(&self) -> bool {
        self.client_cpu == self.server_cpu
    }
}

/// The placement for a process allowed to run on `allowed` (ascending CPU
/// ids): client on the first, server on the second, or both on the only
/// one. `None` for an empty set.
pub fn plan(allowed: &[usize]) -> Option<Placement> {
    let client_cpu = *allowed.first()?;
    let server_cpu = allowed.get(1).copied().unwrap_or(client_cpu);
    Some(Placement {
        client_cpu,
        server_cpu,
    })
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect())
}

/// Restrict the calling thread to `cpu`. Threads it spawns afterwards
/// inherit the mask.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu id beyond the affinity mask",
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Run `f` on a fresh thread pinned to `cpu` and return its result — how
/// the server is spawned so that all of its threads inherit that CPU.
pub fn on_cpu<T: Send>(cpu: usize, f: impl FnOnce() -> io::Result<T> + Send) -> io::Result<T> {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_current_thread(cpu)?;
            f()
        })
        .join()
        .map_err(|_| io::Error::other("pinned spawner thread panicked"))?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cpus_split_client_and_server() {
        let p = plan(&[3, 5, 7]).unwrap();
        assert_eq!(p.client_cpu, 3);
        assert_eq!(p.server_cpu, 5);
        assert!(!p.shared());
    }

    #[test]
    fn one_cpu_mask_puts_everything_on_it() {
        let p = plan(&[2]).unwrap();
        assert_eq!(p.client_cpu, 2);
        assert_eq!(p.server_cpu, 2);
        assert!(p.shared());
    }

    #[test]
    fn empty_mask_has_no_placement() {
        assert_eq!(plan(&[]), None);
    }

    #[test]
    fn pinned_thread_sees_its_own_mask() {
        let allowed = allowed_cpus().unwrap();
        let cpu = *allowed.last().unwrap();
        let seen = on_cpu(cpu, allowed_cpus).unwrap();
        assert_eq!(seen, vec![cpu]);
        // The caller's own mask is untouched.
        assert_eq!(allowed_cpus().unwrap(), allowed);
    }
}
