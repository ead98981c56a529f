//! Placement of the measured thread on the host's CPUs.
//!
//! The host is shared, and each of its CPUs switches between a fast and a
//! slower state, about 1.5 times apart, as the other tenants' load moves.
//! One CPU can stay in its slow state for longer than a whole run while
//! another is fast. Before each repetition the benchmark therefore times a
//! fixed loop on every CPU it may use and pins its thread to the fastest.
//! Threads a repetition starts (the server's threads, the shard engine's
//! apply lanes) inherit that CPU, so a query round trip stays two local
//! context switches.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on.
pub fn allowed() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a valid, writable `cpu_set_t` of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024)
        .filter(|&cpu| set.0[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`.
fn pin(cpu: usize) {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t` of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(rc, 0, "sched_setaffinity({cpu}) failed");
}

/// Best of three runs of a fixed ~1 ms loop on the current CPU.
fn probe() -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..400_000u64 {
                x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
            }
            black_box(x);
            start.elapsed()
        })
        .min()
        .expect("three probes")
}

/// Times the probe on each of `cpus` and leaves the calling thread pinned
/// to the fastest; returns it.
pub fn pin_fastest(cpus: &[usize]) -> usize {
    let (_, cpu) = cpus
        .iter()
        .map(|&cpu| {
            pin(cpu);
            (probe(), cpu)
        })
        .min()
        .expect("at least one allowed CPU");
    pin(cpu);
    cpu
}
