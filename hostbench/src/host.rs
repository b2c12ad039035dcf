//! What the benchmark reads about the host it runs on: process CPU time,
//! peak resident set, the host's current speed, and the stamp every output
//! carries; and the one thing it sets, the CPU the whole process runs on.

/// Pin the calling thread, and so every thread it starts later, to the
/// one CPU it is running on now. Returns that CPU, or `None` where the
/// platform refuses.
///
/// Only one simulated-node thread is runnable at any instant, so one CPU
/// is all a cell can use. Left free to migrate, a woken thread lands on
/// whichever CPU is idle, and on a virtual machine waking an idle virtual
/// CPU waits on the host's scheduler: that wait changes with the load of
/// other guests, and on this benchmark it swung wall time by a quarter run
/// to run. On one CPU a handoff is a plain context switch, and host time
/// is the simulator's own work.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments; it returns -1 on error.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, full-size `cpu_set_t`, only read by the
    // call; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// Words in the table the reference loop writes: 1 MiB, past the
/// first- and second-level caches of common CPUs.
pub const REF_TABLE_WORDS: usize = 1 << 17;

/// Seconds a fixed reference loop takes on this host now.
///
/// A shared host's speed drifts: a plain integer loop pinned to one CPU
/// ran up to a quarter slower for tens of seconds at a time, and the
/// simulator's passes moved with it. Timed between the same passes, this
/// loop moves the same way, so a pass time divided by it keeps what the
/// simulator costs and drops what the host's other load costs. The loop
/// mixes the two kinds of work the workloads do: dependent integer
/// arithmetic, and random read-modify-writes over `table`.
pub fn reference_loop_s(table: &mut [u64]) -> f64 {
    debug_assert!(table.len().is_power_of_two());
    let t0 = std::time::Instant::now();
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..16_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i].wrapping_mul(31).wrapping_add(x);
    }
    let mut acc: u64 = 0;
    for i in 1..10_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x % i);
    }
    std::hint::black_box((table, acc));
    t0.elapsed().as_secs_f64()
}

/// Process-wide user and system CPU seconds so far, all threads included
/// (`utime` and `stime` of `/proc/self/stat`, in clock ticks of 1/100 s).
/// Zero where the file does not exist.
pub fn cpu_times() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name may hold spaces; the fields after it do not.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |i: usize| -> f64 {
        after
            .split_whitespace()
            .nth(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map_or(0.0, |ticks| ticks as f64 / 100.0)
    };
    // After the command name: state is field 3 of the file, so utime
    // (field 14) and stime (field 15) are the 12th and 13th here.
    (field(11), field(12))
}

/// Peak resident set (`VmHWM`) in MiB; 0 where the platform has none.
pub fn peak_rss_mib() -> f64 {
    vopp_bench::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// One line naming the host and the run settings that shape host time.
/// Taken before the process is pinned, so `nproc` counts every CPU.
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    format!(
        "host: nproc={nproc} rustc=\"{}\" kernel={kernel} jobs=1 sim_workers=1",
        env!("HOSTBENCH_RUSTC")
    )
}
