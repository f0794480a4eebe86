//! What the harness asks of the host: a speed stamp, CPU pinning, peak
//! memory, and a scratch directory that never outlives the run.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats;

/// The repo's calibration loop (`repro sweep` uses the same one): a
/// fixed 20M-step integer mixing chain, best of three, in milliseconds.
/// Stamped into every result so rows from different boxes compare.
pub fn calib_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        let mut x: u64 = 0x9E37_79B9;
        for i in 0..20_000_000u64 {
            x ^= i;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
        }
        std::hint::black_box(x);
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Median round trip of one byte over a 127.0.0.1 TCP connection with
/// `TCP_NODELAY`, in microseconds: the floor under every frame exchange
/// of the live service.
pub fn loopback_rtt_us() -> Result<f64, String> {
    const ROUND_TRIPS: usize = 400;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("rtt bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("rtt addr: {e}"))?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        // Ends with the client's close (read_exact fails on EOF).
        while peer.read_exact(&mut byte).is_ok() {
            peer.write_all(&byte)?;
        }
        Ok(())
    });
    let result = (|| -> std::io::Result<f64> {
        let mut client = TcpStream::connect(addr)?;
        client.set_nodelay(true)?;
        let mut byte = [0x5Au8; 1];
        let mut samples = Vec::with_capacity(ROUND_TRIPS);
        for i in 0..ROUND_TRIPS + 20 {
            let started = Instant::now();
            client.write_all(&byte)?;
            client.read_exact(&mut byte)?;
            // The first exchanges pay connection warm-up.
            if i >= 20 {
                samples.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(stats::median(&samples))
    })();
    let echoed = echo.join().map_err(|_| "rtt echo thread panicked")?;
    let rtt = result.map_err(|e| format!("rtt client: {e}"))?;
    echoed.map_err(|e| format!("rtt echo: {e}"))?;
    Ok(rtt)
}

/// Speed stamp of the host at one instant.
#[derive(Debug, Clone, Copy)]
pub struct HostStamp {
    /// [`calib_ms`].
    pub calib_ms: f64,
    /// [`loopback_rtt_us`].
    pub loopback_rtt_us: f64,
}

impl HostStamp {
    /// Measures both figures now.
    pub fn measure() -> Result<Self, String> {
        Ok(HostStamp {
            calib_ms: calib_ms(),
            loopback_rtt_us: loopback_rtt_us()?,
        })
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread. The kernel writes at
        // most `cpusetsize` bytes into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of exactly the size passed and
        // is only read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

/// The calling thread's CPU affinity, restored on request. Threads
/// spawned later inherit whatever the spawning thread has at that time.
#[derive(Debug)]
pub struct Pinning {
    #[cfg(target_os = "linux")]
    original: Option<affinity::CpuSet>,
    /// Whether the thread now runs on exactly one CPU.
    pub pinned: bool,
}

impl Pinning {
    /// Pins the calling thread to the highest-numbered CPU it is allowed
    /// on (CPU 0 tends to take the interrupts). Warns loudly on failure:
    /// an unpinned `svc-loopback` swings several-fold run to run.
    pub fn pin_to_one_cpu() -> Pinning {
        #[cfg(target_os = "linux")]
        {
            let original = affinity::get();
            let pinned = original.is_some_and(|set| {
                let cpu = (0..1024usize)
                    .rev()
                    .find(|&c| set[c / 64] >> (c % 64) & 1 == 1);
                cpu.is_some_and(|c| {
                    let mut one: affinity::CpuSet = [0; 16];
                    one[c / 64] = 1 << (c % 64);
                    affinity::set(&one)
                })
            });
            if !pinned {
                warn_unpinned();
            }
            Pinning { original, pinned }
        }
        #[cfg(not(target_os = "linux"))]
        {
            warn_unpinned();
            Pinning { pinned: false }
        }
    }

    /// Gives the calling thread its original affinity back.
    pub fn unpin(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(original) = &self.original {
            if affinity::set(original) {
                self.pinned = false;
            }
        }
    }

    /// Pins again after [`Pinning::unpin`].
    pub fn repin(&mut self) {
        *self = Pinning::pin_to_one_cpu();
    }
}

fn warn_unpinned() {
    eprintln!(
        "WARNING: ********************************************************\n\
         WARNING: could not pin to one CPU (sched_setaffinity failed).\n\
         WARNING: svc-loopback throughput is NOT comparable across runs:\n\
         WARNING: cross-CPU wake-ups, not the program, will set its time.\n\
         WARNING: ********************************************************"
    );
}

/// Confines glibc malloc to its main arena, for a repeatable peak RSS.
///
/// `run_sweep` starts a fresh worker thread per phase, and
/// `std::thread::scope` returns when a worker's closure ends, not when
/// its OS thread has exited — so whether the next worker inherits the
/// previous one's arena or opens a new one is a race. Measured on
/// `closed-mixed` at one seed: 84.3 MiB or 97.6 MiB, about one run in
/// six the lower. With one arena every run reads the same. The setting
/// is the harness's, applied alike to every commit measured; it is a
/// no-op off glibc.
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// `M_ARENA_MAX` of glibc's `<malloc.h>`.
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes two plain integers and only records
        // the limit; it is called once, from `main`, before any other
        // thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The benchmark package's directory: where it was built, which is
/// where `cargo run` runs it from.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand: the only place the harness
/// writes.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A unique scratch directory under `benchmark/out/`, removed when the
/// guard drops — on success, on an error return, and on a panic that
/// unwinds.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `out/scratch-<tag>-<pid>-<nanos>/`.
    pub fn create(tag: &str) -> Result<Scratch, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = out_dir()?.join(format!("scratch-{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful to do with a failure here; the directory is
        // under the ignored out/ tree either way.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_directory_disappears_on_drop_and_on_unwind() {
        let kept;
        {
            let s = Scratch::create("test").unwrap();
            kept = s.path().to_path_buf();
            std::fs::write(kept.join("f"), b"x").unwrap();
            assert!(kept.is_dir());
        }
        assert!(!kept.exists());

        let seen = std::sync::Mutex::new(None);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let s = Scratch::create("panic").unwrap();
            *seen.lock().unwrap() = Some(s.path().to_path_buf());
            panic!("boom");
        }));
        assert!(caught.is_err());
        let path = seen.lock().unwrap().take().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn peak_rss_and_rtt_read_as_positive_numbers() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(loopback_rtt_us().unwrap() > 0.0);
    }
}
