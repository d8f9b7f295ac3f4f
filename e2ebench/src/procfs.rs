//! Process and host readings from `/proc`: CPU time, peak memory, host
//! steal time and run-queue wait. They tell a run slowed by the host apart
//! from a slow program.

use std::collections::BTreeMap;
use std::fs;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Clock ticks per second of the `/proc` time columns (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, exited threads included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host-wide steal seconds so far, summed over CPUs (the `steal` column of
/// `/proc/stat`): time this VM's CPUs were runnable but the hypervisor ran
/// someone else.
pub fn steal_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |t| t / TICKS_PER_S)
}

/// Run-queue wait (ns) of every live thread of this process, keyed by
/// thread id, from `/proc/self/task/*/schedstat` (second column).
fn runq_wait_by_thread() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let wait = fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok());
        if let Some(wait) = wait {
            out.insert(tid, wait);
        }
    }
    out
}

fn own_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Run-queue wait (ns) of the calling thread.
fn own_runq_wait() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Measures run-queue wait over a phase. Single-threaded phases read the
/// calling thread's counter at both ends. Multi-threaded phases poll every
/// thread of the process every 50 ms from a helper thread (left out of the
/// sum), so threads that exit before the end still count.
pub struct RunqSampler {
    own_start: u64,
    poller: Option<(mpsc::Sender<()>, thread::JoinHandle<f64>)>,
}

impl RunqSampler {
    /// Starts measuring; `all_threads` follows every thread, not only the
    /// caller.
    pub fn start(all_threads: bool) -> Self {
        let own_start = own_runq_wait();
        let poller = all_threads.then(|| {
            let base = runq_wait_by_thread();
            let (stop, stopped) = mpsc::channel::<()>();
            let handle = thread::spawn(move || {
                let me = own_tid();
                let mut latest: BTreeMap<u64, u64> = BTreeMap::new();
                loop {
                    for (tid, wait) in runq_wait_by_thread() {
                        if Some(tid) != me {
                            latest.insert(tid, wait);
                        }
                    }
                    if stopped.recv_timeout(Duration::from_millis(50))
                        != Err(mpsc::RecvTimeoutError::Timeout)
                    {
                        break;
                    }
                }
                let ns: u64 = latest
                    .iter()
                    .map(|(tid, w)| w.saturating_sub(base.get(tid).copied().unwrap_or(0)))
                    .sum();
                ns as f64 / 1e9
            });
            (stop, handle)
        });
        Self { own_start, poller }
    }

    /// Stops measuring and returns the run-queue wait in seconds.
    pub fn finish(self) -> f64 {
        match self.poller {
            Some((stop, handle)) => {
                // A send error means the poller already ended; join reports it.
                let _ = stop.send(());
                handle.join().expect("run-queue poller panicked")
            }
            None => own_runq_wait().saturating_sub(self.own_start) as f64 / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_finite_and_plausible() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(steal_seconds() >= 0.0);
        for all_threads in [false, true] {
            assert!(RunqSampler::start(all_threads).finish() >= 0.0);
        }
    }
}
