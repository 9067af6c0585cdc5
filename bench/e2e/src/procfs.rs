//! Reads a live process's CPU, scheduler wait and peak memory from
//! `/proc`, at workload boundaries only (never inside a timed request).

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (the
/// Linux `USER_HZ`, fixed at 100 on every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

/// CPU and run-queue wait of one group of threads, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadTimes {
    /// Time on a CPU.
    pub cpu_s: f64,
    /// Time runnable but waiting for a CPU.
    pub runq_s: f64,
}

impl ThreadTimes {
    fn add(&mut self, other: Self) {
        self.cpu_s += other.cpu_s;
        self.runq_s += other.runq_s;
    }

    /// `self − earlier`, per job.
    #[must_use]
    pub fn per_job_since(self, earlier: Self, jobs: usize) -> Self {
        let jobs = jobs.max(1) as f64;
        Self {
            cpu_s: (self.cpu_s - earlier.cpu_s) / jobs,
            runq_s: (self.runq_s - earlier.runq_s) / jobs,
        }
    }
}

/// One reading of the server process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User + system CPU of the whole process, exited threads included.
    pub process_cpu_s: f64,
    /// Live `abs-http-*` threads (accept workers and handlers).
    pub http: ThreadTimes,
    /// Live `abs-solver-*` threads (the host poll loop of each session).
    pub solver: ThreadTimes,
    /// Every other live thread (the accept loop).
    pub rest: ThreadTimes,
}

impl ProcSample {
    /// Process CPU not spent on a named server thread: the per-job device
    /// threads, which exit before any boundary reading could see them.
    #[must_use]
    pub fn device_cpu_s(&self) -> f64 {
        (self.process_cpu_s - self.http.cpu_s - self.solver.cpu_s - self.rest.cpu_s).max(0.0)
    }
}

/// Reads `/proc/<pid>/stat` and every task's `comm` and `schedstat`.
///
/// # Errors
/// Any `/proc` read failure (the process has exited).
pub fn sample(pid: u32) -> std::io::Result<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let mut out = ProcSample {
        process_cpu_s: stat_cpu_s(&stat).ok_or_else(|| bad(&stat))?,
        ..ProcSample::default()
    };
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let dir = task?.path();
        // A task can exit between listing and reading; skip it.
        let (Ok(comm), Ok(sched)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let times = schedstat(&sched).ok_or_else(|| bad(&sched))?;
        let comm = comm.trim();
        if comm.starts_with("abs-http-") {
            out.http.add(times);
        } else if comm.starts_with("abs-solver-") {
            out.solver.add(times);
        } else {
            out.rest.add(times);
        }
    }
    Ok(out)
}

/// Peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The opening thread's CPU clock, kept open so each reading costs one
/// `pread` instead of an open, read and close.
pub struct ThreadClock(fs::File);

impl ThreadClock {
    /// Opens the calling thread's `schedstat`.
    ///
    /// # Errors
    /// `/proc` is unavailable.
    pub fn open() -> std::io::Result<Self> {
        fs::File::open("/proc/thread-self/schedstat").map(Self)
    }

    /// CPU time of the thread that opened the clock, in seconds. The
    /// kernel folds the running slice in at each tick or context switch,
    /// so a reading may lag by one scheduler tick. (Yielding first would
    /// make it exact, but a yield hands the CPU to the device workers and
    /// changes the very loop being measured.)
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        use std::os::unix::fs::FileExt as _;
        let mut buf = [0u8; 96];
        let n = self.0.read_at(&mut buf, 0).unwrap_or(0);
        std::str::from_utf8(&buf[..n])
            .ok()
            .and_then(schedstat)
            .map_or(0.0, |t| t.cpu_s)
    }
}

fn bad(text: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unparseable /proc record {text:?}"),
    )
}

/// `utime + stime` from a `stat` line. The command name may hold spaces
/// and parentheses, so fields are counted after the last `)`.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// `schedstat`: nanoseconds on CPU, nanoseconds waiting, timeslices.
fn schedstat(text: &str) -> Option<ThreadTimes> {
    let mut f = text.split_whitespace();
    let cpu: u64 = f.next()?.parse().ok()?;
    let wait: u64 = f.next()?.parse().ok()?;
    Some(ThreadTimes {
        cpu_s: cpu as f64 * 1e-9,
        runq_s: wait as f64 * 1e-9,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "42 (abs (x) y) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 9 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
        assert!(schedstat("1500000000 500000000 7\n").is_some_and(|t| t.cpu_s == 1.5));
    }

    #[test]
    fn reads_this_process() {
        let s = sample(std::process::id()).unwrap();
        assert!(s.rest.cpu_s > 0.0);
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        let clock = ThreadClock::open().unwrap();
        let before = clock.cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(clock.cpu_s() > before);
    }
}
