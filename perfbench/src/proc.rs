//! Child processes and the Linux `/proc` readings the metrics need: per-child
//! CPU time and peak RSS from `wait4`, a daemon's CPU time and `VmHWM`, and
//! this process's own RSS high-water mark.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const SC_CLK_TCK: c_int = 2;

/// One finished child process.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Spawn to reaped exit, including reading its output.
    pub wall: Duration,
    /// User plus system CPU time of the child.
    pub cpu: Duration,
    /// The child's peak resident set, in KiB.
    pub maxrss_kib: u64,
    /// Exit code 0.
    pub success: bool,
    pub stdout: String,
}

/// Runs `program args…` to completion with stdout written to `stdout_file`
/// and stderr passed through, and reaps it with `wait4` to read its own
/// resource usage. Stdout goes to a file rather than a pipe so this process
/// sleeps in `wait4` alone while the child runs, instead of waking for every
/// line the child writes.
pub fn run_child(program: &Path, args: &[&str], stdout_file: &Path) -> io::Result<ChildRun> {
    let out = File::create(stdout_file)?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .spawn()?;
    let pid = c_int::try_from(child.id()).expect("pids fit c_int");
    let mut status: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std only reaps in
        // `wait`/`try_wait`, which are never called on it), and `status` and
        // `usage` are live, writable and laid out as the kernel expects.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    let stdout = std::fs::read_to_string(stdout_file)?;
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Ok(ChildRun {
        wall,
        cpu: Duration::from_micros(micros(&usage.utime) + micros(&usage.stime)),
        maxrss_kib: usage.maxrss as u64,
        success: status == 0,
        stdout,
    })
}

/// A spawned daemon that is killed and reaped when dropped, so no exit path
/// of the benchmark leaves it running.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's later writes to stdout cannot fail.
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `program args…` and returns it with its first line of stdout.
    pub fn spawn(program: &Path, args: &[&str]) -> io::Result<(Daemon, String)> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        Ok((daemon, line))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `kB` field of `/proc/<pid>/status`, in KiB.
pub fn status_kib(pid: &str, field: &str) -> io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| io::Error::other(format!("no {field} in /proc/{pid}/status")))
}

/// User plus system CPU time of a whole process (every thread, live or
/// exited), from `/proc/<pid>/stat`.
pub fn process_cpu(pid: u32) -> io::Result<Duration> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after it.
    let after = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    // SAFETY: sysconf only reads a configuration value.
    let per_second = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    let total = ticks(11)? + ticks(12)?;
    Ok(Duration::from_nanos(total * 1_000_000_000 / per_second))
}

/// Resets this process's RSS high-water mark, so the next `VmHWM` reading
/// covers only what runs after this call. Returns false where the kernel
/// refuses; `VmHWM` then covers the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
