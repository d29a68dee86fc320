//! Spawning one repro binary and measuring what it cost: wall time,
//! time to its first stdout line, and — from `wait4(2)` — the child's
//! own CPU time and peak resident set.

use std::ffi::{c_int, c_long};
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One finished child.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Exited normally with status 0.
    pub success: bool,
    /// Everything it printed to stdout.
    pub stdout: String,
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// Spawn to the first stdout line (every repro binary prints its
    /// `#` header before any simulation), in seconds.
    pub setup_s: f64,
    /// User plus system CPU time of the child, in seconds.
    pub cpu_s: f64,
    /// Peak resident set of the child, in MiB.
    pub peak_rss_mb: f64,
}

/// Runs `program args…` in `dir` (stderr to `dir/child.stderr`) and
/// reaps it.
///
/// # Errors
///
/// Spawn, pipe and `wait4` failures. The child is always reaped before
/// this returns.
pub fn run(program: &Path, args: &[String], dir: &Path) -> io::Result<ChildRun> {
    let stderr = std::fs::File::create(dir.join("child.stderr"))?;
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()?;
    let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut stdout = Vec::new();
    let read = reader
        .read_until(b'\n', &mut stdout)
        .map(|_| start.elapsed().as_secs_f64())
        .and_then(|setup_s| reader.read_to_end(&mut stdout).map(|_| setup_s));
    // Close the pipe before reaping, so a child still writing after a
    // failed read gets EPIPE instead of blocking forever.
    drop(reader);
    let reaped = reap(child.id());
    let wall_s = start.elapsed().as_secs_f64();
    let setup_s = read?;
    let (status, usage) = reaped?;
    let seconds = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(ChildRun {
        success: status == 0,
        stdout: String::from_utf8_lossy(&stdout).into_owned(),
        wall_s,
        setup_s,
        cpu_s: seconds(usage.ru_utime) + seconds(usage.ru_stime),
        // Linux reports ru_maxrss in KiB.
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
    })
}

/// `struct timeval` on Linux.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s of
/// which only the first (`ru_maxrss`) is read.
#[repr(C)]
#[derive(Debug, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Blocks until child `pid` exits; returns its raw wait status (0 for a
/// clean exit) and resource usage.
fn reap(pid: u32) -> io::Result<(c_int, Rusage)> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed and
        // laid out as the `int` and `struct rusage` that wait4(2) writes
        // on Linux; `pid` names this process's own child, which nothing
        // else reaps (std's `Child` only waits when asked to).
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_child_and_its_exit_status() {
        let dir = std::env::temp_dir().join(format!("utrr-benchmark-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = |s: &str| vec!["-c".to_string(), s.to_string()];
        let ok = run(Path::new("/bin/sh"), &script("echo first; echo second"), &dir).unwrap();
        assert!(ok.success);
        assert_eq!(ok.stdout, "first\nsecond\n");
        assert!(ok.setup_s <= ok.wall_s && ok.wall_s > 0.0);
        assert!(ok.peak_rss_mb > 0.0);
        let failed = run(Path::new("/bin/sh"), &script("echo x; exit 3"), &dir).unwrap();
        assert!(!failed.success);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
