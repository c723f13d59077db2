//! Child processes the benchmark starts: `tcm-run` sweeps and
//! `tcm-run serve` daemons.
//!
//! A child's exit is observed the moment it happens (`waitid` with
//! `WNOWAIT`, leaving it unreaped), and it is then reaped with `wait4`,
//! which reports its peak resident set (the figure `VmHWM` shows)
//! without polling `/proc` while it runs. Because the child stays
//! unreaped until the timeout watchdog has been joined, the watchdog's
//! SIGKILL can never reach a recycled pid. A [`Proc`] that goes out of
//! scope unreaped is killed and reaped, so no run leaves a process
//! behind.

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, Command, ExitStatus};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

/// `siginfo_t`: 128 bytes, contents unused.
#[repr(C)]
struct SigInfo([u64; 16]);

const WNOHANG: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const P_PID: u32 = 1;
const SIGKILL: i32 = 9;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn waitid(idtype: u32, id: u32, info: *mut SigInfo, options: i32) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
    fn syncfs(fd: i32) -> i32;
}

/// Writes back every dirty page of the filesystem holding `dir`, so that
/// a timed fsync that follows does not wait for earlier, unrelated
/// writes.
pub fn flush_filesystem(dir: &std::path::Path) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    let handle = std::fs::File::open(dir)?;
    // SAFETY: plain syscall on a descriptor that `handle` keeps open.
    if unsafe { syncfs(handle.as_raw_fd()) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// How a child ended, with its peak resident set.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub status: ExitStatus,
    pub peak_rss_mib: f64,
}

pub struct Proc {
    child: Child,
    reaped: bool,
}

fn interrupted(rc: i32) -> io::Result<bool> {
    if rc >= 0 {
        return Ok(false);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(true)
    } else {
        Err(err)
    }
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> io::Result<Self> {
        Ok(Self {
            child: cmd.spawn()?,
            reaped: false,
        })
    }

    fn pid(&self) -> io::Result<i32> {
        if self.reaped {
            return Err(io::Error::other("child already reaped"));
        }
        i32::try_from(self.child.id()).map_err(io::Error::other)
    }

    /// Reaps the child if it has exited (`block = false`) or once it
    /// exits (`block = true`).
    fn reap(&mut self, block: bool) -> io::Result<Option<Exit>> {
        let pid = self.pid()?;
        let mut status = 0i32;
        let mut usage = RUsage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable and laid
            // out as wait4(2) expects on 64-bit Linux; `pid` is our own
            // unreaped child, so no other process can be reaped.
            let rc = unsafe {
                wait4(
                    pid,
                    &mut status,
                    if block { 0 } else { WNOHANG },
                    &mut usage,
                )
            };
            if interrupted(rc)? {
                continue;
            }
            if rc == 0 {
                return Ok(None);
            }
            self.reaped = true;
            return Ok(Some(Exit {
                status: ExitStatus::from_raw(status),
                peak_rss_mib: usage.maxrss_kib as f64 / 1024.0,
            }));
        }
    }

    /// Whether the child is still running (reaping it if it is not).
    pub fn running(&mut self) -> bool {
        !self.reaped && matches!(self.reap(false), Ok(None))
    }

    /// Waits up to `timeout` for the child to exit; past it the child
    /// is killed and the wait reports an error.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<Exit> {
        let pid = self.pid()?;
        let (stop, stopped) = mpsc::channel::<()>();
        let timed_out = std::thread::scope(|s| {
            let watchdog = s.spawn(move || {
                let fire = stopped.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout);
                if fire {
                    // SAFETY: plain syscall. The child cannot have been
                    // reaped yet: the waitid below leaves it a zombie,
                    // and wait4 runs only after this thread is joined.
                    unsafe { kill(pid, SIGKILL) };
                }
                fire
            });
            let mut info = SigInfo([0; 16]);
            let exited = loop {
                // SAFETY: `info` is a live, writable 128-byte siginfo_t;
                // WNOWAIT observes the exit without reaping the child.
                let rc = unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) };
                match interrupted(rc) {
                    Ok(true) => continue,
                    other => break other.map(|_| ()),
                }
            };
            drop(stop);
            let fired = watchdog.join().unwrap_or(true);
            exited.map(|()| fired)
        })?;
        let exit = self
            .reap(true)?
            .ok_or_else(|| io::Error::other("blocking wait4 returned no child"))?;
        if timed_out {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("child did not exit within {timeout:?}; killed"),
            ));
        }
        Ok(exit)
    }

    /// SIGKILLs the child and reaps it. An already reaped child's pid
    /// may belong to another process by now, so it is never signalled.
    pub fn kill(&mut self) -> io::Result<Exit> {
        self.pid()?;
        self.child.kill()?;
        self.reap(true)?
            .ok_or_else(|| io::Error::other("blocking wait4 returned no child"))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.kill();
        }
    }
}
