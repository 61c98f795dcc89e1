//! The daemon under test: `tpn serve` in a child process, configured
//! exactly as its command line defaults configure it.

use std::ffi::{c_int, c_ulong};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::http::{self, Conn};

pub struct Daemon {
    child: Child,
    /// Held open so the daemon's later writes to standard output succeed.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start `tpn serve` on an ephemeral loopback port and wait until it
    /// announces its address (it is accepting connections from then on).
    pub fn start(tpn: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(tpn);
        cmd.args(["serve", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        die_with_parent(&mut cmd);
        let mut child = cmd.spawn().map_err(|e| format!("{}: {e}", tpn.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line).map(|_| {
            line.split("http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|addr| addr.parse().ok())
        });
        match announced {
            Ok(Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            other => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "tpn serve did not announce an address: {other:?} {line:?}"
                ))
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// `GET path` on a fresh connection; the body of a 200 response.
    pub fn get(&self, path: &str) -> Result<String, String> {
        let mut conn = Conn::open(self.addr).map_err(|e| format!("connect: {e}"))?;
        let r = conn.round_trip(&http::get(path))?;
        let body = String::from_utf8(r.body).map_err(|_| format!("GET {path}: non-UTF-8 body"))?;
        match r.status {
            200 => Ok(body),
            s => Err(format!("GET {path}: status {s}: {body}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

/// Have the kernel kill the child if this process dies first, so a
/// benchmark killed mid-run leaves no daemon behind.
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;
    // SAFETY: the hook runs in the forked child before `exec`, touches no
    // memory shared with the parent and makes one async-signal-safe
    // system call whose variadic argument is the `unsigned long` prctl
    // expects for PR_SET_PDEATHSIG.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        });
    }
}
