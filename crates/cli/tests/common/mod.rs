//! A live `dts serve` daemon for the end-to-end tests.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Kills the daemon child on drop so a failing assertion cannot leak it.
pub struct DaemonGuard {
    child: Child,
    pub addr: String,
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the daemon on port 0 and discovers the bound address from its
/// first stdout line.
pub fn spawn_daemon() -> DaemonGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dts"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dts serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on the listening line")
        .to_string();
    assert!(
        line.contains("listening on"),
        "unexpected first line: {line:?}"
    );
    DaemonGuard { child, addr }
}
