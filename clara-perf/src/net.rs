//! The daemon under test and the client connections that drive it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use clara_repro::serve::transport;
use serde::Value;

/// Socket reads give up after this long, so a wedged daemon fails the
/// run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Environment the program under test must not inherit: each would add
/// work (report files, disk cache, injected faults) the benchmark does
/// not measure.
pub const SCRUBBED_ENV: [&str; 3] = ["CLARA_REPORT", "CLARA_CACHE_DIR", "CLARA_FAULTS"];

/// Engine workers for every process under test.
pub const THREADS: &str = "2";

/// A `clara` command with the benchmark's environment.
pub fn clara_command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for k in SCRUBBED_ENV {
        cmd.env_remove(k);
    }
    cmd.env("CLARA_THREADS", THREADS);
    cmd
}

/// One client connection: JSON lines over TCP or length-prefixed frames
/// over a Unix-domain socket.
pub enum Conn {
    /// Newline-delimited JSON.
    Tcp {
        /// Buffered read half.
        reader: BufReader<TcpStream>,
        /// Write half.
        writer: TcpStream,
        /// Reused request buffer (line plus newline, one write).
        out: Vec<u8>,
    },
    /// Length-prefixed frames.
    Uds {
        /// The stream.
        stream: UnixStream,
        /// Reused frame buffers.
        rbuf: Vec<u8>,
        /// Reused frame buffers.
        wbuf: Vec<u8>,
    },
}

impl Conn {
    /// Connects over TCP.
    pub fn tcp(addr: &str) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn::Tcp {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
            out: Vec::with_capacity(512),
        })
    }

    /// Connects over a Unix-domain socket.
    pub fn uds(path: &Path) -> io::Result<Conn> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn::Uds {
            stream: s,
            rbuf: Vec::with_capacity(4096),
            wbuf: Vec::with_capacity(512),
        })
    }

    /// One round trip: sends `line`, leaves the response (without its
    /// newline) in `resp`.
    pub fn call(&mut self, line: &str, resp: &mut String) -> io::Result<()> {
        match self {
            Conn::Tcp {
                reader,
                writer,
                out,
            } => {
                out.clear();
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
                writer.write_all(out)?;
                resp.clear();
                if reader.read_line(resp)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                if resp.ends_with('\n') {
                    resp.pop();
                }
                Ok(())
            }
            Conn::Uds { stream, rbuf, wbuf } => {
                transport::write_frame(stream, wbuf, line)?;
                match transport::read_frame(stream, rbuf)? {
                    Some(s) => {
                        *resp = s;
                        Ok(())
                    }
                    None => Err(io::ErrorKind::UnexpectedEof.into()),
                }
            }
        }
    }

    /// A round trip whose response must be `"ok":true` JSON.
    pub fn call_ok(&mut self, line: &str) -> Result<Value, String> {
        let mut resp = String::new();
        self.call(line, &mut resp)
            .map_err(|e| format!("{line}: {e}"))?;
        let v = serde_json::parse_value(&resp).map_err(|e| format!("{resp}: {e}"))?;
        if v.get("ok") != Some(&Value::Bool(true)) {
            return Err(format!("{line} -> {resp}"));
        }
        Ok(v)
    }
}

/// A running `clara serve` child. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    /// Banner source; kept open so the daemon never writes to a closed
    /// pipe.
    stdout: BufReader<ChildStdout>,
    /// Bound TCP address.
    addr: String,
    /// Unix-socket path, when the daemon listens on one.
    uds: Option<PathBuf>,
}

impl Daemon {
    /// Spawns `clara serve` on an ephemeral port with two workers and
    /// returns it with its cold-start time: spawn until the first `ok`
    /// reply to `op:"stats"`.
    pub fn start(
        bin: &Path,
        model: &Path,
        all_backends: bool,
        uds: Option<&Path>,
    ) -> Result<(Daemon, f64), String> {
        let mut cmd = clara_command(bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--model",
        ])
        .arg(model)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        if all_backends {
            cmd.args(["--backends", "all"]);
        }
        if let Some(p) = uds {
            cmd.arg("--uds").arg(p);
        }
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut d = Daemon {
            child,
            stdout,
            addr: String::new(),
            uds: uds.map(Path::to_path_buf),
        };
        // The banner names the ephemeral port; a second line follows
        // when the Unix socket is bound too.
        let mut banners = 1 + usize::from(uds.is_some());
        let mut line = String::new();
        while banners > 0 {
            line.clear();
            if d.stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("daemon exited before listening".to_string());
            }
            if let Some(rest) = line.trim().strip_prefix("clara-serve listening on ") {
                if !rest.starts_with("unix socket ") {
                    d.addr = rest.to_string();
                }
                banners -= 1;
            }
        }
        Conn::tcp(&d.addr)
            .map_err(|e| format!("connect {}: {e}", d.addr))?
            .call_ok(r#"{"v":1,"op":"stats"}"#)?;
        Ok((d, started.elapsed().as_secs_f64()))
    }

    /// Connects over TCP, or over the daemon's Unix socket.
    pub fn connect(&self, uds: bool) -> Result<Conn, String> {
        match (&self.uds, uds) {
            (Some(p), true) => Conn::uds(p).map_err(|e| format!("connect {}: {e}", p.display())),
            (None, true) => Err("daemon has no unix socket".to_string()),
            (_, false) => Conn::tcp(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr)),
        }
    }

    /// The live `stats` reply.
    pub fn stats(&self) -> Result<Value, String> {
        self.connect(false)?.call_ok(r#"{"v":1,"op":"stats"}"#)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the daemon, waits for it to exit, and returns the counters
    /// of the deterministic run report its drain reply embeds.
    pub fn drain(mut self) -> Result<Value, String> {
        let mut reply = String::new();
        self.connect(false)?
            .call(r#"{"v":1,"op":"drain"}"#, &mut reply)
            .map_err(|e| format!("drain: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        drained_counters(&reply)
    }
}

/// The `counters` object of a drain reply's report. The daemon can exit
/// before it has written all of a large reply (its connection threads
/// are detached), so only the reply's head is trusted: the counters lead
/// the report, ahead of the span tree that makes replies large.
pub fn drained_counters(reply: &str) -> Result<Value, String> {
    let head = |n: usize| reply.chars().take(n).collect::<String>();
    if !reply.starts_with(r#"{"v":1,"ok":true,"op":"drain""#) {
        return Err(format!("drain refused: {}", head(200)));
    }
    let key = r#""report":{"counters":"#;
    let start = reply
        .find(key)
        .ok_or_else(|| format!("drain reply without counters: {}", head(200)))?
        + key.len();
    let end = reply[start..]
        .find('}')
        .map(|e| start + e + 1)
        .ok_or("drain reply cut inside its counters")?;
    serde_json::parse_value(&reply[start..end]).map_err(|e| format!("drain counters: {e}"))
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for pid {pid}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_counters_survive_a_cut_reply() {
        let full = r#"{"v":1,"ok":true,"op":"drain","served":3,"report":{"counters":{"place.resolves":7,"serve.cache.predict_hits":0},"gauges":{},"spans":[{"name":"x"}]}}"#;
        for cut in [full.len(), full.find("\"spans\"").expect("spans") + 12] {
            let c = drained_counters(&full[..cut]).expect("counters");
            assert_eq!(c.get("place.resolves"), Some(&Value::Int(7)));
        }
        assert!(drained_counters(&full[..60]).is_err());
        assert!(drained_counters(r#"{"v":1,"ok":false,"error":"draining"}"#).is_err());
    }

    #[test]
    fn peak_rss_of_this_process() {
        assert!(peak_rss_mb(std::process::id()).expect("VmHWM") > 0.0);
    }
}
