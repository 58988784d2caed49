//! `clara serve` answering `drain` over UDS, end to end as a subprocess.
//!
//! The drain reply carries the whole deterministic run report, which
//! outgrows the socket buffer once the daemon has served enough work.
//! The daemon must finish writing that frame to a slow reader before it
//! exits, and must still exit (within its bounded write timeout) when
//! the client never reads at all.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use clara_repro::clara::{Clara, ClaraConfig};
use clara_repro::serve::transport::{read_frame, write_frame};
use serde::Value;

/// Cheap cache misses: distinct trace seeds over a 16-packet trace.
const PREDICTS: u64 = 1500;

/// Comfortably above a Unix socket's default buffer (~208 KiB), so the
/// daemon's write of the drain reply must block on the reader.
const MIN_REPORT_BYTES: usize = 256 * 1024;

/// One model file for the binary: training dominates debug runtime.
fn model_path() -> &'static PathBuf {
    static MODEL: OnceLock<PathBuf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-drain-model.json");
        Clara::train(&ClaraConfig::fast(11))
            .expect("training succeeds")
            .save(&path)
            .expect("save model");
        path
    })
}

/// Starts `clara serve` on a fresh socket and waits for it to listen.
/// The daemon removes the socket file when it exits cleanly.
fn spawn_daemon(tag: &str) -> (Child, PathBuf) {
    let sock = std::env::temp_dir().join(format!(
        "clara-serve-drain-{}-{tag}.sock",
        std::process::id()
    ));
    let mut child = Command::new(env!("CARGO_BIN_EXE_clara"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--uds"])
        .arg(&sock)
        .arg("--model")
        .arg(model_path())
        .env_remove("CLARA_REPORT")
        .env_remove("CLARA_CACHE_DIR")
        .env_remove("CLARA_FAULTS")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn clara serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    loop {
        let line = lines
            .next()
            .expect("daemon exited before listening")
            .expect("read daemon stdout");
        if line.contains("listening on unix socket") {
            break;
        }
    }
    (child, sock)
}

fn request(conn: &mut UnixStream, buf: &mut Vec<u8>, line: &str) -> String {
    write_frame(conn, buf, line).expect("write request frame");
    read_frame(conn, buf)
        .expect("read reply frame")
        .expect("daemon closed the connection")
}

/// Serves [`PREDICTS`] distinct predicts, then sends `drain` without
/// reading its reply.
fn load_then_drain(sock: &std::path::Path) -> UnixStream {
    let mut conn = UnixStream::connect(sock).expect("connect to daemon");
    let mut buf = Vec::new();
    for seed in 0..PREDICTS {
        let reply = request(
            &mut conn,
            &mut buf,
            &format!(r#"{{"v":1,"op":"predict","nf":"udpcount","packets":16,"seed":{seed}}}"#),
        );
        assert!(reply.contains(r#""ok":true"#), "predict {seed}: {reply}");
    }
    write_frame(&mut conn, &mut buf, r#"{"v":1,"op":"drain"}"#).expect("send drain");
    conn
}

fn wait_exit(child: &mut Child, within: Duration) -> Option<std::process::ExitStatus> {
    let started = Instant::now();
    while started.elapsed() < within {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

#[test]
fn slow_reader_gets_the_whole_drain_report_before_exit() {
    let (mut child, sock) = spawn_daemon("slow");
    let mut conn = load_then_drain(&sock);
    // Read late: the daemon is blocked mid-frame by now.
    std::thread::sleep(Duration::from_secs(1));
    let mut buf = Vec::new();
    let reply = read_frame(&mut conn, &mut buf)
        .expect("read the whole drain frame")
        .expect("drain reply present");
    assert!(
        reply.len() > MIN_REPORT_BYTES,
        "the report ({} bytes) must outgrow the socket buffer for this test to mean anything",
        reply.len()
    );
    let v = serde_json::parse_value(&reply).expect("drain reply parses");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{reply:.200}");
    let served = match v.get("served") {
        Some(Value::Int(i)) => u64::try_from(*i).ok(),
        Some(Value::UInt(u)) => Some(*u),
        _ => None,
    };
    assert_eq!(served, Some(PREDICTS));
    assert!(v.get("report").is_some());
    let status = wait_exit(&mut child, Duration::from_secs(30)).expect("daemon exits after drain");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn a_client_that_never_reads_cannot_hold_shutdown() {
    let (mut child, sock) = spawn_daemon("mute");
    let conn = load_then_drain(&sock);
    let started = Instant::now();
    let status = wait_exit(&mut child, Duration::from_secs(30))
        .expect("the drain write times out and the daemon exits");
    assert_eq!(status.code(), Some(0));
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "exit took {:?}",
        started.elapsed()
    );
    drop(conn);
}
