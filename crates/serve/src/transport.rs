//! Transport ablation: TCP JSON-lines vs Unix-domain-socket frames.
//!
//! PnO-TCP's observation is that the kernel network stack, not the NF,
//! often dominates small-request latency. The serve daemon makes that
//! measurable by speaking the same JSON protocol over two transports:
//!
//! - **`tcp`** — newline-delimited JSON over `TcpStream` with
//!   `TCP_NODELAY`, each line read into one per-connection buffer, one
//!   `write` per response. The default; reachable over the network.
//! - **`uds`** — a `UnixStream` listener speaking **length-prefixed
//!   frames**: a 4-byte little-endian payload length followed by the
//!   JSON payload, no delimiter scan, reusable per-connection buffers,
//!   one `write` per frame. Local-only; skips the TCP/IP stack
//!   entirely.
//!
//! The payload bytes are identical on both: the codec is the only
//! difference, which the `clara-perf` harness's `hot-tcp` and `hot-uds`
//! workloads measure. On both, a request is at most [`MAX_REQUEST_LEN`]
//! bytes.

use std::io::{self, BufRead, Read, Write};

/// Frames larger than this are rejected as corrupt rather than
/// allocated: no legitimate request or response comes close.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Most bytes one request may carry on either transport: a request line
/// without its newline, or a request frame's payload. Every protocol
/// request is a few hundred bytes; the cap keeps one client from making
/// the daemon buffer without limit. Replies are bounded only by
/// [`MAX_FRAME_LEN`]: a drain reply runs to megabytes.
pub const MAX_REQUEST_LEN: usize = 64 * 1024;

/// Reads one length-prefixed frame into `buf` (reused across calls) and
/// returns the payload as UTF-8. `Ok(None)` is clean EOF (peer closed
/// between frames).
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` for oversized frames,
/// truncated payloads, or non-UTF-8 bytes.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Option<String>> {
    Ok(read_payload(r, buf, MAX_FRAME_LEN)?.map(str::to_string))
}

/// Reads one request frame into `buf` (reused across calls) and returns
/// its payload borrowed from `buf`. Like [`read_frame`], but a length
/// header above [`MAX_REQUEST_LEN`] is refused before any payload byte
/// is read.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` for an over-long length
/// header or non-UTF-8 bytes.
pub(crate) fn read_request_frame<'a>(
    r: &mut impl Read,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<&'a str>> {
    read_payload(r, buf, MAX_REQUEST_LEN)
}

fn read_payload<'a>(
    r: &mut impl Read,
    buf: &'a mut Vec<u8>,
    max: usize,
) -> io::Result<Option<&'a str>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {max}"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    match std::str::from_utf8(buf) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame payload is not UTF-8",
        )),
    }
}

/// Reads one request line into `buf` (reused across calls) and returns
/// it without its `\n` or `\r\n`, borrowed from `buf`. `Ok(None)` is
/// clean EOF; a last line without a newline still counts as a line.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` as soon as the line
/// outgrows [`MAX_REQUEST_LEN`] (the rest of it is left unread), or when
/// it is not UTF-8.
pub(crate) fn read_request_line<'a>(
    r: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<&'a str>> {
    buf.clear();
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            break;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > MAX_REQUEST_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("request line exceeds {MAX_REQUEST_LEN} bytes"),
            ));
        }
        buf.extend_from_slice(&chunk[..take]);
        r.consume(newline.map_or(take, |i| i + 1));
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            break;
        }
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request line is not UTF-8"))
}

/// Writes one length-prefixed frame. The prefix and payload are
/// assembled in `buf` (reused across calls) so the frame goes out in a
/// single `write_all` — no partial-frame interleaving, one syscall.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` for oversized payloads.
pub fn write_frame(w: &mut impl Write, buf: &mut Vec<u8>, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {} exceeds {MAX_FRAME_LEN}", bytes.len()),
        ));
    }
    buf.clear();
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
    w.write_all(buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_with_reused_buffers() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for payload in ["{\"v\":1,\"op\":\"stats\"}", "", "π frames are UTF-8"] {
            write_frame(&mut wire, &mut scratch, payload).expect("write");
        }
        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut r, &mut buf).expect("read").as_deref(),
            Some("{\"v\":1,\"op\":\"stats\"}")
        );
        assert_eq!(
            read_frame(&mut r, &mut buf).expect("read").as_deref(),
            Some("")
        );
        assert_eq!(
            read_frame(&mut r, &mut buf).expect("read").as_deref(),
            Some("π frames are UTF-8")
        );
        assert_eq!(read_frame(&mut r, &mut buf).expect("clean EOF"), None);
    }

    #[test]
    fn corrupt_frames_are_invalid_data_not_allocation() {
        // Oversized length prefix.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut buf = Vec::new();
        let err = read_frame(&mut wire.as_slice(), &mut buf).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated payload: prefix says 8, only 3 bytes follow.
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        let err = read_frame(&mut wire.as_slice(), &mut buf).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Non-UTF-8 payload.
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame(&mut wire.as_slice(), &mut buf).expect_err("bad UTF-8");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn request_lines_reuse_one_buffer_and_strip_line_ends() {
        let mut r = io::BufReader::with_capacity(8, "a\r\n\nbc\nlast".as_bytes());
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        while let Some(line) = read_request_line(&mut r, &mut buf).expect("read") {
            lines.push(line.to_string());
        }
        assert_eq!(lines, ["a", "", "bc", "last"]);
    }

    #[test]
    fn requests_over_the_cap_are_refused_before_buffering_them() {
        // A line one byte over the cap, with no newline yet: refused as
        // soon as it outgrows the cap, never waiting for the end.
        let long = vec![b'x'; MAX_REQUEST_LEN + 1];
        let mut buf = Vec::new();
        let err = read_request_line(&mut long.as_slice(), &mut buf).expect_err("over-long");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.len() <= MAX_REQUEST_LEN);
        // Exactly at the cap is still a request.
        let mut at_cap = vec![b'x'; MAX_REQUEST_LEN];
        at_cap.push(b'\n');
        let line = read_request_line(&mut at_cap.as_slice(), &mut buf).expect("at the cap");
        assert_eq!(line.map(str::len), Some(MAX_REQUEST_LEN));
        let err =
            read_request_line(&mut [0xff, b'\n'].as_slice(), &mut buf).expect_err("bad UTF-8");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A frame header over the cap is refused without reading a
        // payload byte: the header is all there is on the wire.
        let header = ((MAX_REQUEST_LEN + 1) as u32).to_le_bytes();
        let err = read_request_frame(&mut header.as_slice(), &mut buf).expect_err("over-long");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The reply reader keeps its own, larger limit.
        let mut wire = Vec::new();
        write_frame(&mut wire, &mut Vec::new(), &"y".repeat(MAX_REQUEST_LEN + 1)).expect("write");
        let reply = read_frame(&mut wire.as_slice(), &mut buf).expect("replies may be large");
        assert_eq!(reply.map(|r| r.len()), Some(MAX_REQUEST_LEN + 1));
    }
}
