//! A minimal HTTP/1.1 client of the benchmark's own.
//!
//! It opens one TCP connection per request, as the service's real callers
//! do (the server closes every connection), and times the connect apart
//! from the whole request. The response body is read to end of stream and
//! checked against `Content-Length`, so a short or padded body is an error
//! rather than a silent mismatch.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the request started (before the connect).
    pub started: Instant,
    pub connect: Duration,
    pub total: Duration,
}

const TIMEOUT: Duration = Duration::from_secs(60);

/// Send one request. `headers` are extra `(name, value)` pairs.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<Reply> {
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let connect = started.elapsed();
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nContent-Type: application/json\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let total = started.elapsed();
    let (status, body) = split_response(&raw)?;
    Ok(Reply {
        status,
        body,
        started,
        connect,
        total,
    })
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Split a raw response into its status code and body, checking the body
/// length against `Content-Length`.
pub fn split_response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let body = raw[end + 4..].to_vec();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                let n: usize = v.trim().parse().map_err(|_| bad("bad Content-Length"))?;
                if n != body.len() {
                    return Err(bad(&format!(
                        "body is {} bytes, Content-Length says {n}",
                        body.len()
                    )));
                }
            }
        }
    }
    Ok((status, body))
}

/// Poll `GET /healthz` until it answers 200.
pub fn wait_healthy(addr: SocketAddr, deadline: Duration) -> Result<(), String> {
    let start = Instant::now();
    loop {
        match request(addr, "GET", "/healthz", &[], b"") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if start.elapsed() > deadline => {
                return Err(format!(
                    "{addr} did not answer /healthz within {deadline:?}"
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// `GET /metrics` as text.
pub fn metrics_page(addr: SocketAddr) -> Result<String, String> {
    let r = request(addr, "GET", "/metrics", &[], b"").map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("/metrics on {addr} answered {}", r.status));
    }
    String::from_utf8(r.body).map_err(|_| "metrics page is not UTF-8".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_checks_content_length() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(split_response(ok).unwrap(), (200, b"abc".to_vec()));
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nabc";
        assert!(split_response(short).is_err());
        assert!(split_response(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
