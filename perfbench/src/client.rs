//! A keep-alive HTTP/1.1 client for the load generator.
//!
//! Responses are framed by `Content-Length`; a response without one, a
//! malformed status line or a short body is a framing error.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header, or empty.
    pub content_type: String,
    /// The body.
    pub body: Vec<u8>,
}

/// Parses one response from the front of `buf`: `Ok(None)` while it is
/// incomplete, otherwise the reply and the bytes it took.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 16 * 1024 {
            Err("response head over 16 KiB".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if parts.next() != Some("HTTP/1.1") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    let mut content_type = String::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = value.to_string();
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Reply {
            status,
            content_type,
            body: buf[head_end + 4..total].to_vec(),
        },
        total,
    )))
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

/// How long a blocking receive waits before the request counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

impl Conn {
    /// Connects to `addr` with Nagle off.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            chunk: vec![0; 64 * 1024].into_boxed_slice(),
        })
    }

    /// Writes one whole request, waiting out a full send buffer on a
    /// nonblocking socket for up to [`REPLY_TIMEOUT`].
    pub fn send(&mut self, request: &[u8]) -> Result<(), String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut rest = request;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err("connection closed by the server".into()),
                Ok(n) => rest = &rest[n..],
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
                        && Instant::now() < deadline =>
                {
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Returns a reply already buffered, if a whole one is.
    pub fn take_buffered(&mut self) -> Result<Option<Reply>, String> {
        Ok(parse_reply(&self.buf)?.map(|(reply, used)| {
            self.buf.drain(..used);
            reply
        }))
    }

    /// Reads what arrives within `wait` into the buffer. Returns false
    /// when nothing arrived in time.
    pub fn fill(&mut self, wait: Duration) -> Result<bool, String> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(1))))
            .map_err(|e| e.to_string())?;
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Err("connection closed by the server".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&self.chunk[..n]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Switches the socket to nonblocking reads: [`Conn::try_fill`] then
    /// never waits.
    pub fn set_nonblocking(&mut self) -> Result<(), String> {
        self.stream.set_nonblocking(true).map_err(|e| e.to_string())
    }

    /// Reads whatever has arrived, without waiting (after
    /// [`Conn::set_nonblocking`]). Returns false when nothing had.
    pub fn try_fill(&mut self) -> Result<bool, String> {
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Err("connection closed by the server".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&self.chunk[..n]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(false)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Blocks until one whole reply has arrived.
    pub fn recv(&mut self) -> Result<Reply, String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(reply) = self.take_buffered()? {
                return Ok(reply);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("timed out waiting for a reply".into());
            }
            self.fill(left)?;
        }
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, request: &[u8]) -> Result<Reply, String> {
        self.send(request)?;
        self.recv()
    }
}

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    Conn::connect(addr)?.call(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_replies_and_waits_for_partial_ones() {
        let one =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\n\r\n{}\n";
        let two = b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\nConnection: close\r\n\r\n";
        let mut buf = one.to_vec();
        buf.extend_from_slice(two);
        let (a, used) = parse_reply(&buf).unwrap().unwrap();
        assert_eq!(used, one.len());
        assert_eq!(a.status, 200);
        assert_eq!(a.content_type, "application/json");
        assert_eq!(a.body, b"{}\n");
        let (b, _) = parse_reply(&buf[used..]).unwrap().unwrap();
        assert_eq!(b.status, 404);
        assert!(b.body.is_empty());
        assert_eq!(parse_reply(&one[..one.len() - 1]).unwrap(), None);
        assert_eq!(parse_reply(&one[..10]).unwrap(), None);
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_reply(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(parse_reply(b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
    }
}
