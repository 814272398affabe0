//! A minimal HTTP/1.1 keep-alive client for loopback benchmarking.
//!
//! Each request goes out in one `write_all` on a `TCP_NODELAY` socket:
//! a request split over several small writes can stall ~40 ms on
//! Nagle's algorithm meeting the peer's delayed ACK, which would set
//! the latency instead of the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A response with its client-side timestamps.
pub struct Response {
    pub status: u16,
    /// Header fields, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The payload with any chunked framing removed (still
    /// content-encoded).
    pub body: Vec<u8>,
    /// Bytes read off the socket for this response: head, framing and
    /// payload.
    pub wire_bytes: usize,
    /// When the request was handed to the socket.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the last response byte arrived.
    pub done: Instant,
}

impl Response {
    /// The first value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Round-trip time: request sent to last byte received.
    pub fn elapsed(&self) -> Duration {
        self.done - self.sent
    }

    /// The body as text (for JSON answers).
    pub fn text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("non-UTF-8 body: {e}"))
    }
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Received bytes not yet consumed by a response.
    buf: Vec<u8>,
}

const READ_CHUNK: usize = 64 * 1024;

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(READ_CHUNK),
        })
    }

    /// Sends `method target` with `extra_headers` (each ending in CRLF)
    /// and reads the whole response.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &str,
    ) -> Result<Response, String> {
        let request = request_bytes(method, target, extra_headers);
        let sent = Instant::now();
        self.stream
            .write_all(&request)
            .map_err(|e| format!("send {target}: {e}"))?;
        self.read_response(sent)
            .map_err(|e| format!("{method} {target}: {e}"))
    }

    /// Reads more bytes into the buffer; returns when at least one
    /// arrived.
    fn fill(&mut self) -> Result<(), String> {
        let old = self.buf.len();
        self.buf.resize(old + READ_CHUNK, 0);
        let n = self.stream.read(&mut self.buf[old..]);
        self.buf.truncate(old + *n.as_ref().unwrap_or(&0));
        match n {
            Ok(0) => Err("connection closed mid-response".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Ensures `self.buf[pos..]` holds at least `len` bytes.
    fn need(&mut self, pos: usize, len: usize) -> Result<(), String> {
        while self.buf.len() < pos + len {
            self.fill()?;
        }
        Ok(())
    }

    /// Position just past the next CRLF at or after `pos`, reading more
    /// as needed.
    fn line_end(&mut self, pos: usize) -> Result<usize, String> {
        let mut from = pos;
        loop {
            if let Some(i) = find(&self.buf[from..], b"\r\n") {
                return Ok(from + i + 2);
            }
            from = self.buf.len().saturating_sub(1).max(pos);
            self.fill()?;
        }
    }

    fn read_response(&mut self, sent: Instant) -> Result<Response, String> {
        if self.buf.is_empty() {
            self.fill()?;
        }
        let first_byte = Instant::now();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "non-UTF-8 response head".to_string())?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let value = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let chunked = value("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let length = value("content-length").and_then(|v| v.parse::<usize>().ok());

        let mut body = Vec::new();
        let mut pos = head_end;
        if chunked {
            loop {
                let size_end = self.line_end(pos)?;
                let size_text = std::str::from_utf8(&self.buf[pos..size_end - 2])
                    .map_err(|_| "bad chunk size")?;
                let size_hex = size_text.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(size_hex, 16)
                    .map_err(|_| format!("bad chunk size {size_text:?}"))?;
                pos = size_end;
                if size == 0 {
                    // Trailer fields, then the empty line.
                    loop {
                        let end = self.line_end(pos)?;
                        let empty = end == pos + 2;
                        pos = end;
                        if empty {
                            break;
                        }
                    }
                    break;
                }
                self.need(pos, size + 2)?;
                body.extend_from_slice(&self.buf[pos..pos + size]);
                if &self.buf[pos + size..pos + size + 2] != b"\r\n" {
                    return Err("chunk not terminated by CRLF".to_string());
                }
                pos += size + 2;
            }
        } else if let Some(len) = length {
            self.need(pos, len)?;
            body.extend_from_slice(&self.buf[pos..pos + len]);
            pos += len;
        } else {
            return Err("response without Content-Length or chunked framing".to_string());
        }
        let done = Instant::now();
        self.buf.drain(..pos);
        Ok(Response {
            status,
            headers,
            body,
            wire_bytes: pos,
            sent,
            first_byte,
            done,
        })
    }
}

/// The exact bytes [`Conn::request`] sends.
pub fn request_bytes(method: &str, target: &str, extra_headers: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nhost: perfbench\r\n{extra_headers}content-length: 0\r\n\r\n"
    )
    .into_bytes()
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
