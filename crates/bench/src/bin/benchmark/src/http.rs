//! The benchmark's own blocking keep-alive HTTP/1.1 client: one request
//! outstanding per connection (closed loop), `Content-Length` responses
//! only — which is all the server produces.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long any single read may block before the run fails instead of
/// hanging.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a complete response sits inside a receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct ResponseSpan {
    pub status: u16,
    pub body_start: usize,
    pub body_end: usize,
}

#[derive(Debug, PartialEq, Eq)]
pub enum Parsed {
    Complete(ResponseSpan),
    Partial,
    Invalid(&'static str),
}

/// Parse one response from the front of `buf`.
pub fn parse_response(buf: &[u8]) -> Parsed {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Parsed::Partial;
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Parsed::Invalid("response head is not UTF-8");
    };
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Parsed::Invalid("bad status line");
    }
    let Some(status) = parts.next().and_then(|s| s.parse::<u16>().ok()) else {
        return Parsed::Invalid("bad status code");
    };
    let mut length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Invalid("bad header line");
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            match value.trim().parse::<usize>() {
                Ok(n) if n <= 256 << 20 => length = Some(n),
                _ => return Parsed::Invalid("bad Content-Length"),
            }
        }
    }
    let Some(length) = length else {
        return Parsed::Invalid("response lacks Content-Length");
    };
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Parsed::Partial;
    }
    Parsed::Complete(ResponseSpan {
        status,
        body_start,
        body_end: body_start + length,
    })
}

/// Frame one request (head and body in a single buffer, so it leaves in
/// one write).
pub fn encode_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: pi2\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(HttpClient {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send pre-framed request bytes and block for the response; returns
    /// the status and the body (borrowed from the receive buffer, valid
    /// until the next exchange).
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, &str)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let span = loop {
            match parse_response(&self.buf) {
                Parsed::Complete(span) => break span,
                Parsed::Partial => {}
                Parsed::Invalid(why) => return Err(io::Error::new(ErrorKind::InvalidData, why)),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let body = std::str::from_utf8(&self.buf[span.body_start..span.body_end])
            .map_err(|_| io::Error::new(ErrorKind::InvalidData, "response body is not UTF-8"))?;
        Ok((span.status, body))
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        let (status, body) = self.exchange(&encode_request("POST", path, body))?;
        Ok((status, body.to_string()))
    }

    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let (status, body) = self.exchange(&encode_request("GET", path, ""))?;
        Ok((status, body.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 7\r\n\r\n{\"v\":1}";
        match parse_response(raw) {
            Parsed::Complete(span) => {
                assert_eq!(span.status, 200);
                assert_eq!(&raw[span.body_start..span.body_end], b"{\"v\":1}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_until_head_and_body_arrive() {
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Le"),
            Parsed::Partial
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 429 Too Many\r\nContent-Length: 5\r\n\r\nab"),
            Parsed::Partial
        );
    }

    #[test]
    fn keeps_to_the_first_response_of_a_pipelined_buffer() {
        let raw = b"HTTP/1.1 503 X\r\nContent-Length: 2\r\n\r\nabHTTP/1.1 200 OK\r\n";
        assert_eq!(
            parse_response(raw),
            Parsed::Complete(ResponseSpan {
                status: 503,
                body_start: raw.len() - 19,
                body_end: raw.len() - 17,
            })
        );
    }

    #[test]
    fn rejects_malformed_heads() {
        for raw in [
            &b"SPDY/9 200 OK\r\nContent-Length: 0\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: pony\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n",
        ] {
            assert!(matches!(parse_response(raw), Parsed::Invalid(_)), "{raw:?}");
        }
    }

    #[test]
    fn request_framing_carries_the_body_length() {
        let req = String::from_utf8(encode_request("POST", "/v1", "{\"v\":1}")).unwrap();
        assert!(req.starts_with("POST /v1 HTTP/1.1\r\n"));
        assert!(req.contains("Content-Length: 7\r\n\r\n{\"v\":1}"));
    }
}
