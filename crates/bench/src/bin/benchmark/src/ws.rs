//! The benchmark's own minimal RFC 6455 client: the `GET /ws` upgrade,
//! masked client-to-server text frames, unmasked server-to-client frames
//! (text, continuation, ping, close). Nothing else is needed to drive the
//! JSON protocol over a WebSocket.

use crate::http::IO_TIMEOUT;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

const OP_CONTINUATION: u8 = 0x0;
const OP_TEXT: u8 = 0x1;
const OP_CLOSE: u8 = 0x8;
const OP_PING: u8 = 0x9;
const OP_PONG: u8 = 0xA;

/// The RFC's own sample nonce and the accept digest it must produce: the
/// handshake is an echo-integrity check, so a fixed key is fine and spares
/// the client a SHA-1.
const KEY: &str = "dGhlIHNhbXBsZSBub25jZQ==";
const ACCEPT: &str = "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=";

/// XOR `payload` in place with the 4-byte masking key (its own inverse).
pub fn apply_mask(payload: &mut [u8], mask: [u8; 4]) {
    for (i, b) in payload.iter_mut().enumerate() {
        *b ^= mask[i % 4];
    }
}

/// Encode one final frame; `mask` is required client-to-server.
pub fn encode_frame(opcode: u8, payload: &[u8], mask: Option<[u8; 4]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 14);
    out.push(0x80 | opcode);
    let mask_bit = if mask.is_some() { 0x80 } else { 0 };
    match payload.len() {
        n if n < 126 => out.push(mask_bit | n as u8),
        n if n <= u16::MAX as usize => {
            out.push(mask_bit | 126);
            out.extend_from_slice(&(n as u16).to_be_bytes());
        }
        n => {
            out.push(mask_bit | 127);
            out.extend_from_slice(&(n as u64).to_be_bytes());
        }
    }
    let start = out.len() + if mask.is_some() { 4 } else { 0 };
    if let Some(mask) = mask {
        out.extend_from_slice(&mask);
    }
    out.extend_from_slice(payload);
    if let Some(mask) = mask {
        apply_mask(&mut out[start..], mask);
    }
    out
}

/// A masked text frame ready to send; `salt` varies the masking key.
pub fn text_frame(text: &str, salt: u32) -> Vec<u8> {
    let mask = (0x9e37_79b9u32 ^ salt.wrapping_mul(0x85eb_ca6b)).to_be_bytes();
    encode_frame(OP_TEXT, text.as_bytes(), Some(mask))
}

#[derive(Debug, PartialEq, Eq)]
pub struct Frame {
    pub fin: bool,
    pub opcode: u8,
    pub payload: Vec<u8>,
}

#[derive(Debug, PartialEq, Eq)]
pub enum ParsedFrame {
    /// A frame and how many bytes of the buffer it consumed.
    Complete(Frame, usize),
    Partial,
    Invalid(&'static str),
}

/// Parse one frame from the front of `buf` (masked or not).
pub fn parse_frame(buf: &[u8]) -> ParsedFrame {
    if buf.len() < 2 {
        return ParsedFrame::Partial;
    }
    if buf[0] & 0x70 != 0 {
        return ParsedFrame::Invalid("reserved bits set");
    }
    let fin = buf[0] & 0x80 != 0;
    let opcode = buf[0] & 0x0f;
    let masked = buf[1] & 0x80 != 0;
    let (len, mut at) = match buf[1] & 0x7f {
        126 => {
            if buf.len() < 4 {
                return ParsedFrame::Partial;
            }
            (u16::from_be_bytes([buf[2], buf[3]]) as u64, 4)
        }
        127 => {
            if buf.len() < 10 {
                return ParsedFrame::Partial;
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[2..10]);
            (u64::from_be_bytes(b), 10)
        }
        n => (n as u64, 2),
    };
    if len > 256 << 20 {
        return ParsedFrame::Invalid("frame too large");
    }
    let len = len as usize;
    let mask = if masked {
        if buf.len() < at + 4 {
            return ParsedFrame::Partial;
        }
        let m = [buf[at], buf[at + 1], buf[at + 2], buf[at + 3]];
        at += 4;
        Some(m)
    } else {
        None
    };
    if buf.len() < at + len {
        return ParsedFrame::Partial;
    }
    let mut payload = buf[at..at + len].to_vec();
    if let Some(mask) = mask {
        apply_mask(&mut payload, mask);
    }
    ParsedFrame::Complete(
        Frame {
            fin,
            opcode,
            payload,
        },
        at + len,
    )
}

pub struct WsClient {
    stream: TcpStream,
    buf: Vec<u8>,
    mask_state: u32,
}

fn invalid(why: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, why.into())
}

impl WsClient {
    /// Connect and complete the upgrade handshake.
    pub fn connect(addr: SocketAddr) -> io::Result<WsClient> {
        let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let head = format!(
            "GET /ws HTTP/1.1\r\nHost: pi2\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\
             Sec-WebSocket-Key: {KEY}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed during the WebSocket handshake",
                    ))
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        if !head.starts_with("HTTP/1.1 101 ") {
            return Err(invalid(format!(
                "upgrade refused: {}",
                head.lines().next().unwrap_or("")
            )));
        }
        let accepted = head.lines().any(|l| {
            l.split_once(':').is_some_and(|(n, v)| {
                n.trim().eq_ignore_ascii_case("sec-websocket-accept") && v.trim() == ACCEPT
            })
        });
        if !accepted {
            return Err(invalid("bad Sec-WebSocket-Accept"));
        }
        buf.drain(..head_end);
        Ok(WsClient {
            stream,
            buf,
            mask_state: 0x9e37_79b9,
        })
    }

    /// xorshift32: RFC 6455 requires a mask, not an unpredictable one.
    fn next_mask(&mut self) -> [u8; 4] {
        let mut x = self.mask_state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.mask_state = x;
        x.to_be_bytes()
    }

    pub fn send_text(&mut self, text: &str) -> io::Result<()> {
        let mask = self.next_mask();
        self.send_frame(&encode_frame(OP_TEXT, text.as_bytes(), Some(mask)))
    }

    /// Send a frame encoded ahead of time (see [`text_frame`]).
    pub fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Block until the next complete text message. Pings are answered; a
    /// close frame or EOF is an error (the benchmark never expects one
    /// while it is still reading).
    pub fn read_text(&mut self) -> io::Result<String> {
        let mut message: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match parse_frame(&self.buf) {
                ParsedFrame::Invalid(why) => return Err(invalid(why)),
                ParsedFrame::Complete(frame, consumed) => {
                    self.buf.drain(..consumed);
                    match frame.opcode {
                        OP_PING => {
                            let mask = self.next_mask();
                            self.stream.write_all(&encode_frame(
                                OP_PONG,
                                &frame.payload,
                                Some(mask),
                            ))?;
                        }
                        OP_PONG => {}
                        OP_CLOSE => return Err(invalid("server closed the WebSocket")),
                        OP_TEXT | OP_CONTINUATION => {
                            message.extend_from_slice(&frame.payload);
                            if frame.fin {
                                return String::from_utf8(message)
                                    .map_err(|_| invalid("non-UTF-8 text message"));
                            }
                        }
                        _ => return Err(invalid("unexpected frame opcode")),
                    }
                    continue;
                }
                ParsedFrame::Partial => {}
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the WebSocket stream",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One request/response exchange on a connection that receives no
    /// pushes (or whose next frame is known to be the reply).
    pub fn round_trip(&mut self, text: &str) -> io::Result<String> {
        self.send_text(text)?;
        self.read_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_is_its_own_inverse() {
        let mut data = b"hello websocket".to_vec();
        let mask = [0x12, 0x34, 0x56, 0x78];
        apply_mask(&mut data, mask);
        assert_ne!(data, b"hello websocket");
        apply_mask(&mut data, mask);
        assert_eq!(data, b"hello websocket");
    }

    #[test]
    fn frames_round_trip_at_every_length_class() {
        for len in [0usize, 5, 125, 126, 65_535, 65_536] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            for mask in [None, Some([9, 8, 7, 6])] {
                let wire = encode_frame(OP_TEXT, &payload, mask);
                match parse_frame(&wire) {
                    ParsedFrame::Complete(frame, consumed) => {
                        assert_eq!(consumed, wire.len());
                        assert!(frame.fin);
                        assert_eq!(frame.opcode, OP_TEXT);
                        assert_eq!(frame.payload, payload, "len {len} mask {mask:?}");
                    }
                    other => panic!("len {len}: {other:?}"),
                }
                // Every proper prefix is partial, never a wrong frame.
                for cut in [1, wire.len() / 2, wire.len() - 1] {
                    if cut < wire.len() {
                        assert_eq!(parse_frame(&wire[..cut]), ParsedFrame::Partial);
                    }
                }
            }
        }
    }

    #[test]
    fn masked_payload_differs_on_the_wire() {
        let wire = encode_frame(OP_TEXT, b"abcd", Some([1, 2, 3, 4]));
        assert_eq!(wire[1], 0x80 | 4);
        assert_eq!(&wire[2..6], &[1, 2, 3, 4]);
        assert_eq!(&wire[6..], &[b'a' ^ 1, b'b' ^ 2, b'c' ^ 3, b'd' ^ 4]);
    }

    #[test]
    fn reserved_bits_are_rejected() {
        assert_eq!(
            parse_frame(&[0xC1, 0x00]),
            ParsedFrame::Invalid("reserved bits set")
        );
    }
}
