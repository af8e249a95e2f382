//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection (closed loop), responses framed by `Content-Length`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A full request frame (head and body) ready to write.
pub fn post_frame(body: &str) -> Vec<u8> {
    format!(
        "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection with a reusable receive buffer.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A received response: status code and the body's byte range in the
/// client's buffer.
pub struct Reply<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Write one request frame and read its whole response.
    pub fn roundtrip(&mut self, frame: &[u8]) -> io::Result<Reply<'_>> {
        self.stream.write_all(frame)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((head_len, total, status)) = frame_extent(&self.buf)? {
                if self.buf.len() > total {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "bytes beyond the response to the only request in flight",
                    ));
                }
                if self.buf.len() == total {
                    return Ok(Reply {
                        status,
                        body: &self.buf[head_len..total],
                    });
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// `GET path` on this connection; returns the status and an owned body.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        let frame = format!("GET {path} HTTP/1.1\r\n\r\n");
        let reply = self.roundtrip(frame.as_bytes())?;
        Ok((reply.status, reply.body.to_vec()))
    }
}

/// `(head_len, frame_len, status)` once the head is buffered.
fn frame_extent(buf: &[u8]) -> io::Result<Option<(usize, usize, u16)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    Ok(Some((end + 4, end + 4 + content_length, status)))
}
