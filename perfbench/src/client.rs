//! The benchmark's HTTP client.
//!
//! Unlike `fb-load`, every request leaves as one buffer on a socket with
//! `TCP_NODELAY` set: writing the head and the body separately without
//! it lets Nagle's algorithm hold the body behind a delayed ACK, which
//! adds about 40 ms to every request and measures the client, not the
//! daemon. Responses are read with the daemon crate's own
//! [`read_response`].

use fairbridge_serve::http::{read_response, Response};
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(30))))
            .map_err(|e| format!("configure socket: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn { stream, reader })
    }

    /// Sends one fully rendered request and reads its response.
    pub fn send(&mut self, request: &[u8]) -> Result<Response, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write request: {e}"))?;
        read_response(&mut self.reader)
    }
}

/// Renders a complete HTTP/1.1 request: head and body in one buffer.
pub fn render(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: fairbridge\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}
