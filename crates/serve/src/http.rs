//! A hand-rolled HTTP/1.1 subset: exactly what the audit daemon needs
//! and nothing more.
//!
//! The daemon speaks four routes over persistent connections
//! (`POST /audit`, `POST /mitigate`, `GET /metrics`, `GET /healthz`,
//! plus `POST /shutdown` for operator-initiated drain), so the parser
//! handles request lines, headers and `Content-Length` bodies — no
//! chunked encoding, no multipart, no TLS. Responses are rendered with
//! a **fixed header set in a fixed order and no `Date` header**, so the
//! bytes on the wire for a given payload are a pure function of the
//! payload: the workspace determinism contract extends to the socket.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;

/// Upper bound on a single header line (request line included).
const MAX_LINE_BYTES: usize = 16 * 1024;

/// Upper bound on the header lines of one request. Together with
/// [`MAX_LINE_BYTES`] it bounds a request head to about 1 MiB.
const MAX_HEADERS: usize = 64;

/// How many read-timeout periods a client that has *started* a request
/// gets to finish sending it before the daemon gives up. At the 100 ms
/// default socket timeout this is ~5 s of cumulative stall. Between
/// requests a connection may idle forever (keep-alive); inside one, the
/// budget keeps a half-sent request from pinning a connection thread
/// through drain.
const MID_REQUEST_TIMEOUT_BUDGET: usize = 50;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`).
    pub method: String,
    /// Request path (query strings are not split off — the daemon's
    /// routes don't use them).
    pub path: String,
    /// Headers, keyed by lower-cased name. Later duplicates win.
    pub headers: BTreeMap<String, String>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The header value for `name` (case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The tenant this request is attributed to: the `X-FB-Tenant`
    /// header, or `anonymous` when absent or empty.
    pub fn tenant(&self) -> &str {
        match self.header("x-fb-tenant") {
            Some(t) if !t.is_empty() => t,
            _ => "anonymous",
        }
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("close"))
    }
}

/// What one read attempt produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection at a request boundary.
    Closed,
    /// The read timed out before a request completed — the caller
    /// should re-check its shutdown flag and call [`read_request`]
    /// again with the same `pending` buffer, which retains any
    /// partially received request-line bytes.
    TimedOut,
}

/// Reads one request from the connection.
///
/// `pending` carries a partially received request line across
/// [`ReadOutcome::TimedOut`] returns: the socket timeout can fire after
/// some request-line bytes were already consumed, and discarding them
/// would make the next attempt misparse the remainder of the request as
/// a fresh request line. The caller keeps one `pending` buffer per
/// connection and passes it back in until a request parses; it is
/// drained here once the line is complete.
///
/// A timeout or EOF with an empty `pending` is a clean between-requests
/// event ([`ReadOutcome::TimedOut`] / [`ReadOutcome::Closed`]). Once a
/// request has started, header and body reads absorb up to
/// `MID_REQUEST_TIMEOUT_BUDGET` timeouts — a slow-but-live client is
/// not answered with a spurious 400 — and only then fail.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    pending: &mut String,
    max_body: usize,
) -> Result<ReadOutcome, String> {
    match read_line_bounded(reader, pending) {
        Ok(0) if pending.is_empty() => return Ok(ReadOutcome::Closed),
        Ok(0) => return Err("connection closed mid-request-line".to_owned()),
        Ok(_) => {}
        // Partial bytes (if any) stay in `pending` for the next attempt.
        Err(e) if is_timeout(&e) => return Ok(ReadOutcome::TimedOut),
        Err(e) => return Err(format!("read request line: {e}")),
    }
    let request_line = std::mem::take(pending);
    let line = request_line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => return Err(format!("malformed request line: {line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol version: {version:?}"));
    }

    let mut headers = BTreeMap::new();
    let mut timeout_budget = MID_REQUEST_TIMEOUT_BUDGET;
    let mut header_lines = 0;
    loop {
        let mut hl = String::new();
        loop {
            match read_line_bounded(reader, &mut hl) {
                Ok(0) => return Err("connection closed mid-headers".to_owned()),
                Ok(_) => break,
                // Partial header bytes stay in `hl`; retry within budget.
                Err(e) if is_timeout(&e) && timeout_budget > 0 => timeout_budget -= 1,
                Err(e) => return Err(format!("read header: {e}")),
            }
        }
        let hl = hl.trim_end_matches(['\r', '\n']);
        if hl.is_empty() {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} header lines"));
        }
        let Some((name, value)) = hl.split_once(':') else {
            return Err(format!("malformed header line: {hl:?}"));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
    }

    let content_length = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad content-length: {v:?}"))?,
    };
    if content_length > max_body {
        return Err(format!(
            "body of {content_length} bytes exceeds the {max_body}-byte limit"
        ));
    }
    // Not `read_exact`: it discards already-read bytes on a timeout
    // error, which would corrupt the body. Track the fill point so a
    // timeout mid-body resumes where it left off.
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err("connection closed mid-body".to_owned()),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) && timeout_budget > 0 => timeout_budget -= 1,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read body: {e}")),
        }
    }

    Ok(ReadOutcome::Request(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        headers,
        body,
    }))
}

/// `read_line` with a hard per-line byte bound. The bound covers the
/// *total* line, including bytes `out` already holds from a prior
/// timed-out attempt; a timeout leaves the partial line in `out`.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    out: &mut String,
) -> std::io::Result<usize> {
    let remaining = MAX_LINE_BYTES.saturating_sub(out.len());
    if remaining == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "header line too long",
        ));
    }
    let mut taken = reader.take(remaining as u64);
    let n = taken.read_line(out)?;
    if out.len() >= MAX_LINE_BYTES && !out.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "header line too long",
        ));
    }
    Ok(n)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A response, minus the connection-scoped `Connection` header.
///
/// This is the unit the coalescer shares between attached requests: the
/// status, the optional `Retry-After`, and the body are identical for
/// every rider; only the keep-alive decision is per-connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` seconds, sent with backpressure statuses.
    pub retry_after: Option<u32>,
    /// `Content-Type` header value (`application/json` everywhere except
    /// the Prometheus text exposition).
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

/// The Prometheus text exposition content type.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

impl Payload {
    /// A JSON payload with the given status.
    pub fn json(status: u16, body: String) -> Payload {
        Payload {
            status,
            retry_after: None,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A Prometheus text-exposition payload.
    pub fn prometheus(status: u16, body: String) -> Payload {
        Payload {
            status,
            retry_after: None,
            content_type: PROMETHEUS_CONTENT_TYPE,
            body: body.into_bytes(),
        }
    }

    /// Renders the full response bytes. Header order is fixed and there
    /// is no `Date` header, so identical payloads render to identical
    /// bytes.
    pub fn render(&self, keep_alive: bool) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(128);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(head, "Retry-After: {secs}\r\n");
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// The reason phrase for the status codes this daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One parsed response (client side — used by `fb-load` and the tests).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Headers, keyed by lower-cased name.
    pub headers: BTreeMap<String, String>,
    /// Response body.
    pub body: Vec<u8>,
}

/// Reads one response from the connection (client side).
pub fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Response, String> {
    let mut line = String::new();
    match read_line_bounded(reader, &mut line) {
        Ok(0) => return Err("connection closed before status line".to_owned()),
        Ok(_) => {}
        Err(e) => return Err(format!("read status line: {e}")),
    }
    let line = line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split_ascii_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| format!("bad status code in {line:?}"))?,
        _ => return Err(format!("malformed status line: {line:?}")),
    };
    let mut headers = BTreeMap::new();
    loop {
        let mut hl = String::new();
        match read_line_bounded(reader, &mut hl) {
            Ok(0) => return Err("connection closed mid-headers".to_owned()),
            Ok(_) => {}
            Err(e) => return Err(format!("read header: {e}")),
        }
        let hl = hl.trim_end_matches(['\r', '\n']);
        if hl.is_empty() {
            break;
        }
        if let Some((name, value)) = hl.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
        }
    }
    let content_length = headers
        .get("content-length")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
    }
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_renders_fixed_header_order() {
        let p = Payload::json(200, "{\"ok\":true}".to_owned());
        let bytes = p.render(true);
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}"
        );
    }

    #[test]
    fn retry_after_is_rendered_for_backpressure() {
        let p = Payload {
            status: 429,
            retry_after: Some(1),
            content_type: "application/json",
            body: b"{}".to_vec(),
        };
        let text = String::from_utf8(p.render(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn prometheus_payload_carries_the_text_content_type() {
        let p = Payload::prometheus(200, "fairbridge_up 1\n".to_owned());
        let text = String::from_utf8(p.render(true)).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.ends_with("fairbridge_up 1\n"));
    }

    #[test]
    fn identical_payloads_render_identical_bytes() {
        let a = Payload::json(200, "{\"x\":1}".to_owned()).render(true);
        let b = Payload::json(200, "{\"x\":1}".to_owned()).render(true);
        assert_eq!(a, b);
    }
}
