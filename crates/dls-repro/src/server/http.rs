//! Minimal HTTP/1.1 over `std::net::TcpStream` — just enough protocol for
//! the campaign service (the workspace is offline; no HTTP crate exists to
//! depend on).
//!
//! Supported: one request per connection (`Connection: close` semantics),
//! request bodies via `Content-Length`, and plain-status responses with a
//! handful of extra headers. Not supported, deliberately: keep-alive,
//! chunked transfer, multipart — clients are `curl`, CI smoke scripts and
//! the integration tests.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on an accepted request body, bytes. Campaign specs are a
/// few hundred bytes of JSON; anything larger is a client error.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Upper bound on a single header line, bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// Upper bound on the number of header lines accepted per request — a
/// client streaming headers forever is a slow-loris, not a campaign spec.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, path, headers, and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased as received).
    pub method: String,
    /// Request target as sent, e.g. `/run` (query strings are not split).
    pub path: String,
    /// `(name, value)` header pairs, names lowercased, in receive order.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (ASCII case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// A response about to be written: status code, reason, extra headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code, e.g. 200.
    pub status: u16,
    /// Reason phrase, e.g. `OK`.
    pub reason: &'static str,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Additional `(name, value)` headers, e.g. `("X-Cache", "hit")`.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with `status`/`reason` and a body, no extra headers.
    pub fn new(
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: impl Into<Vec<u8>>,
    ) -> Response {
        Response { status, reason, content_type, headers: Vec::new(), body: body.into() }
    }

    /// Adds an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn read_line(reader: &mut BufReader<&TcpStream>) -> std::io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if reader.read(&mut byte)? == 0 {
            return Err(bad("connection closed mid-line"));
        }
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE_BYTES {
            return Err(bad("header line too long"));
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| bad("non-UTF-8 header line"))
}

/// Reads one HTTP/1.1 request from `stream`. Malformed framing surfaces as
/// `InvalidData`, which the server answers with a 400.
pub fn read_request(stream: &TcpStream) -> std::io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?.to_uppercase();
    let path = parts.next().ok_or_else(|| bad("request line without a path"))?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol `{version}`")));
    }

    let mut content_length: usize = 0;
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad(format!("more than {MAX_HEADERS} header lines")));
        }
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim().to_lowercase(), value.trim().to_string());
            if name == "content-length" {
                content_length =
                    value.parse().map_err(|_| bad(format!("bad Content-Length `{value}`")))?;
            }
            headers.push((name, value));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad(format!("body of {content_length} bytes exceeds {MAX_BODY_BYTES}")));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, headers, body })
}

/// Writes `response` to `stream` in one write and flushes it: a separate
/// head write would leave the body waiting on Nagle's algorithm.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(256 + response.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len(),
    )?;
    for (name, value) in &response.headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips raw client bytes through `read_request` on a real
    /// socket pair.
    fn parse(raw: &[u8]) -> std::io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (server_side, _) = listener.accept().unwrap();
        let req = read_request(&server_side);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn headers_are_captured_lowercased_and_looked_up_case_insensitively() {
        let req = parse(
            b"POST /run HTTP/1.1\r\nX-Deadline-Ms: 250\r\nHost: x\r\nContent-Length: 2\r\n\r\nok",
        )
        .unwrap();
        assert_eq!(req.header("x-deadline-ms"), Some("250"));
        assert_eq!(req.header("X-Deadline-Ms"), Some("250"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("absent"), None);
        assert!(req.headers.iter().any(|(n, v)| n == "content-length" && v == "2"));
    }

    /// Fuzz-style table over malformed framings: every row must surface as
    /// a clean `InvalidData`-style error — never a panic, never a hang.
    #[test]
    fn malformed_framing_table_rejects_without_panicking() {
        let giant_header = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(9000));
        let many_headers =
            format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: v\r\n".repeat(MAX_HEADERS + 1));
        let too_big = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty request line", b"\r\n\r\n".to_vec()),
            ("truncated request line", b"POST /ru".to_vec()),
            ("method only", b"GET\r\n\r\n".to_vec()),
            ("no path", b"GET \r\n\r\n".to_vec()),
            ("unknown protocol", b"GET / SPDY/3\r\n\r\n".to_vec()),
            ("oversized header line", giant_header.into_bytes()),
            ("unbounded header count", many_headers.into_bytes()),
            (
                "unparseable Content-Length",
                b"POST / HTTP/1.1\r\nContent-Length: zap\r\n\r\n".to_vec(),
            ),
            ("negative Content-Length", b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n".to_vec()),
            ("oversized body bound", too_big.into_bytes()),
            (
                "body shorter than declared",
                b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec(),
            ),
            ("non-UTF-8 request line", b"\xff\xfe /run HTTP/1.1\r\n\r\n".to_vec()),
            ("non-UTF-8 header line", b"GET / HTTP/1.1\r\nX-\xff: v\r\n\r\n".to_vec()),
            ("connection closed mid-headers", b"GET / HTTP/1.1\r\nHost: x".to_vec()),
        ];
        for (label, raw) in cases {
            assert!(parse(&raw).is_err(), "{label}: must be rejected");
        }
    }

    /// A non-UTF-8 *body* is fine at this layer — bodies are raw bytes;
    /// rejecting them (as 422, not 400) is the JSON parser's job upstream.
    #[test]
    fn non_utf8_bodies_pass_the_framing_layer() {
        let req = parse(b"POST /run HTTP/1.1\r\nContent-Length: 3\r\n\r\n\xff\xfe\xfd").unwrap();
        assert_eq!(req.body, vec![0xff, 0xfe, 0xfd]);
    }

    #[test]
    fn response_renders_status_headers_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut stream = stream;
            let resp =
                Response::new(200, "OK", "text/csv", "a,b\n1,2\n").with_header("X-Cache", "hit");
            write_response(&mut stream, &resp).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        server.join().unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(raw.contains("X-Cache: hit\r\n"), "{raw}");
        assert!(raw.contains("Content-Length: 8\r\n"), "{raw}");
        assert!(raw.ends_with("\r\n\r\na,b\n1,2\n"), "{raw}");
        assert_eq!(
            raw,
            "HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: 8\r\n\
             Connection: close\r\nX-Cache: hit\r\n\r\na,b\n1,2\n"
        );
    }
}
