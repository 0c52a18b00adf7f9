//! A minimal HTTP/1.1 wire layer over `std` I/O — just enough protocol for
//! the four `kf_serve` surfaces, with no network crates involved.
//!
//! Requests: request line + headers + an optional `Content-Length` body.
//! Responses: `Content-Length` bodies for unary answers, `chunked`
//! transfer-encoding for streaming ones. Connections are `Connection: close`
//! — one HTTP exchange per connection keeps the connection threads trivially
//! stateless (the NDJSON fallback in [`crate::api`] is the persistent-session
//! protocol).
//!
//! Anything that is not a well-formed request is answered with a 4xx and the
//! connection is dropped; a malformed peer can never wedge a thread for
//! longer than the read timeout the listener sets. Every read is bounded: the
//! request line and each header line by `MAX_HEAD_LINE_BYTES` and the header
//! count by `MAX_HEADERS` (both answered `431`), the body by
//! [`MAX_BODY_BYTES`] (answered `413`). A peer therefore cannot grow a
//! connection's memory past these bounds however it frames its bytes.

use crate::api::WireFault;
use std::io::{self, BufRead, Read, Write};

/// Upper bound on a request body (tokens are u32s, so even a maximal prompt
/// is far below this); protects the server from unbounded allocation. NDJSON
/// op lines carry a whole request each, so they share this bound.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Longest request line or header line accepted, line ending included.
pub(crate) const MAX_HEAD_LINE_BYTES: usize = 8 << 10;

/// Most header lines one request may carry.
const MAX_HEADERS: usize = 100;

/// A parsed HTTP request head plus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased by the client (`GET`, `POST`, `DELETE`...).
    pub method: String,
    /// Request target path (query strings are not used by this API).
    pub path: String,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// Appends the rest of one line from `r` to `buf`: through the next `\n`, to
/// EOF, or until `buf` holds `limit` bytes, whichever comes first. Returns
/// `false` only when the limit cut the line short; the rest of the line is
/// left unread, so `buf` never grows past `limit`.
pub(crate) fn read_line_into(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    limit: usize,
) -> io::Result<bool> {
    let room = limit.saturating_sub(buf.len()) as u64;
    (&mut *r).take(room).read_until(b'\n', buf)?;
    Ok(buf.last() == Some(&b'\n') || buf.len() < limit)
}

/// Strips a line's `\r\n` / `\n` ending and decodes it as UTF-8.
pub(crate) fn finish_line(mut buf: Vec<u8>) -> io::Result<String> {
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Reads one line (through `\n`) of at most `limit` bytes, line ending
/// included, from `r`, stripping the trailing `\r\n` / `\n`. Returns `None`
/// at a clean EOF before any byte.
///
/// # Errors
///
/// Returns the reader's I/O error, or [`io::ErrorKind::InvalidData`] when the
/// line is not UTF-8 or runs past `limit` bytes. The read stops at the limit.
pub fn read_line(r: &mut impl BufRead, limit: usize) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    if !read_line_into(r, &mut buf, limit)? {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line exceeds {limit} bytes"),
        ));
    }
    if buf.is_empty() {
        return Ok(None);
    }
    finish_line(buf).map(Some)
}

fn malformed(message: String) -> WireFault {
    WireFault {
        status: 400,
        code: "malformed_request",
        message,
    }
}

fn header_too_large(message: String) -> WireFault {
    WireFault {
        status: 431,
        code: "header_too_large",
        message,
    }
}

/// The `431` answer for a request line longer than `MAX_HEAD_LINE_BYTES`.
pub(crate) fn request_line_too_long() -> WireFault {
    header_too_large(format!("request line exceeds {MAX_HEAD_LINE_BYTES} bytes"))
}

/// Parses the rest of an HTTP request whose request line (`first_line`) the
/// caller has already read (under `MAX_HEAD_LINE_BYTES`): headers through the
/// blank line, then a `Content-Length` body if one was announced.
///
/// # Errors
///
/// Returns the [`WireFault`] to answer with: `431 header_too_large` for a
/// header line past `MAX_HEAD_LINE_BYTES` or more than `MAX_HEADERS` header
/// lines, `413 payload_too_large` for a body announced past
/// [`MAX_BODY_BYTES`], and `400 malformed_request` for anything else
/// malformed or truncated.
pub fn parse_http(first_line: &str, r: &mut impl BufRead) -> Result<HttpRequest, WireFault> {
    let mut parts = first_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(malformed(format!("malformed request line: {first_line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!(
            "unsupported protocol version: {version}"
        )));
    }
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let mut buf = Vec::new();
        let complete = read_line_into(r, &mut buf, MAX_HEAD_LINE_BYTES)
            .map_err(|e| malformed(format!("reading headers: {e}")))?;
        if !complete {
            return Err(header_too_large(format!(
                "a header line exceeds {MAX_HEAD_LINE_BYTES} bytes"
            )));
        }
        if buf.is_empty() {
            return Err(malformed(
                "connection closed inside the header section".to_string(),
            ));
        }
        let line = finish_line(buf).map_err(|e| malformed(format!("reading headers: {e}")))?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(header_too_large(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(format!("malformed header line: {line:?}")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| malformed(format!("unparsable content-length: {value:?}")))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(WireFault {
            status: 413,
            code: "payload_too_large",
            message: format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
        });
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)
        .map_err(|e| malformed(format!("reading {content_length}-byte body: {e}")))?;
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// The reason phrase for the handful of statuses this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        507 => "Insufficient Storage",
        _ => "Response",
    }
}

/// Writes a complete unary JSON response and flushes it.
pub fn write_response(w: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        status_reason(status),
        body.len(),
    )?;
    w.flush()
}

/// Starts a chunked streaming response (headers only; follow with
/// [`write_chunk`] calls and a [`finish_chunked`]).
pub fn start_chunked(w: &mut impl Write, status: u16) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        status_reason(status),
    )?;
    w.flush()
}

/// Writes one chunk of a chunked response and flushes it, so every streamed
/// token is on the wire the moment the pump surfaces it.
pub fn write_chunk(w: &mut impl Write, data: &str) -> io::Result<()> {
    write!(w, "{:x}\r\n{data}\r\n", data.len())?;
    w.flush()
}

/// Terminates a chunked response.
pub fn finish_chunked(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<HttpRequest, WireFault> {
        let mut r = BufReader::new(raw.as_bytes());
        let first = read_line(&mut r, MAX_HEAD_LINE_BYTES).unwrap().unwrap();
        parse_http(&first, &mut r)
    }

    #[test]
    fn parses_request_with_body() {
        let req = parse(
            "POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"a\":[1,2]}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/generate");
        assert_eq!(req.body, b"{\"a\":[1,2]}");
    }

    #[test]
    fn parses_bodyless_get_and_bare_lf() {
        let req = parse("GET /v1/stats HTTP/1.1\nhost: x\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\ncontent-length: zap\r\n\r\n").is_err());
        // Announced body longer than what arrives.
        assert!(parse("POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nab").is_err());
        let oversized = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 5 << 20);
        let fault = parse(&oversized).unwrap_err();
        assert_eq!((fault.status, fault.code), (413, "payload_too_large"));
        assert_eq!(parse("GARBAGE\r\n\r\n").unwrap_err().status, 400);
    }

    #[test]
    fn an_endless_line_is_cut_at_the_limit() {
        // 1 MiB with no newline: the read stops at the limit instead of
        // buffering the whole line.
        let endless = vec![b'a'; 1 << 20];
        let mut r = BufReader::new(&endless[..]);
        let mut buf = Vec::new();
        assert!(!read_line_into(&mut r, &mut buf, MAX_HEAD_LINE_BYTES).unwrap());
        assert_eq!(buf.len(), MAX_HEAD_LINE_BYTES);
        let mut r = BufReader::new(&endless[..]);
        let err = read_line(&mut r, MAX_HEAD_LINE_BYTES).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The same line as a header line is a 431.
        let mut raw = b"GET / HTTP/1.1\r\nx-long: ".to_vec();
        raw.extend_from_slice(&endless);
        let mut r = BufReader::new(&raw[..]);
        let first = read_line(&mut r, MAX_HEAD_LINE_BYTES).unwrap().unwrap();
        let fault = parse_http(&first, &mut r).unwrap_err();
        assert_eq!((fault.status, fault.code), (431, "header_too_large"));
    }

    #[test]
    fn too_many_headers_are_a_431() {
        let mut raw = String::from("GET /v1/stats HTTP/1.1\r\n");
        for i in 0..10_000 {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let fault = parse(&raw).unwrap_err();
        assert_eq!((fault.status, fault.code), (431, "header_too_large"));
        assert!(fault.message.contains("header lines"), "{}", fault.message);
        // Exactly the cap still parses.
        let mut raw = String::from("GET /v1/stats HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw).unwrap().path, "/v1/stats");
    }

    #[test]
    fn lines_just_under_each_cap_still_parse() {
        // Request line: the whole line, `\r\n` included, fits the cap.
        let prefix = "GET /";
        let suffix = " HTTP/1.1";
        let path_len = MAX_HEAD_LINE_BYTES - 2 - prefix.len() - suffix.len();
        let request_line = format!("{prefix}{}{suffix}", "p".repeat(path_len));
        assert_eq!(request_line.len() + 2, MAX_HEAD_LINE_BYTES);
        // Header line: same bound.
        let name = "x-big: ";
        let header = format!("{name}{}", "v".repeat(MAX_HEAD_LINE_BYTES - 2 - name.len()));
        let raw = format!("{request_line}\r\n{header}\r\ncontent-length: 2\r\n\r\nok");
        let req = parse(&raw).unwrap();
        assert_eq!(req.path.len(), 1 + path_len);
        assert_eq!(req.body, b"ok");
        // An NDJSON op line just under the body bound reads whole.
        let op = format!("{{\"pad\":\"{}\"}}", "t".repeat(MAX_BODY_BYTES - 11));
        assert_eq!(op.len() + 1, MAX_BODY_BYTES);
        let framed = format!("{op}\n");
        let mut r = BufReader::new(framed.as_bytes());
        assert_eq!(read_line(&mut r, MAX_BODY_BYTES).unwrap().unwrap(), op);
        // One byte more and it is cut.
        let framed = format!("{op}x\n");
        let mut r = BufReader::new(framed.as_bytes());
        assert!(read_line(&mut r, MAX_BODY_BYTES).is_err());
    }

    #[test]
    fn chunked_stream_round_trips() {
        let mut out = Vec::new();
        start_chunked(&mut out, 200).unwrap();
        write_chunk(&mut out, "{\"event\":\"token\"}\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.contains("12\r\n{\"event\":\"token\"}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
