//! A deliberately small HTTP/1.1 subset: enough to parse one request from
//! any byte source and write one `Connection: close` response over a
//! [`TcpStream`].
//!
//! The server speaks exactly this subset — no keep-alive, no chunked
//! transfer, no multipart — which keeps the attack/bug surface of the
//! hand-rolled parser proportional to what the service actually needs.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers).
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parse or transport failure while reading a request.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// The request violated the supported HTTP subset.
    Malformed(String),
    /// Head or body exceeded the hard size caps (maps to 413).
    TooLarge,
    /// The underlying socket failed.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge => write!(f, "request exceeds size limits"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// Request path including any query string, e.g. `/v1/predict`.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (ASCII case-insensitive).
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Reads and parses one request from `stream`.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] on malformed syntax, size-cap violations or
    /// read failures.
    pub(crate) fn read_from(stream: &mut impl Read) -> Result<Request, HttpError> {
        let (head, mut body) = read_head(stream)?;
        let text = std::str::from_utf8(&head)
            .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
        let mut lines = text.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| HttpError::Malformed("missing method".into()))?
            .to_owned();
        let path = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing path".into()))?
            .to_owned();
        let version = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!(
                "unsupported version '{version}'"
            )));
        }

        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::Malformed(format!("header without ':': '{line}'")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }

        let request = Request {
            method,
            path,
            headers,
            body: Vec::new(),
        };
        if request.header("transfer-encoding").is_some() {
            return Err(HttpError::Malformed(
                "Transfer-Encoding is not supported: send Content-Length".into(),
            ));
        }
        let content_length = content_length(&request.headers)?;
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge);
        }
        if body.len() > content_length {
            return Err(HttpError::Malformed(
                "body longer than Content-Length".into(),
            ));
        }
        while body.len() < content_length {
            let mut chunk = [0u8; 4096];
            let want = (content_length - body.len()).min(chunk.len());
            let n = stream.read(&mut chunk[..want])?;
            if n == 0 {
                return Err(HttpError::Malformed("body truncated".into()));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        Ok(Request { body, ..request })
    }
}

/// The declared body length, 0 when absent. A value is ASCII digits only
/// (RFC 9110 §8.6), and repeated headers must agree (RFC 9112 §6.3). A
/// length too large for `usize` is [`HttpError::TooLarge`].
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut length = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::Malformed(format!("bad Content-Length '{v}'")));
        }
        let n = v.parse::<usize>().map_err(|_| HttpError::TooLarge)?;
        if length.is_some_and(|first| first != n) {
            return Err(HttpError::Malformed(
                "conflicting Content-Length headers".into(),
            ));
        }
        length = Some(n);
    }
    Ok(length.unwrap_or(0))
}

/// Reads up to and including the `\r\n\r\n` head terminator, returning
/// `(head bytes, body bytes already read past the terminator)`. A head of
/// more than [`MAX_HEAD_BYTES`] is [`HttpError::TooLarge`], wherever the
/// reads happen to split it.
fn read_head(stream: &mut impl Read) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut buf = Vec::with_capacity(1024);
    loop {
        if let Some(end) = find_terminator(&buf) {
            if end > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge);
            }
            let body = buf.split_off(end + 4);
            buf.truncate(end);
            return Ok((buf, body));
        }
        // Without a terminator in `MAX_HEAD_BYTES + 4` bytes, the head is
        // longer than the cap.
        if buf.len() >= MAX_HEAD_BYTES + 4 {
            return Err(HttpError::TooLarge);
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Byte offset of the first `\r\n\r\n`, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The standard reason phrase for the status codes this service emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one `Connection: close` response with a `Content-Length` body.
///
/// # Errors
///
/// Returns the socket error, which callers log and otherwise ignore — a
/// client that hung up early is not a server failure.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(raw: &[u8]) -> Result<Request, HttpError> {
        Request::read_from(&mut &raw[..])
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            round_trip(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
                .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(matches!(
            round_trip(b"NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            round_trip(b"GET / FTP/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            round_trip(b"GET / HTTP/1.1\r\nContent-Length: nine\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Body framing the subset refuses: chunked, a signed length, two
        // lengths that disagree. Each message names the header.
        for (raw, header) in [
            (
                &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n"[..],
                "Transfer-Encoding",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
                "Content-Length",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd",
                "Content-Length",
            ),
        ] {
            match round_trip(raw) {
                Err(HttpError::Malformed(msg)) => assert!(msg.contains(header), "{msg}"),
                other => panic!("expected a malformed {header}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            round_trip(raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn reason_phrases_cover_service_statuses() {
        for status in [200, 202, 400, 413, 422, 429, 500, 504] {
            assert_ne!(reason(status), "Unknown", "status {status}");
        }
    }

    /// A string of 1 to `max` characters drawn from `alphabet`.
    fn word(alphabet: &'static str, max: usize) -> impl Strategy<Value = String> {
        let chars: Vec<char> = alphabet.chars().collect();
        prop::collection::vec(0..chars.len(), 1..max + 1)
            .prop_map(move |ix| ix.into_iter().map(|i| chars[i]).collect())
    }

    const TOKEN: &str = "ABCXYZabcxyz0189-_";

    /// Header lines the parser keeps as they are: no body framing, names
    /// in mixed case, values trimmed, neither with a line break.
    fn plain_headers() -> impl Strategy<Value = Vec<(String, String)>> {
        let value = word("abz09 :;/=\"{}-", 24).prop_map(|v| v.trim().to_owned());
        let header =
            (word(TOKEN, 12), value).prop_map(|(name, value)| (format!("x-{name}"), value));
        prop::collection::vec(header, 0..6)
    }

    /// A request head: request line and header lines, without the blank
    /// line that ends it.
    fn head(request_line: &str, headers: &[(String, String)]) -> String {
        let lines = headers.iter().map(|(n, v)| format!("\r\n{n}: {v}"));
        lines.fold(request_line.to_owned(), |head, line| head + &line)
    }

    /// Fragments that splice into heads the parser must classify.
    const FRAGMENTS: [&[u8]; 18] = [
        b"GET",
        b"POST",
        b" ",
        b"/v1/predict",
        b"HTTP/1.1",
        b"HTTP/2",
        b"\r\n",
        b"\r\n\r\n",
        b":",
        b"Content-Length: ",
        b"transfer-encoding: chunked",
        b"0",
        b"17",
        b"99999999999999999999999",
        b"+",
        b"{\"a\":1}",
        b"\xff\xfe",
        b"\r",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Spliced fragments and raw bytes never panic the parser, and a
        /// byte source that cannot fail never yields a read error.
        #[test]
        fn no_input_panics(
            parts in prop::collection::vec(0..FRAGMENTS.len(), 0..40),
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut raw: Vec<u8> = parts.iter().flat_map(|&i| FRAGMENTS[i]).copied().collect();
            raw.extend(tail);
            let parsed = round_trip(&raw);
            prop_assert!(!matches!(parsed, Err(HttpError::Io(_))), "{parsed:?}");
        }

        /// The head cap is exact: a head of up to `MAX_HEAD_BYTES` parses,
        /// one byte more is 413, however the reads split it.
        #[test]
        fn the_head_cap_is_exact(
            len in prop_oneof![
                (MAX_HEAD_BYTES - 2048)..(MAX_HEAD_BYTES + 2048),
                (MAX_HEAD_BYTES + 1)..(4 * MAX_HEAD_BYTES),
            ],
            terminated in any::<bool>(),
        ) {
            let line = "GET / HTTP/1.1\r\nx-pad: ";
            let mut raw = format!("{line}{}", "a".repeat(len - line.len()));
            if terminated {
                raw.push_str("\r\n\r\n");
            }
            let parsed = round_trip(raw.as_bytes());
            match parsed {
                Err(HttpError::TooLarge) => prop_assert!(len > MAX_HEAD_BYTES, "len {len}"),
                Ok(_) => prop_assert!(terminated && len <= MAX_HEAD_BYTES, "len {len}"),
                Err(HttpError::Malformed(_)) => {
                    prop_assert!(!terminated && len <= MAX_HEAD_BYTES, "len {len}")
                }
                Err(HttpError::Io(e)) => prop_assert!(false, "read error {e}"),
            }
        }

        /// A declared body over `MAX_BODY_BYTES`, even one too long for
        /// `usize`, is 413 before any of it is read.
        #[test]
        fn an_oversized_content_length_is_too_large(
            excess in 1u64..u64::MAX / 2,
            extra_digits in word("0123456789", 12),
            overflow in any::<bool>(),
        ) {
            let length = MAX_BODY_BYTES as u64 + excess;
            let length = match overflow {
                true => format!("{length}{extra_digits}"),
                false => length.to_string(),
            };
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
            let parsed = round_trip(raw.as_bytes());
            prop_assert!(matches!(parsed, Err(HttpError::TooLarge)), "{parsed:?}");
        }

        /// Chunked framing, a non-digit or conflicting `Content-Length`, a
        /// request line without a version and a truncated body are all
        /// malformed (400).
        #[test]
        fn framing_violations_are_malformed(
            headers in plain_headers(),
            case in 0usize..5,
            n in 1usize..400,
            m in 0usize..400,
            junk in word("+-xa.,_", 3),
            at in 0usize..4,
        ) {
            let header = |name: &str, value: usize| (name.to_owned(), value.to_string());
            let post = "POST /v1/predict HTTP/1.1";
            let (line, framing, body) = match case {
                0 => (post, vec![("Transfer-Encoding".into(), "chunked".into())], 0),
                1 => {
                    let digits = n.to_string();
                    let cut = at.min(digits.len());
                    let value = format!("{}{junk}{}", &digits[..cut], &digits[cut..]);
                    (post, vec![("Content-Length".into(), value)], 0)
                }
                2 => {
                    let other = if m == n { n + 1 } else { m };
                    let lengths = [("content-length", n), ("Content-Length", other)];
                    (post, lengths.map(|(name, l)| header(name, l)).to_vec(), n)
                }
                3 => ("GET /healthz", Vec::new(), 0),
                _ => (post, vec![header("Content-Length", n)], m % n),
            };
            let all: Vec<_> = headers.into_iter().chain(framing).collect();
            let raw = format!("{}\r\n\r\n{}", head(line, &all), "a".repeat(body));
            let parsed = round_trip(raw.as_bytes());
            let malformed = matches!(parsed, Err(HttpError::Malformed(_)));
            prop_assert!(malformed, "case {case}: {parsed:?}");
        }

        /// A well-formed request round-trips its method, path, headers
        /// (names lowercased) and body.
        #[test]
        fn a_well_formed_request_round_trips(
            method in word("ABCDEGHLOPSTU", 7),
            path in word("abz09/_.?=&-", 30),
            headers in plain_headers(),
            body in prop::collection::vec(any::<u8>(), 0..600),
            declare_empty in any::<bool>(),
        ) {
            let path = format!("/{path}");
            let mut expected: Vec<(String, String)> = headers
                .iter()
                .map(|(n, v)| (n.to_ascii_lowercase(), v.clone()))
                .collect();
            let mut sent = headers;
            if !body.is_empty() || declare_empty {
                sent.push(("Content-Length".into(), body.len().to_string()));
                expected.push(("content-length".into(), body.len().to_string()));
            }
            let line = format!("{method} {path} HTTP/1.1");
            let mut raw = format!("{}\r\n\r\n", head(&line, &sent)).into_bytes();
            raw.extend_from_slice(&body);
            let parsed = round_trip(&raw);
            prop_assert!(parsed.is_ok(), "{parsed:?}");
            let parsed = parsed.unwrap();
            prop_assert_eq!(&parsed.method, &method);
            prop_assert_eq!(&parsed.path, &path);
            prop_assert_eq!(&parsed.headers, &expected);
            prop_assert_eq!(&parsed.body, &body);
        }
    }
}
