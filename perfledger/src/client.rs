//! The ledger's HTTP/1.1 client. It behaves like a phone's browser, so a
//! server-side change to connection handling or revalidation shows up
//! without editing the benchmark:
//!
//! - it never asks for `connection: close` and keeps a connection open
//!   whenever the server leaves it open;
//! - it revalidates with `if-none-match` when the same user was given an
//!   `etag` for that path earlier, and serves a `304` from its own copy;
//! - it records when the first and the last response byte arrived and how
//!   many bytes crossed the socket, framing included.

use msite_net::decode_chunked;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One completed request/response exchange.
#[derive(Debug)]
pub struct Exchange {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    /// The response body after de-chunking; for a `304`, the client's
    /// cached copy.
    pub body: Vec<u8>,
    /// Start of the request (connect, when one was needed) to the first
    /// response byte.
    pub ttfb: Duration,
    /// Start of the request to the last response byte.
    pub latency: Duration,
    /// Bytes read from the socket: status line, headers, chunk framing
    /// and body.
    pub wire_bytes: u64,
    /// New TCP connections this exchange opened.
    pub connects: u32,
}

impl Exchange {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Counts the bytes pulled off the socket and stamps the first one.
struct Counting {
    stream: TcpStream,
    bytes: u64,
    first_byte: Option<Instant>,
}

impl Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        if n > 0 {
            self.bytes += n as u64;
            self.first_byte.get_or_insert_with(Instant::now);
        }
        Ok(n)
    }
}

pub struct Client {
    addr: SocketAddr,
    host: String,
    conn: Option<BufReader<Counting>>,
    /// `(cookie, path)` → `(etag, body)` for revalidation.
    validators: HashMap<(String, String), (String, Vec<u8>)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            host: addr.to_string(),
            conn: None,
            validators: HashMap::new(),
        }
    }

    /// Sends `GET path` with `headers` and reads the whole response. A
    /// kept-alive connection the server has meanwhile closed is replaced
    /// once, as browsers do for idempotent requests.
    pub fn get(&mut self, path: &str, headers: &[(&str, &str)]) -> std::io::Result<Exchange> {
        let cookie = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("cookie"))
            .map(|(_, v)| v.to_string());
        let key = cookie.map(|c| (c, path.to_string()));
        let etag = key
            .as_ref()
            .and_then(|k| self.validators.get(k))
            .map(|(etag, _)| etag.clone());
        let mut head = format!("GET {path} HTTP/1.1\r\nhost: {}\r\n", self.host);
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(etag) = &etag {
            head.push_str(&format!("if-none-match: {etag}\r\n"));
        }
        head.push_str("\r\n");

        let started = Instant::now();
        let reused = self.conn.is_some();
        let mut exchange = match self.exchange(head.as_bytes(), started) {
            Err(e) if reused && e.kind() != std::io::ErrorKind::InvalidData => {
                self.conn = None;
                self.exchange(head.as_bytes(), started)?
            }
            other => other?,
        };
        if let Some(key) = key {
            if exchange.status == 304 {
                if let Some((_, body)) = self.validators.get(&key) {
                    exchange.body = body.clone();
                }
            } else if let Some(etag) = exchange.header("etag") {
                let etag = etag.to_string();
                self.validators.insert(key, (etag, exchange.body.clone()));
            }
        }
        Ok(exchange)
    }

    fn exchange(&mut self, head: &[u8], started: Instant) -> std::io::Result<Exchange> {
        let mut connects = 0;
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            connects = 1;
            self.conn = Some(BufReader::new(Counting {
                stream,
                bytes: 0,
                first_byte: None,
            }));
        }
        let reader = self.conn.as_mut().expect("connection opened above");
        reader.get_mut().bytes = 0;
        reader.get_mut().first_byte = None;
        reader.get_mut().stream.write_all(head)?;

        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let mut parts = status_line.split_whitespace();
        let version = parts.next().unwrap_or("");
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let chunked =
            header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let length = header("content-length").map(|v| v.parse::<usize>());
        let mut keep = version == "HTTP/1.1"
            && !header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let mut body = Vec::new();
        if status == 304 || status == 204 || (100..200).contains(&status) {
        } else if chunked {
            body = decode_chunked(reader).map_err(|e| bad(&e.to_string()))?;
        } else if let Some(length) = length {
            let length = length.map_err(|_| bad("bad content-length"))?;
            body.resize(length, 0);
            reader.read_exact(&mut body)?;
        } else {
            reader.read_to_end(&mut body)?;
            keep = false;
        }
        let last_byte = Instant::now();
        let counting = reader.get_ref();
        let first_byte = counting.first_byte.unwrap_or(last_byte);
        let exchange = Exchange {
            status,
            headers,
            body,
            ttfb: first_byte.duration_since(started),
            latency: last_byte.duration_since(started),
            wire_bytes: counting.bytes,
            connects,
        };
        if !keep {
            self.conn = None;
        }
        Ok(exchange)
    }
}
