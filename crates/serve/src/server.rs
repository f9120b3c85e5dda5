//! The transport shell: line-delimited JSON over TCP, with a thin
//! HTTP/1.1 shim on the same port.
//!
//! A connection speaks whichever protocol its first bytes announce: lines
//! starting with `GET ` / `POST ` are handled as one HTTP request
//! (`GET /metrics[?format=prom]`, `GET /stats`, `GET /status?id=N`,
//! `GET /trace?id=N`, `GET /healthz`, `GET /readyz`, `POST /submit`,
//! `POST /cancel?id=N`, `POST /shutdown`); anything else is the native
//! protocol — one [`crate::wire`] request per line, one response line
//! each, connection held open until the client hangs up. Both decode into
//! the same [`Request`] and run it through one `execute`; they differ only
//! in how they render its reply.
//!
//! The transport is defensive: every line read is capped at
//! [`crate::core::ServeConfig::max_line_bytes`] (overflow answers a typed
//! `bad-request` and closes the connection instead of buffering without
//! bound), and sockets carry read/write timeouts so a stalled client
//! cannot pin a connection thread forever.
//!
//! All policy lives in [`ServeCore`]; this module only frames bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use salam_obs::{json, MetricsRegistry};

use crate::core::{ServeConfig, ServeCore, SubmitOpts};
use crate::job::{JobId, JobLookupError, JobStatus, Rejection};
use crate::wire::{self, Request};

/// A listening server. [`Server::shutdown`] (or the wire `shutdown` op)
/// stops the accept loop and the core's workers.
pub struct Server {
    core: Arc<ServeCore>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim, or a journal that cannot be opened.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let core = Arc::new(ServeCore::try_start(cfg)?);
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let core = core.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let core = core.clone();
                    let stop = stop.clone();
                    std::thread::spawn(move || {
                        let _ = handle_connection(&core, stream, &stop);
                    });
                }
            })
        };
        Ok(Server {
            core,
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted core, for in-process inspection (tests, embedding).
    pub fn core(&self) -> &ServeCore {
        &self.core
    }

    /// `true` once a client has requested shutdown over the wire.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Parks until a client requests shutdown over the wire, then tears
    /// the server down. This is the main loop of the `salam_serve` binary.
    pub fn serve_until_stopped(self) {
        while !self.stop_requested() {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        self.shutdown();
    }

    /// Stops accepting connections and shuts the core down. Blocks until
    /// in-flight simulations finish.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.core.shutdown();
    }
}

/// One bounded line read off the socket.
enum BoundedLine {
    /// Clean end of stream before any byte of a new line.
    Eof,
    /// A complete (or EOF-truncated) line within the cap.
    Line(String),
    /// The cap was hit before a newline appeared — the connection is
    /// poisoned (the rest of the oversized line is still in flight).
    Overflow,
}

/// Reads one `\n`-terminated line, never buffering more than `max` bytes
/// of it. This replaces unbounded `read_line` on every socket path.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> std::io::Result<BoundedLine> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(BoundedLine::Eof);
    }
    if buf.last() != Some(&b'\n') && buf.len() > max {
        return Ok(BoundedLine::Overflow);
    }
    Ok(BoundedLine::Line(
        String::from_utf8_lossy(&buf).into_owned(),
    ))
}

/// Applies the configured socket timeouts (no-op when disabled).
fn apply_timeouts(stream: &TcpStream, cfg: &ServeConfig) -> std::io::Result<()> {
    if cfg.io_timeout_ms > 0 {
        let t = Some(Duration::from_millis(cfg.io_timeout_ms));
        stream.set_read_timeout(t)?;
        stream.set_write_timeout(t)?;
    }
    Ok(())
}

/// Serves one connection in whichever protocol it opens with.
fn handle_connection(
    core: &ServeCore,
    stream: TcpStream,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    apply_timeouts(&stream, core.config())?;
    // Replies are small and the client waits for each one: never hold a
    // segment back for coalescing.
    stream.set_nodelay(true)?;
    let max_line = core.config().max_line_bytes.max(1);
    let mut reader = BufReader::new(stream.try_clone()?);
    let first = match read_bounded_line(&mut reader, max_line)? {
        BoundedLine::Eof => return Ok(()),
        BoundedLine::Overflow => return reject_oversize(&stream),
        BoundedLine::Line(line) => line,
    };
    if first.starts_with("GET ") || first.starts_with("POST ") {
        return handle_http(core, stream, reader, &first, stop);
    }
    let mut line = first;
    loop {
        let reply = execute(core, wire::parse_request(line.trim()), stop);
        write_line(&stream, line_reply(reply))?;
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        line = match read_bounded_line(&mut reader, max_line)? {
            BoundedLine::Eof => return Ok(()),
            BoundedLine::Overflow => return reject_oversize(&stream),
            BoundedLine::Line(l) => l,
        };
    }
}

/// Answers a request line over the size limit; the caller then closes.
fn reject_oversize(stream: &TcpStream) -> std::io::Result<()> {
    let msg = wire::err_json("bad-request", "request line exceeds the size limit");
    write_line(stream, msg)
}

/// Sends one reply line — body and newline in a single write, so the
/// reply leaves as one segment instead of a body the peer's delayed ACK
/// holds the newline behind (≈ 40 ms per round trip on Linux).
fn write_line(mut stream: &TcpStream, mut reply: String) -> std::io::Result<()> {
    reply.push('\n');
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

/// What one request produced, before a transport renders it.
enum Reply {
    Submitted(JobId),
    Rejected(Rejection),
    /// A job's status: the answer to `status`, `wait` and `cancel`.
    Status(JobStatus),
    /// The id names no job: never allocated, or evicted.
    Lookup(JobId, JobLookupError),
    Artifact(String),
    /// No such artifact (yet); the message says why.
    NoArtifact(String),
    Metrics(MetricsRegistry),
    Prom(String),
    Stats(String),
    /// Shutdown acknowledged.
    Ack,
    /// The request did not decode.
    BadRequest(String),
}

/// Runs one decoded request against the core — the only place either
/// transport calls [`ServeCore`] on a client's behalf.
fn execute(core: &ServeCore, req: Result<Request, String>, stop: &AtomicBool) -> Reply {
    let status = |id, r: Result<JobStatus, JobLookupError>| match r {
        Ok(s) => Reply::Status(s),
        Err(e) => Reply::Lookup(id, e),
    };
    match req {
        Err(m) => Reply::BadRequest(m),
        Ok(Request::Submit {
            tenant,
            job,
            deadline_ms,
        }) => match core.submit_with(&tenant, job, SubmitOpts { deadline_ms }) {
            Ok(id) => Reply::Submitted(id),
            Err(r) => Reply::Rejected(r),
        },
        Ok(Request::Status(id)) => status(id, core.status(id)),
        Ok(Request::Wait(id)) => status(id, core.wait(id)),
        Ok(Request::Cancel(id)) => status(id, core.cancel(id)),
        Ok(Request::Result { id, artifact }) => match core.artifact(id, &artifact) {
            Ok(text) => Reply::Artifact(text),
            Err(m) => Reply::NoArtifact(m),
        },
        Ok(Request::Metrics) => Reply::Metrics(core.metrics()),
        Ok(Request::MetricsProm) => Reply::Prom(core.metrics_prom()),
        Ok(Request::Stats) => Reply::Stats(core.stats_line()),
        Ok(Request::Shutdown) => {
            // The accept loop and core are torn down after the response is
            // flushed; the caller sees a clean `ok`.
            stop.store(true, Ordering::SeqCst);
            Reply::Ack
        }
    }
}

/// Renders a reply as one native-protocol response line.
fn line_reply(reply: Reply) -> String {
    let quoted = |text: &str| format!("\"{}\"", json::escape(text));
    match reply {
        Reply::Submitted(id) => wire::submit_ok(id),
        Reply::Rejected(r) => wire::rejection_json(&r),
        Reply::Status(s) => wire::status_json(&s),
        Reply::Lookup(id, e) => wire::err_json(e.code(), &e.message(id)),
        Reply::Artifact(text) => wire::artifact_json(&text),
        Reply::NoArtifact(m) => wire::err_json("not-found", &m),
        // The registry renders pretty-printed (multi-line) JSON; the wire
        // is line-delimited, so flatten it or the client reads a torn line.
        Reply::Metrics(m) => wire::raw_ok("metrics", &m.to_json().replace('\n', " ")),
        Reply::Prom(text) => wire::raw_ok("prom", &quoted(&text)),
        Reply::Stats(line) => wire::raw_ok("stats", &quoted(&line)),
        Reply::Ack => wire::ok_json(),
        Reply::BadRequest(m) => wire::err_json("bad-request", &m),
    }
}

/// Headers accepted per HTTP request before the parser gives up.
const MAX_HEADERS: usize = 100;

/// Serves one HTTP/1.1 request (`Connection: close` semantics).
fn handle_http(
    core: &ServeCore,
    mut stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    request_line: &str,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let max_line = core.config().max_line_bytes.max(1);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");

    let mut content_length = 0usize;
    let mut overflow = false;
    for _ in 0..MAX_HEADERS {
        let header = match read_bounded_line(&mut reader, max_line)? {
            BoundedLine::Eof => break,
            BoundedLine::Overflow => {
                overflow = true;
                break;
            }
            BoundedLine::Line(h) => h,
        };
        let h = header.trim();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(0);
        }
    }
    let route = if overflow {
        HttpResponse {
            status: "400 Bad Request",
            content_type: JSON,
            retry_after_s: None,
            payload: wire::err_json("bad-request", "header line exceeds the size limit"),
        }
    } else {
        let mut body = vec![0u8; content_length.min(1 << 20)];
        if !body.is_empty() {
            reader.read_exact(&mut body)?;
        }
        let body = String::from_utf8_lossy(&body);
        http_route(core, method, target, &body, stop)
    };
    let retry = route
        .retry_after_s
        .map_or(String::new(), |s| format!("Retry-After: {s}\r\n"));
    let response = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{retry}Connection: close\r\n\r\n{}",
        route.status,
        route.content_type,
        route.payload.len(),
        route.payload
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()?;
    Ok(())
}

/// The content type every JSON response carries.
const JSON: &str = "application/json";
/// The Prometheus text exposition content type (format 0.0.4).
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One routed HTTP response.
struct HttpResponse {
    status: &'static str,
    content_type: &'static str,
    /// Emitted as a `Retry-After` header (seconds) on shed responses.
    retry_after_s: Option<u64>,
    payload: String,
}

impl HttpResponse {
    fn ok(content_type: &'static str, payload: String) -> Self {
        HttpResponse {
            status: "200 OK",
            content_type,
            retry_after_s: None,
            payload,
        }
    }

    fn err(status: &'static str, payload: String) -> Self {
        HttpResponse {
            status,
            content_type: JSON,
            retry_after_s: None,
            payload,
        }
    }
}

/// Renders a reply as an HTTP response: the status code, `Retry-After`
/// and content type; the trace artifact and the Prometheus text go out
/// raw, the metrics JSON unflattened, everything else as its line reply.
fn http_reply(reply: Reply) -> HttpResponse {
    match reply {
        Reply::Rejected(r) => HttpResponse {
            // Overload shedding maps to 429 with a Retry-After hint;
            // everything else stays a plain refusal.
            status: match r.code {
                "overloaded" => "429 Too Many Requests",
                "circuit-open" => "503 Service Unavailable",
                _ => "403 Forbidden",
            },
            content_type: JSON,
            retry_after_s: r.retry_after_ms.map(|ms| ms.div_ceil(1000).max(1)),
            payload: wire::rejection_json(&r),
        },
        Reply::Lookup(id, e) => HttpResponse::err(
            match e {
                JobLookupError::Evicted => "410 Gone",
                JobLookupError::NotFound => "404 Not Found",
            },
            wire::err_json(e.code(), &e.message(id)),
        ),
        Reply::Artifact(text) => HttpResponse::ok(JSON, text),
        Reply::NoArtifact(m) => HttpResponse::err("404 Not Found", wire::err_json("not-found", &m)),
        Reply::Metrics(m) => HttpResponse::ok(JSON, wire::raw_ok("metrics", &m.to_json())),
        Reply::Prom(text) => HttpResponse::ok(PROM, text),
        Reply::BadRequest(m) => {
            HttpResponse::err("400 Bad Request", wire::err_json("bad-request", &m))
        }
        other => HttpResponse::ok(JSON, line_reply(other)),
    }
}

/// Decodes an HTTP request into the native [`Request`] it stands for and
/// runs it through [`execute`]; only the health probes answer here.
fn http_route(
    core: &ServeCore,
    method: &str,
    target: &str,
    body: &str,
    stop: &AtomicBool,
) -> HttpResponse {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query_val = |key: &str| {
        query
            .split('&')
            .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
    };
    let id = || {
        query_val("id")
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| "missing or malformed id".to_string())
    };
    let req = match (method, path) {
        // Liveness: the process is up and serving sockets.
        ("GET", "/healthz") => return HttpResponse::ok(JSON, wire::ok_json()),
        // Readiness: accepting new work. Flips 503 the moment shutdown or
        // draining begins, so load balancers stop routing first.
        ("GET", "/readyz") => {
            return if core.ready() && !stop.load(Ordering::SeqCst) {
                HttpResponse::ok(JSON, wire::ok_json())
            } else {
                HttpResponse::err(
                    "503 Service Unavailable",
                    wire::err_json("draining", "server is shutting down"),
                )
            };
        }
        ("GET", "/metrics") => Ok(match query_val("format") {
            Some("prom") => Request::MetricsProm,
            _ => Request::Metrics,
        }),
        ("GET", "/stats") => Ok(Request::Stats),
        ("GET", "/status") => id().map(Request::Status),
        ("POST", "/cancel") => id().map(Request::Cancel),
        // The span-tree trace artifact, raw — load it straight into
        // Perfetto / chrome://tracing.
        ("GET", "/trace") => id().map(|id| Request::Result {
            id,
            artifact: "trace".to_string(),
        }),
        ("POST", "/submit") => wire::parse_submit_body(body),
        ("POST", "/shutdown") => Ok(Request::Shutdown),
        _ => {
            return HttpResponse::err(
                "404 Not Found",
                wire::err_json("not-found", &format!("no route {method} {path}")),
            )
        }
    };
    http_reply(execute(core, req, stop))
}
