//! The daemon: a std-only thread-pool TCP server speaking newline-delimited
//! JSON, plus a single-shot stdin/stdout mode.
//!
//! Concurrency shape: one non-blocking accept loop feeds accepted
//! connections into a [`BoundedQueue`]; a fixed pool of worker threads pops
//! connections and serves every request line on them. When the queue is
//! full the accept loop answers immediately with a structured `overloaded`
//! error and closes the connection — producers never block, clients get
//! explicit backpressure. [`ServerHandle::shutdown`] stops accepting,
//! drains queued and in-flight connections, joins every thread and logs a
//! metrics summary.

use crate::engine::{Engine, EngineConfig};
use crate::protocol::{self, ErrorCode, Request, ServiceError};
use crate::queue::{BoundedQueue, PushError};
use serde_json::Value;
use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop and connection reads sleep between polls.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Connections admitted to the queue before `overloaded` rejections.
    pub queue_capacity: usize,
    /// Bytes a single unterminated frame may buffer before the connection
    /// is answered with `frame_too_large` and closed.
    pub max_frame_len: usize,
    /// Engine (cache) configuration.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_frame_len: 1 << 20,
            engine: EngineConfig::default(),
        }
    }
}

/// A running server; dropping it without [`ServerHandle::shutdown`] leaves
/// the threads running for the process lifetime.
pub struct ServerHandle {
    engine: Arc<Engine>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// Starts a server on `config.addr`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr.as_str())?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let engine = Arc::new(Engine::new(config.engine));
    let shutdown = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(BoundedQueue::<TcpStream>::new(config.queue_capacity.max(1)));

    let max_frame_len = config.max_frame_len.max(1);
    let workers = (0..config.workers.max(1))
        .map(|_| {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while let Some(stream) = queue.pop() {
                    serve_connection(&engine, stream, &shutdown, max_frame_len);
                }
            })
        })
        .collect();

    let acceptor = {
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            loop {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => dispatch(&queue, stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
            // Stop the workers once no more connections will arrive;
            // queued connections are still drained before they exit.
            queue.close();
        })
    };

    Ok(ServerHandle {
        engine,
        local_addr,
        shutdown,
        acceptor,
        workers,
    })
}

/// Hands an accepted connection to the workers, or rejects it.
fn dispatch(queue: &BoundedQueue<TcpStream>, stream: TcpStream) {
    if let Err((reason, mut stream)) = queue.try_push(stream) {
        let error = match reason {
            PushError::Full => ServiceError::new(
                ErrorCode::Overloaded,
                "request queue full; retry with backoff",
            ),
            PushError::Closed => {
                ServiceError::new(ErrorCode::ShuttingDown, "server is shutting down")
            }
        };
        let line = protocol::error_response(&Value::Null, &error);
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.write_all(b"\n");
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared engine (for metrics inspection in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// connections, join all threads. Returns the final metrics summary
    /// (also logged to stderr).
    pub fn shutdown(self) -> String {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        let summary = self.engine.metrics.summary();
        eprintln!("awb-service shutdown: {summary}");
        summary
    }

    /// Blocks the calling thread for the lifetime of the accept loop —
    /// i.e. forever, for a daemon with no external shutdown signal.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Serves every request line on one connection until EOF (or until a
/// shutdown is requested and the client goes quiet).
fn serve_connection(engine: &Engine, stream: TcpStream, shutdown: &AtomicBool, max_frame: usize) {
    // Poll reads so the worker can notice a shutdown between lines.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut stream = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Serve complete lines already buffered.
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            let response = handle_line(engine, line.trim());
            if writer.write_all(response.as_bytes()).is_err()
                || writer.write_all(b"\n").is_err()
                || writer.flush().is_err()
            {
                return;
            }
        }
        // Whatever remains is an unterminated partial frame; cap it so a
        // client streaming garbage without newlines cannot grow the buffer
        // unboundedly.
        if pending.len() > max_frame {
            let error = ServiceError::new(
                ErrorCode::FrameTooLarge,
                format!("frame exceeds the {max_frame}-byte cap"),
            );
            let line = protocol::error_response(&Value::Null, &error);
            let _ = writer.write_all(line.as_bytes());
            let _ = writer.write_all(b"\n");
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // In-flight work is done (no buffered full line); stop
                // waiting for more input only when shutting down.
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Parses and executes one request line, rendering the response line.
pub fn handle_line(engine: &Engine, line: &str) -> String {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            crate::metrics::Metrics::bump(&engine.metrics.requests_error);
            // Echo the id even when validation fails so clients can still
            // correlate the error; truly malformed JSON leaves it null.
            let id = serde_json::from_str::<Value>(line)
                .ok()
                .and_then(|v| v.get("id").cloned())
                .unwrap_or(Value::Null);
            return protocol::error_response(&id, &e);
        }
    };
    let started = Instant::now();
    let deadline = request
        .deadline_ms
        .map(|ms| started + Duration::from_millis(ms));
    match engine.handle(&request, deadline) {
        Ok((result, cache)) => {
            crate::metrics::Metrics::bump(&engine.metrics.requests_ok);
            let elapsed_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            protocol::ok_response(&request.id, request.query, result, cache, elapsed_us)
        }
        Err(e) => {
            crate::metrics::Metrics::bump(&engine.metrics.requests_error);
            protocol::error_response(&request.id, &e)
        }
    }
}

/// Single-shot mode: serves newline-delimited requests from `input` until
/// EOF, writing one response line each to `output`. Returns the number of
/// requests served.
///
/// # Errors
///
/// Propagates write failures (input errors end the stream instead).
pub fn serve_stdio<R: BufRead, W: Write>(
    engine: &Engine,
    input: R,
    output: &mut W,
) -> io::Result<usize> {
    let mut served = 0;
    for line in input.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(engine, line.trim());
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        served += 1;
    }
    Ok(served)
}

/// A minimal blocking client for one request/response exchange, used by the
/// CLI's `query` subcommand and the integration tests.
///
/// # Errors
///
/// Propagates connection and I/O failures; `ErrorKind::UnexpectedEof` when
/// the server closes without answering.
pub fn query_once<A: ToSocketAddrs>(addr: A, request_line: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request_line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = io::BufReader::new(stream);
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without answering",
        ));
    }
    Ok(line.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    // Single-line on purpose: the wire protocol is one request per line.
    const RELAY: &str = r#""topology": {"nodes": [[0,0],[50,0],[100,0]], "links": [[0,1],[1,2]], "alone_rates": [[54],[54]], "conflicts": [[0,1]]}"#;

    #[test]
    fn stdio_round_trip() {
        let engine = Engine::new(EngineConfig::default());
        let input = format!(
            "{{\"query\": \"available_bandwidth\", \"id\": 1, {RELAY}, \"path\": [0,1]}}\n\
             not json\n\
             {{\"query\": \"stats\"}}\n"
        );
        let mut out = Vec::new();
        let served = serve_stdio(&engine, Cursor::new(input), &mut out).unwrap();
        assert_eq!(served, 3);
        let lines: Vec<Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0].get("status").and_then(Value::as_str), Some("ok"));
        // Two conflicting 54 Mbps hops share the channel: 27 Mbps end to end.
        let bw = lines[0]["result"]["bandwidth_mbps"].as_f64().unwrap();
        assert!((bw - 27.0).abs() < 1e-6, "got {bw}");
        assert_eq!(
            lines[1].get("status").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(
            lines[2]["result"]["requests_ok"].as_u64(),
            Some(1),
            "stats sees the earlier success"
        );
    }

    #[test]
    fn tcp_round_trip_and_graceful_shutdown() {
        let server = serve(ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let line = format!(r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1]}}"#);
        let response: Value = serde_json::from_str(&query_once(addr, &line).unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Value::as_str), Some("ok"));
        let summary = server.shutdown();
        assert!(summary.contains("ok=1"), "summary was: {summary}");
    }

    #[test]
    fn deeply_nested_frame_is_a_bad_request() {
        let engine = Engine::new(EngineConfig::default());
        // ~200 KB of `[`: without the parser's depth cap this recursed once
        // per byte and overflowed the thread's stack.
        let deep = "[".repeat(200_000);
        let response: Value = serde_json::from_str(&handle_line(&engine, &deep)).unwrap();
        assert_eq!(response["status"].as_str(), Some("error"));
        assert_eq!(response["error"]["code"].as_str(), Some("bad_request"));
        assert!(response["id"].is_null());
        // The same engine still answers a well-formed request.
        let line = format!(r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1]}}"#);
        let response: Value = serde_json::from_str(&handle_line(&engine, &line)).unwrap();
        assert_eq!(response["status"].as_str(), Some("ok"), "{response}");
    }

    #[test]
    fn deadline_zero_is_rejected_structurally() {
        let engine = Engine::new(EngineConfig::default());
        let line = format!(
            r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1], "deadline_ms": 0}}"#
        );
        let response: Value = serde_json::from_str(&handle_line(&engine, &line)).unwrap();
        assert_eq!(
            response["error"].get("code").and_then(Value::as_str),
            Some("deadline_exceeded")
        );
    }
}
