//! The nonblocking front end: an [`awb_reactor`] event loop serving the
//! same newline-JSON protocol as the blocking [`crate::server`].
//!
//! The reactor owns all socket I/O on one event-loop thread; request
//! lines are executed on its worker pool through [`EngineHandler`], which
//! delegates to the exact [`crate::server::handle_line`] the blocking
//! path uses — responses are byte-identical between the two servers, and
//! the integration tests assert it. Frames the reactor refuses to run
//! (queue full, frame cap exceeded, drain in progress) are rendered as
//! the service's structured errors with the request `id` echoed whenever
//! the offending line was parseable.

use crate::engine::{Engine, EngineConfig};
use crate::metrics::Metrics;
use crate::protocol::{self, ErrorCode, ServiceError};
use crate::server::handle_line;
use awb_reactor::{LineHandler, ReactorConfig, ReactorHandle, Reject};
use serde_json::Value;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Tuning for the reactor-mode server.
#[derive(Debug, Clone)]
pub struct ReactorServerConfig {
    /// Bind address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Worker threads executing solves off the event loop.
    pub workers: usize,
    /// Job-queue capacity; a full queue yields `overloaded` rejects.
    pub queue_capacity: usize,
    /// Per-frame byte cap; beyond it the client gets `frame_too_large`.
    pub max_frame_len: usize,
    /// How long a partial frame may sit unfinished before the connection
    /// is reaped (`None` disables the deadline).
    pub read_deadline: Option<Duration>,
    /// How long a slow consumer may leave response bytes unread (`None`
    /// disables the deadline).
    pub write_deadline: Option<Duration>,
    /// Bound on the graceful drain after a shutdown request.
    pub drain_deadline: Duration,
    /// Concurrent-connection cap; beyond it accepts are refused.
    pub max_connections: usize,
    /// Install the process SIGTERM/SIGINT handler so signals trigger the
    /// graceful drain (daemon mode; tests leave it off).
    pub install_signal_handler: bool,
    /// Engine (cache) configuration.
    pub engine: EngineConfig,
}

impl Default for ReactorServerConfig {
    fn default() -> Self {
        let reactor = ReactorConfig::default();
        ReactorServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: reactor.workers,
            queue_capacity: reactor.queue_capacity,
            max_frame_len: reactor.max_frame_len,
            read_deadline: reactor.read_deadline,
            write_deadline: reactor.write_deadline,
            drain_deadline: reactor.drain_deadline,
            max_connections: reactor.max_connections,
            install_signal_handler: false,
            engine: EngineConfig::default(),
        }
    }
}

/// Bridges the reactor's line-oriented callbacks onto the [`Engine`].
pub struct EngineHandler {
    engine: Arc<Engine>,
}

impl EngineHandler {
    /// Wraps an engine for reactor serving.
    pub fn new(engine: Arc<Engine>) -> EngineHandler {
        EngineHandler { engine }
    }
}

/// Extracts the request `id` from a (possibly malformed) request line so
/// error responses stay correlatable, mirroring `handle_line`.
fn line_id(line: Option<&str>) -> Value {
    line.and_then(|l| serde_json::from_str::<Value>(l).ok())
        .and_then(|v| v.get("id").cloned())
        .unwrap_or(Value::Null)
}

impl LineHandler for EngineHandler {
    fn handle(&self, line: &str) -> String {
        handle_line(&self.engine, line)
    }

    fn reject(&self, line: Option<&str>, reject: Reject) -> String {
        Metrics::bump(&self.engine.metrics.requests_error);
        let error = match reject {
            Reject::Overloaded => {
                Metrics::bump(&self.engine.metrics.rejected_overload);
                ServiceError::new(
                    ErrorCode::Overloaded,
                    "request queue full; retry with backoff",
                )
            }
            Reject::FrameTooLarge { limit } => ServiceError::new(
                ErrorCode::FrameTooLarge,
                format!("frame exceeds the {limit}-byte cap"),
            ),
            Reject::ShuttingDown => {
                ServiceError::new(ErrorCode::ShuttingDown, "server is shutting down")
            }
            Reject::Internal => ServiceError::new(
                ErrorCode::Internal,
                "internal error while serving the request",
            ),
        };
        protocol::error_response(&line_id(line), &error)
    }
}

/// A running reactor-mode server.
pub struct ReactorServer {
    engine: Arc<Engine>,
    handle: ReactorHandle,
}

/// Starts the nonblocking server on `config.addr`.
///
/// # Errors
///
/// Propagates bind and epoll-setup failures.
pub fn serve_reactor(config: ReactorServerConfig) -> io::Result<ReactorServer> {
    let engine = Arc::new(Engine::new(config.engine));
    serve_reactor_with(config, engine)
}

/// Like [`serve_reactor`] but fronts an existing engine (so tests and the
/// differential harness can share caches or inspect metrics).
///
/// # Errors
///
/// Propagates bind and epoll-setup failures.
pub fn serve_reactor_with(
    config: ReactorServerConfig,
    engine: Arc<Engine>,
) -> io::Result<ReactorServer> {
    let reactor_config = ReactorConfig {
        addr: config.addr,
        workers: config.workers,
        queue_capacity: config.queue_capacity,
        max_frame_len: config.max_frame_len,
        read_deadline: config.read_deadline,
        write_deadline: config.write_deadline,
        drain_deadline: config.drain_deadline,
        max_connections: config.max_connections,
        install_signal_handler: config.install_signal_handler,
    };
    let handler = Arc::new(EngineHandler::new(Arc::clone(&engine)));
    let handle = awb_reactor::spawn(reactor_config, handler)?;
    engine.attach_reactor_metrics(handle.metrics());
    Ok(ReactorServer { engine, handle })
}

impl ReactorServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// The shared engine (for metrics inspection in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Requests a graceful drain without waiting for it.
    pub fn request_shutdown(&self) {
        self.handle.shutdown();
    }

    /// Graceful shutdown: stop accepting, drain in-flight and queued work
    /// within the drain deadline, join all threads. Returns the final
    /// metrics summary (also logged to stderr).
    pub fn shutdown(self) -> String {
        self.handle.shutdown();
        let _ = self.handle.join();
        let summary = self.engine.metrics.summary();
        eprintln!("awb-service shutdown: {summary}");
        summary
    }

    /// Blocks until the reactor exits (a signal-triggered drain, when the
    /// handler is installed).
    ///
    /// # Errors
    ///
    /// Propagates a fatal event-loop error.
    pub fn join(self) -> io::Result<()> {
        self.handle.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::query_once;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const RELAY: &str = r#""topology": {"nodes": [[0,0],[50,0],[100,0]], "links": [[0,1],[1,2]], "alone_rates": [[54],[54]], "conflicts": [[0,1]]}"#;

    #[test]
    fn reactor_round_trip_matches_protocol() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let line = format!(r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1]}}"#);
        let response: Value = serde_json::from_str(&query_once(addr, &line).unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Value::as_str), Some("ok"));
        let bw = response["result"]["bandwidth_mbps"].as_f64().unwrap();
        assert!((bw - 27.0).abs() < 1e-6, "got {bw}");
        let summary = server.shutdown();
        assert!(summary.contains("ok=1"), "summary was: {summary}");
    }

    #[test]
    fn stats_reports_reactor_and_shard_sections() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let line = format!(r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1]}}"#);
        let _ = query_once(addr, &line).unwrap();
        let stats: Value =
            serde_json::from_str(&query_once(addr, r#"{"query": "stats"}"#).unwrap()).unwrap();
        let result = &stats["result"];
        assert!(result.get("reactor").is_some(), "missing reactor section");
        assert!(
            result["reactor"].get("frames").and_then(Value::as_u64) >= Some(1),
            "reactor frame counter should have ticked"
        );
        let shards = &result["instance_shards"];
        assert_eq!(
            shards.get("shards").and_then(Value::as_array).map(Vec::len),
            Some(8),
            "default shard count"
        );
        assert!(shards.get("misses").and_then(Value::as_u64) >= Some(1));
        server.shutdown();
    }

    #[test]
    fn admit_batch_sweeps_arrivals_in_order() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        // Two conflicting 54 Mbps hops: 27 Mbps available on link 0. The
        // first 20 Mbps arrival is admitted and consumes most of it; the
        // identical second arrival must then be refused.
        let line = format!(
            r#"{{"query": "admit_batch", {RELAY}, "arrivals": [
                {{"path": [0,1], "demand_mbps": 20.0}},
                {{"path": [0,1], "demand_mbps": 20.0}},
                {{"path": [0,1], "demand_mbps": 3.0}}
            ]}}"#
        )
        .replace('\n', " ");
        let response: Value = serde_json::from_str(&query_once(addr, &line).unwrap()).unwrap();
        assert_eq!(
            response.get("status").and_then(Value::as_str),
            Some("ok"),
            "response: {response}"
        );
        let rows = response["result"]["results"].as_array().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0]["admitted"].as_bool(), Some(true));
        assert_eq!(rows[1]["admitted"].as_bool(), Some(false));
        assert_eq!(
            rows[2]["admitted"].as_bool(),
            Some(true),
            "3 Mbps still fits"
        );
        assert_eq!(response["result"]["admitted_count"].as_u64(), Some(2));
        // All three arrivals share one link universe: one compile, rest warm.
        assert_eq!(response["result"]["session"]["compiles"].as_u64(), Some(1));
        server.shutdown();
    }

    #[test]
    fn deeply_nested_frame_does_not_take_the_daemon_down() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        // ~200 KB of nested `[` in one frame, under the 1 MiB frame cap: it
        // used to overflow a worker's stack and abort the whole process.
        let mut deep = "[".repeat(200_000);
        deep.push('\n');
        stream.write_all(deep.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["status"].as_str(), Some("error"), "{v}");
        assert_eq!(v["error"]["code"].as_str(), Some("bad_request"), "{v}");
        // The daemon keeps serving, on the same connection and on a new one.
        let request = format!(r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1]}}"#);
        let mut stream = reader.into_inner();
        stream.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        line.clear();
        reader.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"), "{v}");
        let v: Value = serde_json::from_str(&query_once(addr, &request).unwrap()).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"), "{v}");
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut batch = String::new();
        for id in 0..8 {
            batch.push_str(&format!(
                "{{\"query\": \"available_bandwidth\", \"id\": {id}, {RELAY}, \"path\": [0,1]}}\n"
            ));
        }
        stream.write_all(batch.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        for id in 0..8 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v["id"].as_u64(), Some(id), "responses left in order");
            assert_eq!(v["status"].as_str(), Some("ok"));
        }
        server.shutdown();
    }
}
