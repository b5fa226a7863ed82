//! The three daemon workloads: closed-loop request drivers, the measured
//! window against an in-process `serve_reactor` daemon, and answer
//! verification against direct `awb_core` solves.

use crate::client::{self, Conn};
use crate::gen::{self, Sequence, Trace, DEMAND_MBPS};
use awb_core::{link_universe, AvailableBandwidthOptions, CompiledInstance, Flow, SolverKind};
use awb_net::LinkRateModel;
use awb_service::spec::TopologySpec;
use awb_service::{serve_reactor, EngineConfig, ReactorServerConfig};
use awb_sets::EnumerationOptions;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Every this many `admit`s of a connection, the answer is kept for
/// verification (prime, so samples drift across sequence positions).
pub const SAMPLE_EVERY: u64 = 29;
/// Verified answers per connection and run.
pub const SAMPLE_CAP: usize = 40;

/// Request kinds, for the per-kind breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `register_topology`.
    Register,
    /// `admit`.
    Admit,
    /// `update`.
    Update,
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct OpRec {
    /// Connection index.
    pub conn: usize,
    /// Request kind.
    pub kind: Kind,
    /// Send time, ns after the window opened.
    pub send_ns: u64,
    /// Send → full reply line.
    pub lat_ns: u64,
    /// The server's own `elapsed_us` (engine time only).
    pub server_us: u64,
    /// Request bytes, newline included.
    pub bytes: usize,
    /// Cache rung byte (see [`client::rung`]).
    pub rung: u8,
    /// Success status and a right answer.
    pub ok: bool,
}

/// A closed-loop request source for one connection.
pub trait Driver: Send {
    /// The next request.
    fn next_line(&mut self, id: u64) -> (Kind, String);
    /// Digests the reply to the last request; `false` marks a wrong answer.
    fn on_reply(&mut self, reply: &str, ok: bool) -> bool;
}

/// An `admit` answer kept for verification: what was asked and the
/// rendered `result` object the daemon returned.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The topology the request was made against.
    pub spec: Arc<TopologySpec>,
    /// Background flow paths.
    pub background: Vec<Vec<usize>>,
    /// The new path.
    pub path: Vec<usize>,
    /// The reply's `result` JSON.
    pub result: String,
}

/// Walks §5.2 admission sequences: `register_topology`, then one `admit`
/// per path with every flow admitted so far as background. The pool is
/// cycled; it is sized past the result and instance caches so a cycled
/// sequence misses again.
pub struct AdmitDriver {
    pool: Arc<Vec<Sequence>>,
    specs: Vec<Arc<TopologySpec>>,
    seq: usize,
    step: usize,
    admitted: Vec<usize>,
    admits: u64,
    record_every: u64,
    record_cap: usize,
    /// Kept answers.
    pub answers: Vec<Answer>,
    /// Link-universe size of every `admit` sent.
    pub universes: Vec<u16>,
}

impl AdmitDriver {
    /// A driver over `pool`, keeping every `record_every`-th answer up to
    /// `record_cap`.
    pub fn new(pool: Arc<Vec<Sequence>>, record_every: u64, record_cap: usize) -> AdmitDriver {
        let specs = pool.iter().map(|s| Arc::new(s.spec.clone())).collect();
        AdmitDriver {
            pool,
            specs,
            seq: 0,
            step: 0,
            admitted: Vec::new(),
            admits: 0,
            record_every,
            record_cap,
            answers: Vec::new(),
            universes: Vec::new(),
        }
    }

    /// Sequences started so far.
    pub fn sequences_started(&self) -> usize {
        self.seq + usize::from(self.step > 0)
    }

    /// Whether one pass over the pool has completed.
    pub fn pool_done(&self) -> bool {
        self.seq >= self.pool.len()
    }

    fn current(&self) -> &Sequence {
        &self.pool[self.seq % self.pool.len()]
    }

    fn background(&self) -> Vec<&[usize]> {
        let s = self.current();
        self.admitted
            .iter()
            .map(|&i| s.paths[i].as_slice())
            .collect()
    }
}

impl Driver for AdmitDriver {
    fn next_line(&mut self, id: u64) -> (Kind, String) {
        let s = self.current();
        if self.step == 0 {
            return (Kind::Register, gen::register_line(id, &s.spec_json));
        }
        let path = &s.paths[self.step - 1];
        let background = self.background();
        let mut links: Vec<usize> = background.iter().flat_map(|p| p.iter().copied()).collect();
        links.extend_from_slice(path);
        links.sort_unstable();
        links.dedup();
        let line = gen::admit_line(id, s.hash, &background, path);
        self.universes.push(links.len() as u16);
        (Kind::Admit, line)
    }

    fn on_reply(&mut self, reply: &str, ok: bool) -> bool {
        let mut right = true;
        if self.step > 0 {
            let path = self.step - 1;
            let admitted = if ok { client::admitted(reply) } else { None };
            right = admitted.is_some();
            if ok
                && self.admits.is_multiple_of(self.record_every)
                && self.answers.len() < self.record_cap
            {
                let s = self.current();
                let answer = Answer {
                    spec: Arc::clone(&self.specs[self.seq % self.pool.len()]),
                    background: self.admitted.iter().map(|&i| s.paths[i].clone()).collect(),
                    path: s.paths[path].clone(),
                    result: client::result_json(reply).unwrap_or_default().to_string(),
                };
                self.answers.push(answer);
            }
            self.admits += 1;
            if admitted == Some(true) {
                self.admitted.push(path);
            }
        }
        self.step += 1;
        if self.step > self.current().paths.len() {
            self.seq += 1;
            self.step = 0;
            self.admitted.clear();
        }
        right
    }
}

/// Drives random-waypoint traces: epoch 0 registers the topology, every
/// later epoch sends one `update` (movers plus newly seen links), then the
/// epoch's `admit`s against the patched topology's hash.
pub struct MobilityDriver {
    traces: Arc<Vec<Trace>>,
    specs: Vec<Vec<Arc<TopologySpec>>>,
    register_json: Vec<String>,
    trace: usize,
    epoch: usize,
    step: usize,
    admitted: Vec<usize>,
    admits: u64,
    /// Kept answers.
    pub answers: Vec<Answer>,
    /// `update` replies whose `topology_hash` differed from the hash
    /// computed client-side with `TopologySpec::apply_delta`.
    pub bad_hashes: u64,
    /// `update`s whose hash was checked.
    pub updates: u64,
    /// Movers of every epoch entered.
    pub movers: Vec<usize>,
    /// Times the pre-generated traces ran out and restarted from the first.
    pub laps: usize,
}

impl MobilityDriver {
    /// A driver over `traces`.
    pub fn new(traces: Arc<Vec<Trace>>) -> MobilityDriver {
        let specs = traces
            .iter()
            .map(|t| t.epochs.iter().map(|e| Arc::new(e.spec.clone())).collect())
            .collect();
        let register_json = traces
            .iter()
            .map(|t| t.epochs[0].spec.canonical_json())
            .collect();
        MobilityDriver {
            traces,
            specs,
            register_json,
            trace: 0,
            epoch: 0,
            step: 0,
            admitted: Vec::new(),
            admits: 0,
            answers: Vec::new(),
            bad_hashes: 0,
            updates: 0,
            movers: Vec::new(),
            laps: 0,
        }
    }

    /// Whether the first trace's epoch 0 (registration and first compiles)
    /// is done.
    pub fn past_first_epoch(&self) -> bool {
        self.trace > 0 || self.epoch > 0
    }

    fn trace_ref(&self) -> &Trace {
        &self.traces[self.trace % self.traces.len()]
    }
}

impl Driver for MobilityDriver {
    fn next_line(&mut self, id: u64) -> (Kind, String) {
        let t = self.trace_ref();
        let e = &t.epochs[self.epoch];
        if self.step == 0 {
            if self.epoch == 0 {
                let json = &self.register_json[self.trace % self.traces.len()];
                return (Kind::Register, gen::register_line(id, json));
            }
            let previous = t.epochs[self.epoch - 1].spec.content_hash();
            let line = gen::update_line(id, previous, &e.delta_json);
            return (Kind::Update, line);
        }
        let background: Vec<&[usize]> = self
            .admitted
            .iter()
            .map(|&i| e.paths[i].as_slice())
            .collect();
        let line = gen::admit_line(
            id,
            e.spec.content_hash(),
            &background,
            &e.paths[self.step - 1],
        );
        (Kind::Admit, line)
    }

    fn on_reply(&mut self, reply: &str, ok: bool) -> bool {
        let t = Arc::clone(&self.traces);
        let t = &t[self.trace % t.len()];
        let e = &t.epochs[self.epoch];
        let mut right = true;
        if self.step == 0 {
            if self.epoch > 0 {
                self.updates += 1;
                self.movers.push(e.movers);
                let expected = format!("\"topology_hash\":\"{:016x}\"", e.spec.content_hash());
                if ok && !reply.contains(&expected) {
                    self.bad_hashes += 1;
                    right = false;
                }
            }
        } else {
            let path = self.step - 1;
            let admitted = if ok { client::admitted(reply) } else { None };
            right = admitted.is_some();
            if ok && self.admits.is_multiple_of(SAMPLE_EVERY) && self.answers.len() < SAMPLE_CAP {
                self.answers.push(Answer {
                    spec: Arc::clone(&self.specs[self.trace % self.traces.len()][self.epoch]),
                    background: self.admitted.iter().map(|&i| e.paths[i].clone()).collect(),
                    path: e.paths[path].clone(),
                    result: client::result_json(reply).unwrap_or_default().to_string(),
                });
            }
            self.admits += 1;
            if admitted == Some(true) {
                self.admitted.push(path);
            }
        }
        self.step += 1;
        if self.step > e.paths.len() {
            self.step = 0;
            self.admitted.clear();
            self.epoch += 1;
            if self.epoch == t.epochs.len() {
                self.epoch = 0;
                self.trace += 1;
                if self.trace.is_multiple_of(self.traces.len()) {
                    self.laps += 1;
                }
            }
        }
        right
    }
}

/// Sends one request from `driver` and records it.
///
/// # Errors
///
/// Connection failures and timeouts (see [`Conn::call`]).
pub fn exchange<D: Driver + ?Sized>(
    conn: &mut Conn,
    driver: &mut D,
    id: u64,
    base: Instant,
    conn_index: usize,
) -> Result<(OpRec, String), String> {
    let (kind, line) = driver.next_line(id);
    let t0 = Instant::now();
    let reply = conn.call(&line)?;
    let lat_ns = t0.elapsed().as_nanos() as u64;
    let ok = client::is_ok(reply);
    let rec = OpRec {
        conn: conn_index,
        kind,
        send_ns: t0.saturating_duration_since(base).as_nanos() as u64,
        lat_ns,
        server_us: client::server_us(reply),
        bytes: line.len(),
        rung: client::rung(reply),
        ok,
    };
    let right = driver.on_reply(reply, ok);
    Ok((
        OpRec {
            ok: ok && right,
            ..rec
        },
        line,
    ))
}

/// Runs `driver` on `conn` until `done` holds, returning the lines sent.
///
/// # Errors
///
/// Connection failures, and any request that fails during set-up.
pub fn drive_until<D: Driver>(
    conn: &mut Conn,
    driver: &mut D,
    mut done: impl FnMut(&D) -> bool,
) -> Result<Vec<String>, String> {
    let base = Instant::now();
    let mut lines = Vec::new();
    let mut id = 1;
    while !done(driver) {
        let (rec, line) = exchange(conn, driver, id, base, 0)?;
        if !rec.ok {
            return Err(format!("set-up request failed: {}", line.trim_end()));
        }
        lines.push(line);
        id += 1;
    }
    Ok(lines)
}

/// What one measured window produced.
pub struct Window<D> {
    /// Drivers after the window (their verification records).
    pub drivers: Vec<D>,
    /// Every timed request, all connections.
    pub recs: Vec<OpRec>,
    /// Per connection, the first lines sent in the window (as many as asked
    /// for).
    pub lines: Vec<Vec<String>>,
    /// Lines of the window daemon's set-up, in the order sent.
    pub setup_lines: Vec<String>,
    /// Wall-clock seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Window length in seconds.
    pub seconds: f64,
    /// Process CPU clock at the sub-window boundaries.
    pub cpu: Vec<f64>,
    /// Process high-water RSS after the window, MB.
    pub peak_rss_mb: f64,
    /// `stats` replies before and after the window.
    pub stats: (Value, Value),
    /// Connections (= daemon workers = client threads).
    pub conns: usize,
}

/// The number of cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn stats(conn: &mut Conn) -> Result<Value, String> {
    let reply = conn.call(gen::STATS_LINE)?;
    serde_json::from_str(reply).map_err(|e| format!("unparseable stats reply: {e}"))
}

/// A workload's set-up: runs on the connections of a fresh daemon, records
/// the lines it sends, and returns the window's drivers.
type SetupFn<'a, D> = dyn FnMut(&mut [Conn], &mut Vec<String>) -> Result<Vec<D>, String> + 'a;

/// Starts the daemon on a fresh engine with `nproc` workers and as many
/// connections, runs `setup` on the connections, then serves a closed loop
/// of `seconds`, one thread per connection, keeping each connection's first
/// `keep_lines` request lines for a traced replay. The set-up is then repeated on
/// fresh daemons up to [`SETUP_REPS`] times for its timing alone.
///
/// # Errors
///
/// Bind failures, connection failures, timeouts, set-up failures, and a
/// window that completes no request.
pub fn measure<D: Driver>(
    config: EngineConfig,
    seconds: f64,
    keep_lines: usize,
    mut setup: impl FnMut(&mut [Conn], &mut Vec<String>) -> Result<Vec<D>, String>,
) -> Result<Window<D>, String> {
    let workers = nproc();
    let start = |setup: &mut SetupFn<'_, D>| {
        let t0 = Instant::now();
        let server = serve_reactor(ReactorServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            engine: config,
            ..ReactorServerConfig::default()
        })
        .map_err(|e| format!("the daemon failed to bind 127.0.0.1:0: {e}"))?;
        let mut conns = (0..workers)
            .map(|_| Conn::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut lines = Vec::new();
        let drivers = setup(&mut conns, &mut lines)?;
        Ok::<_, String>((t0.elapsed().as_secs_f64(), server, conns, drivers, lines))
    };
    let (first_setup_s, server, mut conns, drivers, setup_lines) = start(&mut setup)?;
    let before = stats(&mut conns[0])?;
    let base = Instant::now();
    let sampler = crate::stats::spawn_cpu_sampler(base, seconds);
    let deadline = base + Duration::from_secs_f64(seconds);
    type ConnResult<D> = Result<(D, Vec<OpRec>, Vec<String>), String>;
    let results: Vec<ConnResult<D>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(drivers)
            .enumerate()
            .map(|(c, (conn, mut driver))| {
                scope.spawn(move || -> ConnResult<D> {
                    let mut recs = Vec::with_capacity(1 << 14);
                    let mut lines = Vec::new();
                    let mut id = 1;
                    while Instant::now() < deadline {
                        let (rec, line) = exchange(conn, &mut driver, id, base, c)?;
                        recs.push(rec);
                        if lines.len() < keep_lines {
                            lines.push(line);
                        }
                        id += 1;
                    }
                    Ok((driver, recs, lines))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let cpu = sampler
        .join()
        .map_err(|_| "the CPU sampler panicked".to_string())?;
    let mut out_drivers = Vec::new();
    let mut recs = Vec::new();
    let mut lines = Vec::new();
    for r in results {
        let (d, rs, ls) = r?;
        out_drivers.push(d);
        recs.extend(rs);
        lines.push(ls);
    }
    let after = stats(&mut conns[0])?;
    // Read before the remaining set-ups, whose daemons would add their own
    // allocator arenas to the high-water mark.
    let peak_rss_mb = crate::stats::peak_rss_mb();
    drop(conns);
    server.shutdown();
    let mut setup_s = vec![first_setup_s];
    for _ in 1..SETUP_REPS {
        let (s, server, conns, _, _) = start(&mut setup)?;
        setup_s.push(s);
        drop(conns);
        server.shutdown();
    }
    if !recs.iter().any(|r| r.ok) {
        return Err("the window completed zero requests successfully".into());
    }
    recs.sort_by_key(|r| r.send_ns);
    Ok(Window {
        drivers: out_drivers,
        recs,
        lines,
        setup_lines,
        setup_s,
        seconds,
        cpu,
        peak_rss_mb,
        stats: (before, after),
        conns: workers,
    })
}

/// The solve options the daemon's engine runs every Eq. 6 query under
/// (mirrors the engine's private derivation from its config).
pub fn engine_options(config: &EngineConfig) -> AvailableBandwidthOptions {
    AvailableBandwidthOptions {
        enumeration: EnumerationOptions {
            max_set_size: None,
            engine: config.enumeration_engine,
            ..EnumerationOptions::default()
        },
        solver: config.solver,
        decompose: config.decompose,
        pricing: config.pricing,
        stab_alpha: config.stab_alpha,
        pricing_threads: config.pricing_threads,
        column_pool_cap: config.column_pool_cap,
        ..AvailableBandwidthOptions::default()
    }
}

/// The engine configuration of each daemon workload: the server defaults
/// (full enumeration) except for mobility, which runs column generation
/// over per-component units as `awb mobility` does.
pub fn engine_config(mobility: bool) -> EngineConfig {
    if mobility {
        EngineConfig {
            solver: SolverKind::ColumnGeneration,
            decompose: true,
            ..EngineConfig::default()
        }
    } else {
        EngineConfig::default()
    }
}

/// Re-derives each answer directly through `awb_core` (compile the link
/// universe, query) under the engine's options and counts the answers whose
/// `available_mbps` bits or `admitted` flag differ.
pub fn verify_answers<'a>(
    config: &EngineConfig,
    answers: impl Iterator<Item = &'a Answer>,
) -> (u64, u64) {
    let options = engine_options(config);
    let mut models: BTreeMap<u64, Arc<dyn LinkRateModel + Send + Sync>> = BTreeMap::new();
    let (mut checked, mut wrong) = (0, 0);
    for a in answers {
        checked += 1;
        let expected = derive(&options, &mut models, a);
        let got = serde_json::from_str::<Value>(&a.result).ok().and_then(|v| {
            let available = v.get("available_mbps")?.as_f64()?;
            let admitted = v.get("admitted")?.as_bool()?;
            Some((available, admitted))
        });
        let same = match (expected, got) {
            (Some((e, ea)), Some((g, ga))) => e.to_bits() == g.to_bits() && ea == ga,
            _ => false,
        };
        if !same {
            wrong += 1;
            eprintln!(
                "perfbench: answer mismatch: daemon {:?}, awb_core {:?} for path {:?}",
                got, expected, a.path
            );
        }
    }
    (checked, wrong)
}

fn derive(
    options: &AvailableBandwidthOptions,
    models: &mut BTreeMap<u64, Arc<dyn LinkRateModel + Send + Sync>>,
    a: &Answer,
) -> Option<(f64, bool)> {
    let model = match models.get(&a.spec.content_hash()) {
        Some(m) => Arc::clone(m),
        None => {
            let built = a.spec.build().ok()?.model;
            models.insert(a.spec.content_hash(), Arc::clone(&built));
            built
        }
    };
    let model: &(dyn LinkRateModel + Send + Sync) = &*model;
    let topology = model.topology();
    let flows = a
        .background
        .iter()
        .map(|p| {
            let path = TopologySpec::parse_path(topology, p).ok()?;
            Flow::new(path, DEMAND_MBPS).ok()
        })
        .collect::<Option<Vec<_>>>()?;
    let path = TopologySpec::parse_path(topology, &a.path).ok()?;
    let universe = link_universe(&flows, &path);
    let instance = CompiledInstance::compile(&model, &universe, options).ok()?;
    let available = instance.query(&model, &flows, &path).ok()?.bandwidth_mbps();
    Some((available, available + 1e-9 >= DEMAND_MBPS))
}
