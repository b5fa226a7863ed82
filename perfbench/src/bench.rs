//! Workload orchestration and the metric ledger.
//!
//! Every workload is a closed loop with inputs generated before any clock
//! starts. The daemon workloads run `serve_reactor` in this process on
//! `127.0.0.1:0` with `nproc` workers and `nproc` client connections, one
//! thread each: with as many connections as workers, latency is service
//! time, not queueing.

use crate::campaign;
use crate::gen::{self, stream};
use crate::replay::{self, Layers, ReplayOp};
use crate::service::{
    self, drive_until, engine_config, measure, nproc, verify_answers, AdmitDriver, Kind,
    MobilityDriver, Window,
};
use crate::stats::{self, mean, median, quantile, ratio, Tracer};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The workloads, and why each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "admit_paper",
        "§5.2 admission sequences on fresh 30-node draws: result-cache misses, so enumeration and the LP dominate",
    ),
    (
        "mobility_update",
        "waypoint traces: update deltas then admits under colgen, the only apply_delta and pricing path",
    ),
    (
        "estimator_campaign",
        "§5.2 arrivals with simulated idleness and the five estimators: the only awb-sim and awb-estimate load",
    ),
];

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`. Layers a
/// workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("reactor.overhead_us", "us"),
    ("reactor.ticks_per_frame", "ratio"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("spec.parse_us", "us"),
    ("spec.hash_us", "us"),
    ("spec.build_us", "us"),
    ("spec.apply_delta_us", "us"),
    ("engine.handle_us", "us"),
    ("engine.hit_us", "us"),
    ("engine.sets_hit_us", "us"),
    ("engine.miss_us", "us"),
    ("engine.update_us", "us"),
    ("engine.hit_share", "ratio"),
    ("engine.sets_hit_share", "ratio"),
    ("engine.miss_share", "ratio"),
    ("engine.coalesced_share", "ratio"),
    ("core.compile_us", "us"),
    ("core.compile_calls", "count"),
    ("core.query_us", "us"),
    ("core.universe_links", "count"),
    ("core.apply_delta_us", "us"),
    ("core.delta_reuse_ratio", "ratio"),
    ("core.delta_units_compiled", "count"),
    ("core.delta_full_recompiles", "count"),
    ("sets.pool_columns", "count"),
    ("sets.price_heuristic_us", "us"),
    ("sets.price_exact_us", "us"),
    ("sets.price_exact_calls", "count"),
    ("sets.price_heuristic_share", "ratio"),
    ("lp.pivots", "count"),
    ("lp.pricing_rounds", "count"),
    ("lp.master_us", "us"),
    ("routing.route_us", "us"),
    ("sim.build_us", "us"),
    ("sim.run_us", "us"),
    ("sim.ns_per_slot", "ns"),
    ("sim.slots", "count"),
    ("estimate.us", "us"),
    ("campaign.busy_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Sequences per connection in the `admit_paper` pool. Two pools of this
/// size hold more distinct answers than the result cache (1024) and more
/// instances than the instance cache (128), so a cycled sequence misses
/// again.
const ADMIT_POOL: usize = 384;
/// Traces per connection and epochs per trace for `mobility_update`.
const MOBILITY_TRACES: usize = 16;
const MOBILITY_EPOCHS: usize = 25;
/// Distinct cells of the campaign window (cycled if a run gets through all
/// of them), the jobs its single fan-out is given, cells checked across
/// thread counts, and cells of the traced pass.
const CAMPAIGN_CELLS: usize = 768;
const CAMPAIGN_JOBS: usize = 8192;
const CAMPAIGN_VERIFY: usize = 4;
const CAMPAIGN_TRACE: usize = 16;
/// Requests per connection replayed by the traced run, per workload.
fn replay_per_conn(workload: &str) -> usize {
    match workload {
        "mobility_update" => 400,
        _ => 300,
    }
}

/// Window lines a run keeps per connection: the traced replay's share.
fn kept_lines(workload: &str, trace: bool) -> usize {
    if trace {
        replay_per_conn(workload)
    } else {
        0
    }
}
/// The traced replay's `Engine::handle` median must be within this factor
/// of the daemon's own `elapsed_us` median for the same requests, plus
/// [`REPLAY_SLACK_US`]; the core re-execution of the misses must account
/// for the engine's miss time within the same bounds. The factor is wide
/// because the daemon's workers share two cores with the client threads
/// while the replay runs alone.
const REPLAY_TOLERANCE: f64 = 3.0;
/// Absolute slack of the replay check: the daemon reports whole µs, and a
/// preempted µs-scale request reads several µs long.
const REPLAY_SLACK_US: f64 = 5.0;

/// One run's result.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted in the window.
    pub attempted: u64,
    /// Ops failed: error status, refusal or wrong answer.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the timing metrics.
    pub samples: BTreeMap<&'static str, u64>,
    /// One line describing what the stream was made of.
    pub shape: String,
    /// Check results and notes.
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub spans: Option<Tracer>,
}

impl Outcome {
    fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            shape: String::new(),
            notes: Vec::new(),
            spans: None,
        }
    }

    fn fail(&mut self, note: String) {
        eprintln!("perfbench: {note}");
        self.correct = false;
        self.notes.push(note);
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Unknown workloads and failed runs (bind, timeout, zero completed ops).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match workload {
        "admit_paper" => admit_paper(seed, seconds, trace),
        "mobility_update" => mobility_update(seed, seconds, trace),
        "estimator_campaign" => estimator_campaign(seed, seconds, trace),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.map(|w| w.0).join(", ")
        )),
    }
}

fn admit_paper(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let conns = nproc();
    let pools: Vec<_> = (0..conns)
        .map(|c| Arc::new(gen::paper_sequences(seed, stream::ADMIT, c, ADMIT_POOL)))
        .collect();
    let warm: Vec<_> = (0..conns)
        .map(|c| Arc::new(gen::paper_sequences(seed, stream::WARMUP, c, 1)))
        .collect();
    let config = engine_config(false);
    let w = measure(
        config,
        seconds,
        kept_lines("admit_paper", trace),
        |conns, lines| {
            for (c, conn) in conns.iter_mut().enumerate() {
                let mut d = AdmitDriver::new(Arc::clone(&warm[c]), 1, 0);
                lines.extend(drive_until(conn, &mut d, AdmitDriver::pool_done)?);
            }
            Ok(pools
                .iter()
                .map(|p| {
                    AdmitDriver::new(Arc::clone(p), service::SAMPLE_EVERY, service::SAMPLE_CAP)
                })
                .collect())
        },
    )?;
    let (checked, wrong) = verify_answers(&config, w.drivers.iter().flat_map(|d| &d.answers));
    let universes: Vec<u16> = w.drivers.iter().flat_map(|d| d.universes.clone()).collect();
    let passes: Vec<String> = w
        .drivers
        .iter()
        .map(|d| format!("{:.2}", d.sequences_started() as f64 / ADMIT_POOL as f64))
        .collect();
    let mut out = finish("admit_paper", &config, &w, wrong, trace)?;
    out.notes.push(format!(
        "verified {checked} admit answers against awb_core, {wrong} mismatched"
    ));
    out.shape = format!(
        "universe links per admit {}; pool passes per connection {}",
        histogram(universes.iter().map(|&u| usize::from(u)), 4),
        passes.join("/")
    );
    Ok(out)
}

fn mobility_update(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let conns = nproc();
    let traces: Vec<_> = (0..conns)
        .map(|c| {
            Arc::new(
                (0..MOBILITY_TRACES)
                    .map(|t| {
                        let s = gen::mix(seed, stream::MOBILITY * 64 + c as u64, t as u64);
                        gen::mobility_trace(s, MOBILITY_EPOCHS)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let config = engine_config(true);
    let w = measure(
        config,
        seconds,
        kept_lines("mobility_update", trace),
        |conns, lines| {
            conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let mut d = MobilityDriver::new(Arc::clone(&traces[c]));
                    lines.extend(drive_until(conn, &mut d, MobilityDriver::past_first_epoch)?);
                    Ok(d)
                })
                .collect()
        },
    )?;
    let (checked, wrong) = verify_answers(&config, w.drivers.iter().flat_map(|d| &d.answers));
    let updates: u64 = w.drivers.iter().map(|d| d.updates).sum();
    let bad: u64 = w.drivers.iter().map(|d| d.bad_hashes).sum();
    let movers: Vec<f64> = w
        .drivers
        .iter()
        .flat_map(|d| d.movers.iter().map(|&m| m as f64))
        .collect();
    let admits = w.recs.iter().filter(|r| r.kind == Kind::Admit).count();
    let mut out = finish("mobility_update", &config, &w, wrong, trace)?;
    out.notes.push(format!(
        "{updates} update hashes checked against TopologySpec::apply_delta, {bad} differed; \
         verified {checked} admit answers against awb_core, {wrong} mismatched"
    ));
    let laps: Vec<String> = w.drivers.iter().map(|d| d.laps.to_string()).collect();
    out.shape = format!(
        "{} epochs, trace laps per connection {}, {:.2} admits per epoch; movers per epoch p50 {} max {}",
        movers.len(),
        laps.join("/"),
        ratio(admits as f64, movers.len() as f64),
        median(&movers),
        quantile(&movers, 1.0)
    );
    Ok(out)
}

/// The end-to-end metrics of a daemon window, plus the traced replay when
/// asked for.
fn finish<D>(
    workload: &str,
    config: &awb_service::EngineConfig,
    w: &Window<D>,
    wrong: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let attempted = w.recs.len() as u64;
    let failed = w.recs.iter().filter(|r| !r.ok).count() as u64 + wrong;
    let mut out = Outcome::new(attempted, failed);
    let ops: Vec<(f64, f64)> = w
        .recs
        .iter()
        .filter(|r| r.ok)
        .map(|r| ((r.send_ns + r.lat_ns) as f64 / 1e9, r.lat_ns as f64 / 1e3))
        .collect();
    end_to_end(&mut out, &ops, &w.cpu, w.seconds, &w.setup_s, w.peak_rss_mb);
    out.notes.push(format!(
        "{} connections = {} daemon workers",
        w.conns, w.conns
    ));
    if trace {
        traced(workload, config, w, &mut out)?;
    }
    Ok(out)
}

/// Fills the six end-to-end metrics and their sample counts.
fn end_to_end(
    out: &mut Outcome,
    ops: &[(f64, f64)],
    cpu: &[f64],
    seconds: f64,
    setup_s: &[f64],
    peak_rss_mb: f64,
) {
    let f = stats::window_figures(ops, cpu, seconds);
    let m = &mut out.metrics;
    m.insert("setup_s", median(setup_s));
    m.insert("ops_per_s", f.ops_per_s);
    m.insert("op_p50_us", f.p50_us);
    m.insert("op_p99_us", f.p99_us);
    m.insert("cpu_us_per_op", f.cpu_us_per_op);
    m.insert("peak_rss_mb", peak_rss_mb);
    out.samples.insert("setup_s", setup_s.len() as u64);
    for name in ["ops_per_s", "op_p50_us", "op_p99_us", "cpu_us_per_op"] {
        out.samples.insert(name, f.ops as u64);
    }
    out.notes.push(format!(
        "timings are better-quartile values over {} sub-windows of {:.1} s (ops/s {:.0?}); {} ops in the window, \
         the smallest sub-window holds {} ({} beyond its p99)",
        stats::SUB_WINDOWS,
        seconds / stats::SUB_WINDOWS as f64,
        f.sub_rates,
        f.ops,
        f.min_sub_ops,
        f.min_sub_ops / 100
    ));
    if f.min_sub_ops < 1000 {
        out.notes.push(
            "a sub-window holds fewer than 1000 ops: its p99 has fewer than 10 samples beyond"
                .into(),
        );
    }
}

/// The traced run of a daemon workload: replays a per-connection prefix of
/// the window in-process and fills the per-layer ledger.
fn traced<D>(
    workload: &str,
    config: &awb_service::EngineConfig,
    w: &Window<D>,
    out: &mut Outcome,
) -> Result<(), String> {
    let per_conn = replay_per_conn(workload);
    // The window's records are in send order; pick each connection's
    // first `per_conn` (deterministic per seed) and keep the global order.
    let mut seen = vec![0usize; w.lines.len()];
    let mut ops = Vec::new();
    for r in &w.recs {
        let i = seen[r.conn];
        seen[r.conn] += 1;
        if i < per_conn && r.ok {
            ops.push(ReplayOp {
                line: &w.lines[r.conn][i],
                lat_us: r.lat_ns as f64 / 1e3,
                server_us: r.server_us as f64,
            });
        }
    }
    let mut tr = Tracer::new(true, Instant::now());
    let l = replay::replay(config, &w.setup_lines, &ops, &mut tr)?;
    let m = &mut out.metrics;
    let overhead = median(&l.overhead);
    m.insert("reactor.overhead_us", overhead);
    let counter = |v: &Value, name: &str| {
        v.get("result")
            .and_then(|r| r.get("reactor"))
            .and_then(|r| r.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let (before, after) = &w.stats;
    m.insert(
        "reactor.ticks_per_frame",
        ratio(
            counter(after, "ticks") - counter(before, "ticks"),
            counter(after, "frames") - counter(before, "frames"),
        ),
    );
    m.insert("protocol.parse_us", median(&l.parse));
    m.insert("protocol.encode_us", median(&l.encode));
    m.insert(
        "protocol.request_bytes",
        mean(&w.recs.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()),
    );
    m.insert("spec.parse_us", median(&l.spec_parse));
    m.insert("spec.hash_us", median(&l.spec_hash));
    m.insert("spec.build_us", median(&l.spec_build));
    m.insert("spec.apply_delta_us", median(&l.spec_apply));
    m.insert("engine.handle_us", median(&l.handle));
    m.insert("engine.hit_us", median(&l.hit));
    m.insert("engine.sets_hit_us", median(&l.sets_hit));
    m.insert("engine.miss_us", median(&l.miss));
    m.insert("engine.update_us", median(&l.update));
    let rungs: Vec<u8> = w
        .recs
        .iter()
        .map(|r| r.rung)
        .filter(|&r| r != b'-')
        .collect();
    for (name, rung) in [
        ("engine.hit_share", b'h'),
        ("engine.sets_hit_share", b's'),
        ("engine.miss_share", b'm'),
        ("engine.coalesced_share", b'c'),
    ] {
        let count = rungs.iter().filter(|&&r| r == rung).count();
        m.insert(name, ratio(count as f64, rungs.len() as f64));
    }
    m.insert("core.compile_us", median(&l.compile));
    m.insert("core.compile_calls", l.compile.len() as f64);
    m.insert("core.query_us", median(&l.query));
    m.insert("core.universe_links", median(&l.universe));
    m.insert("core.apply_delta_us", median(&l.apply_delta));
    let r = l.reuse;
    m.insert(
        "core.delta_reuse_ratio",
        ratio(
            (r.units_reused + r.unit_cache_hits) as f64,
            (r.units_reused + r.unit_cache_hits + r.units_compiled) as f64,
        ),
    );
    m.insert("core.delta_units_compiled", r.units_compiled as f64);
    m.insert("core.delta_full_recompiles", r.full_recompiles as f64);
    m.insert("sets.pool_columns", median(&l.pool_columns));
    m.insert("sets.price_heuristic_us", median(&l.price_heuristic));
    m.insert("sets.price_exact_us", median(&l.price_exact));
    m.insert("sets.price_exact_calls", l.exact_calls as f64);
    m.insert(
        "sets.price_heuristic_share",
        ratio(l.heuristic_columns as f64, l.columns_generated as f64),
    );
    m.insert("lp.pivots", l.pivots as f64);
    m.insert("lp.pricing_rounds", l.pricing_rounds as f64);
    m.insert("lp.master_us", median(&l.master));
    m.insert(
        "trace.overhead_share",
        1.0 - l.bare_s * 1e6 / l.traced_main_us.max(f64::MIN_POSITIVE),
    );
    for (name, n) in [
        ("protocol.parse_us", l.parse.len()),
        ("engine.handle_us", l.handle.len()),
        ("engine.miss_us", l.miss.len()),
        ("core.compile_us", l.compile.len()),
        ("core.apply_delta_us", l.apply_delta.len()),
        ("spec.parse_us", l.spec_parse.len()),
    ] {
        out.samples.insert(name, n as u64);
    }
    replay_checks(&l, out);
    out.spans = Some(tr);
    Ok(())
}

/// The replay-consistency checks of a traced daemon run.
fn replay_checks(l: &Layers, out: &mut Outcome) {
    let (replayed, served) = (median(&l.handle), median(&l.server));
    let close = |a: f64, b: f64| {
        a <= REPLAY_TOLERANCE * b + REPLAY_SLACK_US && b <= REPLAY_TOLERANCE * a + REPLAY_SLACK_US
    };
    let note = format!(
        "replay check: Engine::handle p50 {replayed:.1} us vs daemon elapsed_us p50 {served:.1} us \
         over {} requests (tolerance x{REPLAY_TOLERANCE} + {REPLAY_SLACK_US} us)",
        l.ops
    );
    if close(replayed, served) {
        out.notes.push(note);
    } else {
        out.fail(format!("{note}: FAILED"));
    }
    if !l.miss.is_empty() {
        let core: f64 = l.compile.iter().chain(&l.query).sum();
        let miss: f64 = l.miss.iter().sum();
        let note = format!(
            "replay check: core compile+query {core:.0} us vs engine miss {miss:.0} us over {} misses",
            l.miss.len()
        );
        if close(core, miss) {
            out.notes.push(note);
        } else {
            out.fail(format!("{note}: FAILED"));
        }
    }
    let overhead = out.metrics["reactor.overhead_us"];
    if overhead < 0.0 {
        out.fail(format!(
            "reactor.overhead_us is negative ({overhead:.2} us): measurement error"
        ));
    }
}

fn estimator_campaign(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let threads = nproc();
    let cells = gen::campaign_cells(seed, CAMPAIGN_CELLS);
    let epoch = Instant::now();
    // Set-up: one warm-up cell before the first timed job, repeated.
    let setup_s: Vec<f64> = (0..service::SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            campaign::run_cell(&cells[0], &mut Tracer::new(false, epoch), 0);
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let base = Instant::now();
    let sampler = stats::spawn_cpu_sampler(base, seconds);
    // One fan-out over the whole window: jobs past the deadline return at
    // once, so no batch barrier leaves a thread idle mid-window.
    let deadline = base + std::time::Duration::from_secs_f64(seconds);
    let runs = awb_sim::campaign::fan_out(CAMPAIGN_JOBS, threads, |j| {
        (Instant::now() < deadline).then(|| {
            let t0 = Instant::now();
            let i = j % cells.len();
            let run = campaign::run_cell(&cells[i], &mut Tracer::new(false, base), 0);
            (i, run, t0.elapsed().as_nanos() as u64)
        })
    });
    let wall_s = base.elapsed().as_secs_f64();
    let cpu = sampler
        .join()
        .map_err(|_| "the CPU sampler panicked".to_string())?;
    let peak_rss_mb = stats::peak_rss_mb();
    let mut ops: Vec<(f64, f64)> = Vec::new();
    let mut busy_ns = 0u64;
    let mut first: BTreeMap<usize, campaign::CellRun> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, run, busy) in runs.into_iter().flatten() {
        busy_ns += busy;
        attempted += run.arrivals.len() as u64;
        for ((a, &lat), &done) in run.arrivals.iter().zip(&run.lat_ns).zip(&run.done_ns) {
            match a {
                Some(_) => ops.push((done as f64 / 1e9, lat as f64 / 1e3)),
                None => failed += 1,
            }
        }
        first.entry(i).or_insert(run);
    }

    // Identical merged results at 1 and 2 threads, and equal to the window.
    let sample: Vec<usize> = (0..CAMPAIGN_VERIFY.min(cells.len())).collect();
    let one = campaign::fan(&cells, &sample, 1, false, epoch);
    let two = campaign::fan(&cells, &sample, 2, false, epoch);
    let mut mismatched = 0;
    for ((&i, (a, _, _)), (b, _, _)) in sample.iter().zip(&one).zip(&two) {
        if a.arrivals != b.arrivals || first.get(&i).is_some_and(|w| w.arrivals != a.arrivals) {
            mismatched += 1;
            failed += a.arrivals.len() as u64;
        }
    }
    let mut out = Outcome::new(attempted, failed);
    out.notes.push(format!(
        "{} cells re-run at 1 and 2 fan-out threads, {mismatched} differed",
        sample.len()
    ));
    end_to_end(&mut out, &ops, &cpu, seconds, &setup_s, peak_rss_mb);
    let backgrounds: Vec<usize> = first
        .values()
        .flat_map(|r| r.arrivals.iter().flatten().map(|a| a.background))
        .collect();
    let capped = first
        .values()
        .flat_map(|r| r.arrivals.iter().flatten())
        .filter(|a| a.capped)
        .count();
    out.shape = format!(
        "{} slots per arrival; background flows per arrival {}; {capped} cells ended at the \
         universe cap; {threads} fan-out threads over {} cells",
        campaign::SLOTS,
        histogram(backgrounds.into_iter(), 1),
        cells.len()
    );
    if ops.is_empty() {
        return Err("the campaign window completed zero arrivals".into());
    }
    if trace {
        let idx: Vec<usize> = (0..CAMPAIGN_TRACE.min(cells.len())).collect();
        let t0 = Instant::now();
        campaign::fan(&cells, &idx, threads, false, epoch);
        let bare = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let runs = campaign::fan(&cells, &idx, threads, true, epoch);
        let traced = t0.elapsed().as_secs_f64();
        let mut tr = Tracer::new(true, epoch);
        for (_, _, t) in runs {
            tr.absorb(t);
        }
        let durations = |name: &str| -> Vec<f64> {
            tr.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect()
        };
        let run_us = durations("sim.run");
        let slots = run_us.len() as u64 * campaign::SLOTS;
        let m = &mut out.metrics;
        m.insert("core.query_us", median(&durations("core.query")));
        m.insert("routing.route_us", median(&durations("routing.route")));
        m.insert("sim.build_us", median(&durations("sim.build")));
        m.insert("sim.run_us", median(&run_us));
        m.insert(
            "sim.ns_per_slot",
            ratio(run_us.iter().sum::<f64>() * 1e3, slots as f64),
        );
        m.insert("sim.slots", slots as f64);
        m.insert("estimate.us", median(&durations("estimate")));
        m.insert(
            "campaign.busy_share",
            ratio(busy_ns as f64 / 1e9, threads as f64 * wall_s),
        );
        m.insert("trace.overhead_share", 1.0 - bare / traced);
        out.samples.insert("sim.run_us", run_us.len() as u64);
        out.spans = Some(tr);
    }
    Ok(out)
}

/// `{"lo-hi":count,...}` over buckets of `width`.
fn histogram(values: impl Iterator<Item = usize>, width: usize) -> String {
    let mut buckets: BTreeMap<usize, u64> = BTreeMap::new();
    for v in values {
        *buckets.entry(v / width).or_default() += 1;
    }
    let parts: Vec<String> = buckets
        .iter()
        .map(|(b, n)| {
            if width == 1 {
                format!("\"{b}\":{n}")
            } else {
                format!("\"{}-{}\":{n}", b * width, b * width + width - 1)
            }
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}
