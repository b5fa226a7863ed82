//! The estimator campaign: the §5.2 arrival experiment with simulated
//! idleness, one arrival per op, cells fanned out over
//! `awb_sim::campaign::fan_out`.

use crate::gen::{Cell, DEMAND_MBPS, UNIVERSE_CAP};
use crate::stats::Tracer;
use awb_core::{link_universe, AvailableBandwidthOptions, Flow, Session, SolverKind};
use awb_estimate::{Estimator, Hop, IdleMap};
use awb_routing::{shortest_path, RoutingMetric};
use awb_sim::{Contention, RatePolicy, SimConfig, Simulator};
use awb_workloads::ContentionSpec;
use std::time::Instant;

/// Slots simulated per arrival (as in the estimator campaign bench).
pub const SLOTS: u64 = 6_000;

/// What one arrival produced; compared bit for bit across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Background flows simulated.
    pub background: usize,
    /// Whether average-e2eD found a route.
    pub routed: bool,
    /// Whether the route would have taken the universe past the cap.
    pub capped: bool,
    /// Eq. 6 truth, as f64 bits.
    pub truth: u64,
    /// The five §4 estimates, as f64 bits.
    pub estimates: [u64; 5],
    /// Whether the flow was admitted.
    pub admitted: bool,
}

/// One cell's arrivals with their latencies.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Per-arrival outcomes; `None` where the truth solve failed.
    pub arrivals: Vec<Option<Arrival>>,
    /// Per-arrival latency, ns.
    pub lat_ns: Vec<u64>,
    /// Per-arrival completion, ns after the tracer's epoch.
    pub done_ns: Vec<u64>,
}

fn contention(spec: ContentionSpec) -> Contention {
    match spec {
        ContentionSpec::OrderedCsma => Contention::OrderedCsma,
        ContentionSpec::PPersistent(p) => Contention::PPersistent(p),
        ContentionSpec::Dcf { cw_min, cw_max } => Contention::Dcf { cw_min, cw_max },
    }
}

/// Runs a cell's arrivals: simulate the admitted background, route on the
/// measured idleness, solve the Eq. 6 truth with a colgen [`Session`],
/// evaluate the five estimators, admit on the truth. Spans go to `tr`
/// under op ids `op_base + arrival`.
pub fn run_cell(cell: &Cell, tr: &mut Tracer, op_base: u64) -> CellRun {
    let model = &cell.model;
    let mut session = Session::new(
        model,
        AvailableBandwidthOptions {
            solver: SolverKind::ColumnGeneration,
            ..AvailableBandwidthOptions::default()
        },
    );
    let mut admitted: Vec<Flow> = Vec::new();
    let mut out = CellRun {
        arrivals: Vec::with_capacity(cell.pairs.len()),
        lat_ns: Vec::with_capacity(cell.pairs.len()),
        done_ns: Vec::with_capacity(cell.pairs.len()),
    };
    for (i, &(src, dst)) in cell.pairs.iter().enumerate() {
        let op = op_base + i as u64;
        let t0 = Instant::now();
        let root = tr.begin("arrival", op, None);
        let span = tr.begin("sim.build", op, Some(root));
        let mut sim = Simulator::new(
            model,
            SimConfig {
                slots: SLOTS,
                contention: contention(cell.contention),
                rate_policy: RatePolicy::AloneMax,
                seed: cell.seed,
                ..SimConfig::default()
            },
        );
        for f in &admitted {
            sim.add_flow(f.path().clone(), Some(f.demand_mbps()));
        }
        tr.end(span);
        let span = tr.begin("sim.run", op, Some(root));
        let report = sim.run(model);
        tr.end(span);
        let idle = IdleMap::from_ratios(report.node_idle_ratio);
        let span = tr.begin("routing.route", op, Some(root));
        let path = shortest_path(model, &idle, RoutingMetric::AverageE2eDelay, src, dst);
        tr.end(span);
        // As in `admit_paper`, the cell ends at the arrival that would take
        // the Eq. 6 link universe past the cap; that arrival is rejected
        // unsolved.
        let capped = path
            .as_ref()
            .is_some_and(|p| link_universe(&admitted, p).len() > UNIVERSE_CAP);
        let mut arrival = Some(Arrival {
            background: admitted.len(),
            routed: path.is_some(),
            capped,
            truth: 0,
            estimates: [0; 5],
            admitted: false,
        });
        if let Some(path) = path.filter(|_| !capped) {
            let span = tr.begin("core.query", op, Some(root));
            let truth = session.query(&admitted, &path).map(|a| a.bandwidth_mbps());
            tr.end(span);
            let span = tr.begin("estimate", op, Some(root));
            let estimates = Hop::for_path(model, &idle, &path)
                .map(|hops| Estimator::ALL.map(|e| e.estimate(model, &hops).to_bits()));
            tr.end(span);
            match (truth, &mut arrival) {
                (Ok(truth), Some(a)) => {
                    a.truth = truth.to_bits();
                    a.estimates = estimates.unwrap_or([0; 5]);
                    if truth + 1e-9 >= DEMAND_MBPS {
                        a.admitted = true;
                        admitted.push(Flow::new(path, DEMAND_MBPS).expect("2 Mbps is valid"));
                    }
                }
                _ => arrival = None,
            }
        }
        tr.end(root);
        out.lat_ns.push(t0.elapsed().as_nanos() as u64);
        out.done_ns.push(tr.now_ns());
        out.arrivals.push(arrival);
        if capped {
            break;
        }
    }
    out
}

/// Runs `cells[i]` for each `i` of `indices` across `threads` workers;
/// returns the runs in order, each with its job's busy time in ns, plus one
/// tracer per job.
pub fn fan(
    cells: &[Cell],
    indices: &[usize],
    threads: usize,
    traced: bool,
    epoch: Instant,
) -> Vec<(CellRun, u64, Tracer)> {
    awb_sim::campaign::fan_out(indices.len(), threads, |j| {
        let t0 = Instant::now();
        let mut tr = Tracer::new(traced, epoch);
        let run = run_cell(&cells[indices[j]], &mut tr, (indices[j] as u64) << 8);
        (run, t0.elapsed().as_nanos() as u64, tr)
    })
}
