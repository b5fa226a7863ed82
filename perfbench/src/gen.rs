//! Input generation. Every request stream, mobility trace and campaign cell
//! is a pure function of the run seed: nothing here opens a socket or
//! touches an engine, and all of it runs before any clock starts.
//!
//! The service loops are closed: the background of an `admit` is the set of
//! flows the server admitted before it, so the bytes actually sent depend
//! on the answers. The answers are themselves deterministic, which makes
//! each connection's stream a function of the seed as well; the generator
//! tests render the streams against a fixed stand-in answer.

use awb_core::Schedule;
use awb_estimate::IdleMap;
use awb_net::LinkRateModel;
use awb_net::{NodeId, SinrModel};
use awb_routing::{shortest_path, RoutingMetric};
use awb_service::spec::{DeltaSpec, TopologySpec};
use awb_workloads::mobility::{WaypointConfig, WaypointMobility};
use awb_workloads::{
    shortest_hop_distance, ContentionSpec, DensityPoint, RandomTopology, RateMix, ScenarioMatrix,
    TrafficSpec,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// Per-flow demand of every admission request (§5.2: 2 Mbps).
pub const DEMAND_MBPS: f64 = 2.0;
/// Flows per §5.2 admission sequence.
pub const FLOWS_PER_SEQUENCE: usize = 8;
/// Links a sequence's paths may span together. Full-enumeration cost grows
/// about 1.4x per universe link (≈3 ms at 20 links, ≈45 ms at 28, ≈0.6 s
/// at 36 on a 2-core x86 host), so a handful of unbounded draws would set a
/// run's throughput; a sequence ends before the path that would cross this.
pub const UNIVERSE_CAP: usize = 22;
/// Mobility scale: `mobility_bench`'s middle row.
pub const MOBILITY_NODES: usize = 100;
const MOBILITY_AREA_PER_NODE_M2: f64 = 150_000.0;
const MOBILITY_MOBILE_FRACTION: f64 = 0.05;
/// Demands admitted per mobility epoch.
pub const MOBILITY_FLOWS: usize = 8;

/// Stream tags keeping the seed-derived sub-streams independent.
pub mod stream {
    /// Timed `admit_paper` sequences.
    pub const ADMIT: u64 = 1;
    /// Warm-up sequences of the set-up phase.
    pub const WARMUP: u64 = 2;
    /// Mobility traces.
    pub const MOBILITY: u64 = 4;
    /// Estimator-campaign cells.
    pub const CAMPAIGN: u64 = 5;
}

/// SplitMix64 over `(seed, stream, index)`: a well-mixed, reproducible
/// sub-seed for the `index`-th item of a stream.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws up to `count` distinct connected pairs `min_hops..=max_hops` BFS
/// hops apart, settling for fewer after a bounded number of draws.
pub fn draw_pairs(
    model: &SinrModel,
    count: usize,
    min_hops: usize,
    max_hops: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let t = model.topology();
    let n = t.num_nodes();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Vec<(NodeId, NodeId)> = Vec::with_capacity(count);
    for _ in 0..10_000 {
        if out.len() == count {
            break;
        }
        let src = NodeId::from_index(rng.gen_range(0..n));
        let dst = NodeId::from_index(rng.gen_range(0..n));
        if src == dst || out.contains(&(src, dst)) {
            continue;
        }
        if shortest_hop_distance(t, src, dst).is_some_and(|d| d >= min_hops && d <= max_hops) {
            out.push((src, dst));
        }
    }
    out
}

/// e2eTD route (link costs `1/r`, independent of idleness) as link indices.
fn route_e2etd(model: &SinrModel, src: NodeId, dst: NodeId) -> Option<Vec<usize>> {
    let idle = IdleMap::from_schedule(model, &Schedule::empty());
    shortest_path(model, &idle, RoutingMetric::E2eTransmissionDelay, src, dst)
        .map(|p| p.links().iter().map(|l| l.index()).collect())
}

/// One §5.2 admission sequence: a fresh paper-density 30-node SINR draw and
/// up to eight e2eTD-routed paths between pairs 2–4 hops apart, cut before
/// the first path that would take the union of links past
/// [`UNIVERSE_CAP`].
#[derive(Debug, Clone)]
pub struct Sequence {
    /// The topology as a spec (the inline form of every request).
    pub spec: TopologySpec,
    /// Canonical JSON of `spec`.
    pub spec_json: String,
    /// Content hash the server registers the topology under.
    pub hash: u64,
    /// Link-index paths, in arrival order.
    pub paths: Vec<Vec<usize>>,
}

/// The sequence for one sub-seed.
pub fn paper_sequence(seed: u64) -> Sequence {
    let model =
        RandomTopology::generate(DensityPoint::paper_base().topology_config(seed)).into_model();
    let pairs = draw_pairs(&model, FLOWS_PER_SEQUENCE, 2, 4, mix(seed, 0, 1));
    let mut links: Vec<usize> = Vec::new();
    let paths = pairs
        .iter()
        .filter_map(|&(s, d)| route_e2etd(&model, s, d))
        .take_while(|p: &Vec<usize>| {
            links.extend_from_slice(p);
            links.sort_unstable();
            links.dedup();
            links.len() <= UNIVERSE_CAP
        })
        .collect();
    let spec = TopologySpec::sinr_for(model.topology());
    Sequence {
        spec_json: spec.canonical_json(),
        hash: spec.content_hash(),
        spec,
        paths,
    }
}

/// `count` sequences of connection `conn` on sub-stream `tag`.
pub fn paper_sequences(seed: u64, tag: u64, conn: usize, count: usize) -> Vec<Sequence> {
    (0..count)
        .map(|i| paper_sequence(mix(seed, tag * 64 + conn as u64, i as u64)))
        .collect()
}

fn push_links(out: &mut String, links: &[usize]) {
    out.push('[');
    for (i, l) in links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&l.to_string());
    }
    out.push(']');
}

/// A `register_topology` request line (newline-terminated).
pub fn register_line(id: u64, spec_json: &str) -> String {
    format!("{{\"id\":{id},\"query\":\"register_topology\",\"topology\":{spec_json}}}\n")
}

/// An `admit` request line for `path` beside `background` (each flow at
/// [`DEMAND_MBPS`]) on the registered topology `topology`,
/// newline-terminated.
pub fn admit_line(id: u64, topology: u64, background: &[&[usize]], path: &[usize]) -> String {
    let mut out = format!(
        "{{\"id\":{id},\"query\":\"admit\",\"topology\":\"{topology:016x}\",\"background\":["
    );
    for (i, flow) in background.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_links(&mut out, flow);
        out.push_str(&format!(",\"demand_mbps\":{DEMAND_MBPS}}}"));
    }
    out.push_str("],\"path\":");
    push_links(&mut out, path);
    out.push_str(&format!(",\"demand_mbps\":{DEMAND_MBPS}}}\n"));
    out
}

/// An `update` request line patching `topology` with `delta_json`.
pub fn update_line(id: u64, topology: u64, delta_json: &str) -> String {
    format!(
        "{{\"id\":{id},\"query\":\"update\",\"topology\":\"{topology:016x}\",\"delta\":{delta_json}}}\n"
    )
}

/// The `stats` request line.
pub const STATS_LINE: &str = "{\"id\":0,\"query\":\"stats\"}\n";

/// Renders a delta as the `update` verb's JSON (coordinates round-trip
/// exactly through the shortest-representation formatter).
pub fn delta_json(delta: &DeltaSpec) -> String {
    let num = |x: f64| Value::Number(x);
    let mut m = serde_json::Map::new();
    m.insert(
        "moved_nodes".into(),
        Value::Array(
            delta
                .moved_nodes
                .iter()
                .map(|&(n, x, y)| Value::Array(vec![num(n as f64), num(x), num(y)]))
                .collect(),
        ),
    );
    m.insert(
        "added_links".into(),
        Value::Array(
            delta
                .added_links
                .iter()
                .map(|&(tx, rx)| Value::Array(vec![num(tx as f64), num(rx as f64)]))
                .collect(),
        ),
    );
    Value::Object(m).to_string()
}

/// One epoch of a mobility trace.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// The topology after this epoch's delta.
    pub spec: TopologySpec,
    /// [`delta_json`] of the delta from the previous epoch (empty for
    /// epoch 0).
    pub delta_json: String,
    /// Nodes that moved into this epoch.
    pub movers: usize,
    /// The epoch's demands, as link-index paths.
    pub paths: Vec<Vec<usize>>,
}

/// A random-waypoint trace: epoch 0 is registered, every later epoch is an
/// `update` carrying the movers plus the newly seen links.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Epochs in order.
    pub epochs: Vec<Epoch>,
}

/// The waypoint configuration of a trace: `mobility_bench`'s 100-node
/// scale (150,000 m² per node, 5% of nodes mobile at 1–5 m/s).
pub fn mobility_config(seed: u64) -> WaypointConfig {
    let side = (MOBILITY_NODES as f64 * MOBILITY_AREA_PER_NODE_M2).sqrt();
    WaypointConfig {
        width: side,
        height: side,
        num_nodes: MOBILITY_NODES,
        mobile_fraction: MOBILITY_MOBILE_FRACTION,
        speed_min: 1.0,
        speed_max: 5.0,
        epoch_seconds: 10.0,
        seed,
    }
}

/// Generates a `MOBILITY_NODES`-node trace of `epochs` epochs. Each epoch's
/// spec is the previous one patched with its delta, exactly as the daemon
/// patches it, so its content hash is the hash `update` must return.
pub fn mobility_trace(seed: u64, epochs: usize) -> Trace {
    let mut mobility = WaypointMobility::new(mobility_config(seed));
    let mut previous = mobility.snapshot();
    let mut spec = TopologySpec::sinr_for(previous.topology());
    let mut out = Vec::with_capacity(epochs);
    out.push(Epoch {
        paths: mobility_paths(&previous, mix(seed, 0, 0)),
        spec: spec.clone(),
        delta_json: String::new(),
        movers: 0,
    });
    for epoch in 1..epochs {
        mobility.advance();
        let model = mobility.snapshot();
        let (old, new) = (previous.topology(), model.topology());
        let moved_nodes: Vec<(usize, f64, f64)> = old
            .nodes()
            .zip(new.nodes())
            .filter(|(a, b)| a.position() != b.position())
            .map(|(_, b)| (b.id().index(), b.position().x, b.position().y))
            .collect();
        let added_links = new
            .links()
            .skip(old.num_links())
            .map(|l| (l.tx().index(), l.rx().index()))
            .collect();
        let delta = DeltaSpec {
            moved_nodes,
            added_links,
            ..DeltaSpec::default()
        };
        spec = spec.apply_delta(&delta).expect("trace deltas apply").0;
        out.push(Epoch {
            paths: mobility_paths(&model, mix(seed, 0, epoch as u64)),
            spec: spec.clone(),
            movers: delta.moved_nodes.len(),
            delta_json: delta_json(&delta),
        });
        previous = model;
    }
    Trace { epochs: out }
}

/// The epoch's demands: [`MOBILITY_FLOWS`] distinct live links, each a
/// one-hop path, drawn as `mobility_bench` draws them. At this density
/// (range 158 m against ~390 m node spacing) multi-hop sink-tree pairs are
/// almost never connected, so demand is placed on the links that exist.
fn mobility_paths(model: &SinrModel, seed: u64) -> Vec<Vec<usize>> {
    let mut alive: Vec<usize> = model
        .topology()
        .links()
        .filter(|l| !model.alone_rates(l.id()).is_empty())
        .map(|l| l.id().index())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let take = MOBILITY_FLOWS.min(alive.len());
    // Partial Fisher-Yates: the first `take` slots are a uniform sample.
    for i in 0..take {
        let j = rng.gen_range(i..alive.len());
        alive.swap(i, j);
    }
    alive.into_iter().take(take).map(|l| vec![l]).collect()
}

/// One estimator-campaign cell: a paper-size topology, its §5.2 arrivals
/// and the MAC that measures idleness.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Placement, pair and MAC seed.
    pub seed: u64,
    /// Contention model of the simulated MAC.
    pub contention: ContentionSpec,
    /// The 30-node topology.
    pub model: SinrModel,
    /// Arrivals, in order.
    pub pairs: Vec<(NodeId, NodeId)>,
}

/// `count` paper-size cells alternating ordered CSMA and 802.11 DCF.
pub fn campaign_cells(seed: u64, count: usize) -> Vec<Cell> {
    let matrix = ScenarioMatrix {
        densities: vec![DensityPoint::paper_base()],
        rate_mixes: vec![RateMix::AloneMax],
        contentions: vec![
            ContentionSpec::OrderedCsma,
            ContentionSpec::Dcf {
                cw_min: 16,
                cw_max: 1024,
            },
        ],
        traffics: vec![TrafficSpec::paper_default()],
        seeds: (0..count.div_ceil(2) as u64)
            .map(|i| mix(seed, stream::CAMPAIGN, i))
            .collect(),
    };
    let mut cells: Vec<Cell> = matrix
        .cells()
        .into_iter()
        .map(|c| {
            let model = RandomTopology::generate(c.density.topology_config(c.seed)).into_model();
            let pairs = draw_pairs(
                &model,
                c.traffic.num_flows,
                c.traffic.min_hops,
                c.traffic.max_hops,
                mix(c.seed, 0, 1),
            );
            Cell {
                seed: c.seed,
                contention: c.contention,
                model,
                pairs,
            }
        })
        .collect();
    // Interleave the contention halves so any prefix mixes both MACs.
    cells.sort_by_key(|c| {
        (
            matrix.seeds.iter().position(|&s| s == c.seed),
            c.contention.label(),
        )
    });
    cells.truncate(count);
    cells
}
