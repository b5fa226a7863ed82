//! Generator tests: the same seed gives a byte-identical request stream, a
//! different seed a different one, and generation never touches a server.

use awb_net::LinkRateModel;
use awb_service::spec::TopologySpec;
use awb_workloads::mobility::WaypointMobility;
use perfbench::gen::{self, stream};

/// Renders a connection's `admit_paper` stream with a stand-in answer
/// (every flow admitted) in place of the daemon's.
fn admit_stream(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    for s in gen::paper_sequences(seed, stream::ADMIT, 0, 3) {
        lines.push(gen::register_line(1, &s.spec_json));
        for (i, path) in s.paths.iter().enumerate() {
            let background: Vec<&[usize]> = s.paths[..i].iter().map(Vec::as_slice).collect();
            lines.push(gen::admit_line(2, s.hash, &background, path));
        }
    }
    lines
}

/// A connection's `mobility_update` stream, same stand-in answer.
fn mobility_stream(seed: u64) -> Vec<String> {
    let trace = gen::mobility_trace(seed, 6);
    let mut lines = vec![gen::register_line(
        1,
        &trace.epochs[0].spec.canonical_json(),
    )];
    for pair in trace.epochs.windows(2) {
        let (previous, epoch) = (&pair[0], &pair[1]);
        lines.push(gen::update_line(
            2,
            previous.spec.content_hash(),
            &epoch.delta_json,
        ));
        for path in &epoch.paths {
            lines.push(gen::admit_line(3, epoch.spec.content_hash(), &[], path));
        }
    }
    lines
}

fn campaign_stream(seed: u64) -> Vec<String> {
    gen::campaign_cells(seed, 4)
        .iter()
        .map(|c| {
            let spec = TopologySpec::sinr_for(c.model.topology());
            format!(
                "{} {:?} {:?} {}",
                c.seed,
                c.contention,
                c.pairs,
                spec.canonical_json()
            )
        })
        .collect()
}

#[test]
fn same_seed_same_bytes_different_seed_different_bytes() {
    for render in [admit_stream, mobility_stream, campaign_stream] {
        let a = render(7);
        assert!(!a.is_empty());
        assert_eq!(a, render(7));
        assert_ne!(a, render(8));
    }
}

#[test]
fn admit_sequences_are_paper_sized_and_routed() {
    for s in gen::paper_sequences(3, stream::ADMIT, 1, 4) {
        let built = s.spec.build().expect("spec builds");
        assert_eq!(built.model.topology().num_nodes(), 30);
        assert_eq!(built.content_hash, s.hash);
        assert!(s.paths.len() <= gen::FLOWS_PER_SEQUENCE);
        for p in &s.paths {
            TopologySpec::parse_path(built.model.topology(), p).expect("paths chain");
        }
    }
}

#[test]
fn mobility_delta_chain_matches_the_waypoint_snapshots() {
    let seed = 11;
    let trace = gen::mobility_trace(seed, 8);
    let mut mobility = WaypointMobility::new(gen::mobility_config(seed));
    for (i, epoch) in trace.epochs.iter().enumerate() {
        if i > 0 {
            mobility.advance();
        }
        let snapshot = mobility.snapshot();
        assert_eq!(
            epoch.spec.content_hash(),
            TopologySpec::sinr_for(snapshot.topology()).content_hash(),
            "epoch {i}"
        );
        for p in &epoch.paths {
            assert_eq!(p.len(), 1);
            assert!(!snapshot
                .alone_rates(awb_net::LinkId::from_index(p[0]))
                .is_empty());
        }
    }
    assert!(trace.epochs[1..].iter().all(|e| e.movers > 0));
}

#[test]
fn generation_never_touches_a_server() {
    // Generation runs before any daemon exists; statically, the generator
    // module reaches no client, socket or engine.
    let source = include_str!("../src/gen.rs");
    for forbidden in [
        "TcpStream",
        "Conn",
        "Engine",
        "serve_reactor",
        "crate::client",
        "crate::service",
    ] {
        assert!(!source.contains(forbidden), "gen.rs mentions {forbidden}");
    }
    assert!(!admit_stream(1).is_empty());
}
