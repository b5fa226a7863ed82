//! The geometric (physical / SINR) interference model.

use crate::ids::{LinkId, NodeId};
use crate::model::LinkRateModel;
use crate::topology::Topology;
use awb_phy::{Phy, Rate};

fn fingerprint_seed() -> u64 {
    0xcbf2_9ce4_8422_2325
}

fn fingerprint_mix(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interference model derived from node positions and an [`awb_phy::Phy`].
///
/// This is the model of the paper's evaluation (§5.2): a transmission at rate
/// `r_k` over link `L_j` succeeds within a concurrent set `E` iff the
/// received power meets the rate's sensitivity **and** the SINR of Eq. 3 —
/// with interference summed over every *other* transmitter in `E` — meets the
/// rate's threshold (Eq. 1).
///
/// Distances between every transmitter and every receiver are precomputed at
/// construction, so admissibility checks are allocation-free inner loops.
#[derive(Debug, Clone)]
pub struct SinrModel {
    topology: Topology,
    phy: Phy,
    /// `tx_rx_power[t][r]` = received power at the receiver of link `r` from
    /// the transmitter of link `t`.
    tx_rx_power: Vec<Vec<f64>>,
    /// Signal power of each link (`tx_rx_power[j][j]`).
    signal: Vec<f64>,
    /// Cached alone-rate lists per link, descending.
    alone: Vec<Vec<Rate>>,
}

impl SinrModel {
    /// Builds the model; O(L²) pairwise powers are precomputed.
    ///
    /// An entry depends only on the (transmitter node, receiver node) pair,
    /// so the row of a link whose transmitter already heads an earlier row
    /// is a copy of that row: a 30-node, 210-link topology evaluates ~30 rows
    /// instead of 210. Every entry is the same `received_power(distance(tx,
    /// rx))` the per-link-pair loop evaluates, so the table is bit-identical
    /// to it. Entries of links sharing a receiver are equal too, but
    /// memoising them needs a scratch index per build, which was measured to
    /// cost more downstream than it saves (DESIGN §5m): the build allocates
    /// only what the model keeps.
    ///
    /// # Panics
    ///
    /// Never panics: all link endpoints are validated by the topology.
    pub fn new(topology: Topology, phy: Phy) -> SinrModel {
        let l = topology.num_links();
        let mut tx_rx_power = vec![vec![0.0; l]; l];
        for (ti, t) in topology.links().enumerate() {
            let (done, rest) = tx_rx_power.split_at_mut(ti);
            let row = &mut rest[0];
            if let Some(prev) = topology.links().take(ti).position(|p| p.tx() == t.tx()) {
                row.copy_from_slice(&done[prev]);
                continue;
            }
            for (v, r) in row.iter_mut().zip(topology.links()) {
                let d = topology
                    .distance(t.tx(), r.rx())
                    .expect("link endpoints are validated by the topology");
                *v = phy.received_power(d);
            }
        }
        let signal: Vec<f64> = (0..l).map(|j| tx_rx_power[j][j]).collect();
        let alone: Vec<Vec<Rate>> = topology
            .links()
            .map(|link| {
                let d = topology
                    .link_length(link.id())
                    .expect("link exists by construction");
                match phy.max_rate_alone(d) {
                    Some(max) => phy.rates().rates_up_to(max),
                    None => Vec::new(),
                }
            })
            .collect();
        SinrModel {
            topology,
            phy,
            tx_rx_power,
            signal,
            alone,
        }
    }

    /// The radio model.
    pub fn phy(&self) -> &Phy {
        &self.phy
    }

    /// The underlying topology.
    ///
    /// Inherent mirror of [`LinkRateModel::topology`] so callers holding a
    /// concrete model don't need the trait in scope.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Total interference power at the receiver of `link` when `active`
    /// (excluding `link` itself) transmit concurrently.
    pub fn interference_at(&self, link: LinkId, active: &[LinkId]) -> f64 {
        active
            .iter()
            .filter(|&&a| a != link)
            .map(|a| self.tx_rx_power[a.index()][link.index()])
            .sum()
    }

    /// The distance within which a *single* interfering transmitter denies
    /// `rate` to a link of length `link_length` — the radius of the Eq. 1/3
    /// SINR constraint for one aggressor. `None` when the rate is not
    /// achievable even without interference (sensitivity- or SNR-limited).
    ///
    /// Useful for reasoning about spatial reuse: with the paper's constants
    /// a 50 m link needs 54 Mbps interferers ~247 m away but 6 Mbps
    /// interferers only ~71 m away, which is exactly why rate-coupled
    /// cliques differ per rate.
    pub fn conflict_range(&self, link_length: f64, rate: Rate) -> Option<f64> {
        let spec = self.phy.rates().spec_for(rate)?;
        if link_length > spec.max_distance {
            return None; // sensitivity-limited
        }
        let pr = self.phy.received_power(link_length);
        // Need pr / (I + N) >= sinr  =>  I <= pr/sinr - N.
        let max_interference = pr / spec.sinr_linear() - self.phy.noise();
        if max_interference <= 0.0 {
            return None; // SNR-limited even without interference
        }
        Some(
            self.phy
                .pathloss()
                .range_for(self.phy.tx_power(), max_interference),
        )
    }

    /// The maximum supported rate of `link` when all links in `active`
    /// (which should include `link`) transmit concurrently; `None` when the
    /// link cannot sustain any rate — this is the `r_ij^*` of §2.3.
    pub fn max_rate_in_set(&self, link: LinkId, active: &[LinkId]) -> Option<Rate> {
        let d = self
            .topology
            .link_length(link)
            .expect("callers pass links of this topology");
        let interference = self.interference_at(link, active);
        self.phy.max_rate_under_interference(d, interference)
    }
}

impl LinkRateModel for SinrModel {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn alone_rates(&self, link: LinkId) -> Vec<Rate> {
        self.alone.get(link.index()).cloned().unwrap_or_default()
    }

    fn admissible(&self, assignment: &[(LinkId, Rate)]) -> bool {
        for &(link, rate) in assignment {
            if rate.is_zero() {
                return false;
            }
            let Some(spec) = self.phy.rates().spec_for(rate) else {
                return false;
            };
            let j = link.index();
            let pr = self.signal[j];
            let interference: f64 = assignment
                .iter()
                .filter(|(other, _)| *other != link)
                .map(|(other, _)| self.tx_rx_power[other.index()][j])
                .sum();
            let sensitivity = self.phy.received_power(spec.max_distance);
            let sinr = pr / (interference + self.phy.noise());
            if pr < sensitivity * (1.0 - 1e-12) || sinr < spec.sinr_linear() * (1.0 - 1e-12) {
                return false;
            }
        }
        true
    }

    fn node_hears(&self, node: NodeId, link: LinkId) -> bool {
        let Ok(l) = self.topology.link(link) else {
            return false;
        };
        // A node participating in the transmission is trivially busy.
        if l.tx() == node || l.rx() == node {
            return true;
        }
        match self.topology.distance(l.tx(), node) {
            Ok(d) => self.phy.can_sense(d),
            Err(_) => false,
        }
    }

    fn rate_independent_interference(&self) -> bool {
        // Transmit power does not depend on the chosen rate, so neither does
        // the interference term of Eq. 3.
        true
    }

    fn victim_max_rate(&self, link: LinkId, others: &[(LinkId, Rate)]) -> Option<Rate> {
        // Exact joint computation: sum the interference of every other
        // transmitter (their chosen rates are irrelevant to this victim).
        let active: Vec<LinkId> = std::iter::once(link)
            .chain(others.iter().map(|&(l, _)| l).filter(|&l| l != link))
            .collect();
        self.max_rate_in_set(link, &active)
    }

    fn link_fingerprint(&self, link: LinkId) -> u64 {
        // Everything a member link contributes to in-set admissibility is a
        // function of its endpoint positions (signal strength, injected and
        // suffered interference) given the model-wide radio, which
        // `model_fingerprint` covers.
        let Ok(l) = self.topology.link(link) else {
            return 0;
        };
        let tx = self
            .topology
            .node(l.tx())
            .expect("link endpoints are validated by the topology")
            .position();
        let rx = self
            .topology
            .node(l.rx())
            .expect("link endpoints are validated by the topology")
            .position();
        let mut h = fingerprint_seed();
        for v in [tx.x, tx.y, rx.x, rx.y] {
            h = fingerprint_mix(h, v.to_bits());
        }
        h
    }

    fn model_fingerprint(&self) -> u64 {
        let mut h = fingerprint_seed();
        for v in [
            self.phy.tx_power(),
            self.phy.noise(),
            self.phy.pathloss().exponent(),
            self.phy.carrier_sense_range(),
        ] {
            h = fingerprint_mix(h, v.to_bits());
        }
        for spec in self.phy.rates().iter() {
            h = fingerprint_mix(h, spec.rate.as_mbps().to_bits());
            h = fingerprint_mix(h, spec.sinr_linear().to_bits());
            h = fingerprint_mix(h, spec.max_distance.to_bits());
        }
        h
    }

    fn additive_capture(&self) -> Option<crate::AdditiveCapture> {
        let n = self.topology.num_links();
        let mut power = Vec::with_capacity(n * n);
        for row in &self.tx_rx_power {
            power.extend_from_slice(row);
        }
        Some(crate::AdditiveCapture {
            num_links: n,
            power,
            signal: self.signal.clone(),
            noise: self.phy.noise(),
            steps: self.phy.capture_thresholds(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinkRateModel;
    use proptest::prelude::*;

    /// Two parallel 50 m links, separated by `gap` metres.
    fn parallel_pair(gap: f64) -> (SinrModel, LinkId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        let c = t.add_node(0.0, gap);
        let d = t.add_node(50.0, gap);
        let l1 = t.add_link(a, b).unwrap();
        let l2 = t.add_link(c, d).unwrap();
        (SinrModel::new(t, Phy::paper_default()), l1, l2)
    }

    #[test]
    fn far_apart_links_are_concurrent_at_top_rate() {
        let (m, l1, l2) = parallel_pair(10_000.0);
        let top = Rate::from_mbps(54.0);
        assert!(m.admissible(&[(l1, top), (l2, top)]));
        assert_eq!(m.max_rate_in_set(l1, &[l1, l2]), Some(top));
    }

    #[test]
    fn close_links_conflict_at_high_rate() {
        let (m, l1, l2) = parallel_pair(60.0);
        let top = Rate::from_mbps(54.0);
        // Interferer at ~60-78 m from the receiver: SINR is far below 24.56 dB.
        assert!(!m.admissible(&[(l1, top), (l2, top)]));
        // Each link alone is fine.
        assert!(m.admissible(&[(l1, top)]));
        assert!(m.admissible(&[(l2, top)]));
    }

    #[test]
    fn intermediate_gap_allows_low_rate_only() {
        // Find a separation where the pair sustains 6 Mbps but not 54.
        // With the paper's constants the 54 Mbps SINR constraint needs the
        // interferer ~247 m away while 6 Mbps only needs ~71 m, so gaps in
        // between exhibit the coupling.
        for gap in [100.0, 150.0, 200.0] {
            let (m, l1, l2) = parallel_pair(gap);
            let low = Rate::from_mbps(6.0);
            let top = Rate::from_mbps(54.0);
            if m.admissible(&[(l1, low), (l2, low)]) && !m.admissible(&[(l1, top), (l2, top)]) {
                // Rate coupling in action: same geometry, different rates.
                return;
            }
        }
        panic!("no gap exhibited rate-dependent admissibility");
    }

    #[test]
    fn alone_rates_follow_distance() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(100.0, 0.0); // 18 Mbps range
        let c = t.add_node(500.0, 0.0); // out of range from b
        let ab = t.add_link(a, b).unwrap();
        let bc = t.add_link(b, c).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        let rates: Vec<f64> = m.alone_rates(ab).iter().map(|r| r.as_mbps()).collect();
        assert_eq!(rates, vec![18.0, 6.0]);
        assert!(m.alone_rates(bc).is_empty());
        assert_eq!(m.max_alone_rate(bc), None);
    }

    #[test]
    fn admissible_rejects_unachievable_rates() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(150.0, 0.0); // only 6 Mbps alone
        let ab = t.add_link(a, b).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        assert!(m.admissible(&[(ab, Rate::from_mbps(6.0))]));
        assert!(!m.admissible(&[(ab, Rate::from_mbps(54.0))]));
        assert!(!m.admissible(&[(ab, Rate::ZERO)]));
        assert!(!m.admissible(&[(ab, Rate::from_mbps(11.0))])); // not in table
    }

    #[test]
    fn interference_is_additive_across_transmitters() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        let c = t.add_node(0.0, 300.0);
        let d = t.add_node(50.0, 300.0);
        let e = t.add_node(0.0, -300.0);
        let f = t.add_node(50.0, -300.0);
        let ab = t.add_link(a, b).unwrap();
        let cd = t.add_link(c, d).unwrap();
        let ef = t.add_link(e, f).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        let one = m.interference_at(ab, &[ab, cd]);
        let two = m.interference_at(ab, &[ab, cd, ef]);
        assert!(two > one);
        assert!((two - 2.0 * one).abs() < one * 0.1); // symmetric placement
    }

    #[test]
    fn hearing_includes_participants_and_sensing_range() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        let near = t.add_node(100.0, 0.0); // 100 m from tx: within 158 m CS range
        let far = t.add_node(1000.0, 0.0);
        let ab = t.add_link(a, b).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        assert!(m.node_hears(a, ab));
        assert!(m.node_hears(b, ab));
        assert!(m.node_hears(near, ab));
        assert!(!m.node_hears(far, ab));
    }

    #[test]
    fn conflict_range_matches_admissibility_boundary() {
        let phy = Phy::paper_default();
        // Build a probe topology lazily per distance.
        let link_length = 50.0;
        let rate = Rate::from_mbps(54.0);
        let model_at = |gap: f64| {
            let mut t = Topology::new();
            let a = t.add_node(0.0, 0.0);
            let b = t.add_node(link_length, 0.0);
            // Interferer transmitter exactly `gap` from the victim receiver.
            let c = t.add_node(link_length + gap, 0.0);
            let d = t.add_node(link_length + gap + 10.0, 0.0);
            let l1 = t.add_link(a, b).unwrap();
            let l2 = t.add_link(c, d).unwrap();
            (SinrModel::new(t, phy.clone()), l1, l2)
        };
        let (probe, _, _) = model_at(100.0);
        let range = probe.conflict_range(link_length, rate).unwrap();
        assert!((150.0..400.0).contains(&range), "range {range}");
        // Just inside the range the pair is inadmissible at 54; just
        // outside it is admissible.
        let low = Rate::from_mbps(6.0);
        let (m, l1, l2) = model_at(range - 1.0);
        assert!(!m.admissible(&[(l1, rate), (l2, low)]));
        let (m, l1, l2) = model_at(range + 1.0);
        assert!(m.admissible(&[(l1, rate), (l2, low)]));
        // Rates out of reach return None.
        assert!(probe.conflict_range(100.0, rate).is_none()); // > 59 m
        assert!(probe.conflict_range(50.0, Rate::from_mbps(11.0)).is_none());
    }

    #[test]
    fn fingerprints_track_geometry_and_radio() {
        let (m, l1, l2) = parallel_pair(300.0);
        // Distinct links fingerprint differently; a clone is identical.
        assert_ne!(m.link_fingerprint(l1), m.link_fingerprint(l2));
        let again = m.clone();
        assert_eq!(m.link_fingerprint(l1), again.link_fingerprint(l1));
        assert_eq!(m.model_fingerprint(), again.model_fingerprint());
        // Moving one endpoint changes only that link's fingerprint.
        let (moved, m1, m2) = parallel_pair(310.0);
        assert_eq!(m.link_fingerprint(l1), moved.link_fingerprint(m1));
        assert_ne!(m.link_fingerprint(l2), moved.link_fingerprint(m2));
        // A different radio changes the model fingerprint.
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        t.add_link(a, b).unwrap();
        let quiet = SinrModel::new(t, Phy::paper_default().with_noise(1e-15));
        assert_ne!(m.model_fingerprint(), quiet.model_fingerprint());
        // The blanket `&M` impl forwards rather than defaulting to 0.
        let by_ref: &SinrModel = &m;
        assert_eq!(by_ref.link_fingerprint(l1), m.link_fingerprint(l1));
        assert_eq!(by_ref.model_fingerprint(), m.model_fingerprint());
        assert_ne!(m.model_fingerprint(), 0);
    }

    /// A random geometry on an integer grid (so coincident nodes and repeated
    /// distances occur) with links drawn from node pairs: anywhere from no
    /// links to nearly all of them, leaving some nodes linkless.
    fn random_geometry() -> impl Strategy<Value = Topology> {
        (2usize..28, 1u32..40, 1.0f64..60.0).prop_flat_map(|(n, grid, spacing)| {
            let nodes = proptest::collection::vec((0..grid, 0..grid), n);
            let pairs = proptest::collection::vec((0..n, 0..n), 0..=n * (n - 1));
            (nodes, pairs).prop_map(move |(nodes, pairs)| {
                let mut t = Topology::new();
                let ids: Vec<NodeId> = nodes
                    .iter()
                    .map(|&(x, y)| t.add_node(f64::from(x) * spacing, f64::from(y) * spacing))
                    .collect();
                for (a, b) in pairs {
                    // Self-loops and duplicate pairs are rejected; skip them.
                    let _ = t.add_link(ids[a], ids[b]);
                }
                t
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The memoised power table equals the direct per-link-pair
        /// evaluation bit for bit, on dense and sparse random geometries.
        #[test]
        fn power_table_matches_direct_pairs(t in random_geometry()) {
            let phy = Phy::paper_default();
            let m = SinrModel::new(t.clone(), phy.clone());
            let l = t.num_links();
            prop_assert_eq!(m.tx_rx_power.len(), l);
            for (ti, tl) in t.links().enumerate() {
                for (ri, rl) in t.links().enumerate() {
                    let direct = phy.received_power(t.distance(tl.tx(), rl.rx()).unwrap());
                    prop_assert_eq!(
                        m.tx_rx_power[ti][ri].to_bits(),
                        direct.to_bits(),
                        "entry ({}, {})",
                        ti,
                        ri
                    );
                }
            }
            let capture = m.additive_capture().unwrap();
            prop_assert_eq!(&capture.power, &m.tx_rx_power.concat());
            for (j, link) in t.links().enumerate() {
                let own = phy.received_power(t.link_length(link.id()).unwrap());
                prop_assert_eq!(capture.signal[j].to_bits(), own.to_bits());
            }
        }
    }

    #[test]
    fn max_rate_in_set_matches_admissibility() {
        // In the SINR model interference is independent of chosen rates, so
        // the joint (max, max) vector must be admissible, and raising either
        // link above its set-max must not be.
        for gap in [150.0, 200.0, 400.0, 1000.0] {
            let (m, l1, l2) = parallel_pair(gap);
            let set = [l1, l2];
            let (Some(r1), Some(r2)) = (m.max_rate_in_set(l1, &set), m.max_rate_in_set(l2, &set))
            else {
                continue;
            };
            assert!(
                m.admissible(&[(l1, r1), (l2, r2)]),
                "joint max-rate vector must be admissible at gap {gap}"
            );
            let higher = m.phy().rates().iter().map(|s| s.rate).find(|&x| x > r1);
            if let Some(higher) = higher {
                assert!(
                    !m.admissible(&[(l1, higher), (l2, r2)]),
                    "raising l1 above its set max must fail at gap {gap}"
                );
            }
        }
    }
}
