//! Enumeration of admissible rated sets and maximal independent sets.
//!
//! Two implementations sit behind the public functions:
//!
//! * the **generic backtracker** (this module), which only needs the
//!   [`LinkRateModel`] callbacks and works for any model, and
//! * the **compiled engine** ([`crate::engine`]), which first snapshots the
//!   model into word-packed conflict bitmasks ([`crate::compiled`]) and then
//!   searches over flat arrays — with maximality detected *during* the
//!   search and an optional thread fan-out.
//!
//! [`EngineKind`] selects between them; every engine produces byte-identical
//! output, so callers may treat the choice as a pure performance knob.

use crate::compiled::Compiled;
use crate::concurrent::RatedSet;
use crate::engine;
use awb_net::{LinkId, LinkRateModel};
use awb_phy::Rate;
use std::collections::BTreeMap;

/// Which enumeration engine to run. Every variant produces **byte-identical
/// results** — same sets, same order — so this is purely a performance
/// choice and is deliberately excluded from result-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The best available engine, sequential: the compiled bitset engine for
    /// models whose pairwise conflicts decide admissibility exactly
    /// ([`LinkRateModel::pairwise_admissibility_exact`]), the mask-pruned
    /// hybrid for rate-independent models, and the generic backtracker
    /// otherwise.
    #[default]
    Auto,
    /// The reference generic backtracker. Always available; the compiled
    /// engines are property-tested byte-identical against it.
    Generic,
    /// The compiled engine with a worker pool of the given size (`0` means
    /// one worker per available core). Only the exact bitset searches fan
    /// out — the hybrid and generic fallbacks run sequentially regardless —
    /// and the fan-out merges deterministically, so results do not depend on
    /// the thread count.
    Compiled(usize),
}

/// Options for [`enumerate_admissible`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationOptions {
    /// Drop sets whose throughput vector is dominated by another set's
    /// (componentwise ≤ with the same or fewer links). Dominated sets never
    /// change the feasibility LP, so this defaults to `true`; the
    /// `enum_pruning` ablation bench turns it off.
    pub prune_dominated: bool,
    /// Cap on the number of links per set; `None` means unbounded.
    pub max_set_size: Option<usize>,
    /// Which engine runs the search (a pure performance knob; results are
    /// identical across engines).
    pub engine: EngineKind,
}

impl Default for EnumerationOptions {
    fn default() -> Self {
        EnumerationOptions {
            prune_dominated: true,
            max_set_size: None,
            engine: EngineKind::default(),
        }
    }
}

/// Enumerates every non-empty admissible [`RatedSet`] over `universe`
/// (deduplicated; see [`EnumerationOptions`] for pruning).
///
/// Admissibility is downward closed, so the search prunes any partial
/// assignment that is already inadmissible. For models with rate-independent
/// interference ([`LinkRateModel::rate_independent_interference`]) the search
/// branches on membership only and assigns each link its maximum supported
/// rate within the set — lower-rate variants are dominated and, because
/// admissibility of membership does not depend on chosen rates, never enable
/// additional links.
///
/// Links of `universe` that support no rate at all are skipped.
///
/// # Panics
///
/// Panics if `universe` contains duplicate links.
pub fn enumerate_admissible<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    options: &EnumerationOptions,
) -> Vec<RatedSet> {
    assert_unique(universe);
    let out = match options.engine {
        EngineKind::Generic => enumerate_generic(model, universe, options),
        EngineKind::Auto => enumerate_compiled(model, universe, options, 1),
        EngineKind::Compiled(threads) => {
            enumerate_compiled(model, universe, options, engine::resolve_threads(threads))
        }
    };
    if options.prune_dominated {
        pareto_filter(out)
    } else {
        out
    }
}

fn assert_unique(universe: &[LinkId]) {
    let mut sorted = universe.to_vec();
    sorted.sort();
    sorted.dedup();
    assert!(
        sorted.len() == universe.len(),
        "universe contains duplicate links"
    );
}

/// Compiled-engine dispatch: pick the strongest search the model's snapshot
/// flags justify, falling back to the generic backtracker when neither
/// applies. Checked *before* paying for the snapshot.
fn enumerate_compiled<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    options: &EnumerationOptions,
    threads: usize,
) -> Vec<RatedSet> {
    if model.rate_independent_interference() {
        let compiled = Compiled::new(&model.conflict_snapshot(universe));
        engine::enumerate_hybrid(model, &compiled, options)
    } else if model.pairwise_admissibility_exact() {
        let compiled = Compiled::new(&model.conflict_snapshot(universe));
        engine::enumerate_exact(&compiled, options, threads)
    } else {
        enumerate_generic(model, universe, options)
    }
}

fn enumerate_generic<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    options: &EnumerationOptions,
) -> Vec<RatedSet> {
    // Per-link rate choices (descending). Dead links are dropped.
    let live: Vec<(LinkId, Vec<Rate>)> = universe
        .iter()
        .map(|&l| (l, model.alone_rates(l)))
        .filter(|(_, rs)| !rs.is_empty())
        .collect();

    let mut out: Vec<RatedSet> = Vec::new();
    let mut assignment: Vec<(LinkId, Rate)> = Vec::new();
    if model.rate_independent_interference() {
        // Branch on membership at the lowest rates, then lift to max rates.
        // The link→live-row index is built once per enumeration; the lift at
        // every emitted leaf uses it instead of scanning `live`.
        let index_of: BTreeMap<LinkId, usize> =
            live.iter().enumerate().map(|(i, &(l, _))| (l, i)).collect();
        enumerate_membership(
            model,
            &live,
            &index_of,
            0,
            &mut assignment,
            options,
            &mut out,
        );
    } else {
        enumerate_rated(model, &live, 0, &mut assignment, options, &mut out);
    }
    out
}

fn enumerate_rated<M: LinkRateModel>(
    model: &M,
    live: &[(LinkId, Vec<Rate>)],
    index: usize,
    assignment: &mut Vec<(LinkId, Rate)>,
    options: &EnumerationOptions,
    out: &mut Vec<RatedSet>,
) {
    if index == live.len() {
        if !assignment.is_empty() {
            out.push(RatedSet::new(assignment.clone()));
        }
        return;
    }
    // Branch 1: skip this link.
    enumerate_rated(model, live, index + 1, assignment, options, out);
    // Branch 2: include at each admissible rate.
    if options
        .max_set_size
        .is_some_and(|cap| assignment.len() >= cap)
    {
        return;
    }
    let (link, rates) = &live[index];
    for &r in rates {
        assignment.push((*link, r));
        if model.admissible(assignment) {
            enumerate_rated(model, live, index + 1, assignment, options, out);
        }
        assignment.pop();
    }
}

#[allow(clippy::too_many_arguments)]
fn enumerate_membership<M: LinkRateModel>(
    model: &M,
    live: &[(LinkId, Vec<Rate>)],
    index_of: &BTreeMap<LinkId, usize>,
    index: usize,
    assignment: &mut Vec<(LinkId, Rate)>,
    options: &EnumerationOptions,
    out: &mut Vec<RatedSet>,
) {
    if index == live.len() {
        if !assignment.is_empty() {
            out.push(lift_to_max_rates(model, live, index_of, assignment));
        }
        return;
    }
    enumerate_membership(model, live, index_of, index + 1, assignment, options, out);
    if options
        .max_set_size
        .is_some_and(|cap| assignment.len() >= cap)
    {
        return;
    }
    let (link, rates) = &live[index];
    let Some(&lowest) = rates.last() else {
        return; // a rate-less link can join no set
    };
    assignment.push((*link, lowest));
    if model.admissible(assignment) {
        enumerate_membership(model, live, index_of, index + 1, assignment, options, out);
    }
    assignment.pop();
}

/// For rate-independent-interference models: replace each link's placeholder
/// rate with the maximum rate admissible while the rest of the set is active.
fn lift_to_max_rates<M: LinkRateModel>(
    model: &M,
    live: &[(LinkId, Vec<Rate>)],
    index_of: &BTreeMap<LinkId, usize>,
    assignment: &[(LinkId, Rate)],
) -> RatedSet {
    let mut lifted = assignment.to_vec();
    for i in 0..lifted.len() {
        let link = lifted[i].0;
        let rates = &live[index_of[&link]].1;
        // Rates are descending: the first admissible one is the max. Because
        // interference is rate-independent, testing with the others at their
        // current (any) rates is exact.
        for &r in rates.iter() {
            lifted[i].1 = r;
            if model.admissible(&lifted) {
                break;
            }
        }
    }
    RatedSet::new(lifted)
}

/// Keeps only undominated sets (in their original order).
///
/// Skyline sweep: sets are visited by descending `(cardinality, total
/// throughput)` — a strict dominator always sorts ahead of what it dominates
/// (domination implies ≥ on both components, with equality on both only for
/// identical sets, where the original-index tiebreak keeps the earlier one
/// first, matching the old keep-first semantics). Each set is therefore
/// checked against the *kept* prefix only; domination is transitive, so a
/// dominator that was itself dropped is covered by whatever dropped it.
///
/// Domination needs the candidate's links to be a subset of the kept set's,
/// so each set carries a one-word membership mask (link index folded mod
/// 64) and most kept sets are rejected by a single `AND` before the
/// per-couple rate walk. Folding keeps the test a necessary condition for
/// universes of any width: a subset's folded mask is always a submask.
fn pareto_filter(sets: Vec<RatedSet>) -> Vec<RatedSet> {
    if sets.len() <= 1 {
        return sets;
    }
    let score: Vec<(usize, f64, u64)> = sets
        .iter()
        .map(|s| {
            let sum: f64 = s.couples().iter().map(|&(_, r)| r.as_mbps()).sum();
            (s.len(), sum, link_mask(s))
        })
        .collect();
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by(|&i, &j| {
        score[j]
            .0
            .cmp(&score[i].0)
            .then_with(|| score[j].1.total_cmp(&score[i].1))
            .then_with(|| i.cmp(&j))
    });
    let mut keep = vec![false; sets.len()];
    // Kept sets with their masks, contiguous for the inner scan.
    let mut kept: Vec<(u64, usize)> = Vec::new();
    for &i in &order {
        let mask = score[i].2;
        if !kept
            .iter()
            .any(|&(km, k)| mask & !km == 0 && sets[k].dominates(&sets[i]))
        {
            keep[i] = true;
            kept.push((mask, i));
        }
    }
    sets.into_iter()
        .zip(keep)
        .filter_map(|(s, k)| k.then_some(s))
        .collect()
}

/// A set's links as one bit each, folded mod 64.
fn link_mask(set: &RatedSet) -> u64 {
    set.couples()
        .iter()
        .fold(0, |m, &(l, _)| m | (1u64 << (l.index() % 64)))
}

/// The paper's *maximal independent sets with maximum supported rates*
/// (§2.4): admissible sets where (a) no single link's rate can be raised and
/// (b) no further link of `universe` can be inserted at any positive rate.
///
/// By Proposition 3 these suffice for the feasibility condition (Eq. 4).
///
/// Output is sorted canonically (by couple vector); every engine produces
/// the identical `Vec`. Equivalent to
/// [`maximal_independent_sets_with`]`(model, universe, EngineKind::Auto)`.
///
/// # Panics
///
/// Panics if `universe` contains duplicate links.
pub fn maximal_independent_sets<M: LinkRateModel>(model: &M, universe: &[LinkId]) -> Vec<RatedSet> {
    maximal_independent_sets_with(model, universe, EngineKind::Auto)
}

/// [`maximal_independent_sets`] with an explicit engine choice.
///
/// `EngineKind::Auto` and `EngineKind::Compiled` detect maximality *during*
/// the search (a Bron–Kerbosch-style recursion over the compiled conflict
/// masks) instead of enumerating every admissible set and post-filtering;
/// `EngineKind::Generic` is the reference enumerate-then-filter pipeline.
///
/// # Panics
///
/// Panics if `universe` contains duplicate links.
pub fn maximal_independent_sets_with<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    engine_kind: EngineKind,
) -> Vec<RatedSet> {
    assert_unique(universe);
    let mut out = match engine_kind {
        EngineKind::Generic => maximal_generic(model, universe),
        EngineKind::Auto => maximal_compiled(model, universe, 1),
        EngineKind::Compiled(threads) => {
            maximal_compiled(model, universe, engine::resolve_threads(threads))
        }
    };
    out.sort_by_cached_key(canonical_key);
    out
}

/// Sort key making the maximal-set output order engine-independent: couples
/// ordered by link, ties broken toward the *higher* rate first. `Rate` is a
/// positive finite f64, so `to_bits` is order-preserving.
fn canonical_key(set: &RatedSet) -> Vec<(usize, std::cmp::Reverse<u64>)> {
    set.couples()
        .iter()
        .map(|&(l, r)| (l.index(), std::cmp::Reverse(r.as_mbps().to_bits())))
        .collect()
}

fn maximal_compiled<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    threads: usize,
) -> Vec<RatedSet> {
    if model.rate_independent_interference() {
        let compiled = Compiled::new(&model.conflict_snapshot(universe));
        engine::maximal_hybrid(model, &compiled)
    } else if model.pairwise_admissibility_exact() {
        let compiled = Compiled::new(&model.conflict_snapshot(universe));
        engine::maximal_exact(&compiled, threads)
    } else {
        maximal_generic(model, universe)
    }
}

fn maximal_generic<M: LinkRateModel>(model: &M, universe: &[LinkId]) -> Vec<RatedSet> {
    let all = enumerate_admissible(
        model,
        universe,
        &EnumerationOptions {
            prune_dominated: false,
            max_set_size: None,
            engine: EngineKind::Generic,
        },
    );
    // Alone rates memoized once per universe: `is_maximal` consults them for
    // every (set, link) pair and the model recomputes them on every call.
    let alone: BTreeMap<LinkId, Vec<Rate>> = universe
        .iter()
        .map(|&l| (l, model.alone_rates(l)))
        .collect();
    all.into_iter()
        .filter(|s| is_maximal(model, universe, &alone, s))
        .collect()
}

fn is_maximal<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    alone: &BTreeMap<LinkId, Vec<Rate>>,
    set: &RatedSet,
) -> bool {
    // (a) No single rate can be raised.
    for &(link, rate) in set.couples() {
        for &higher in alone[&link].iter().filter(|&&r| r > rate) {
            if model.admissible(set.with_rate(link, higher).couples()) {
                return false;
            }
        }
    }
    // (b) No link can be inserted at any positive rate.
    for &link in universe {
        if set.contains(link) {
            continue;
        }
        for &r in &alone[&link] {
            if model.admissible(set.with(link, r).couples()) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_net::{DeclarativeModel, Topology};
    use proptest::strategy::Strategy;

    fn r(m: f64) -> Rate {
        Rate::from_mbps(m)
    }

    /// A line of `n` disjoint links (2n nodes), no conflicts declared.
    fn free_links(n: usize, rates: &[Rate]) -> (DeclarativeModel, Vec<LinkId>) {
        let mut t = Topology::new();
        let mut links = Vec::new();
        for i in 0..n {
            let a = t.add_node(i as f64 * 10.0, 0.0);
            let b = t.add_node(i as f64 * 10.0 + 5.0, 0.0);
            links.push(t.add_link(a, b).unwrap());
        }
        let mut b = DeclarativeModel::builder(t);
        for &l in &links {
            b = b.alone_rates(l, rates);
        }
        (b.build(), links)
    }

    #[test]
    fn independent_links_collapse_to_one_pareto_set() {
        let (m, links) = free_links(3, &[r(54.0)]);
        let sets = enumerate_admissible(&m, &links, &EnumerationOptions::default());
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 3);
        // Without pruning: all 2^3 - 1 subsets.
        let all = enumerate_admissible(
            &m,
            &links,
            &EnumerationOptions {
                prune_dominated: false,
                ..EnumerationOptions::default()
            },
        );
        assert_eq!(all.len(), 7);
    }

    #[test]
    fn fully_conflicting_links_stay_singletons() {
        let (m0, links) = free_links(3, &[r(54.0)]);
        // Rebuild with all pairs conflicting.
        let mut b = DeclarativeModel::builder(m0.topology().clone());
        for &l in &links {
            b = b.alone_rates(l, &[r(54.0)]);
        }
        b = b
            .conflict_all(links[0], links[1])
            .conflict_all(links[0], links[2])
            .conflict_all(links[1], links[2]);
        let m = b.build();
        let sets = enumerate_admissible(&m, &links, &EnumerationOptions::default());
        assert_eq!(sets.len(), 3);
        assert!(sets.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn rate_dependent_conflict_produces_both_maximal_variants() {
        // L0@54 conflicts with L1@54; nothing else conflicts. Maximal sets:
        // {(L0,54),(L1,36)}, {(L0,36),(L1,54)}, and... raising either from
        // (36,36) is possible, so (36,36) is not maximal. {(L0,54)} alone is
        // not maximal (L1@36 can be inserted).
        let (m0, links) = free_links(2, &[r(54.0), r(36.0)]);
        let mut b = DeclarativeModel::builder(m0.topology().clone());
        for &l in &links {
            b = b.alone_rates(l, &[r(54.0), r(36.0)]);
        }
        b = b.conflict_at(links[0], r(54.0), links[1], r(54.0));
        let m = b.build();
        let maximal = maximal_independent_sets(&m, &links);
        assert_eq!(maximal.len(), 2, "{maximal:?}");
        for s in &maximal {
            let rates: Vec<f64> = links
                .iter()
                .map(|&l| s.rate_of(l).unwrap().as_mbps())
                .collect();
            assert!(rates == vec![54.0, 36.0] || rates == vec![36.0, 54.0]);
        }
    }

    #[test]
    fn engines_agree_on_rate_dependent_conflicts() {
        let (m0, links) = free_links(3, &[r(54.0), r(36.0)]);
        let mut b = DeclarativeModel::builder(m0.topology().clone());
        for &l in &links {
            b = b.alone_rates(l, &[r(54.0), r(36.0)]);
        }
        b = b
            .conflict_at(links[0], r(54.0), links[1], r(54.0))
            .conflict_all(links[1], links[2]);
        let m = b.build();
        for engine_kind in [
            EngineKind::Auto,
            EngineKind::Compiled(1),
            EngineKind::Compiled(4),
        ] {
            for prune in [false, true] {
                for cap in [None, Some(2)] {
                    let reference = enumerate_admissible(
                        &m,
                        &links,
                        &EnumerationOptions {
                            prune_dominated: prune,
                            max_set_size: cap,
                            engine: EngineKind::Generic,
                        },
                    );
                    let got = enumerate_admissible(
                        &m,
                        &links,
                        &EnumerationOptions {
                            prune_dominated: prune,
                            max_set_size: cap,
                            engine: engine_kind,
                        },
                    );
                    assert_eq!(got, reference, "{engine_kind:?} prune={prune} cap={cap:?}");
                }
            }
            assert_eq!(
                maximal_independent_sets_with(&m, &links, engine_kind),
                maximal_independent_sets_with(&m, &links, EngineKind::Generic),
                "{engine_kind:?}"
            );
        }
    }

    #[test]
    fn dominance_pruning_preserves_maximal_sets() {
        let (m0, links) = free_links(2, &[r(54.0), r(36.0)]);
        let mut b = DeclarativeModel::builder(m0.topology().clone());
        for &l in &links {
            b = b.alone_rates(l, &[r(54.0), r(36.0)]);
        }
        b = b.conflict_at(links[0], r(54.0), links[1], r(54.0));
        let m = b.build();
        let pareto = enumerate_admissible(&m, &links, &EnumerationOptions::default());
        let maximal = maximal_independent_sets(&m, &links);
        for ms in &maximal {
            assert!(
                pareto.iter().any(|p| p == ms),
                "maximal set {ms} missing from pareto pool"
            );
        }
    }

    /// The reference keep-first filter: a set is dropped iff another set
    /// dominates it, where of two identical sets the earlier one survives.
    fn naive_pareto(sets: &[RatedSet]) -> Vec<RatedSet> {
        sets.iter()
            .enumerate()
            .filter(|&(i, s)| {
                !sets
                    .iter()
                    .enumerate()
                    .any(|(j, o)| j != i && o.dominates(s) && (j < i || !s.dominates(o)))
            })
            .map(|(_, s)| s.clone())
            .collect()
    }

    /// Random set families. Link ids are `base + 64 * lane`: a few bases
    /// make subsets and dominations common, and the lanes spread the
    /// universe past 64 ids so distinct links share a folded mask bit.
    fn random_family() -> impl Strategy<Value = Vec<RatedSet>> {
        let ladder = [6.0, 12.0, 24.0, 54.0];
        (1usize..9, 1usize..5).prop_flat_map(move |(bases, lanes)| {
            let couple = (0..bases, 0..lanes, 0..ladder.len());
            let set = proptest::collection::vec(couple, 1..7);
            proptest::collection::vec(set, 0..48).prop_map(move |family| {
                family
                    .into_iter()
                    .map(|couples| {
                        let mut seen = BTreeMap::new();
                        for (b, lane, k) in couples {
                            seen.entry(LinkId::from_index(b + 64 * lane))
                                .or_insert(r(ladder[k]));
                        }
                        RatedSet::new(seen.into_iter().collect())
                    })
                    .collect()
            })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The mask-screened skyline sweep returns exactly the naive
        /// keep-first filter's output, in the same order.
        #[test]
        fn pareto_filter_matches_naive_keep_first(family in random_family()) {
            let expected = naive_pareto(&family);
            proptest::prop_assert_eq!(pareto_filter(family), expected);
        }
    }

    #[test]
    fn max_set_size_caps_cardinality() {
        let (m, links) = free_links(4, &[r(6.0)]);
        let sets = enumerate_admissible(
            &m,
            &links,
            &EnumerationOptions {
                prune_dominated: false,
                max_set_size: Some(2),
                ..EnumerationOptions::default()
            },
        );
        assert!(sets.iter().all(|s| s.len() <= 2));
        // 4 singletons + 6 pairs.
        assert_eq!(sets.len(), 10);
    }

    #[test]
    fn dead_links_are_skipped() {
        let (m0, links) = free_links(2, &[r(6.0)]);
        let mut b = DeclarativeModel::builder(m0.topology().clone());
        b = b.alone_rates(links[0], &[r(6.0)]); // links[1] stays dead
        let m = b.build();
        let sets = enumerate_admissible(&m, &links, &EnumerationOptions::default());
        assert_eq!(sets.len(), 1);
        assert!(sets[0].contains(links[0]));
    }

    #[test]
    #[should_panic(expected = "duplicate links")]
    fn duplicate_universe_panics() {
        let (m, links) = free_links(1, &[r(6.0)]);
        let _ = enumerate_admissible(&m, &[links[0], links[0]], &EnumerationOptions::default());
    }

    #[test]
    fn empty_universe_yields_no_sets() {
        let (m, _) = free_links(1, &[r(6.0)]);
        assert!(enumerate_admissible(&m, &[], &EnumerationOptions::default()).is_empty());
        assert!(maximal_independent_sets(&m, &[]).is_empty());
    }
}
