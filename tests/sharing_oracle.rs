//! Differential oracle for `wormcdg::sharing::analyze`.
//!
//! `analyze` groups a candidate's channel uses in one pass and tests
//! cycle membership by binary search. `brute_force_sharing` below is
//! the direct reading of the definition it replaced: collect each
//! channel's users in segment order, then decide `inside_cycle` by
//! asking [`sharing::geometry`] for every user's entry into the cycle
//! and scanning the user's path for the channel. The two must agree on
//! the whole `shared` vector — channels, users and their order, and
//! the inside/outside flag — on every enumerated candidate of the
//! paper's constructions and of the cyclic fabric families.

use std::collections::BTreeMap;

use cyclic_wormhole::cdg::sharing::{self, SharedChannel};
use cyclic_wormhole::cdg::{enumerate_candidates, Cdg, CdgCycle, DeadlockCandidate, MsgPair};
use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::net::topology::{complete, ring_unidirectional, Dragonfly};
use cyclic_wormhole::net::{ChannelId, Network};
use cyclic_wormhole::route::algorithms::{clockwise_ring, dragonfly_minimal, fullmesh_ring_detour};
use cyclic_wormhole::route::TableRouting;

/// The budgets the lint analysis runs under by default.
const MAX_CYCLES: usize = 10_000;
const MAX_CANDIDATES: usize = 10_000;

/// Shared channels by the definition: per-channel users in segment
/// order; inside the cycle iff a cycle channel every user reaches at
/// or after its own entry into the cycle.
fn brute_force_sharing(
    net: &Network,
    table: &TableRouting,
    cycle: &CdgCycle,
    candidate: &DeadlockCandidate,
) -> Vec<SharedChannel> {
    let mut users: BTreeMap<ChannelId, Vec<MsgPair>> = BTreeMap::new();
    for m in candidate.messages() {
        for &c in table.path(m.0, m.1).expect("routed").channels() {
            users.entry(c).or_default().push(m);
        }
    }
    users
        .into_iter()
        .filter(|(_, u)| u.len() >= 2)
        .map(|(channel, u)| {
            let inside = cycle.contains(channel)
                && u.iter().all(|&m| {
                    let g = sharing::geometry(net, table, cycle, m, None);
                    let pos = table
                        .path(m.0, m.1)
                        .expect("routed")
                        .channels()
                        .iter()
                        .position(|&c| c == channel)
                        .expect("user contains channel");
                    pos >= g.entry_index
                });
            SharedChannel {
                channel,
                users: u,
                inside_cycle: inside,
            }
        })
        .collect()
}

/// The specs the oracle runs on, by name.
fn targets() -> Vec<(String, Network, TableRouting)> {
    let mut out = Vec::new();
    let mut construction = |name: String, c: cyclic_wormhole::core::CycleConstruction| {
        out.push((name, c.net, c.table));
    };
    construction("fig1".into(), fig1::cyclic_dependency());
    construction("fig2".into(), fig2::two_message_deadlock());
    for s in fig3::all_scenarios() {
        construction(format!("fig3({})", s.name), s.spec.build());
    }
    for k in 1..=3 {
        construction(format!("G({k})"), generalized::generalized(k));
    }
    for n in 4..=12 {
        let (net, nodes) = ring_unidirectional(n);
        let table = clockwise_ring(&net, &nodes).expect("ring routes");
        out.push((format!("ring-clockwise {n}"), net, table));
    }
    let df = Dragonfly::with_lanes(3, 2, &[0], &[0]);
    let table = dragonfly_minimal(&df).expect("dragonfly routes");
    out.push(("dragonfly-novc 3x2".into(), df.into_network(), table));
    for n in 5..=7 {
        let (net, nodes) = complete(n);
        let table = fullmesh_ring_detour(&net, &nodes).expect("detour routes");
        out.push((format!("fullmesh-ring-detour {n}"), net, table));
    }
    out
}

#[test]
fn analyze_matches_brute_force_sharing() {
    let (mut candidates, mut inside, mut outside) = (0usize, 0usize, 0usize);
    for (name, net, table) in targets() {
        let cdg = Cdg::build(&net, &table);
        let (cycles, _) = cdg.cycles_streamed(MAX_CYCLES);
        assert!(!cycles.is_empty(), "{name}: expected a cyclic CDG");
        for cycle in &cycles {
            let (enumerated, _) = enumerate_candidates(&cdg, cycle, MAX_CANDIDATES);
            for candidate in &enumerated {
                let fast = sharing::analyze(&net, &table, cycle, candidate).shared;
                let oracle = brute_force_sharing(&net, &table, cycle, candidate);
                assert_eq!(
                    fast,
                    oracle,
                    "{name}: candidate {}",
                    candidate.describe(&net)
                );
                candidates += 1;
                inside += fast.iter().filter(|s| s.inside_cycle).count();
                outside += fast.iter().filter(|s| !s.inside_cycle).count();
            }
        }
    }
    // Rings share only inside their cycle, the paper's constructions
    // outside it: both sides of the flag must have been exercised.
    assert!(candidates > 10_000, "only {candidates} candidates compared");
    assert!(
        inside > 0 && outside > 0,
        "inside {inside}, outside {outside}"
    );
}
