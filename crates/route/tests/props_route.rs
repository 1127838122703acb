//! Property-based tests for the routing substrate: compiled functions
//! reproduce their tables, the Definition 7–9 predicates relate to
//! each other the way the theory says they must, and the fused
//! property walk agrees with the per-predicate walks it replaced.

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use wormnet::topology::{complete, Mesh};
use wormnet::{ChannelId, Network, NodeId};
use wormroute::algorithms::{random_table, random_tree_routing, shortest_path_table};
use wormroute::properties::PropertyReport;
use wormroute::{properties, Path, RoutingStep, TableRouting};

/// The per-predicate table walks `properties::analyze` fused into one,
/// kept as the differential oracle: each predicate (and each
/// `W101`–`W104` witness) re-walks the whole table with per-path
/// node vectors, prefix/suffix copies and map lookups.
mod oracle {
    use super::*;
    use std::collections::BTreeMap;
    use wormroute::properties::{ClosureBreak, Detour, Revisit, Violations};

    fn detours(net: &Network, table: &TableRouting) -> (bool, Violations<Detour>) {
        let mut minimal = true;
        let mut v = Violations::default();
        for (&pair, path) in table.iter() {
            let Some(dist) = net.hop_distance(pair.0, pair.1) else {
                minimal = false;
                continue;
            };
            minimal &= dist == path.len();
            if path.len() > dist {
                v.count += 1;
                let worse = |w: &Detour| path.len() - dist > w.len - w.distance;
                if v.witness.as_ref().is_none_or(worse) {
                    v.witness = Some(Detour {
                        pair,
                        len: path.len(),
                        distance: dist,
                    });
                }
            }
        }
        (minimal, v)
    }

    fn prefix_breaks(net: &Network, table: &TableRouting) -> Violations<ClosureBreak> {
        let mut v = Violations::default();
        for (&(src, dst), path) in table.iter() {
            let nodes = path.nodes(net);
            for (i, &n) in nodes[1..nodes.len() - 1].iter().enumerate() {
                if n == src || nodes.iter().position(|&x| x == n) != Some(i + 1) {
                    continue;
                }
                if let (Some(prefix), Some(registered)) =
                    (path.prefix_to(net, n), table.path(src, n))
                {
                    if *registered == prefix {
                        continue;
                    }
                }
                v.count += 1;
                v.witness.get_or_insert(ClosureBreak {
                    pair: (src, dst),
                    pos: i + 1,
                });
            }
        }
        v
    }

    fn suffix_breaks(net: &Network, table: &TableRouting) -> Violations<ClosureBreak> {
        let mut v = Violations::default();
        for (&(src, dst), path) in table.iter() {
            let nodes = path.nodes(net);
            for (pos, &n) in nodes.iter().enumerate().take(nodes.len() - 1).skip(1) {
                if n == dst {
                    continue;
                }
                let suffix = path.suffix_from_pos(pos).expect("interior position");
                if table.path(n, dst) == Some(&suffix) {
                    continue;
                }
                v.count += 1;
                v.witness.get_or_insert(ClosureBreak {
                    pair: (src, dst),
                    pos,
                });
            }
        }
        v
    }

    fn revisits(net: &Network, table: &TableRouting) -> Violations<Revisit> {
        let mut v = Violations::default();
        for (&pair, path) in table.iter() {
            if path.is_node_simple(net) {
                continue;
            }
            let nodes = path.nodes(net);
            let node = nodes
                .iter()
                .enumerate()
                .find(|(i, n)| nodes[..*i].contains(n))
                .map(|(_, &n)| n)
                .expect("non-simple walk has a repeat");
            v.count += 1;
            v.witness.get_or_insert(Revisit { pair, node });
        }
        v
    }

    fn node_function(net: &Network, table: &TableRouting) -> bool {
        let mut choice: BTreeMap<(NodeId, NodeId), ChannelId> = BTreeMap::new();
        for (&(_, dst), path) in table.iter() {
            let nodes = path.nodes(net);
            for (i, &c) in path.channels().iter().enumerate() {
                if *choice.entry((nodes[i], dst)).or_insert(c) != c {
                    return false;
                }
            }
        }
        true
    }

    pub fn analyze(net: &Network, table: &TableRouting) -> PropertyReport {
        let (minimal, detours) = detours(net, table);
        let prefix_breaks = prefix_breaks(net, table);
        let suffix_breaks = suffix_breaks(net, table);
        let revisits = revisits(net, table);
        let prefix_closed = prefix_breaks.count == 0;
        let suffix_closed = suffix_breaks.count == 0;
        let node_simple = table.iter().all(|(_, p)| p.is_node_simple(net));
        PropertyReport {
            total: table.is_total(net),
            minimal,
            prefix_closed,
            suffix_closed,
            node_simple,
            coherent: prefix_closed && suffix_closed && node_simple,
            node_function: node_function(net, table),
            detours,
            suffix_breaks,
            prefix_breaks,
            revisits,
        }
    }
}

/// A BFS node walk from `s` to `d` over `net`'s channels, ties broken
/// by channel order; `None` if `d` is unreachable.
fn bfs_walk(net: &Network, s: NodeId, d: NodeId) -> Option<Vec<NodeId>> {
    let mut parent: Vec<Option<NodeId>> = vec![None; net.node_count()];
    let mut queue = std::collections::VecDeque::from([s]);
    parent[s.index()] = Some(s);
    while let Some(v) = queue.pop_front() {
        for &c in net.out_channels(v) {
            let w = net.channel(c).dst();
            if parent[w.index()].is_none() {
                parent[w.index()] = Some(v);
                queue.push_back(w);
            }
        }
    }
    parent[d.index()]?;
    let mut walk = vec![d];
    while *walk.last().expect("non-empty") != s {
        walk.push(parent[walk.last().expect("non-empty").index()].expect("on the tree"));
    }
    walk.reverse();
    Some(walk)
}

/// A random partial routing table on a random (not necessarily
/// strongly connected) two-lane digraph: pairs are dropped with
/// probability `skip`, detour through a random node with probability
/// `via` (non-minimal, often revisiting), and pick a random lane per
/// hop when `mixed_lanes` (breaking prefix/suffix agreement).
fn arbitrary_table(
    seed: u64,
    n: usize,
    skip: f64,
    via: f64,
    mixed_lanes: bool,
) -> (Network, TableRouting) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = Network::new();
    let nodes = net.add_nodes("v", n);
    for &a in &nodes {
        for &b in &nodes {
            if a != b && rng.random_bool(0.45) {
                net.add_channel_vc(a, b, 0);
                if rng.random_bool(0.3) {
                    net.add_channel_vc(a, b, 1);
                }
            }
        }
    }
    let mut table = TableRouting::new();
    for &s in &nodes {
        for &d in &nodes {
            if s == d || rng.random_bool(skip) {
                continue;
            }
            let Some(direct) = bfs_walk(&net, s, d) else {
                continue; // an unreachable pair stays unrouted
            };
            let mut walk = direct.clone();
            if rng.random_bool(via) {
                let w = nodes[rng.random_range(0..n)];
                if let (Some(a), Some(b)) = (bfs_walk(&net, s, w), bfs_walk(&net, w, d)) {
                    walk = a;
                    walk.extend_from_slice(&b[1..]);
                }
            }
            let mut pick = |net: &Network, a: NodeId, b: NodeId, _: usize| {
                let lanes = net.channels_between(a, b);
                let lane = if mixed_lanes {
                    rng.random_range(0..lanes.len())
                } else {
                    0
                };
                lanes.get(lane).copied()
            };
            let path = Path::from_nodes_with(&net, &walk, &mut pick)
                .or_else(|_| Path::from_nodes(&net, &direct))
                .expect("a BFS walk is a valid path");
            table.insert(&net, s, d, path).expect("fresh pair");
        }
    }
    (net, table)
}

/// The generator really produces the cases the differential test is
/// about; if one kind disappears the comparison goes vacuous there.
#[test]
fn arbitrary_tables_cover_every_violation_kind() {
    let (mut partial, mut unreachable, mut revisiting, mut detouring) = (0, 0, 0, 0);
    let (mut prefix, mut suffix, mut not_function) = (0, 0, 0);
    for seed in 0..200 {
        let (net, table) = arbitrary_table(seed, 5, 0.1, 0.5, seed % 2 == 0);
        let r = oracle::analyze(&net, &table);
        assert_eq!(properties::analyze(&net, &table), r, "seed {seed}");
        partial += usize::from(!r.total);
        unreachable += usize::from(!net.is_strongly_connected());
        revisiting += usize::from(r.revisits.count > 0);
        detouring += usize::from(r.detours.count > 0);
        prefix += usize::from(r.prefix_breaks.count > 0);
        suffix += usize::from(r.suffix_breaks.count > 0);
        not_function += usize::from(!r.node_function);
    }
    for (kind, seen) in [
        ("non-total", partial),
        ("unreachable pairs", unreachable),
        ("revisiting", revisiting),
        ("non-minimal", detouring),
        ("prefix break", prefix),
        ("suffix break", suffix),
        ("not a node function", not_function),
    ] {
        assert!(seen >= 10, "{kind}: only {seen} of 200 tables");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused walk reproduces every predicate, every violation
    /// count and every witness of the per-predicate oracle on tables
    /// that are non-total, revisiting, non-minimal, lane-inconsistent
    /// or leave unreachable pairs unrouted.
    #[test]
    fn fused_walk_matches_the_per_predicate_oracle(
        seed in 0u64..5_000,
        n in 2usize..7,
        skip in 0u32..40,
        via in 0u32..80,
        mixed in 0u32..2,
    ) {
        let (net, table) =
            arbitrary_table(seed, n, f64::from(skip) / 100.0, f64::from(via) / 100.0, mixed == 1);
        prop_assert_eq!(properties::analyze(&net, &table), oracle::analyze(&net, &table));
    }

    /// The oracle also agrees on the generated total tables the other
    /// properties below range over.
    #[test]
    fn fused_walk_matches_the_oracle_on_random_total_tables(seed in 0u64..500, detour in 0usize..3) {
        let (net, _) = complete(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(&net, &mut rng, detour).expect("routes");
        prop_assert_eq!(properties::analyze(&net, &table), oracle::analyze(&net, &table));
    }

    /// Whenever a table compiles to a routing function, walking the
    /// function from every source reproduces the table's path exactly.
    #[test]
    fn compiled_function_walks_reproduce_paths(seed in 0u64..500) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // In-tree routing always compiles (it is a node function).
        let table = random_tree_routing(net, &mut rng).expect("routes");
        let compiled = table.compile(net).expect("node functions compile");
        for (&(s, d), path) in table.iter() {
            let mut walked = Vec::new();
            let mut cur = compiled.inject(s, d).expect("routed pair");
            walked.push(cur);
            while let RoutingStep::Forward(c) = compiled.next(net, cur, d) {
                walked.push(c);
                cur = c;
                prop_assert!(walked.len() <= net.channel_count(), "walk must terminate");
            }
            prop_assert_eq!(walked.as_slice(), path.channels());
        }
    }

    /// For total tables: node-function implies suffix-closed, and
    /// coherent implies node-simple paths.
    #[test]
    fn predicate_implications(seed in 0u64..500, detour in 0usize..2) {
        let (net, _) = complete(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(&net, &mut rng, detour).expect("routes");
        prop_assert!(table.is_total(&net));
        if properties::is_node_function(&net, &table) {
            prop_assert!(properties::is_suffix_closed(&net, &table));
        }
        if properties::is_coherent(&net, &table) {
            prop_assert!(properties::never_revisits_nodes(&net, &table));
            prop_assert!(properties::is_prefix_closed(&net, &table));
            prop_assert!(properties::is_suffix_closed(&net, &table));
        }
        // Minimality bound: no path shorter than the hop distance.
        for (&(s, d), p) in table.iter() {
            prop_assert!(p.len() >= net.hop_distance(s, d).unwrap());
        }
    }

    /// BFS shortest-path tables are minimal on every mesh and their
    /// compiled form (when it exists) is consistent.
    #[test]
    fn shortest_tables_are_minimal(w in 2usize..5, h in 1usize..4) {
        prop_assume!(w * h >= 2);
        let mesh = Mesh::new(&[w, h]);
        let net = mesh.network();
        let table = shortest_path_table(net).expect("routes");
        prop_assert!(properties::is_minimal(net, &table));
        prop_assert!(table.is_total(net));
        // Deterministic construction.
        prop_assert_eq!(&table, &shortest_path_table(net).expect("routes"));
    }

    /// Paths constructed from node walks round-trip through their
    /// node views.
    #[test]
    fn path_node_roundtrip(seed in 0u64..500) {
        let mesh = Mesh::new(&[3, 3]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(net, &mut rng, 1).expect("routes");
        for (&(s, d), p) in table.iter() {
            let nodes = p.nodes(net);
            prop_assert_eq!(nodes[0], s);
            prop_assert_eq!(*nodes.last().unwrap(), d);
            prop_assert_eq!(nodes.len(), p.len() + 1);
            let rebuilt = wormroute::Path::from_channels(net, p.channels().to_vec())
                .expect("valid channels");
            prop_assert_eq!(&rebuilt, p);
            // prefix/suffix recomposition at every interior node.
            for pos in 1..nodes.len() - 1 {
                let v = nodes[pos];
                if nodes.iter().position(|&x| x == v) != Some(pos) {
                    continue; // only first occurrences have prefixes
                }
                if let (Some(pre), Some(suf)) =
                    (p.prefix_to(net, v), p.suffix_from_pos(pos))
                {
                    let mut glued = pre.channels().to_vec();
                    glued.extend_from_slice(suf.channels());
                    prop_assert_eq!(glued.as_slice(), p.channels());
                }
            }
        }
    }

    /// Random tree routing: every source's path to a fixed destination
    /// merges into a tree (once two paths meet, they coincide).
    #[test]
    fn tree_paths_merge(seed in 0u64..300) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_tree_routing(net, &mut rng).expect("routes");
        for d in net.nodes() {
            // next-hop per node must be unique across all paths to d.
            let mut next: std::collections::BTreeMap<NodeId, wormnet::ChannelId> =
                Default::default();
            for s in net.nodes() {
                if s == d {
                    continue;
                }
                let p = table.path(s, d).expect("total");
                let nodes = p.nodes(net);
                for (i, &c) in p.channels().iter().enumerate() {
                    let at = nodes[i];
                    match next.get(&at) {
                        Some(&prev) => prop_assert_eq!(prev, c),
                        None => {
                            next.insert(at, c);
                        }
                    }
                }
            }
        }
    }
}
