//! Structural properties of oblivious routing algorithms
//! (Definitions 7–9 of the paper, plus minimality).
//!
//! These predicates drive the paper's Section 5 corollaries:
//! suffix-closed (and hence coherent) oblivious algorithms cannot have
//! unreachable cyclic configurations, so for them a cyclic channel
//! dependency graph *does* imply deadlock. The experiments validate
//! those corollaries by checking the predicates on a corpus of
//! algorithms and comparing against exhaustive search.
//!
//! Every predicate is decided by one fused walk over the table
//! ([`analyze`]): one BFS per distinct source (the table iterates in
//! `(src, dst)` order), one node buffer reused across paths, and
//! prefix/suffix checks that compare channel slices against the
//! registered paths through a dense pair index. The same walk counts
//! the violations and keeps the witnesses the `W101`–`W104` lints
//! report, so nothing downstream re-walks the table. The `is_*`
//! functions are projections of that report.

use std::collections::BTreeMap;

use wormnet::{ChannelId, Network, NodeId};

use crate::path::Path;
use crate::table::TableRouting;

/// Per-(node, node) tables are dense `n × n` arrays up to this many
/// cells (the cluster-scale fabrics), and ordered maps beyond it.
pub const DENSE_CELL_LIMIT: usize = 1 << 24;

/// An ordered `(source, destination)` node pair.
pub type Pair = (NodeId, NodeId);

/// How often one property fails, with the witness its lint reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violations<W> {
    /// Number of violations.
    pub count: usize,
    /// The reported violation (`None` iff `count == 0`).
    pub witness: Option<W>,
}

impl<W> Default for Violations<W> {
    fn default() -> Self {
        Violations {
            count: 0,
            witness: None,
        }
    }
}

impl<W> Violations<W> {
    /// Count one violation, keeping the first witness.
    fn first(&mut self, witness: W) {
        self.count += 1;
        self.witness.get_or_insert(witness);
    }
}

/// A path longer than its pair's hop distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detour {
    /// The routed pair.
    pub pair: Pair,
    /// Channels on its path.
    pub len: usize,
    /// Its hop distance in the node graph.
    pub distance: usize,
}

/// A Definition 7/8 violation: the path of `pair` passes the node at
/// walk position `pos`, and the registered path to (prefix) or from
/// (suffix) that node is missing or differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosureBreak {
    /// The routed pair whose path is checked.
    pub pair: Pair,
    /// Position of the intermediate node on the pair's node walk.
    pub pos: usize,
}

/// A path that visits some node twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Revisit {
    /// The routed pair.
    pub pair: Pair,
    /// The first node, in walk order, seen for the second time.
    pub node: NodeId,
}

/// Whether every routed path is a shortest path in the node graph
/// ("minimal routing", paper Section 1).
pub fn is_minimal(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).minimal
}

/// Definition 7: the algorithm is **prefix-closed** if whenever the
/// path from `s` to `d` passes through `v` (first occurrence), the
/// table's path from `s` to `v` is exactly that prefix.
///
/// Pairs that would be required but are unrouted count as violations
/// only if the prefix exists; a completely unrouted pair `(s, v)`
/// makes the algorithm non-prefix-closed because Definition 7 demands
/// the partial path be *specified* by the algorithm.
pub fn is_prefix_closed(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).prefix_closed
}

/// Definition 8: the algorithm is **suffix-closed** if whenever the
/// path from `s` to `d` passes through `v`, the table's path from `v`
/// to `d` is the corresponding suffix.
///
/// For paths that visit `v` more than once, every occurrence's suffix
/// is constrained; two distinct suffixes from the same `v` therefore
/// make the algorithm non-suffix-closed (it could not be realized by a
/// routing function of the form `R : N × N → C`, which the paper notes
/// is always suffix-closed).
pub fn is_suffix_closed(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).suffix_closed
}

/// Whether no routed path visits any node more than once.
pub fn never_revisits_nodes(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).node_simple
}

/// Whether the algorithm is realizable as a routing function of the
/// form `R : N × N → C` — the output channel depends only on the
/// *current node* and destination, not on the input channel.
///
/// This is the class of Corollary 1: such algorithms can have no
/// unreachable cyclic configurations, so for them a cyclic CDG always
/// means a reachable deadlock. Every node-function algorithm is
/// suffix-closed (when total); the converse need not hold.
pub fn is_node_function(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).node_function
}

/// Definition 9: **coherent** = prefix-closed ∧ suffix-closed ∧ never
/// routes a message through the same node twice.
pub fn is_coherent(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).coherent
}

/// Every property of a table, with violation counts and witnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PropertyReport {
    /// All pairs routed.
    pub total: bool,
    /// Every path shortest.
    pub minimal: bool,
    /// Definition 7.
    pub prefix_closed: bool,
    /// Definition 8.
    pub suffix_closed: bool,
    /// No node revisits on any path.
    pub node_simple: bool,
    /// Definition 9.
    pub coherent: bool,
    /// Realizable as `R : N × N → C` (Corollary 1's class).
    pub node_function: bool,
    /// Paths longer than their hop distance; the witness is the
    /// largest excess, first in table order on ties (`W101`).
    pub detours: Violations<Detour>,
    /// Definition 8 violations, first in table order (`W102`).
    pub suffix_breaks: Violations<ClosureBreak>,
    /// Definition 7 violations, first in table order (`W103`).
    pub prefix_breaks: Violations<ClosureBreak>,
    /// Paths revisiting a node, first in table order (`W104`).
    pub revisits: Violations<Revisit>,
}

/// Marks an unreached node in the BFS distance buffer and an unrouted
/// cell in the dense tables.
const NONE: u32 = u32::MAX;

/// `(node, node) → path` lookups: dense under [`DENSE_CELL_LIMIT`],
/// the table's own map beyond it.
struct PairIndex<'t> {
    n: usize,
    table: &'t TableRouting,
    /// Cell `s * n + d` holds the index of the pair's path in `paths`.
    dense: Option<(Vec<u32>, Vec<&'t Path>)>,
}

impl<'t> PairIndex<'t> {
    fn new(n: usize, table: &'t TableRouting, cell_limit: usize) -> Self {
        let dense = dense_cells(n, cell_limit).map(|cells| {
            let mut index = vec![NONE; cells];
            let mut paths = Vec::with_capacity(table.len());
            for (i, (&(s, d), path)) in table.iter().enumerate() {
                index[s.index() * n + d.index()] = i as u32;
                paths.push(path);
            }
            (index, paths)
        });
        PairIndex { n, table, dense }
    }

    fn channels(&self, s: NodeId, d: NodeId) -> Option<&'t [ChannelId]> {
        let path = match &self.dense {
            Some((index, paths)) => match index[s.index() * self.n + d.index()] {
                NONE => None,
                i => Some(paths[i as usize]),
            },
            None => self.table.path(s, d),
        };
        path.map(Path::channels)
    }
}

/// The `(current node, destination) → channel` choices seen so far,
/// for the node-function test.
enum Choices {
    Dense(usize, Vec<u32>),
    Sparse(BTreeMap<Pair, ChannelId>),
}

impl Choices {
    fn new(n: usize, cell_limit: usize) -> Self {
        match dense_cells(n, cell_limit) {
            Some(cells) => Choices::Dense(n, vec![NONE; cells]),
            None => Choices::Sparse(BTreeMap::new()),
        }
    }

    /// Record `at → c` toward `dst`; `false` on a conflicting choice.
    fn agree(&mut self, at: NodeId, dst: NodeId, c: ChannelId) -> bool {
        match self {
            Choices::Dense(n, cells) => {
                let slot = &mut cells[at.index() * *n + dst.index()];
                if *slot == NONE {
                    *slot = c.index() as u32;
                }
                *slot == c.index() as u32
            }
            Choices::Sparse(map) => *map.entry((at, dst)).or_insert(c) == c,
        }
    }
}

fn dense_cells(n: usize, cell_limit: usize) -> Option<usize> {
    n.checked_mul(n).filter(|&c| c <= cell_limit)
}

/// Hop distances from `src` into `dist` (`NONE` = unreachable),
/// reusing `queue`.
fn bfs(net: &Network, src: NodeId, dist: &mut [u32], queue: &mut Vec<NodeId>) {
    dist.fill(NONE);
    queue.clear();
    dist[src.index()] = 0;
    queue.push(src);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let next = dist[v.index()] + 1;
        for &c in net.out_channels(v) {
            let w = net.channel(c).dst();
            if dist[w.index()] == NONE {
                dist[w.index()] = next;
                queue.push(w);
            }
        }
    }
}

/// Evaluate every property in one walk over the table.
pub fn analyze(net: &Network, table: &TableRouting) -> PropertyReport {
    walk(net, table, DENSE_CELL_LIMIT)
}

/// [`analyze`] with dense per-pair tables up to `cell_limit` cells.
fn walk(net: &Network, table: &TableRouting, cell_limit: usize) -> PropertyReport {
    let n = net.node_count();
    let index = PairIndex::new(n, table, cell_limit);
    let mut choices = Choices::new(n, cell_limit);
    let mut minimal = true;
    let mut node_function = true;
    let mut detours = Violations::<Detour>::default();
    let mut suffix_breaks = Violations::default();
    let mut prefix_breaks = Violations::default();
    let mut revisits = Violations::default();

    let mut dist = vec![NONE; n];
    let mut queue = Vec::with_capacity(n);
    let mut bfs_src = None;
    let mut nodes: Vec<NodeId> = Vec::new();
    // `seen[v] == stamp` iff the current path has already visited v.
    let mut seen = vec![0usize; n];

    for (i, (&pair, path)) in table.iter().enumerate() {
        let (src, dst) = pair;
        let stamp = i + 1;
        let chans = path.channels();
        nodes.clear();
        nodes.push(net.channel(chans[0]).src());
        nodes.extend(chans.iter().map(|&c| net.channel(c).dst()));

        if bfs_src != Some(src) {
            bfs(net, src, &mut dist, &mut queue);
            bfs_src = Some(src);
        }
        match dist[dst.index()] {
            NONE => minimal = false,
            d => {
                let distance = d as usize;
                minimal &= chans.len() == distance;
                if chans.len() > distance {
                    detours.count += 1;
                    let excess = |w: &Detour| w.len - w.distance;
                    let here = Detour {
                        pair,
                        len: chans.len(),
                        distance,
                    };
                    if detours.witness.is_none_or(|w| excess(&here) > excess(&w)) {
                        detours.witness = Some(here);
                    }
                }
            }
        }

        let last = nodes.len() - 1;
        let mut revisited = None;
        for (pos, &v) in nodes.iter().enumerate() {
            let first = seen[v.index()] != stamp;
            seen[v.index()] = stamp;
            if !first && revisited.is_none() {
                revisited = Some(v);
            }
            if pos == 0 || pos == last {
                continue;
            }
            // Definition 7 constrains first occurrences only (a return
            // to the source is never one: its prefix is empty).
            if first && index.channels(src, v) != Some(&chans[..pos]) {
                prefix_breaks.first(ClosureBreak { pair, pos });
            }
            // Definition 8 constrains every occurrence; the suffix from
            // the destination itself is empty.
            if v != dst && index.channels(v, dst) != Some(&chans[pos..]) {
                suffix_breaks.first(ClosureBreak { pair, pos });
            }
        }
        if let Some(node) = revisited {
            revisits.first(Revisit { pair, node });
        }

        if node_function {
            node_function = chans
                .iter()
                .zip(&nodes)
                .all(|(&c, &at)| choices.agree(at, dst, c));
        }
    }

    let prefix_closed = prefix_breaks.count == 0;
    let suffix_closed = suffix_breaks.count == 0;
    let node_simple = revisits.count == 0;
    PropertyReport {
        total: table.is_total(net),
        minimal,
        prefix_closed,
        suffix_closed,
        node_simple,
        coherent: prefix_closed && suffix_closed && node_simple,
        node_function,
        detours,
        suffix_breaks,
        prefix_breaks,
        revisits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use wormnet::topology::{line, ring_unidirectional};
    use wormnet::NodeId;

    /// Clockwise routing on a unidirectional ring: the canonical
    /// coherent (but deadlock-prone) oblivious algorithm.
    fn clockwise4() -> (Network, Vec<NodeId>, TableRouting) {
        let (net, nodes) = ring_unidirectional(4);
        let table = TableRouting::from_node_paths(&net, |s, d| {
            let mut walk = vec![s];
            let mut i = s.index();
            while nodes[i] != d {
                i = (i + 1) % 4;
                walk.push(nodes[i]);
            }
            Some(walk)
        })
        .unwrap();
        (net, nodes, table)
    }

    #[test]
    fn clockwise_ring_is_coherent_but_not_minimal() {
        let (net, _, table) = clockwise4();
        let report = analyze(&net, &table);
        assert!(report.total);
        assert!(report.prefix_closed);
        assert!(report.suffix_closed);
        assert!(report.node_simple);
        assert!(report.coherent);
        // Unidirectional ring: the clockwise path IS the only path, so
        // it is minimal here.
        assert!(report.minimal);
    }

    #[test]
    fn line_shortest_paths_are_coherent_and_minimal() {
        let (net, nodes) = line(5);
        let table = TableRouting::from_node_paths(&net, |s, d| {
            let (si, di) = (s.index(), d.index());
            let walk: Vec<NodeId> = if si < di {
                (si..=di).map(|i| nodes[i]).collect()
            } else {
                (di..=si).rev().map(|i| nodes[i]).collect()
            };
            Some(walk)
        })
        .unwrap();
        let report = analyze(&net, &table);
        assert!(report.minimal && report.coherent && report.total);
    }

    #[test]
    fn nonminimal_detected() {
        let (net, nodes) = line(4);
        let mut table = TableRouting::new();
        // 0 -> 1 -> 2 -> 1 ... cannot reuse channels; instead make a
        // detour 0 -> 1 -> 2 -> 3 for dst 3 (minimal) and 0 -> 1 -> 2
        // for dst 2 (minimal), then an actual detour for (1, 0):
        // 1 -> 2 -> 1 reuses nothing? it reuses node 1 and channel
        // 1->2 only once, 2->1 once: legal path, nonminimal.
        table
            .insert(
                &net,
                nodes[1],
                nodes[0],
                Path::from_nodes(&net, &[nodes[1], nodes[2], nodes[1], nodes[0]]).unwrap(),
            )
            .unwrap();
        assert!(!is_minimal(&net, &table));
        assert!(!never_revisits_nodes(&net, &table));
        assert!(!is_coherent(&net, &table));
    }

    #[test]
    fn prefix_violation_detected() {
        let (net, nodes) = line(4);
        let mut table = TableRouting::new();
        // (0,3) goes 0-1-2-3 but (0,2) goes 0-1-2? give (0,2) nothing:
        // missing partial path => not prefix-closed.
        table
            .insert(
                &net,
                nodes[0],
                nodes[3],
                Path::from_nodes(&net, &[nodes[0], nodes[1], nodes[2], nodes[3]]).unwrap(),
            )
            .unwrap();
        assert!(!is_prefix_closed(&net, &table));
        // Register the consistent prefix and it passes.
        table
            .insert(
                &net,
                nodes[0],
                nodes[1],
                Path::from_nodes(&net, &[nodes[0], nodes[1]]).unwrap(),
            )
            .unwrap();
        table
            .insert(
                &net,
                nodes[0],
                nodes[2],
                Path::from_nodes(&net, &[nodes[0], nodes[1], nodes[2]]).unwrap(),
            )
            .unwrap();
        assert!(is_prefix_closed(&net, &table));
    }

    #[test]
    fn suffix_violation_detected() {
        let (net, nodes) = line(4);
        let mut table = TableRouting::new();
        table
            .insert(
                &net,
                nodes[0],
                nodes[3],
                Path::from_nodes(&net, &[nodes[0], nodes[1], nodes[2], nodes[3]]).unwrap(),
            )
            .unwrap();
        // Missing (1,3) and (2,3) partial paths.
        assert!(!is_suffix_closed(&net, &table));
        table
            .insert(
                &net,
                nodes[1],
                nodes[3],
                Path::from_nodes(&net, &[nodes[1], nodes[2], nodes[3]]).unwrap(),
            )
            .unwrap();
        table
            .insert(
                &net,
                nodes[2],
                nodes[3],
                Path::from_nodes(&net, &[nodes[2], nodes[3]]).unwrap(),
            )
            .unwrap();
        assert!(is_suffix_closed(&net, &table));
    }

    #[test]
    fn suffix_mismatch_detected() {
        // Square with both directions available; (0,2) routed the long
        // way 0-1-2 but (1,2) routed 1-0-3-2: suffix mismatch.
        let (net, nodes) = ring_unidirectional(4);
        // add reverse channels to allow alternate suffix
        let mut net = net;
        for i in 0..4 {
            net.add_channel(nodes[(i + 1) % 4], nodes[i]);
        }
        let mut table = TableRouting::new();
        table
            .insert(
                &net,
                nodes[0],
                nodes[2],
                Path::from_nodes(&net, &[nodes[0], nodes[1], nodes[2]]).unwrap(),
            )
            .unwrap();
        table
            .insert(
                &net,
                nodes[1],
                nodes[2],
                Path::from_nodes(&net, &[nodes[1], nodes[0], nodes[3], nodes[2]]).unwrap(),
            )
            .unwrap();
        assert!(!is_suffix_closed(&net, &table));
    }

    #[test]
    fn node_function_classes() {
        // Clockwise ring: next hop depends only on the current node —
        // a genuine N x N -> C algorithm.
        let (net, _, table) = clockwise4();
        assert!(is_node_function(&net, &table));

        // Dateline ring: the lane depends on the input channel, so it
        // is NOT a node function.
        use crate::algorithms::dateline_ring;
        use wormnet::topology::ring_with_vcs;
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        assert!(!is_node_function(&net, &table));
        assert!(!analyze(&net, &table).node_function);
    }

    #[test]
    fn node_function_implies_suffix_closed_on_totals() {
        // For total tables: a node-function algorithm's suffixes are
        // forced, hence registered paths agree with them.
        use crate::algorithms::dimension_order;
        use wormnet::topology::Mesh;
        let mesh = Mesh::new(&[3, 2]);
        let table = dimension_order(&mesh).unwrap();
        assert!(is_node_function(mesh.network(), &table));
        assert!(is_suffix_closed(mesh.network(), &table));
    }

    #[test]
    fn sparse_fallback_matches_dense_tables() {
        use crate::algorithms::{dateline_ring, random_table};
        use rand::SeedableRng;
        use wormnet::topology::{complete, ring_with_vcs};
        let (ring, nodes) = ring_with_vcs(5, 2);
        let mut cases = vec![(ring.clone(), dateline_ring(&ring, &nodes).unwrap())];
        for seed in 0..8 {
            let (net, _) = complete(5);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let table = random_table(&net, &mut rng, 1).unwrap();
            cases.push((net, table));
        }
        for (net, table) in &cases {
            assert_eq!(walk(net, table, 0), analyze(net, table));
        }
    }

    #[test]
    fn witnesses_name_the_first_violations() {
        let (net, nodes) = line(4);
        let mut table = TableRouting::new();
        let walk_of = |ix: &[usize]| {
            let ns: Vec<NodeId> = ix.iter().map(|&i| nodes[i]).collect();
            Path::from_nodes(&net, &ns).unwrap()
        };
        table
            .insert(&net, nodes[0], nodes[3], walk_of(&[0, 1, 2, 3]))
            .unwrap();
        table
            .insert(&net, nodes[1], nodes[0], walk_of(&[1, 2, 1, 0]))
            .unwrap();
        let r = analyze(&net, &table);
        // (0,3) misses (0,1), (0,2), (1,3) and (2,3). (1,0) misses
        // (1,2) as a prefix and (2,0) as a suffix; the return to n1 is
        // no prefix, but its suffix n1 -> n0 differs from the
        // registered (1,0) detour.
        assert_eq!(r.prefix_breaks.count, 3);
        assert_eq!(
            r.prefix_breaks.witness,
            Some(ClosureBreak {
                pair: (nodes[0], nodes[3]),
                pos: 1
            })
        );
        assert_eq!(r.suffix_breaks.count, 4);
        assert_eq!(
            r.suffix_breaks.witness,
            Some(ClosureBreak {
                pair: (nodes[0], nodes[3]),
                pos: 1
            })
        );
        assert_eq!(
            r.revisits.witness,
            Some(Revisit {
                pair: (nodes[1], nodes[0]),
                node: nodes[1]
            })
        );
        assert_eq!(
            r.detours.witness,
            Some(Detour {
                pair: (nodes[1], nodes[0]),
                len: 3,
                distance: 1
            })
        );
        assert!(!r.minimal && !r.coherent && !r.total);
    }

    #[test]
    fn empty_table_is_vacuously_closed() {
        let (net, _) = line(3);
        let table = TableRouting::new();
        assert!(is_prefix_closed(&net, &table));
        assert!(is_suffix_closed(&net, &table));
        assert!(is_minimal(&net, &table));
        assert!(!analyze(&net, &table).total);
    }
}
