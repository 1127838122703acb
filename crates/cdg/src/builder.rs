//! Incremental CDG construction with online acyclicity tracking.
//!
//! [`Cdg::build`] collects every dependency and only then asks whether
//! the graph is acyclic. At cluster scale that wastes the dominant
//! fact: most fabrics are *certified free*, and the certificate can be
//! maintained while the routing table streams past. [`CdgBuilder`]
//! feeds each new distinct dependency edge into an online SCC tracker
//! ([`wormnet::graph::SccEngine`]: HKMST balanced two-way search by
//! default, Pearce–Kelly selectable as the oracle engine via
//! [`CdgBuilder::with_engine`]), so after every `add_path` call the
//! builder knows whether the dependencies so far are acyclic — and a
//! deliberately deadlock-prone engine is caught on the exact path that
//! closes the first cycle, without finishing the table, let alone
//! enumerating cycles.

use std::collections::BTreeMap;

use wormnet::graph::{SccEngine, SccEngineKind};
use wormnet::{ChannelId, Network};
use wormroute::{Path, TableRouting};

use crate::graph::{Cdg, MsgPair};

/// Streaming CDG builder over a fixed network.
///
/// Feed routed paths one at a time; query acyclicity at any point;
/// [`CdgBuilder::finish`] yields the same [`Cdg`] that
/// [`Cdg::build`] produces from the full table.
#[derive(Clone, Debug)]
pub struct CdgBuilder {
    channel_count: usize,
    edges: BTreeMap<(ChannelId, ChannelId), Vec<MsgPair>>,
    scc: SccEngine,
}

impl CdgBuilder {
    /// A builder for the channels of `net`, with no dependencies yet,
    /// on the default SCC engine (HKMST).
    pub fn new(net: &Network) -> Self {
        Self::with_engine(net, SccEngineKind::default())
    }

    /// A builder running the given incremental-SCC engine. Both
    /// engines produce identical verdicts (differentially tested);
    /// they differ in worst-case cost on dense cyclic CDGs.
    pub fn with_engine(net: &Network, engine: SccEngineKind) -> Self {
        CdgBuilder {
            channel_count: net.channel_count(),
            edges: BTreeMap::new(),
            scc: SccEngine::new(engine, net.channel_count()),
        }
    }

    /// Which incremental-SCC engine this builder runs.
    pub fn engine(&self) -> SccEngineKind {
        self.scc.kind()
    }

    /// Record the dependencies induced by one routed path, attributing
    /// them to the message `pair`. Returns `true` when a *new*
    /// dependency edge closed or extended a cycle — i.e. the first
    /// `true` pinpoints the path that makes the algorithm lose its
    /// Dally–Seitz certificate.
    pub fn add_path(&mut self, pair: MsgPair, path: &Path) -> bool {
        let mut closed_cycle = false;
        for w in path.channels().windows(2) {
            let wit = self.edges.entry((w[0], w[1])).or_default();
            if wit.is_empty() {
                closed_cycle |= self.scc.add_edge(w[0].index(), w[1].index());
            }
            wit.push(pair);
        }
        closed_cycle
    }

    /// Build the CDG of a whole table through the selected engine,
    /// returning it with the engine's online acyclicity verdict (one
    /// `cdg.build`, like [`Cdg::build`]).
    pub fn build_table(net: &Network, table: &TableRouting, engine: SccEngineKind) -> (Cdg, bool) {
        let _span = wormtrace::span("cdg.build");
        wormtrace::counter("cdg.builds", 1);
        let mut builder = CdgBuilder::with_engine(net, engine);
        builder.add_table(table);
        let acyclic = builder.is_acyclic();
        (builder.finish(), acyclic)
    }

    /// Stream every path of a table through [`CdgBuilder::add_path`].
    /// Returns `true` when any dependency closed a cycle.
    pub fn add_table(&mut self, table: &TableRouting) -> bool {
        let mut closed = false;
        for (&pair, path) in table.iter() {
            closed |= self.add_path(pair, path);
        }
        closed
    }

    /// Number of distinct dependency edges recorded so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the dependencies recorded so far form an acyclic graph
    /// (answered in O(1) from the online SCC state).
    pub fn is_acyclic(&self) -> bool {
        self.scc.is_acyclic()
    }

    /// Number of strongly connected components among the channels
    /// (isolated channels count as singleton components).
    pub fn component_count(&self) -> usize {
        self.scc.component_count()
    }

    /// Whether two channels currently sit on a common dependency cycle
    /// (same non-trivial SCC).
    pub fn same_cycle(&self, c1: ChannelId, c2: ChannelId) -> bool {
        c1 != c2 && self.scc.same_component(c1.index(), c2.index())
    }

    /// Finalize into a [`Cdg`], identical to what [`Cdg::build`] would
    /// produce from the same paths.
    pub fn finish(self) -> Cdg {
        Cdg::from_edges(self.channel_count, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::{complete, ring_unidirectional, Dragonfly, FatTree, Mesh};
    use wormroute::algorithms::{
        clockwise_ring, dragonfly_minimal, fattree_updown, fullmesh_ring_detour, fullmesh_vcfree,
        xy_mesh,
    };

    /// The builder must agree with the batch path on edges, witnesses
    /// and acyclicity — under both SCC engines.
    fn assert_matches_batch(net: &Network, table: &TableRouting) {
        let batch = Cdg::build(net, table);
        for kind in wormnet::graph::SccEngineKind::ALL {
            let mut builder = CdgBuilder::with_engine(net, kind);
            assert_eq!(builder.engine(), kind);
            let closed = builder.add_table(table);
            assert_eq!(builder.is_acyclic(), batch.is_acyclic(), "{}", kind.name());
            assert_eq!(closed, !batch.is_acyclic(), "{}", kind.name());
            assert_eq!(builder.edge_count(), batch.edge_count());
            let finished = builder.finish();
            assert_eq!(finished.edge_count(), batch.edge_count());
            for (key, wit) in batch.edges() {
                assert_eq!(finished.witnesses(key.0, key.1), wit.as_slice());
            }
            assert_eq!(finished.is_acyclic(), batch.is_acyclic());
        }
    }

    #[test]
    fn matches_batch_on_free_and_deadlockable_algorithms() {
        let mesh = Mesh::new(&[3, 3]);
        assert_matches_batch(mesh.network(), &xy_mesh(&mesh).unwrap());

        let (net, nodes) = ring_unidirectional(5);
        assert_matches_batch(&net, &clockwise_ring(&net, &nodes).unwrap());

        let df = Dragonfly::new(4, 3);
        assert_matches_batch(df.network(), &dragonfly_minimal(&df).unwrap());

        let ft = FatTree::new(4);
        assert_matches_batch(ft.network(), &fattree_updown(&ft).unwrap());

        let (net, nodes) = complete(9);
        assert_matches_batch(&net, &fullmesh_vcfree(&net, &nodes).unwrap());
        assert_matches_batch(&net, &fullmesh_ring_detour(&net, &nodes).unwrap());
    }

    #[test]
    fn reports_the_cycle_as_it_closes() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let mut builder = CdgBuilder::new(&net);
        let mut first_closing = None;
        for (&pair, path) in table.iter() {
            if builder.add_path(pair, path) && first_closing.is_none() {
                first_closing = Some(pair);
            }
        }
        assert!(first_closing.is_some(), "the ring cycle must be noticed");
        assert!(!builder.is_acyclic());
        // All four ring channels sit on one dependency cycle.
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let c23 = net.find_channel(nodes[2], nodes[3]).unwrap();
        assert!(builder.same_cycle(c01, c23));
    }

    #[test]
    fn acyclic_tables_never_report_a_cycle() {
        let df = Dragonfly::new(5, 4);
        let table = dragonfly_minimal(&df).unwrap();
        let mut builder = CdgBuilder::new(df.network());
        for (&pair, path) in table.iter() {
            assert!(!builder.add_path(pair, path), "no path may close a cycle");
        }
        assert!(builder.is_acyclic());
        assert_eq!(builder.component_count(), df.network().channel_count());
    }

    #[test]
    fn repeated_edges_only_hit_the_scc_once() {
        let (net, nodes) = ring_unidirectional(3);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let mut builder = CdgBuilder::new(&net);
        builder.add_table(&table);
        let edges = builder.edge_count();
        // Re-adding the same paths under fresh message identities adds
        // witnesses but no distinct edges and no SCC churn.
        for (&(s, d), path) in table.iter() {
            assert!(!builder.add_path((d, s), path));
        }
        assert_eq!(builder.edge_count(), edges);
        assert!(!builder.is_acyclic());
    }
}
