//! The four seeded workloads and the hand-written verdict each job must
//! reach.
//!
//! Every workload is a fixed *ladder* of fabric sizes: the seed draws
//! everything that does not move a job's cost much (fault plans,
//! traffic seeds, hotspot nodes, single-lane choices and the surface
//! form of every submitted text), but not the sizes on the ladder.
//! Per-run medians and p90s are order statistics over the job set, so a
//! seed that could swap a 40 ms fabric for a 400 ms one would swamp any
//! change a later optimisation makes. README.md in this directory gives
//! the reasons for each family.

use worm_core::paper::{fig1, fig2, fig3, generalized};
use wormsim::MessageSpec;

use crate::json::quote;
use crate::text::{rewrite, Rng};

/// A workload name as given to `--workload`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The committed corpus plus search variants of the paper's figures.
    PaperCorpus,
    /// Production fabrics with acyclic channel dependency graphs.
    FabricScale,
    /// Fabrics with cyclic dependency graphs that must be refuted.
    CyclicRefute,
    /// DOR meshes under synthetic traffic, verified by simulation.
    SimTraffic,
}

impl Workload {
    /// Every workload, in ledger order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCorpus,
        Workload::FabricScale,
        Workload::CyclicRefute,
        Workload::SimTraffic,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCorpus => "paper-corpus",
            Workload::FabricScale => "fabric-scale",
            Workload::CyclicRefute => "cyclic-refute",
            Workload::SimTraffic => "sim-traffic",
        }
    }

    /// Look a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job set for `seed`, largest jobs first (so a worker pool
    /// drains it close to its best makespan on every seed).
    pub fn generate(self, seed: u64) -> Vec<Job> {
        let mut rng = Rng::new(seed, self as u64);
        let mut jobs = match self {
            Workload::PaperCorpus => paper_corpus(),
            Workload::FabricScale => fabric_scale(&mut rng),
            Workload::CyclicRefute => cyclic_refute(&mut rng),
            Workload::SimTraffic => sim_traffic(&mut rng),
        };
        // The submitted text of every job is itself a seeded surface
        // form, so the seed reaches every input.
        for job in &mut jobs {
            job.source = rewrite(&job.base, &mut rng).expect("generated specs are line-structured");
        }
        jobs
    }
}

/// Which verdict engines a job's `verify` section selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// No `verify` engine: lint, classifier, existence.
    Static,
    /// `verify { engine = search }`.
    Search,
    /// `verify { engine = sim }`.
    Sim,
}

/// The hand-written expectation for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Ground truth: the routing is deadlock-free (per the paper for
    /// its constructions, per Dally–Seitz or an explicit cycle
    /// otherwise).
    pub free: bool,
    /// The static classifier (no search fallback) may honestly answer
    /// `unknown`: the paper's Figure 1 and `G(k)` need the search.
    pub static_may_be_unknown: bool,
    /// The engines the spec selects.
    pub engine: Engine,
    /// The spec has a `faults` section.
    pub faulted: bool,
}

impl Expect {
    const FREE: Expect = Expect {
        free: true,
        static_may_be_unknown: false,
        engine: Engine::Static,
        faulted: false,
    };
    const DEADLOCKABLE: Expect = Expect {
        free: false,
        ..Expect::FREE
    };
}

/// One submission: a name for reports, the `.wspec` text, and what the
/// verdict must say.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Family and size, for failure messages.
    pub name: String,
    /// The spec one item per line: what surface rewrites start from.
    pub base: String,
    /// The submitted text: a seeded rewrite of `base`.
    pub source: String,
    /// The oracle's expectation.
    pub expect: Expect,
}

fn job(name: String, base: String, expect: Expect) -> Job {
    Job {
        name,
        source: base.clone(),
        base,
        expect,
    }
}

/// A named-topology spec, one item per line.
fn named(topology: &[String], engine: &str, tail: &str) -> String {
    let mut s = String::from("wormspec/1\ntopology {\n");
    for item in topology {
        s.push_str(&format!("  {item}\n"));
    }
    s.push_str(&format!("}}\nrouting {{\n  engine = {engine}\n}}\n{tail}"));
    s
}

// ---------------------------------------------------------------- paper

macro_rules! corpus {
    ($($name:literal => $expect:expr),* $(,)?) => {
        [$(($name, include_str!(concat!("../../corpus/", $name, ".wspec")), $expect)),*]
    };
}

/// The paper's constructions are free where the paper says the cycle
/// is a false resource cycle; Figure 1 and `G(k)` are free but need
/// the search to show it.
const PAPER_FREE_UNDECIDED: Expect = Expect {
    static_may_be_unknown: true,
    ..Expect::FREE
};

/// The 20 committed corpus specs with their expected static verdicts.
fn corpus() -> [(&'static str, &'static str, Expect); 20] {
    corpus![
        "dragonfly_minimal" => Expect::FREE,
        "dragonfly_novc" => Expect::DEADLOCKABLE,
        "fattree_updown" => Expect::FREE,
        "fig1" => PAPER_FREE_UNDECIDED,
        "fig2" => Expect::DEADLOCKABLE,
        "fig3_a" => Expect::FREE,
        "fig3_b" => Expect::FREE,
        "fig3_c" => Expect::DEADLOCKABLE,
        "fig3_d" => Expect::DEADLOCKABLE,
        "fig3_e" => Expect::DEADLOCKABLE,
        "fig3_f" => Expect::DEADLOCKABLE,
        "fullmesh_vcfree" => Expect::FREE,
        "g1" => PAPER_FREE_UNDECIDED,
        "g2" => PAPER_FREE_UNDECIDED,
        "g3" => PAPER_FREE_UNDECIDED,
        "g4" => PAPER_FREE_UNDECIDED,
        "g5" => PAPER_FREE_UNDECIDED,
        "mesh_3x3_dor" => Expect::FREE,
        "ring4_clockwise" => Expect::DEADLOCKABLE,
        "ring8_dateline" => Expect::FREE,
    ]
}

/// A `traffic` section declaring the construction's messages, in node
/// names.
fn traffic_section(net: &wormnet::Network, messages: Vec<MessageSpec>) -> String {
    let mut out = String::from("traffic {\n  pattern = explicit\n");
    for m in messages {
        out.push_str(&format!(
            "  message {} -> {} length {} flits\n",
            quote(net.node_name(m.src)),
            quote(net.node_name(m.dst)),
            m.length
        ));
    }
    out.push_str("}\n");
    out
}

/// Each paper construction with the message set it is searched with
/// (the sets the repository's search experiments use), keyed by corpus
/// name, and whether the paper says it is free.
fn searched_constructions() -> Vec<(String, String, bool)> {
    let mut out = Vec::new();
    let c = fig1::cyclic_dependency();
    out.push((
        "fig1".into(),
        traffic_section(&c.net, c.message_specs()),
        true,
    ));
    let c = fig2::two_message_deadlock();
    out.push((
        "fig2".into(),
        traffic_section(&c.net, c.message_specs()),
        false,
    ));
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let traffic = traffic_section(&c.net, s.message_specs(&c));
        out.push((format!("fig3_{}", s.name), traffic, s.paper_unreachable));
    }
    for k in 1..=5 {
        let c = generalized::generalized(k);
        let traffic = traffic_section(&c.net, generalized::minimum_length_specs(&c));
        out.push((format!("g{k}"), traffic, true));
    }
    out
}

fn paper_corpus() -> Vec<Job> {
    let corpus = corpus();
    let mut jobs = Vec::new();
    // Search variants first: they are the expensive jobs.
    for (name, traffic, free) in searched_constructions() {
        let (_, text, _) = corpus
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("every searched construction is in the corpus");
        jobs.push(job(
            format!("{name}+search"),
            format!("{text}{traffic}verify {{\n  engine = search\n}}\n"),
            Expect {
                free,
                static_may_be_unknown: false,
                engine: Engine::Search,
                faulted: false,
            },
        ));
    }
    for (name, text, expect) in corpus {
        jobs.push(job(name.to_string(), text.to_string(), expect));
    }
    jobs
}

// --------------------------------------------------------- fabric-scale

/// One rung of a fabric ladder: its topology items and whether it
/// carries a seeded fault plan.
type Rung = (Vec<String>, bool);

fn fabric_scale(rng: &mut Rng) -> Vec<Job> {
    // (family, rungs small to large, routing engine). Six of the 25
    // jobs carry a fault plan: the second rung of every family, and
    // dragonfly 17x16.
    let dragonfly = [(9, 8), (11, 10), (13, 12), (15, 14), (17, 16), (25, 24)]
        .iter()
        .map(|(g, r)| {
            let items = vec![
                "kind = dragonfly".into(),
                format!("groups = {g}"),
                format!("routers = {r}"),
            ];
            (items, *g == 11 || *g == 17)
        })
        .collect();
    let fattree = [8, 10, 12, 16, 26]
        .iter()
        .map(|k| (vec!["kind = fattree".into(), format!("k = {k}")], *k == 10))
        .collect();
    let fullmesh = [65, 97, 129, 193, 257]
        .iter()
        .map(|n| {
            (
                vec!["kind = complete".into(), format!("nodes = {n}")],
                *n == 97,
            )
        })
        .collect();
    let mesh = [8, 10, 11, 12, 14, 16]
        .iter()
        .map(|d| {
            let items = vec!["kind = mesh".into(), format!("dims = [{d}, {d}]")];
            (items, *d == 10)
        })
        .collect();
    let hypercube = [6, 7, 8]
        .iter()
        .map(|d| {
            (
                vec!["kind = hypercube".into(), format!("dim = {d}")],
                *d == 7,
            )
        })
        .collect();
    let ladders: [(&str, Vec<Rung>, &str); 5] = [
        ("dragonfly", dragonfly, "dragonfly_minimal"),
        ("fattree", fattree, "fattree_updown"),
        ("fullmesh", fullmesh, "fullmesh_vcfree"),
        ("mesh", mesh, "dimension_order"),
        ("hypercube", hypercube, "ecube"),
    ];
    let mut jobs = Vec::new();
    for (family, ladder, engine) in ladders {
        let rungs = ladder.len();
        for (rung, (topology, faulted)) in ladder.into_iter().enumerate() {
            let tail = if faulted {
                format!(
                    "faults {{\n  random(seed = {}, outages = {}, stalls = {}, horizon = {} cycles)\n}}\n",
                    rng.below(1 << 32),
                    rng.range(1, 4),
                    rng.range(0, 2),
                    rng.range(500, 5000)
                )
            } else {
                String::new()
            };
            let size = topology[1..].join(" ");
            jobs.push((
                rungs - rung,
                job(
                    format!("{family} {size}{}", if faulted { " +faults" } else { "" }),
                    named(&topology, engine, &tail),
                    Expect {
                        faulted,
                        ..Expect::FREE
                    },
                ),
            ));
        }
    }
    // Top rungs of every family first.
    jobs.sort_by_key(|(from_top, _)| *from_top);
    jobs.into_iter().map(|(_, job)| job).collect()
}

// -------------------------------------------------------- cyclic-refute

fn cyclic_refute(rng: &mut Rng) -> Vec<Job> {
    let mut jobs = Vec::new();
    // Dragonfly Valiant on the default (minimal) lane set lacks the
    // [0,2,4]/[1,3] lanes Valiant needs, so its CDG closes cycles.
    jobs.push(job(
        "dragonfly-valiant 9x8 minimal-lanes".into(),
        named(
            &[
                "kind = dragonfly".into(),
                "groups = 9".into(),
                "routers = 8".into(),
            ],
            "dragonfly_valiant",
            "",
        ),
        Expect::DEADLOCKABLE,
    ));
    for n in [32, 28, 24, 20, 16, 12, 8] {
        jobs.push(job(
            format!("ring-clockwise {n}"),
            named(
                &["kind = ring".into(), format!("nodes = {n}")],
                "clockwise_ring",
                "",
            ),
            Expect::DEADLOCKABLE,
        ));
    }
    // Single-lane ("no-VC") dragonflies: one shared lane for local and
    // global hops, on distinct seeded lanes. Eight 4x2 jobs put the
    // median on a cluster of equal-cost jobs. 4x3 and larger are left
    // out (see README.md: memory cliff).
    let first_lane = rng.range(0, 4);
    let sizes = [((4, 2), 8), ((3, 2), 4)];
    for ((g, r), k) in sizes
        .into_iter()
        .flat_map(|(size, count)| (0..count).map(move |k| (size, k)))
    {
        let lane = first_lane + k;
        jobs.push(job(
            format!("dragonfly-novc {g}x{r} lane {lane}"),
            named(
                &[
                    "kind = dragonfly".into(),
                    format!("groups = {g}"),
                    format!("routers = {r}"),
                    format!("local_lanes = [{lane}]"),
                    format!("global_lanes = [{lane}]"),
                ],
                "dragonfly_minimal",
                "",
            ),
            Expect::DEADLOCKABLE,
        ));
    }
    // The full-mesh ring-detour negative control: every detour runs one
    // way round a ring, closing a cycle.
    for n in (5..=9).rev() {
        jobs.push(job(
            format!("fullmesh-ring-detour {n}"),
            named(
                &["kind = complete".into(), format!("nodes = {n}")],
                "fullmesh_ring_detour",
                "",
            ),
            Expect::DEADLOCKABLE,
        ));
    }
    jobs
}

// ---------------------------------------------------------- sim-traffic

fn sim_traffic(rng: &mut Rng) -> Vec<Job> {
    let mut jobs = Vec::new();
    let expect = Expect {
        engine: Engine::Sim,
        ..Expect::FREE
    };
    for d in [8u64, 7, 6, 5, 4] {
        let topology = ["kind = mesh".to_string(), format!("dims = [{d}, {d}]")];
        let verify = "verify {\n  engine = sim\n}\n";
        for rate in ["0.04", "0.03", "0.02"] {
            let traffic = format!(
                "traffic {{\n  pattern = uniform\n  rate = {rate}\n  horizon = 500 cycles\n  seed = {}\n  length = 4 flits\n}}\n{verify}",
                rng.below(1 << 32)
            );
            jobs.push(job(
                format!("mesh {d}x{d} uniform {rate}"),
                named(&topology, "dimension_order", &traffic),
                expect,
            ));
        }
        let traffic =
            format!("traffic {{\n  pattern = transpose\n  length = 8 flits\n}}\n{verify}");
        jobs.push(job(
            format!("mesh {d}x{d} transpose"),
            named(&topology, "dimension_order", &traffic),
            expect,
        ));
        let (x, y) = (rng.below(d), rng.below(d));
        let traffic = format!(
            "traffic {{\n  pattern = hotspot\n  hotspot = \"m({x},{y})\"\n  length = 8 flits\n}}\n{verify}"
        );
        jobs.push(job(
            format!("mesh {d}x{d} hotspot m({x},{y})"),
            named(&topology, "dimension_order", &traffic),
            expect,
        ));
    }
    jobs
}
