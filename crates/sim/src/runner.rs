//! Policy-driven simulation runner.
//!
//! [`Runner`] drives the engine with concrete arbitration policies and
//! an optional stall plan, collecting [`crate::stats::Stats`]. The
//! adversarial policy implements the paper's Section 3 assumption:
//! "when multiple messages arrive simultaneously and request the same
//! output channel, and one of these messages can lead to a deadlock,
//! that message is assumed to acquire the channel."

use std::collections::BTreeMap;

use wormnet::ChannelId;

use crate::engine::{Decisions, Sim};
use crate::event::EventCore;
use crate::hooks::DecisionHook;
use crate::message::MessageId;
use crate::skew::SkewModel;
use crate::state::SimState;
use crate::stats::Stats;

/// Execution engine backing a [`Runner`].
///
/// Both engines produce bit-identical outcomes, final states,
/// statistics, and `sim.*` trace counters (`tests/diff_sim.rs` holds
/// the contract); they differ only in how much work each cycle costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The cycle-synchronous oracle: rescans every message and channel
    /// each cycle. Simple, obviously correct, and the reference the
    /// event engine is differential-tested against.
    #[default]
    Stepping,
    /// The event-driven core (`wormsim::event`): timer-wheel releases,
    /// cached worm spans, parked-worm wakes, and incremental deadlock
    /// detection. Work scales with what moves, not with topology size.
    Event,
}

/// Arbitration policies for contended channels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArbitrationPolicy {
    /// Lowest message id wins — deterministic fixed priority.
    LowestId,
    /// Rotate priority per channel so no requester starves
    /// (assumption 5 of the paper).
    RoundRobin,
    /// The message that has been waiting for this channel the longest
    /// wins (FIFO-like; ties to lowest id).
    OldestFirst,
    /// The paper's adversarial policy: the message most likely to
    /// complete a deadlock wins. Heuristic: most remaining hops; an
    /// explicit priority list (e.g. the messages of a deadlock
    /// candidate) takes precedence when supplied.
    Adversarial {
        /// Messages to favour unconditionally, in priority order.
        favored: Vec<MessageId>,
    },
}

/// Terminal result of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every message was delivered.
    Delivered {
        /// Cycle count at completion.
        cycles: u64,
    },
    /// A wait-for cycle formed: permanent deadlock.
    Deadlock {
        /// The messages in the wait-for cycle.
        members: Vec<MessageId>,
        /// Cycle at which the deadlock was detected.
        at_cycle: u64,
    },
    /// The cycle budget ran out first.
    Timeout {
        /// The budget that was exhausted.
        cycles: u64,
    },
}

impl Outcome {
    /// Whether the run ended in deadlock.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Outcome::Deadlock { .. })
    }
}

/// A plan of adversarial stalls: message → cycles at which it is
/// frozen.
pub type StallPlan = BTreeMap<MessageId, Vec<u64>>;

/// Drives a [`Sim`] with a policy, stall plan, and statistics.
pub struct Runner<'a> {
    sim: &'a Sim,
    state: SimState,
    time: u64,
    policy: ArbitrationPolicy,
    stall_plan: StallPlan,
    skew: Option<SkewModel>,
    stats: Stats,
    /// First cycle each message requested its current target
    /// (for OldestFirst).
    waiting_since: Vec<Option<(ChannelId, u64)>>,
    /// Per-channel last winner (for RoundRobin).
    last_winner: BTreeMap<ChannelId, MessageId>,
    /// Selected engine; `event` is `Some` iff it is [`EngineKind::Event`]
    /// (the event core keeps its own arbitration state).
    engine: EngineKind,
    event: Option<Box<EventCore>>,
}

impl<'a> Runner<'a> {
    /// New runner with the given policy.
    pub fn new(sim: &'a Sim, policy: ArbitrationPolicy) -> Self {
        Runner {
            state: sim.initial_state(),
            time: 0,
            policy,
            stall_plan: StallPlan::new(),
            skew: None,
            stats: Stats::new(sim.message_count(), sim.channel_count()),
            waiting_since: vec![None; sim.message_count()],
            last_winner: BTreeMap::new(),
            engine: EngineKind::Stepping,
            event: None,
            sim,
        }
    }

    /// Select the execution engine (default: [`EngineKind::Stepping`]).
    ///
    /// # Panics
    /// Panics if called after the runner has stepped: the event core
    /// builds its caches from the fresh initial state.
    pub fn with_engine(mut self, kind: EngineKind) -> Self {
        assert_eq!(self.time, 0, "select the engine before stepping");
        self.engine = kind;
        self.event = match kind {
            EngineKind::Stepping => None,
            EngineKind::Event => Some(Box::new(EventCore::new(self.sim))),
        };
        self
    }

    /// The engine backing this runner.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Attach a stall plan.
    pub fn with_stalls(mut self, plan: StallPlan) -> Self {
        self.stall_plan = plan;
        self
    }

    /// Attach a clock-skew model: each cycle, queues hosted by paused
    /// routers neither transmit nor accept flits. A model in which no
    /// router ever pauses freezes nothing and is dropped, so the event
    /// engine may still fast-forward over idle cycles.
    pub fn with_skew(mut self, skew: SkewModel) -> Self {
        self.skew = (!skew.never_pauses()).then_some(skew);
        self
    }

    /// Current cycle.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Current state (for inspection).
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Collected statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Run until delivery, deadlock, or `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Outcome {
        self.run_inner(max_cycles, None)
    }

    /// [`Runner::run`] with a [`DecisionHook`] adjusting every cycle's
    /// decisions (see [`crate::hooks`]). A no-op hook reproduces
    /// [`Runner::run`] bit for bit.
    pub fn run_hooked(&mut self, max_cycles: u64, hook: &mut dyn DecisionHook) -> Outcome {
        self.run_inner(max_cycles, Some(hook))
    }

    fn run_inner(&mut self, max_cycles: u64, hook: Option<&mut dyn DecisionHook>) -> Outcome {
        let outcome = self.run_loop(max_cycles, hook);
        if let Some(ev) = self.event.as_mut() {
            ev.settle_busy(&mut self.stats);
        }
        outcome
    }

    fn run_loop(&mut self, max_cycles: u64, mut hook: Option<&mut dyn DecisionHook>) -> Outcome {
        // The event engine may fast-forward over provably idle cycles,
        // but only when nothing observes individual cycles: no hook
        // (fault injectors key liveness flips off per-cycle `adjust`
        // calls), no stall plan, no skew model.
        let can_skip = self.event.is_some()
            && hook.is_none()
            && self.stall_plan.is_empty()
            && self.skew.is_none();
        while self.time < max_cycles {
            if let Some(ev) = self.event.as_ref() {
                if ev.all_delivered() {
                    return Outcome::Delivered { cycles: self.time };
                }
                if can_skip && ev.quiescent() {
                    // Nothing can move before the next wheel release:
                    // jump straight there (or to the budget).
                    let target = ev.next_release().unwrap_or(max_cycles).min(max_cycles);
                    if target > self.time {
                        let delta = target - self.time;
                        let ev = self.event.as_mut().expect("event core");
                        ev.fast_forward(delta);
                        self.time = target;
                        self.stats.cycles = self.time;
                        continue;
                    }
                }
            } else if self.sim.all_delivered(&self.state) {
                return Outcome::Delivered { cycles: self.time };
            }
            match hook {
                Some(ref mut h) => self.step_inner(Some(&mut **h)),
                None => self.step_inner(None),
            }
            let deadlock = match self.event.as_mut() {
                Some(ev) => ev.check_deadlock(),
                None => self.sim.find_deadlock(&self.state),
            };
            if let Some(members) = deadlock {
                return Outcome::Deadlock {
                    members,
                    at_cycle: self.time,
                };
            }
        }
        if self.sim.all_delivered(&self.state) {
            Outcome::Delivered { cycles: self.time }
        } else {
            Outcome::Timeout { cycles: self.time }
        }
    }

    /// Advance one cycle under the policy.
    pub fn step(&mut self) {
        self.step_inner(None);
        self.settle_after_step();
    }

    /// [`Runner::step`] with a [`DecisionHook`] adjusting this cycle's
    /// decisions before arbitration.
    pub fn step_hooked(&mut self, hook: &mut dyn DecisionHook) {
        self.step_inner(Some(hook));
        self.settle_after_step();
    }

    /// Externally observed steps must leave `stats` exact, so the
    /// event engine settles its open busy intervals here; inside
    /// [`Runner::run`] the settlement happens once, at exit.
    fn settle_after_step(&mut self) {
        if let Some(ev) = self.event.as_mut() {
            ev.settle_busy(&mut self.stats);
        }
    }

    fn step_inner(&mut self, hook: Option<&mut dyn DecisionHook>) {
        if self.event.is_some() {
            // Take/put-back so the core can borrow the runner's other
            // fields mutably without aliasing.
            let mut ev = self.event.take().expect("event core");
            ev.step(
                self.sim,
                &mut self.state,
                &mut self.stats,
                &self.policy,
                &self.stall_plan,
                self.skew.as_ref(),
                self.time,
                hook,
            );
            self.event = Some(ev);
            self.time += 1;
            return;
        }
        let sim = self.sim;
        let cycle = self.time;
        // Messages released by their inject_at times.
        let inject: Vec<MessageId> = sim
            .pending(&self.state)
            .into_iter()
            .filter(|&m| sim.spec(m).inject_at <= self.time)
            .collect();
        let stalls: Vec<MessageId> = self
            .stall_plan
            .iter()
            .filter(|(_, cycles)| cycles.contains(&self.time))
            .map(|(&m, _)| m)
            .collect();
        let frozen = self
            .skew
            .as_ref()
            .map(|s| s.frozen_at(self.time))
            .unwrap_or_default();

        // Let the hook adjust the tentative decision sets before any
        // request or arbitration is derived from them — a hook that
        // removes a message's request after a winner was chosen would
        // trip the engine's bogus-winner panic.
        let mut tentative = Decisions {
            inject,
            stalls,
            winners: BTreeMap::new(),
            frozen,
        };
        let mut hook = hook;
        if let Some(h) = hook.as_deref_mut() {
            h.adjust(sim, &self.state, self.time, &mut tentative);
        }
        let Decisions {
            inject,
            stalls,
            frozen,
            ..
        } = tentative;

        // Track request ages for OldestFirst.
        let requests = sim.header_requests_frozen(&self.state, &inject, &stalls, &frozen);
        for (&chan, reqs) in &requests {
            for &m in reqs {
                match self.waiting_since[m.index()] {
                    Some((c, _)) if c == chan => {}
                    _ => self.waiting_since[m.index()] = Some((chan, self.time)),
                }
            }
        }

        let mut winners = BTreeMap::new();
        for (&chan, reqs) in &requests {
            if reqs.len() > 1 {
                winners.insert(chan, self.pick_winner(chan, reqs));
            }
        }

        let decisions = Decisions {
            inject,
            stalls,
            winners,
            frozen,
        };
        let before_started: Vec<bool> = sim.messages().map(|m| self.state.is_started(m)).collect();
        let report = sim.step(&mut self.state, &decisions);
        self.time += 1;

        // Stats.
        self.stats.cycles = self.time;
        self.stats.flit_moves += report.flits_moved as u64;
        for m in sim.messages() {
            if !before_started[m.index()] && self.state.is_started(m) {
                self.stats.injected_at[m.index()] = Some(self.time);
            }
        }
        for m in &report.delivered {
            self.stats.delivered_at[m.index()] = Some(self.time);
        }
        for (ci, occ) in self.state.channels.iter().enumerate() {
            if occ.map(|o| !o.is_empty()).unwrap_or(false) {
                self.stats.channel_busy[ci] += 1;
            }
        }
        // Remember winners for round-robin rotation.
        for (&chan, &w) in &decisions.winners {
            self.last_winner.insert(chan, w);
        }
        if let Some(h) = hook {
            // Same `time` value `adjust` saw for this cycle.
            h.observe(sim, &self.state, cycle, &report);
        }
    }

    fn pick_winner(&self, chan: ChannelId, reqs: &[MessageId]) -> MessageId {
        pick_winner(
            &self.policy,
            self.sim,
            &self.waiting_since,
            &self.last_winner,
            self.time,
            chan,
            reqs,
            &mut |m| self.sim.head_index(&self.state, m),
        )
    }
}

/// Arbitration, shared between the stepping runner and the event core
/// so both engines pick byte-identical winners. `head_of` supplies the
/// worm's furthest owned path index (`None` while pending) — the
/// stepping path scans for it, the event core reads its cache.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pick_winner(
    policy: &ArbitrationPolicy,
    sim: &Sim,
    waiting_since: &[Option<(ChannelId, u64)>],
    last_winner: &BTreeMap<ChannelId, MessageId>,
    time: u64,
    chan: ChannelId,
    reqs: &[MessageId],
    head_of: &mut dyn FnMut(MessageId) -> Option<usize>,
) -> MessageId {
    match policy {
        ArbitrationPolicy::LowestId => reqs[0],
        ArbitrationPolicy::RoundRobin => {
            // Next requester after the previous winner, in id order.
            match last_winner.get(&chan) {
                Some(&last) => reqs.iter().copied().find(|&m| m > last).unwrap_or(reqs[0]),
                None => reqs[0],
            }
        }
        ArbitrationPolicy::OldestFirst => reqs
            .iter()
            .copied()
            .min_by_key(|&m| {
                let since = match waiting_since[m.index()] {
                    Some((c, t)) if c == chan => t,
                    _ => time,
                };
                (since, m)
            })
            .expect("non-empty requests"),
        ArbitrationPolicy::Adversarial { favored } => {
            if let Some(&m) = favored.iter().find(|m| reqs.contains(m)) {
                return m;
            }
            // Most remaining hops wins.
            reqs.iter()
                .copied()
                .max_by_key(|&m| {
                    let remaining = match head_of(m) {
                        Some(h) => sim.path(m).len() - h,
                        None => sim.path(m).len() + 1,
                    };
                    (remaining, std::cmp::Reverse(m))
                })
                .expect("non-empty requests")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageSpec;
    use wormnet::topology::{line, ring_unidirectional};
    use wormnet::NodeId;
    use wormroute::algorithms::{clockwise_ring, shortest_path_table};

    #[test]
    fn delivers_on_a_line() {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 4),
                MessageSpec::new(NodeId::from_index(3), NodeId::from_index(0), 4).at(2),
            ],
            None,
        )
        .unwrap();
        let mut runner = Runner::new(&sim, ArbitrationPolicy::LowestId);
        let outcome = runner.run(100);
        assert!(matches!(outcome, Outcome::Delivered { .. }));
        let stats = runner.stats();
        assert_eq!(stats.delivered_count(), 2);
        assert!(stats.mean_latency().unwrap() > 0.0);
        assert!(stats.throughput() > 0.0);
        // Opposite directions: no contention, latencies equal.
        assert_eq!(
            stats.latency(MessageId::from_index(0)),
            stats.latency(MessageId::from_index(1))
        );
    }

    #[test]
    fn ring_deadlocks_under_adversarial_policy() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 4))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial { favored: vec![] });
        let outcome = runner.run(1000);
        assert!(outcome.is_deadlock(), "got {outcome:?}");
    }

    #[test]
    fn stall_plan_freezes_messages() {
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(2),
                2,
            )],
            None,
        )
        .unwrap();
        let baseline = {
            let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
            match r.run(100) {
                Outcome::Delivered { cycles } => cycles,
                o => panic!("{o:?}"),
            }
        };
        let mut plan = StallPlan::new();
        plan.insert(MessageId::from_index(0), vec![1, 2, 3]);
        let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId).with_stalls(plan);
        match r.run(100) {
            Outcome::Delivered { cycles } => assert_eq!(cycles, baseline + 3),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn policies_pick_different_winners() {
        // Two messages contending for one channel every build; check
        // RoundRobin alternates across two sims... here simply verify
        // the adversarial policy prefers the longer-path message.
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        // m0: short trip 0->1; m1: long trip 0->3. Both contend for
        // channel 0->1 at cycle 0.
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 1),
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 1),
            ],
            None,
        )
        .unwrap();
        let mut r = Runner::new(&sim, ArbitrationPolicy::Adversarial { favored: vec![] });
        r.step();
        assert!(r.state().is_started(MessageId::from_index(1)));
        assert!(!r.state().is_started(MessageId::from_index(0)));

        let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
        r.step();
        assert!(r.state().is_started(MessageId::from_index(0)));
    }

    #[test]
    fn favored_list_overrides_heuristic() {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 1),
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 1),
            ],
            None,
        )
        .unwrap();
        let mut r = Runner::new(
            &sim,
            ArbitrationPolicy::Adversarial {
                favored: vec![MessageId::from_index(0)],
            },
        );
        r.step();
        assert!(r.state().is_started(MessageId::from_index(0)));
    }

    #[test]
    fn round_robin_rotates() {
        // Three 1-flit messages from the same source contending
        // repeatedly: round robin should let each through in turn
        // without starvation.
        let (net, _) = line(2);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            (0..3)
                .map(|_| MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 1))
                .collect(),
            None,
        )
        .unwrap();
        let mut r = Runner::new(&sim, ArbitrationPolicy::RoundRobin);
        let outcome = r.run(50);
        assert!(matches!(outcome, Outcome::Delivered { .. }));
    }

    #[test]
    fn oldest_first_is_starvation_free_under_streams() {
        // A relentless stream of short messages crosses a victim's
        // path; OldestFirst (assumption 5) must still deliver the
        // victim with bounded latency, unlike LowestId which can
        // starve it behind lower-id traffic.
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        // Victim (highest id) plus 12 stream messages sharing its
        // first channel.
        let mut specs: Vec<MessageSpec> = (0..12)
            .map(|i| MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 3).at(i))
            .collect();
        specs.push(MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 3).at(0));
        let victim = MessageId::from_index(12);
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let mut r = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
        assert!(matches!(r.run(10_000), Outcome::Delivered { .. }));
        let victim_latency = r.stats().latency(victim).unwrap();
        // Under oldest-first the victim is served in FIFO-ish order:
        // it requested at cycle 0, so it should be among the first
        // few, not dead last.
        let worst = (0..12)
            .filter_map(|i| r.stats().latency(MessageId::from_index(i)))
            .max()
            .unwrap();
        assert!(
            victim_latency <= worst,
            "victim {victim_latency} vs worst stream {worst}"
        );
    }

    #[test]
    fn timeout_outcome_when_budget_too_small() {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(3),
                10,
            )],
            None,
        )
        .unwrap();
        let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
        let outcome = r.run(3);
        assert_eq!(outcome, Outcome::Timeout { cycles: 3 });
        assert_eq!(r.time(), 3);
        assert!(!outcome.is_deadlock());
    }

    #[test]
    fn stats_survive_deadlock() {
        use wormnet::topology::ring_unidirectional;
        use wormroute::algorithms::clockwise_ring;
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 4))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let mut r = Runner::new(&sim, ArbitrationPolicy::Adversarial { favored: vec![] });
        assert!(r.run(1_000).is_deadlock());
        // All injected, none delivered; utilization nonzero.
        let stats = r.stats();
        assert_eq!(stats.delivered_count(), 0);
        assert!(stats.injected_at.iter().all(Option::is_some));
        assert!(stats.mean_utilization() > 0.0);
    }

    #[test]
    fn oldest_first_delivers_everything() {
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            (0..4)
                .map(|i| {
                    MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 2).at(i as u64)
                })
                .collect(),
            None,
        )
        .unwrap();
        let mut r = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
        assert!(matches!(r.run(200), Outcome::Delivered { .. }));
        assert_eq!(r.stats().delivered_count(), 4);
    }
}
