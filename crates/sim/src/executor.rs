//! The arena-backed batched round executor: the simulator's one round
//! runtime.
//!
//! - **Message arenas.** Every directed edge `(u, port)` owns a fixed slot in
//!   a flat arena laid out by the graph's CSR edge index
//!   ([`locality_graph::Graph::edge_slots`]). A node *sends* by writing its
//!   own contiguous slot segment and *receives* by reading the mirrored slots
//!   ([`locality_graph::Graph::mirror_slots`]) of the opposite arena.
//!   Delivery is therefore a single metering-and-clear pass that flips the
//!   read/write arenas — no queues, no copying, and **zero heap allocation
//!   per round** once the arenas exist (for messages that do not themselves
//!   own heap memory).
//! - **Deterministic parallelism.** Each node writes only its own slot
//!   segment and its own output cell, so node steps are embarrassingly
//!   parallel *and bit-identical to the sequential order*:
//!   [`Executor::run_parallel`] chunks the nodes across
//!   [`std::thread::scope`] threads and produces exactly the outputs and
//!   [`CostMeter`] of [`Executor::run`]. The `determinism-checks` cargo
//!   feature makes `run_parallel` re-run sequentially and assert equality.
//! - **One round loop.** Fault-free and faulty runs share a single loop that
//!   is generic over its delivery step: the fault-free step is the plain
//!   meter-clear-flip pass, the faulty one routes every message through a
//!   [`FaultPlan`] (see [`crate::faults`]).
//!
//! Protocols implement [`BatchProtocol`], writing messages through an
//! [`Outlet`] and reading them through an [`Inbox`] view instead of building
//! per-round collections.

use crate::cost::CostMeter;
use crate::faults::{Delivery, FaultPlan, FaultRun, NodeOutcome};
use crate::node::NodeContext;
use crate::wire::WireSize;
use locality_graph::ids::IdAssignment;
use locality_graph::Graph;
use std::error::Error;
use std::fmt;

/// Communication regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unbounded messages.
    Local,
    /// Messages of at most `budget_bits` bits; larger messages are delivered
    /// but counted as violations (so experiments can report them).
    Congest {
        /// Per-message bit budget (`O(log n)`).
        budget_bits: u64,
    },
}

impl Mode {
    /// The standard CONGEST regime for `g`: `8·⌈log2 n⌉` bits per message
    /// (the model allows any `O(log n)`; the constant is reported, not
    /// hidden). This is the single definition [`Executor::congest`] and the
    /// algorithm wrappers share.
    pub fn default_congest(g: &Graph) -> Self {
        Mode::Congest {
            budget_bits: 8 * g.log2_n() as u64,
        }
    }
}

/// Error from an [`Executor`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The number of protocol instances differed from the node count.
    WrongNodeCount {
        /// Instances supplied.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// Some node had not halted after the round limit.
    RoundLimit {
        /// The limit that was hit.
        limit: u32,
        /// How many nodes were still running.
        still_running: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WrongNodeCount { got, expected } => {
                write!(f, "expected {expected} protocol instances, got {got}")
            }
            EngineError::RoundLimit {
                limit,
                still_running,
            } => write!(
                f,
                "round limit {limit} reached with {still_running} nodes still running"
            ),
        }
    }
}

impl Error for EngineError {}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run<O> {
    /// Per-node outputs, indexed by node.
    pub outputs: Vec<O>,
    /// Cost accounting for the whole execution.
    pub meter: CostMeter,
    /// The CONGEST per-message budget the run was metered against (`None`
    /// in LOCAL mode) — kept on the result so violation counts are
    /// interpretable without the executor at hand.
    pub budget_bits: Option<u64>,
}

impl<O> Run<O> {
    /// Whether the execution stayed within its CONGEST budget (vacuously
    /// true in LOCAL mode). Violations themselves are counted per directed
    /// message in [`CostMeter::congest_violations`]: an over-budget
    /// broadcast from a degree-`d` node is `d` violations, not one.
    pub fn congest_clean(&self) -> bool {
        self.meter.congest_clean()
    }
}

/// A node's decision after a batched round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control<O> {
    /// Keep running (messages, if any, were written through the [`Outlet`]).
    Continue,
    /// Terminate with this output. Anything written through the [`Outlet`]
    /// this round is discarded: a halting node is silent.
    Halt(O),
}

/// Read view of one node's inbox for the current round.
///
/// Port `p` carries a message exactly when the neighbor on port `p` wrote its
/// mirrored slot last round; the view resolves mirrors through the graph's
/// precomputed reverse-edge index, so each lookup is `O(1)`.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    arena: &'a [Option<M>],
    mirrors: &'a [usize],
}

impl<'a, M> Inbox<'a, M> {
    /// The receiving node's degree (ports are `0..degree`).
    pub fn degree(&self) -> usize {
        self.mirrors.len()
    }

    /// The message received on `port`, if any.
    ///
    /// # Panics
    /// Panics if `port >= degree`.
    pub fn get(&self, port: usize) -> Option<&'a M> {
        self.arena[self.mirrors[port]].as_ref()
    }

    /// Iterate the occupied ports in ascending port order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a M)> + '_ {
        self.mirrors
            .iter()
            .enumerate()
            .filter_map(|(port, &slot)| self.arena[slot].as_ref().map(|m| (port, m)))
    }

    /// Whether no message arrived this round.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// Write view of one node's outgoing edge slots for the current round.
///
/// The slots start empty each round; writing the same port twice keeps the
/// last message (a later [`Outlet::send`] overrides an earlier
/// [`Outlet::broadcast`] on that port): one message per edge per round.
#[derive(Debug)]
pub struct Outlet<'a, M> {
    node: usize,
    slots: &'a mut [Option<M>],
}

impl<M: Clone> Outlet<'_, M> {
    /// The sending node's degree (ports are `0..degree`).
    pub fn degree(&self) -> usize {
        self.slots.len()
    }

    /// Send `msg` on `port`.
    ///
    /// # Panics
    /// Panics if `port >= degree`.
    pub fn send(&mut self, port: usize, msg: M) {
        assert!(
            port < self.slots.len(),
            "node {} sent on invalid port {}",
            self.node,
            port
        );
        self.slots[port] = Some(msg);
    }

    /// Send `msg` to every neighbor (one directed message per port — CONGEST
    /// accounting charges each of them).
    pub fn broadcast(&mut self, msg: M) {
        if let Some((last, rest)) = self.slots.split_last_mut() {
            for slot in rest {
                *slot = Some(msg.clone());
            }
            *last = Some(msg);
        }
    }
}

/// A synchronous message-passing protocol, one instance per node.
///
/// The executor calls [`BatchProtocol::start`] before round 1, then
/// [`BatchProtocol::round`] once per round with the messages the node's
/// neighbors wrote the round before. Ports are neighbor *indices*
/// `0..degree` (a node does not a priori know its neighbors' ids — it learns
/// them by communication). Messages are exchanged through slot views instead
/// of per-round collections, so a well-behaved implementation allocates
/// nothing in its `round`. The run ends when every node has halted.
pub trait BatchProtocol {
    /// Message type (must report its wire size for CONGEST accounting).
    type Message: Clone + WireSize;
    /// Per-node output.
    type Output;

    /// Write the messages for round 1.
    fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, Self::Message>);

    /// Receive round `round`'s inbox; write replies; continue or halt.
    fn round(
        &mut self,
        ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, Self::Message>,
        out: &mut Outlet<'_, Self::Message>,
    ) -> Control<Self::Output>;
}

/// The arena-backed executor for one graph.
///
/// [`Executor::run`] is the sequential reference order and [`Executor::run_parallel`] the chunked
/// parallel order, which is guaranteed (and under the `determinism-checks`
/// feature, asserted) to produce bit-identical results.
///
/// # Example
/// ```
/// use locality_graph::prelude::*;
/// use locality_sim::executor::{BatchProtocol, Control, Executor, Inbox, Outlet};
/// use locality_sim::node::NodeContext;
///
/// /// Every node halts with the number of neighbors that greeted it.
/// struct Hello;
/// impl BatchProtocol for Hello {
///     type Message = u64;
///     type Output = usize;
///     fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u64>) {
///         out.broadcast(ctx.id);
///     }
///     fn round(
///         &mut self,
///         _ctx: &NodeContext,
///         _round: u32,
///         inbox: &Inbox<'_, u64>,
///         _out: &mut Outlet<'_, u64>,
///     ) -> Control<usize> {
///         Control::Halt(inbox.iter().count())
///     }
/// }
///
/// let g = Graph::cycle(5);
/// let ids = IdAssignment::sequential(5);
/// let run = Executor::congest(&g, &ids).run((0..5).map(|_| Hello), 10).unwrap();
/// assert!(run.outputs.iter().all(|&d| d == 2));
/// assert_eq!(run.meter.rounds, 1);
/// ```
#[derive(Debug)]
pub struct Executor<'g> {
    graph: &'g Graph,
    ids: &'g IdAssignment,
    mode: Mode,
}

impl<'g> Executor<'g> {
    /// A LOCAL-model executor (unbounded messages).
    ///
    /// # Panics
    /// Panics if `ids` does not match `graph`.
    pub fn local(graph: &'g Graph, ids: &'g IdAssignment) -> Self {
        Self::new(graph, ids, Mode::Local)
    }

    /// A CONGEST-model executor with the standard budget
    /// ([`Mode::default_congest`]).
    ///
    /// # Panics
    /// Panics if `ids` does not match `graph`.
    pub fn congest(graph: &'g Graph, ids: &'g IdAssignment) -> Self {
        Self::new(graph, ids, Mode::default_congest(graph))
    }

    /// A CONGEST-model executor with an explicit per-message budget.
    ///
    /// # Panics
    /// Panics if `ids` does not match `graph`.
    pub fn congest_with_budget(graph: &'g Graph, ids: &'g IdAssignment, budget_bits: u64) -> Self {
        Self::new(graph, ids, Mode::Congest { budget_bits })
    }

    fn new(graph: &'g Graph, ids: &'g IdAssignment, mode: Mode) -> Self {
        assert!(ids.matches(graph), "id assignment must match graph");
        Self { graph, ids, mode }
    }

    /// The communication mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    fn budget(&self) -> Option<u64> {
        match self.mode {
            Mode::Local => None,
            Mode::Congest { budget_bits } => Some(budget_bits),
        }
    }

    /// Execute `protocols` sequentially (the reference order).
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`] or [`EngineError::RoundLimit`].
    pub fn run<P: BatchProtocol>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
    ) -> Result<Run<P::Output>, EngineError> {
        self.run_metered(protocols, max_rounds, |_| 0)
    }

    /// Like [`Executor::run`], but additionally sums per-node random-bit
    /// usage reported by `random_bits(&protocol)` after completion.
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`] or [`EngineError::RoundLimit`].
    pub fn run_metered<P: BatchProtocol>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        random_bits: impl Fn(&P) -> u64,
    ) -> Result<Run<P::Output>, EngineError> {
        let nodes = protocols.into_iter().collect();
        let (outputs, meter) = self.sequential(nodes, max_rounds, &mut Reliable, &random_bits)?;
        Ok(self.completed(outputs, meter))
    }

    /// Execute `protocols` with node steps chunked across `threads` scoped
    /// threads (`0` = available parallelism). Outputs and meter are
    /// bit-identical to [`Executor::run`]: every node writes only its own
    /// slot segment and output cell, and metering is a deterministic pass
    /// over the arena in slot order.
    ///
    /// The `Clone`/`PartialEq`/`Debug` bounds exist so the
    /// `determinism-checks` cargo feature can re-run the protocol
    /// sequentially and assert the equivalence; the bounds are required
    /// unconditionally so enabling the feature is additive (it changes
    /// behavior, never the API).
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`] or [`EngineError::RoundLimit`].
    pub fn run_parallel<P>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        threads: usize,
    ) -> Result<Run<P::Output>, EngineError>
    where
        P: BatchProtocol + Send + Clone,
        P::Message: Send + Sync,
        P::Output: Send + PartialEq + fmt::Debug,
    {
        self.run_parallel_metered(protocols, max_rounds, threads, |_| 0)
    }

    /// [`Executor::run_parallel`] with random-bit accounting, as in
    /// [`Executor::run_metered`].
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`] or [`EngineError::RoundLimit`].
    pub fn run_parallel_metered<P>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        threads: usize,
        random_bits: impl Fn(&P) -> u64,
    ) -> Result<Run<P::Output>, EngineError>
    where
        P: BatchProtocol + Send + Clone,
        P::Message: Send + Sync,
        P::Output: Send + PartialEq + fmt::Debug,
    {
        let nodes: Vec<P> = protocols.into_iter().collect();
        #[cfg(feature = "determinism-checks")]
        let reference = self.run_metered(nodes.clone(), max_rounds, &random_bits);
        let parallel = self
            .parallel(nodes, max_rounds, threads, &mut Reliable, &random_bits)
            .map(|(outputs, meter)| self.completed(outputs, meter));
        #[cfg(feature = "determinism-checks")]
        assert_deterministic(&reference, &parallel);
        parallel
    }

    /// Execute `protocols` sequentially under the fault schedule `plan`.
    ///
    /// Faults are injected at the delivery boundary between the write and
    /// read arenas (see [`crate::faults`] for the exact semantics). A plan
    /// with all rates zero delivers exactly as the fault-free run does: the
    /// outcomes and meter equal [`Executor::run`]'s bit for bit.
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`], or [`EngineError::RoundLimit`] when
    /// live (non-crashed, non-halted) nodes remain at the budget.
    pub fn run_with_faults<P: BatchProtocol>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        plan: &FaultPlan,
    ) -> Result<FaultRun<P::Output>, EngineError> {
        self.run_with_faults_metered(protocols, max_rounds, plan, |_| 0)
    }

    /// [`Executor::run_with_faults`] with random-bit accounting, as in
    /// [`Executor::run_metered`].
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`] or [`EngineError::RoundLimit`].
    pub fn run_with_faults_metered<P: BatchProtocol>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        plan: &FaultPlan,
        random_bits: impl Fn(&P) -> u64,
    ) -> Result<FaultRun<P::Output>, EngineError> {
        let nodes = protocols.into_iter().collect();
        let mut faulty = Faulty::new(plan, self.graph.node_count());
        let (outputs, meter) = self.sequential(nodes, max_rounds, &mut faulty, &random_bits)?;
        Ok(faulty.outcome(outputs, meter, self.budget()))
    }

    /// [`Executor::run_with_faults`] with node steps chunked across
    /// `threads` scoped threads (`0` = available parallelism). Every fault
    /// decision is a pure function of the plan and the `(round, slot)` or
    /// node coordinates, so outcomes and meter are bit-identical to the
    /// sequential order for every thread count (asserted under the
    /// `determinism-checks` cargo feature, with the same unconditional
    /// bounds as [`Executor::run_parallel`]).
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`] or [`EngineError::RoundLimit`].
    pub fn run_parallel_with_faults<P>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        threads: usize,
        plan: &FaultPlan,
    ) -> Result<FaultRun<P::Output>, EngineError>
    where
        P: BatchProtocol + Send + Clone,
        P::Message: Send + Sync,
        P::Output: Send + PartialEq + fmt::Debug,
    {
        let nodes: Vec<P> = protocols.into_iter().collect();
        #[cfg(feature = "determinism-checks")]
        let reference = self.run_with_faults(nodes.clone(), max_rounds, plan);
        let mut faulty = Faulty::new(plan, self.graph.node_count());
        let parallel = self
            .parallel(nodes, max_rounds, threads, &mut faulty, &|_| 0)
            .map(|(outputs, meter)| faulty.outcome(outputs, meter, self.budget()));
        #[cfg(feature = "determinism-checks")]
        assert_deterministic(&reference, &parallel);
        parallel
    }

    /// A fault-free run's result: every node halted (the round loop only
    /// returns once none is running and none can crash).
    fn completed<O>(&self, outputs: Vec<Option<O>>, meter: CostMeter) -> Run<O> {
        let outputs = outputs
            .into_iter()
            .map(|h| h.expect("all nodes halted")) // audit: allow(panic) -- the round loop ran to quiescence and nothing crashes without a fault plan; a non-halted node is a logic bug
            .collect();
        Run {
            outputs,
            meter,
            budget_bits: self.budget(),
        }
    }

    /// The round loop with every node stepped in index order.
    fn sequential<P: BatchProtocol, D: DeliveryPolicy<P::Message>>(
        &self,
        nodes: Vec<P>,
        max_rounds: u32,
        delivery: &mut D,
        random_bits: &impl Fn(&P) -> u64,
    ) -> Result<Halted<P::Output>, EngineError> {
        let graph = self.graph;
        self.drive(
            nodes,
            max_rounds,
            delivery,
            random_bits,
            |nodes, outputs, write, read, contexts, crashed, round| {
                step_chunk(
                    graph, contexts, 0, nodes, outputs, write, 0, read, crashed, round,
                )
            },
        )
    }

    /// The round loop with node steps chunked across `threads` scoped
    /// threads (`0` = available parallelism); sequential when that leaves a
    /// single chunk.
    fn parallel<P, D>(
        &self,
        nodes: Vec<P>,
        max_rounds: u32,
        threads: usize,
        delivery: &mut D,
        random_bits: &impl Fn(&P) -> u64,
    ) -> Result<Halted<P::Output>, EngineError>
    where
        P: BatchProtocol + Send,
        P::Message: Send + Sync,
        P::Output: Send,
        D: DeliveryPolicy<P::Message>,
    {
        let n = self.graph.node_count();
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        };
        let chunks = threads.min(n.max(1));
        if chunks <= 1 {
            return self.sequential(nodes, max_rounds, delivery, random_bits);
        }
        let bounds = chunk_bounds(n, chunks);
        let graph = self.graph;
        self.drive(
            nodes,
            max_rounds,
            delivery,
            random_bits,
            |nodes, outputs, write, read, contexts, crashed, round| {
                parallel_step(
                    graph, &bounds, contexts, nodes, outputs, write, read, crashed, round,
                )
            },
        )
    }

    /// The round loop: arena setup, then per round the `delivery` step
    /// (which fills the read arena and empties the write arena) followed by
    /// `step`, which runs every still-active node once and returns how many
    /// are still running; finally the random-bit accounting.
    ///
    /// Returns every node's output (`None` for a node the delivery policy
    /// crashed) and the meter.
    fn drive<P: BatchProtocol, D: DeliveryPolicy<P::Message>>(
        &self,
        mut nodes: Vec<P>,
        max_rounds: u32,
        delivery: &mut D,
        random_bits: &impl Fn(&P) -> u64,
        mut step: impl FnMut(
            &mut [P],
            &mut [Option<P::Output>],
            &mut [Option<P::Message>],
            &[Option<P::Message>],
            &[NodeContext],
            &[bool],
            u32,
        ) -> usize,
    ) -> Result<Halted<P::Output>, EngineError> {
        let n = self.graph.node_count();
        if nodes.len() != n {
            return Err(EngineError::WrongNodeCount {
                got: nodes.len(),
                expected: n,
            });
        }
        let contexts: Vec<NodeContext> = (0..n)
            .map(|v| NodeContext {
                node: v,
                id: self.ids.id_of(v),
                degree: self.graph.degree(v),
                n,
            })
            .collect();
        let slots = self.graph.directed_edge_count();
        // The two arenas; after setup the round loop only moves `Option`s in
        // place and swaps the buffers, never reallocating.
        let mut read: Vec<Option<P::Message>> = (0..slots).map(|_| None).collect();
        let mut write: Vec<Option<P::Message>> = (0..slots).map(|_| None).collect();
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let budget = self.budget();
        let mut meter = CostMeter::default();

        let crashed = delivery.crashed();
        for v in 0..n {
            if crashed.get(v) == Some(&true) {
                continue; // a node crashing at round 0 never starts
            }
            let mut out = Outlet {
                node: v,
                slots: &mut write[self.graph.edge_slots(v)],
            };
            nodes[v].start(&contexts[v], &mut out);
        }
        if max_rounds == 0 {
            let still_running = n - crashed.iter().filter(|&&c| c).count();
            if still_running > 0 {
                return Err(EngineError::RoundLimit {
                    limit: 0,
                    still_running,
                });
            }
        }

        let mut rounds_used = 0;
        for round in 1..=max_rounds {
            delivery.deliver(round, &mut read, &mut write, &mut meter, budget);
            let still_running = step(
                &mut nodes,
                &mut outputs,
                &mut write,
                &read,
                &contexts,
                delivery.crashed(),
                round,
            );
            rounds_used = round;
            if still_running == 0 {
                break;
            }
            if round == max_rounds {
                return Err(EngineError::RoundLimit {
                    limit: max_rounds,
                    still_running,
                });
            }
        }

        meter.rounds = rounds_used as u64;
        meter.random_bits = nodes.iter().map(random_bits).sum();
        Ok((outputs, meter))
    }
}

/// What the round loop leaves behind: per-node outputs (`None` for crashed
/// nodes) and the meter.
type Halted<O> = (Vec<Option<O>>, CostMeter);

/// Under the `determinism-checks` feature: a parallel run must reproduce
/// the sequential reference order exactly, error outcomes included.
#[cfg(feature = "determinism-checks")]
fn assert_deterministic<T: PartialEq + fmt::Debug>(
    sequential: &Result<T, EngineError>,
    parallel: &Result<T, EngineError>,
) {
    assert_eq!(
        sequential, parallel,
        "determinism check: the parallel run diverged from the sequential order"
    );
}

/// The delivery step between the write and read arenas — the one place a
/// fault-free run and a faulty run differ.
trait DeliveryPolicy<M> {
    /// Per-node crash-stop mask for the current round (empty: no node ever
    /// crashes).
    fn crashed(&self) -> &[bool];

    /// Deliver what nodes wrote for round `round`: afterwards `read` holds
    /// exactly the messages received this round, every slot of `write` is
    /// empty, and every delivered copy is metered.
    fn deliver(
        &mut self,
        round: u32,
        read: &mut Vec<Option<M>>,
        write: &mut Vec<Option<M>>,
        meter: &mut CostMeter,
        budget: Option<u64>,
    );
}

/// The model's ideal network: every message written in round `r` arrives in
/// round `r + 1` and no node crashes.
struct Reliable;

impl<M: WireSize> DeliveryPolicy<M> for Reliable {
    fn crashed(&self) -> &[bool] {
        &[]
    }

    fn deliver(
        &mut self,
        _round: u32,
        read: &mut Vec<Option<M>>,
        write: &mut Vec<Option<M>>,
        meter: &mut CostMeter,
        budget: Option<u64>,
    ) {
        // Meter what was just written, clear the consumed arena, flip.
        // Readers then see the fresh messages through their mirror slots;
        // no copying happens.
        for msg in write.iter().flatten() {
            meter.record_message(msg.wire_bits(), budget);
        }
        for slot in read.iter_mut() {
            *slot = None;
        }
        std::mem::swap(read, write);
    }
}

/// Delivery under a [`FaultPlan`]: each written message is routed by its
/// [`FaultPlan::message_fate`] (drop / delay / duplicate), matured late
/// copies are merged with seeded reordering, and nodes crash-stop at their
/// planned rounds.
///
/// With a pass-through plan every fate is [`Delivery::Deliver`], so the
/// delivery pass makes the same `record_message` calls in the same slot
/// order as [`Reliable`] — which is what makes rate-0 plans bit-identical
/// to the fault-free run.
struct Faulty<'p, M> {
    plan: &'p FaultPlan,
    crash_at: Vec<Option<u32>>,
    crashed: Vec<bool>,
    /// Ring of future deliveries: `pending[r % horizon]` holds the late
    /// copies maturing at round `r` (delays are `< horizon`, so a bucket is
    /// always drained before it is reused).
    pending: Vec<Vec<(usize, M)>>,
}

impl<'p, M> Faulty<'p, M> {
    fn new(plan: &'p FaultPlan, n: usize) -> Self {
        let crash_at: Vec<Option<u32>> = (0..n).map(|v| plan.crash_round_of(v)).collect();
        let crashed = crash_at.iter().map(|c| *c == Some(0)).collect();
        let pending = (0..plan.delay_horizon()).map(|_| Vec::new()).collect();
        Self {
            plan,
            crash_at,
            crashed,
            pending,
        }
    }

    /// Shape the round loop's outputs into per-node outcomes.
    fn outcome<O>(
        &self,
        outputs: Vec<Option<O>>,
        meter: CostMeter,
        budget_bits: Option<u64>,
    ) -> FaultRun<O> {
        let outcomes = outputs
            .into_iter()
            .zip(&self.crash_at)
            .map(|(out, crash)| match out {
                Some(o) => NodeOutcome::Halted(o),
                // The loop only exits successfully once every live node
                // halted, so an output-less node necessarily crashed.
                None => NodeOutcome::Crashed {
                    round: crash.unwrap_or(0),
                },
            })
            .collect();
        FaultRun {
            outcomes,
            meter,
            budget_bits,
        }
    }
}

impl<M: Clone + WireSize> DeliveryPolicy<M> for Faulty<'_, M> {
    fn crashed(&self) -> &[bool] {
        &self.crashed
    }

    fn deliver(
        &mut self,
        round: u32,
        read: &mut Vec<Option<M>>,
        write: &mut Vec<Option<M>>,
        meter: &mut CostMeter,
        budget: Option<u64>,
    ) {
        let horizon = self.pending.len();
        // Every fresh send is routed by its fate, then this round's matured
        // late copies are merged.
        for slot in read.iter_mut() {
            *slot = None;
        }
        for (slot, written) in write.iter_mut().enumerate() {
            let Some(msg) = written.take() else {
                continue;
            };
            let fate = self.plan.message_fate(round, slot);
            if let Some(extra) = fate.duplicate {
                meter.duplicated += 1;
                self.pending[(round as usize + extra as usize) % horizon].push((slot, msg.clone()));
            }
            match fate.primary {
                Delivery::Deliver => {
                    meter.record_message(msg.wire_bits(), budget);
                    read[slot] = Some(msg);
                }
                Delivery::Drop => meter.dropped += 1,
                Delivery::Delay(extra) => {
                    meter.delayed += 1;
                    self.pending[(round as usize + extra as usize) % horizon].push((slot, msg));
                }
            }
        }
        let mut matured = std::mem::take(&mut self.pending[round as usize % horizon]);
        for (slot, msg) in matured.drain(..) {
            // A late copy still arrives (and is metered); when it races a
            // message already delivered on the same edge this round, the
            // seeded reorder coin picks the copy the receiver observes and
            // the superseded one counts as dropped.
            meter.record_message(msg.wire_bits(), budget);
            if read[slot].is_none() {
                read[slot] = Some(msg);
            } else {
                meter.dropped += 1;
                if self.plan.late_wins(round, slot) {
                    read[slot] = Some(msg);
                }
            }
        }
        self.pending[round as usize % horizon] = matured; // keep the allocation

        for (v, c) in self.crash_at.iter().enumerate() {
            if *c == Some(round) {
                self.crashed[v] = true; // stops executing from this round on
            }
        }
    }
}

/// Contiguous node chunk bounds for `chunks`-way parallel stepping.
fn chunk_bounds(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let per = n.div_ceil(chunks);
    (0..chunks)
        .map(|c| ((c * per).min(n), ((c + 1) * per).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// One parallel round: split nodes/outputs/write along `bounds` (slot
/// segments follow the CSR offsets) and step every chunk on its own scoped
/// thread (`crashed` is empty when no node can crash).
#[allow(clippy::too_many_arguments)]
fn parallel_step<P>(
    graph: &Graph,
    bounds: &[(usize, usize)],
    contexts: &[NodeContext],
    nodes: &mut [P],
    outputs: &mut [Option<P::Output>],
    write: &mut [Option<P::Message>],
    read: &[Option<P::Message>],
    crashed: &[bool],
    round: u32,
) -> usize
where
    P: BatchProtocol + Send,
    P::Message: Send + Sync,
    P::Output: Send,
{
    let n = graph.node_count();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(bounds.len());
        let mut nodes_rest = nodes;
        let mut outputs_rest = outputs;
        let mut write_rest = write;
        let mut consumed_nodes = 0usize;
        let mut consumed_slots = 0usize;
        for &(lo, hi) in bounds {
            let slot_hi = if hi == n {
                graph.directed_edge_count()
            } else {
                graph.edge_slots(hi).start
            };
            let (node_chunk, nr) = nodes_rest.split_at_mut(hi - lo);
            let (out_chunk, or) = outputs_rest.split_at_mut(hi - lo);
            let (write_chunk, wr) = write_rest.split_at_mut(slot_hi - consumed_slots);
            nodes_rest = nr;
            outputs_rest = or;
            write_rest = wr;
            let node_base = consumed_nodes;
            let slot_base = consumed_slots;
            consumed_nodes = hi;
            consumed_slots = slot_hi;
            handles.push(scope.spawn(move || {
                step_chunk(
                    graph,
                    contexts,
                    node_base,
                    node_chunk,
                    out_chunk,
                    write_chunk,
                    slot_base,
                    read,
                    crashed,
                    round,
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker panicked")) // audit: allow(panic) -- a panicked worker already lost the run; propagating the abort is sound
            .sum()
    })
}

/// Run one round on one contiguous chunk of nodes; returns how many are
/// still running.
///
/// `nodes`, `outputs` and `write` are the chunk's slices (node range
/// `node_base..node_base + nodes.len()`, slot range starting at `slot_base`);
/// `read`, `contexts` and `crashed` are the full arrays (`crashed` may be
/// empty, meaning no node ever crashes). Writes land only in the chunk's
/// own slices, which is what makes parallel execution deterministic.
// audit: no-alloc
#[allow(clippy::too_many_arguments)]
fn step_chunk<P: BatchProtocol>(
    graph: &Graph,
    contexts: &[NodeContext],
    node_base: usize,
    nodes: &mut [P],
    outputs: &mut [Option<P::Output>],
    write: &mut [Option<P::Message>],
    slot_base: usize,
    read: &[Option<P::Message>],
    crashed: &[bool],
    round: u32,
) -> usize {
    let mut still_running = 0;
    for (i, node) in nodes.iter_mut().enumerate() {
        if outputs[i].is_some() {
            continue;
        }
        let v = node_base + i;
        if !crashed.is_empty() && crashed[v] {
            continue;
        }
        let range = graph.edge_slots(v);
        let (lo, hi) = (range.start - slot_base, range.end - slot_base);
        let inbox = Inbox {
            arena: read,
            mirrors: graph.mirror_slots(v),
        };
        let mut out = Outlet {
            node: v,
            slots: &mut write[lo..hi],
        };
        match node.round(&contexts[v], round, &inbox, &mut out) {
            Control::Continue => still_running += 1,
            Control::Halt(output) => {
                outputs[i] = Some(output);
                // A halting node is silent: discard anything it wrote.
                for slot in &mut write[lo..hi] {
                    *slot = None;
                }
            }
        }
    }
    still_running
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::prelude::*;

    use crate::protocols::{BfsOutput, BfsProtocol};

    /// One BFS instance per node, flooding from `sources` until `deadline`.
    fn flood_protocols(g: &Graph, sources: &[usize], deadline: u32) -> Vec<BfsProtocol> {
        (0..g.node_count())
            .map(|v| BfsProtocol::new(sources.contains(&v), deadline))
            .collect()
    }

    /// The BFS distance a halted node reported, `None` for a crashed one.
    fn distance(outcome: &NodeOutcome<BfsOutput>) -> Option<Option<u32>> {
        outcome.output().map(|&(d, _)| d)
    }

    #[test]
    fn sequential_flood_matches_bfs() {
        // A grid, and two components where the far one is unreachable.
        let split = Graph::disjoint_union(&[Graph::path(20), Graph::path(20)]);
        for g in [Graph::grid(5, 7), split] {
            let ids = IdAssignment::sequential(g.node_count());
            let run = Executor::congest(&g, &ids)
                .run(flood_protocols(&g, &[0], 30), 31)
                .unwrap();
            let reference = bfs_distances(&g, 0);
            for v in g.nodes() {
                assert_eq!(run.outputs[v].0, reference[v], "node {v}");
            }
            // Every node halts at the quiet deadline, long after the flood.
            assert_eq!(run.meter.rounds, 30);
            assert!(run.congest_clean());
            assert_eq!(run.budget_bits, Some(8 * g.log2_n() as u64));
        }
    }

    #[test]
    fn parallel_equals_sequential_on_flood() {
        let g = Graph::grid(9, 11);
        let ids = IdAssignment::sequential(g.node_count());
        let seq = Executor::congest(&g, &ids)
            .run(flood_protocols(&g, &[3, 50], 40), 41)
            .unwrap();
        for threads in [2, 3, 8, 64] {
            let par = Executor::congest(&g, &ids)
                .run_parallel(flood_protocols(&g, &[3, 50], 40), 41, threads)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "threads={threads}");
            assert_eq!(par.meter, seq.meter, "threads={threads}");
        }
    }

    #[test]
    fn parallel_handles_edgeless_and_tiny_graphs() {
        for g in [Graph::empty(0), Graph::empty(5), Graph::path(2)] {
            let ids = IdAssignment::sequential(g.node_count());
            let run = Executor::local(&g, &ids)
                .run_parallel(flood_protocols(&g, &[], 3), 4, 4)
                .unwrap();
            assert_eq!(run.outputs.len(), g.node_count());
            assert!(run.outputs.iter().all(|&o| o == (None, None)));
        }
    }

    #[test]
    fn round_limit_reported_with_still_running() {
        // BFS nodes run until their deadline, past the round budget.
        let g = Graph::path(3);
        let ids = IdAssignment::sequential(3);
        let err = Executor::local(&g, &ids)
            .run(flood_protocols(&g, &[0], 10), 4)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RoundLimit {
                limit: 4,
                still_running: 3
            }
        );
        assert!(err.to_string().contains('4'));
        // Zero-round budgets with live nodes are a limit error, not a panic.
        let err0 = Executor::local(&g, &ids)
            .run(flood_protocols(&g, &[0], 10), 0)
            .unwrap_err();
        assert!(matches!(err0, EngineError::RoundLimit { limit: 0, .. }));
    }

    #[test]
    fn halting_node_discards_its_writes() {
        // Node 0 writes a message and halts in the same round; node 1 must
        // never receive it.
        #[derive(Debug, Clone)]
        struct WriteThenHalt;
        impl BatchProtocol for WriteThenHalt {
            type Message = u8;
            type Output = usize;
            fn start(&mut self, _: &NodeContext, _: &mut Outlet<'_, u8>) {}
            fn round(
                &mut self,
                ctx: &NodeContext,
                round: u32,
                inbox: &Inbox<'_, u8>,
                out: &mut Outlet<'_, u8>,
            ) -> Control<usize> {
                if ctx.node == 0 {
                    out.broadcast(7);
                    return Control::Halt(0);
                }
                if round >= 3 {
                    return Control::Halt(inbox.iter().count());
                }
                Control::Continue
            }
        }
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        let run = Executor::local(&g, &ids)
            .run([WriteThenHalt, WriteThenHalt], 5)
            .unwrap();
        assert_eq!(run.outputs[1], 0);
        assert_eq!(run.meter.messages, 0);
    }

    #[test]
    fn directed_send_overrides_broadcast_slot() {
        // One message per edge per round: the last write to a port wins,
        // whether it overrides a broadcast or an earlier directed send.
        #[derive(Debug, Clone)]
        struct Sender;
        impl BatchProtocol for Sender {
            type Message = u8;
            type Output = Vec<u8>;
            fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u8>) {
                if ctx.node == 1 {
                    out.broadcast(1);
                    out.send(0, 8);
                    out.send(0, 9);
                }
            }
            fn round(
                &mut self,
                _: &NodeContext,
                _: u32,
                inbox: &Inbox<'_, u8>,
                _: &mut Outlet<'_, u8>,
            ) -> Control<Vec<u8>> {
                Control::Halt(inbox.iter().map(|(_, &m)| m).collect())
            }
        }
        let g = Graph::path(3); // node 1 has ports 0 -> node 0, 1 -> node 2
        let ids = IdAssignment::sequential(3);
        let run = Executor::local(&g, &ids)
            .run([Sender, Sender, Sender], 3)
            .unwrap();
        assert_eq!(run.outputs[0], vec![9]);
        assert_eq!(run.outputs[2], vec![1]);
        assert_eq!(run.meter.messages, 2);
    }

    #[test]
    fn wrong_node_count_detected() {
        let g = Graph::path(3);
        let ids = IdAssignment::sequential(3);
        let err = Executor::local(&g, &ids)
            .run(flood_protocols(&Graph::path(2), &[], 3), 5)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::WrongNodeCount {
                got: 2,
                expected: 3
            }
        ));
    }

    #[test]
    fn pass_through_fault_plan_equals_fault_free_run() {
        let g = Graph::grid(6, 9);
        let ids = IdAssignment::sequential(g.node_count());
        let plain = Executor::congest(&g, &ids)
            .run(flood_protocols(&g, &[0, 17], 25), 26)
            .unwrap();
        let faulty = Executor::congest(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0, 17], 25), 26, &FaultPlan::new(3))
            .unwrap();
        assert_eq!(faulty.meter, plain.meter);
        assert_eq!(faulty.budget_bits, plain.budget_bits);
        assert_eq!(faulty.into_outputs(), Some(plain.outputs));
    }

    #[test]
    fn crashed_node_stops_flooding_and_is_reported() {
        // A path with the only source at one end: crashing the middle node
        // before it relays partitions the flood.
        let g = Graph::path(5);
        let ids = IdAssignment::sequential(5);
        let plan = FaultPlan::new(0).with_crash_at(2, 1);
        let run = Executor::local(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0], 20), 21, &plan)
            .unwrap();
        assert_eq!(run.crashed_count(), 1);
        assert!(run.outcomes[2].is_crashed());
        assert_eq!(distance(&run.outcomes[1]), Some(Some(1)));
        // Beyond the crash, the distance never arrives.
        assert_eq!(distance(&run.outcomes[3]), Some(None));
        assert_eq!(distance(&run.outcomes[4]), Some(None));
    }

    #[test]
    fn crash_at_round_zero_means_never_started() {
        let g = Graph::path(3);
        let ids = IdAssignment::sequential(3);
        let plan = FaultPlan::new(0).with_crash_at(0, 0);
        let run = Executor::local(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0], 10), 11, &plan)
            .unwrap();
        // The source crashed before its start-round broadcast: nothing floods.
        assert_eq!(run.meter.messages, 0);
        assert!(run.outcomes[0].is_crashed());
        assert_eq!(distance(&run.outcomes[1]), Some(None));
    }

    #[test]
    fn dropped_messages_are_counted_not_delivered() {
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        // Drop everything: the flood from node 0 never reaches node 1.
        let plan = FaultPlan::new(9).with_drop(10_000);
        let run = Executor::local(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0], 6), 7, &plan)
            .unwrap();
        assert_eq!(run.meter.messages, 0);
        assert!(run.meter.dropped > 0);
        assert_eq!(distance(&run.outcomes[1]), Some(None));
    }

    #[test]
    fn delayed_message_arrives_later() {
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        // Delay everything by exactly 1 extra round: distances still
        // propagate, one round later.
        let plan = FaultPlan::new(4).with_delay(10_000, 1);
        let run = Executor::local(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0], 8), 9, &plan)
            .unwrap();
        assert_eq!(distance(&run.outcomes[1]), Some(Some(1)));
        assert!(run.meter.delayed > 0);
    }

    #[test]
    fn faulty_parallel_matches_sequential_across_thread_counts() {
        let g = Graph::grid(7, 9);
        let ids = IdAssignment::sequential(g.node_count());
        let plan = FaultPlan::new(42)
            .with_drop(1_500)
            .with_duplication(1_000)
            .with_delay(2_000, 3)
            .with_crashes(800, 3);
        let seq = Executor::congest(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0, 31], 30), 31, &plan)
            .unwrap();
        for threads in [2, 3, 8, 64] {
            let par = Executor::congest(&g, &ids)
                .run_parallel_with_faults(flood_protocols(&g, &[0, 31], 30), 31, threads, &plan)
                .unwrap();
            assert_eq!(par.meter, seq.meter, "threads={threads}");
            assert_eq!(par.outcomes, seq.outcomes, "threads={threads}");
        }
        // The schedule actually exercised each fault class.
        assert!(seq.meter.dropped > 0 && seq.meter.duplicated > 0 && seq.meter.delayed > 0);
    }

    #[test]
    fn congest_violation_detected() {
        // The hub of a star broadcasts one over-budget message: CONGEST is
        // a per-edge budget, so that is one violation per directed message.
        #[derive(Debug, Clone)]
        struct Fat;
        impl BatchProtocol for Fat {
            type Message = Vec<u64>;
            type Output = ();
            fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, Vec<u64>>) {
                if ctx.node == 0 {
                    out.broadcast(vec![0u64; 100]); // 64 + 6400 bits
                }
            }
            fn round(
                &mut self,
                _: &NodeContext,
                _: u32,
                _: &Inbox<'_, Vec<u64>>,
                _: &mut Outlet<'_, Vec<u64>>,
            ) -> Control<()> {
                Control::Halt(())
            }
        }
        let g = Graph::star(5);
        let ids = IdAssignment::sequential(5);
        let run = Executor::congest(&g, &ids)
            .run([Fat, Fat, Fat, Fat, Fat], 3)
            .unwrap();
        assert_eq!(run.meter.messages, 4);
        assert_eq!(run.meter.congest_violations, 4);
        assert!(!run.congest_clean());
        let run = Executor::local(&g, &ids)
            .run([Fat, Fat, Fat, Fat, Fat], 3)
            .unwrap();
        assert_eq!(run.meter.congest_violations, 0);
        assert!(run.congest_clean());
    }
}
