//! Operator fusion: single-pass execution of element-wise / unit-scale
//! operator chains over presence runs.
//!
//! # What fuses
//!
//! A *fusion group* is a maximal straight-line chain of nodes that all
//! satisfy, per node:
//!
//! * **Unit-scale, same-grid**: exactly one input, and the node's
//!   [`StreamShape`](crate::time::StreamShape) equals its input's shape —
//!   slot `i` of the output window corresponds to slot `i` of the input
//!   window. `Select`, `Where`, `Transform`, `Fir` (the first-class FIR
//!   `pass_filter`), and *sliding* aggregates whose stride equals the
//!   input period all qualify.
//! * **Single-field**: arity 1 in and out. The fused scratch carries one
//!   `f32` column; multi-field selects stay staged.
//! * **Interior exclusivity**: every member except the tail has exactly
//!   one consumer. A multicast fan-out (two consumers of the same node)
//!   or a join reading the node keeps it materialized, because some other
//!   part of the plan needs its `FWindow`.
//!
//! # What breaks a group
//!
//! Anything that changes the time grid or reads more than one stream:
//! tumbling and strided aggregates (a stride above the input period
//! re-grids output to the stride), `AlterPeriod` / resample, `Chop`,
//! `Shift`, joins, `WhereShape` (carries cross-round DTW state against
//! the raw window layout), multi-field selects, and fan-out as above.
//! The chain simply ends at the offending node; fusion never reorders
//! operators.
//!
//! # Execution model
//!
//! Fusion is planned from the graph alone, before any operator exists:
//! [`CompiledQuery::executor_with`](crate::query::CompiledQuery::executor_with)
//! runs [`find_groups`] when [`ExecOptions::fuse`](crate::exec::ExecOptions::fuse)
//! is set and tells each node's factory whether the node is a group
//! member. A member is built as a [`FusedStage`]; nothing is converted
//! afterwards. The executor then places one [`FusedKernel`] over each
//! group's stages at the group's *tail* node. Interior nodes get **no
//! FWindow at all** — the memory plan skips them, which is where the
//! reduced [`planned_bytes`](crate::exec::Executor::planned_bytes)
//! footprint comes from — and the executor skips them in the round loop.
//! The fused kernel reads the group head's input window and writes the
//! tail's window; the intermediate values live in two flat scratch columns
//! that ping-pong between stages, staying cache-resident for the whole
//! chain.
//!
//! `Transform`, `Fir` and `Aggregate` are written only as stages. One that
//! is in no group — every one of them when fusion is off — runs as a
//! one-stage `FusedKernel` over its own node's windows, so the staged plan
//! keeps one window per node and runs the same code as the fused plan.
//! Such a lone stage may re-grid: a tumbling or strided `Aggregate` reads
//! a round of its input grid and writes a round of its output grid. The
//! kernel sizes its scratch for the larger of the two, gives the stage
//! output slices of the output window's length and that window's first
//! sync time, and writes durations at the output period; the stage places
//! its windows on the input grid from the two first sync times. A
//! re-gridding aggregate still ends a chain; it never joins one.
//!
//! Stage inner loops iterate contiguous presence runs as flat slices
//! (`(lo, hi)` ranges from [`BitVec::iter_runs`](
//! crate::bitvec::BitVec::iter_runs)) with no per-slot presence branch
//! inside a run, so the compiler can unroll and autovectorize the dense
//! interiors. They are register-blocked: the FIR stage filters eight
//! output positions at a time with the taps as the outer loop, so the
//! block's partial sums stay in vector registers instead of forming one
//! dependent chain per output, and the aggregate's fold does the same
//! across eight windows per lag. `Select` and `Where` stages are generic
//! over their closures, so the per-slot call inlines instead of going
//! through a `dyn` call.
//!
//! # Lineage and margins
//!
//! Fusion is a pure execution-plan rewrite: the graph, its per-node
//! [`LineageMap`](crate::lineage::LineageMap)s, targeted round skipping
//! ([`round_active`]-style walks), and
//! [`history_margins`](crate::exec::Executor::history_margins) all operate
//! on the *unfused* node list, unchanged. That is sound because every
//! fusible stage is unit-scale — lineage margins compose across a fused
//! group exactly as they composed across the staged chain (lookbacks and
//! lookaheads add), and stage-internal history (FIR taps, sliding carries)
//! is carried in stage state across rounds, never re-read from buffers,
//! exactly as in the staged plan. The executor's skip path
//! forwards `on_skip` to every stage, so gap-driven state resets are
//! byte-identical to staged execution.
//!
//! # Bit-identity
//!
//! Fused execution must be *bit-identical* to staged execution (the
//! differential battery diffs the two, and holds both to naive references
//! for FIR, Transform and sliding aggregates). `Transform`, `Fir` and
//! `Aggregate` have one implementation, so both plans run the same code;
//! the FIR's blocked interior still accumulates each output from `0.0` in
//! ascending tap order, the per-slot sequence, which its unit tests check
//! against the per-slot form it replaced. The aggregate's one flat fold
//! ([`ops::aggregate`](crate::ops::aggregate)) keeps the carried slots
//! directly before the round's in one scratch, so every window is a
//! contiguous slice, and folds fully present windows lag-major over
//! blocks of neighbouring output slots; each slot's `f64` accumulator
//! still takes its values oldest first, the order [`AggKind::fold`]
//! defines, and widening a slot to `f64` once a round rather than once
//! per lag is exact, so neither changes an output bit. Its unit tests
//! hold it to the per-slot tumbling loop it replaced and to a naive
//! window walk. Hand-kept replicas exist only where an operator has a
//! staged kernel as well: `Select` and `Where` stages call the same
//! closure (inlined here, boxed in the kernel) in the same order over
//! present slots. Fast paths are only taken where they provably execute
//! the same floating-point operation sequence.
//!
//! [`round_active`]: crate::exec::Executor
//! [`AggKind::fold`]: crate::ops::aggregate::AggKind::fold

use crate::fwindow::FWindow;
use crate::graph::{Graph, NodeId, OpKind};
use crate::ops::{Kernel, Op};
use crate::time::Tick;

/// One stage's view of the round during fused execution.
///
/// Slot `i` of the input slices corresponds to sync time `base + i *
/// period`, and both have the round's slot count on the input grid. The
/// output slices share that grid and length too, except in a lone stage
/// that re-grids (a tumbling or strided `Aggregate`): there slot 0 sits
/// at `out_base` and they have the output window's length on the output
/// grid, whose period the stage knows. `out_present` arrives
/// pre-cleared; `out_vals` holds stale bytes at slots the stage does not
/// write (the same contract staged kernels have against their output
/// windows — absent slots are garbage).
#[derive(Debug)]
pub struct StageIo<'a> {
    /// Sync time of input slot 0.
    pub base: Tick,
    /// Sync time of output slot 0: `base`, unless the stage re-grids.
    pub out_base: Tick,
    /// Grid period of the input (and of the output, unless the stage
    /// re-grids).
    pub period: Tick,
    /// Input values (including stale bytes at absent slots).
    pub vals: &'a [f32],
    /// Input presence flags.
    pub present: &'a [bool],
    /// Output values to fill.
    pub out_vals: &'a mut [f32],
    /// Output presence to fill (pre-cleared).
    pub out_present: &'a mut [bool],
}

/// One operator of a fused chain: what a fusion group member, or any
/// `Transform`, `Fir` or `Aggregate`, is built as.
pub trait FusedStage: Send {
    /// Processes one round: reads `io.vals`/`io.present`, fills
    /// `io.out_vals`/`io.out_present`. Must not allocate.
    fn apply(&mut self, io: StageIo<'_>);

    /// Skipped-round notification; mirrors [`Kernel::on_skip`].
    fn on_skip(&mut self) {}

    /// Full state reset; mirrors [`Kernel::reset`].
    fn reset(&mut self) {}

    /// True when the stage rewrites event durations to the grid period
    /// (transforms, aggregates, FIR); false for pass-through stages
    /// (select, where). Decides how the fused kernel writes the tail
    /// window's durations.
    fn resets_durations(&self) -> bool {
        false
    }

    /// True when the stage's output grid is not its input's (a tumbling
    /// or strided `Aggregate`); only a lone stage may re-grid.
    fn regrids(&self) -> bool {
        false
    }
}

/// Calls `f(lo, hi)` for each maximal run of `true` flags — the stage-side
/// counterpart of [`BitVec::iter_runs`](crate::bitvec::BitVec::iter_runs).
#[inline]
pub fn for_each_run(flags: &[bool], mut f: impl FnMut(usize, usize)) {
    let mut i = 0usize;
    while i < flags.len() {
        if !flags[i] {
            i += 1;
            continue;
        }
        let lo = i;
        while i < flags.len() && flags[i] {
            i += 1;
        }
        f(lo, i);
    }
}

/// A fusion group: the member node ids of one fused chain, in topological
/// (head-to-tail) order. `members.last()` is the tail whose window stays
/// materialized; all earlier members lose their windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Chain members, head first.
    pub members: Vec<NodeId>,
}

impl FusionGroup {
    /// The node whose window receives the fused output.
    pub fn tail(&self) -> NodeId {
        *self.members.last().expect("groups have >= 2 members")
    }

    /// The node the fused kernel reads: the head member's single input.
    pub fn input(&self, graph: &Graph) -> NodeId {
        graph.nodes[self.members[0]].inputs[0]
    }
}

/// Is `id` fusible as a chain stage, purely by graph shape?
fn eligible(graph: &Graph, id: NodeId) -> bool {
    let n = &graph.nodes[id];
    if n.inputs.len() != 1 || n.arity != 1 {
        return false;
    }
    let input = &graph.nodes[n.inputs[0]];
    if input.arity != 1 || n.shape != input.shape {
        return false;
    }
    match n.kind {
        OpKind::Select | OpKind::Where | OpKind::Transform { .. } | OpKind::Fir { .. } => true,
        // Sliding aggregates are unit-scale only when the output grid is
        // the input grid; tumbling windows (w == stride) re-grid.
        OpKind::Aggregate { window, stride } => window > stride && stride == input.shape.period(),
        _ => false,
    }
}

/// Finds all fusion groups in `graph` (see module docs for the rules).
/// Pure analysis of the graph, run before any operator is built; the
/// groups are also the introspection surface tests use to assert what
/// fused.
pub fn find_groups(graph: &Graph) -> Vec<FusionGroup> {
    let consumers = graph.consumers();
    let mut grouped = vec![false; graph.nodes.len()];
    let mut groups = Vec::new();
    for id in 0..graph.nodes.len() {
        if grouped[id] || !eligible(graph, id) {
            continue;
        }
        let mut members = vec![id];
        let mut tail = id;
        loop {
            // Extend only through exclusive edges: a second consumer
            // (multicast alias, join, second sink) pins `tail`'s window.
            let cons = &consumers[tail];
            if cons.len() != 1 {
                break;
            }
            let next = cons[0];
            if grouped[next] || !eligible(graph, next) || graph.nodes[next].inputs != [tail] {
                break;
            }
            members.push(next);
            tail = next;
        }
        if members.len() >= 2 {
            for &m in &members {
                grouped[m] = true;
            }
            groups.push(FusionGroup { members });
        }
    }
    groups
}

/// Per-node execution role after fusion planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Runs its own kernel against its own window (or is a source/sink).
    Normal,
    /// Interior member of a fused group: no window, no kernel invocation.
    FusedInterior,
    /// Tail of a fused group: runs the group's [`FusedKernel`], reading
    /// the window of node `input` (the group head's producer).
    FusedTail {
        /// The materialized window the fused kernel reads.
        input: NodeId,
    },
}

/// The fusion plan for one executor: groups plus per-node roles.
#[derive(Debug)]
pub struct FusionPlan {
    /// All fused chains, in discovery (topological) order.
    pub groups: Vec<FusionGroup>,
    /// Role of every node, indexed by [`NodeId`].
    pub roles: Vec<Role>,
}

impl FusionPlan {
    /// The plan of `groups` over `graph`: a group's tail runs its
    /// [`FusedKernel`], its other members are interiors, and every other
    /// node is [`Role::Normal`].
    pub(crate) fn new(graph: &Graph, groups: Vec<FusionGroup>) -> Self {
        let mut roles = vec![Role::Normal; graph.nodes.len()];
        for group in &groups {
            for &m in &group.members {
                roles[m] = Role::FusedInterior;
            }
            roles[group.tail()] = Role::FusedTail {
                input: group.input(graph),
            };
        }
        Self { groups, roles }
    }

    /// The executor's kernels from the built operators: each group's
    /// stages, head first, become one [`FusedKernel`] at the group's tail
    /// (its interior slots stay `None`), and a stage in no group — a
    /// `Transform`, `Fir` or `Aggregate` — becomes a one-stage
    /// `FusedKernel` over its own node's windows.
    pub(crate) fn kernels(
        &self,
        graph: &Graph,
        mut ops: Vec<Option<Op>>,
    ) -> Vec<Option<Box<dyn Kernel>>> {
        let mut kernels: Vec<Option<Box<dyn Kernel>>> = (0..ops.len()).map(|_| None).collect();
        // Scratch for a round of the node's grid and of its input's: the
        // two differ only for a lone stage that re-grids.
        let fused = |stages, node: NodeId| -> Box<dyn Kernel> {
            let n = &graph.nodes[node];
            let capacity = n.capacity().max(graph.nodes[n.inputs[0]].capacity());
            Box::new(FusedKernel::new(stages, capacity))
        };
        for group in &self.groups {
            let stages = (group.members.iter())
                .map(|&m| match ops[m].take() {
                    Some(Op::Stage(stage)) => stage,
                    _ => unreachable!("a fusion group member is built as a stage"),
                })
                .collect();
            kernels[group.tail()] = Some(fused(stages, group.tail()));
        }
        for (id, op) in ops.into_iter().enumerate() {
            if let Some(op) = op {
                kernels[id] = Some(match op {
                    Op::Kernel(kernel) => kernel,
                    Op::Stage(stage) => fused(vec![stage], id),
                });
            }
        }
        kernels
    }
}

/// A fused chain as one [`Kernel`] — a group's stages, or a lone
/// `Transform`, `Fir` or `Aggregate` stage: reads the head's input
/// window, runs every stage over flat scratch columns, writes the tail
/// window. All scratch is sized at construction — `process` never
/// allocates, preserving the static-memory guarantee.
pub struct FusedKernel {
    stages: Vec<Box<dyn FusedStage>>,
    /// Ping-pong scratch: stages read `a` (the first stage the input
    /// window's values), write `b`, then the pair swaps.
    a_vals: Vec<f32>,
    a_flags: Vec<bool>,
    b_vals: Vec<f32>,
    b_flags: Vec<bool>,
    /// True when no stage resets durations: the tail copies the input
    /// window's per-slot durations through.
    pass_through_durations: bool,
}

impl FusedKernel {
    /// Builds a fused kernel over `stages` with scratch for `capacity`
    /// slots per round, on the input grid and on the output grid.
    ///
    /// # Panics
    /// Panics when `stages` is empty.
    pub fn new(stages: Vec<Box<dyn FusedStage>>, capacity: usize) -> Self {
        assert!(!stages.is_empty(), "a fused kernel runs at least one stage");
        let pass_through = stages.iter().all(|s| !s.resets_durations());
        Self {
            stages,
            a_vals: vec![0.0; capacity],
            a_flags: vec![false; capacity],
            b_vals: vec![0.0; capacity],
            b_flags: vec![false; capacity],
            pass_through_durations: pass_through,
        }
    }
}

impl Kernel for FusedKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        let (len, out_len) = (input.len(), out.len());
        // A fusion group keeps one grid; only a lone stage may re-grid.
        debug_assert!(len == out_len || (self.stages.len() == 1 && self.stages[0].regrids()));
        if len == 0 {
            return;
        }
        let base = input.slot_time(0);
        let period = input.shape().period();

        // Unpack input presence into the flags of scratch `a`, run-wise;
        // the first stage reads the input's values in place. Every stage
        // writes its input's grid but the last, which writes the output
        // window's: only a lone stage re-grids.
        input.presence().unpack_into(&mut self.a_flags);
        let last = self.stages.len() - 1;
        for (i, stage) in self.stages.iter_mut().enumerate() {
            let vals = if i == 0 { input.field(0) } else { &self.a_vals };
            let (n, out_base) = if i == last {
                (out_len, out.slot_time(0))
            } else {
                (len, base)
            };
            self.b_flags[..n].fill(false);
            stage.apply(StageIo {
                base,
                out_base,
                period,
                vals: &vals[..len],
                present: &self.a_flags[..len],
                out_vals: &mut self.b_vals[..n],
                out_present: &mut self.b_flags[..n],
            });
            std::mem::swap(&mut self.a_vals, &mut self.b_vals);
            std::mem::swap(&mut self.a_flags, &mut self.b_flags);
        }

        // Bulk-write surviving runs into the tail window.
        for_each_run(&self.a_flags[..out_len], |lo, hi| {
            if self.pass_through_durations {
                out.fill_from_slice_with_durations(
                    lo,
                    &self.a_vals[lo..hi],
                    &input.durations()[lo..hi],
                );
            } else {
                out.fill_from_slice(lo, &self.a_vals[lo..hi], out.shape().period());
            }
        });
    }

    fn on_skip(&mut self) {
        for s in &mut self.stages {
            s.on_skip();
        }
    }

    fn reset(&mut self) {
        for s in &mut self.stages {
            s.reset();
        }
    }
}

impl std::fmt::Debug for FusedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedKernel")
            .field("stages", &self.stages.len())
            .field("pass_through_durations", &self.pass_through_durations)
            .finish()
    }
}
