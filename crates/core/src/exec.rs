//! The executor: lock-step rounds, targeted query processing, and the
//! static-memory steady state.
//!
//! After locality tracing every FWindow in the plan shares one dimension
//! `D`; execution proceeds in *rounds*, sliding every window to the same
//! absolute interval `[r·D, (r+1)·D)` and invoking the kernels in
//! topological order. Intermediate results are therefore consumed
//! immediately, while still cache-resident — the end-to-end locality the
//! paper's locality tracing is designed to produce.
//!
//! **Targeted query processing** (§5.3): before running a round, the
//! executor maps the candidate output interval backward through the event
//! lineage to the source streams and asks their presence maps whether this
//! round can produce output at all (inner joins require *both* sides).
//! Rounds that cannot are skipped wholesale — on gap-riddled physiological
//! data this prunes the bulk of the compute-heavy transformations.
//!
//! **Operator fusion** ([`fuse`](crate::fuse)): before any operator is
//! built, maximal chains of unit-scale single-consumer operators (select /
//! where / transform / FIR / sliding aggregates on the input grid) are
//! planned from the graph; their members are built as stages and run as
//! one [`FusedKernel`](crate::fuse::FusedKernel) placed at the chain's
//! tail. Interior nodes lose their FWindows (the memory plan skips them, so
//! [`planned_bytes`](Executor::planned_bytes) shrinks) and are skipped by
//! the round loop; intermediates live in two flat scratch columns that stay
//! cache-resident across the whole chain. Fusion is a pure execution-plan
//! rewrite — the graph, lineage maps, targeted skipping, and
//! [`history_margins`](Executor::history_margins) are untouched, and fused
//! output is bit-identical to staged output (see the [`fuse`](crate::fuse)
//! module docs for the eligibility rules and what breaks a group).
//! [`ExecOptions::without_fusion`] disables the pass for A/B comparison.
//!
//! **Output is periodic too.** An FWindow stores no sync time because slot
//! `i` sits at `base + i·period`; [`OutputCollector`] keeps that argument
//! to the end of the pipeline. It stores the payload columns flat (4 bytes
//! per event and field) and, in place of one time and one duration per
//! event, a list of [`Run`]s `{t0, period, duration, n}`:
//! [`absorb`](OutputCollector::absorb) copies each presence run of a sink
//! window as one slice per field and extends the last run when the time,
//! the period and the duration all continue — a dense output of any length
//! is one run. A run ends at a gap, at a change of grid, and where the
//! per-slot durations change (`Chop`, `AlterDuration`, chains that pass
//! input durations through). The list is a function of the event sequence
//! alone: `absorb`, [`push`](OutputCollector::push), the wire decoder and
//! [`clipped`](OutputCollector::clipped) all reduce to one per-event rule,
//! so equal outputs have equal runs however they were built. Reads go
//! through [`runs`](OutputCollector::runs) and
//! [`iter_times`](OutputCollector::iter_times);
//! [`times`](OutputCollector::times) and
//! [`durations`](OutputCollector::durations) are derived conveniences that
//! allocate and fill a `Vec<Tick>` (8 bytes per event) on every call.

use crate::error::{Error, Result};
use crate::fuse::{FusionGroup, FusionPlan, Role};
use crate::fwindow::FWindow;
use crate::graph::{Graph, JoinKindTag, NodeId, OpKind};
use crate::memory::MemoryPlan;
use crate::ops::{Kernel, Op};
use crate::source::SignalData;
use crate::stats::RunStats;
use crate::time::Tick;

/// Executor knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Enable targeted query processing (round skipping). Default true.
    pub targeted: bool,
    /// Preallocate all FWindows once (the static-memory-allocation
    /// optimization). When false, every round allocates fresh buffers —
    /// the dynamic-allocation behaviour of conventional engines, kept for
    /// the ablation benchmark. Default true.
    pub static_memory: bool,
    /// Processing window (round) length in ticks; rounded up to a multiple
    /// of the traced dimension. The paper's evaluation default is one
    /// minute (60 000 ticks). `None` uses the minimal traced dimension.
    pub round_ticks: Option<Tick>,
    /// Fuse chains of unit-scale operators into single-pass kernels (see
    /// [`fuse`](crate::fuse)). When false (staged execution) each node
    /// keeps its own window: `Transform` and `Fir` run as one stage each,
    /// every other operator as its own kernel. Output is bit-identical
    /// either way; staged execution is kept for A/B comparison and
    /// benchmarks. Default true.
    pub fuse: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            targeted: true,
            static_memory: true,
            round_ticks: None,
            fuse: true,
        }
    }
}

impl ExecOptions {
    /// Sets the processing window length in ticks.
    pub fn with_round_ticks(mut self, t: Tick) -> Self {
        self.round_ticks = Some(t);
        self
    }

    /// Disables static memory (per-round allocation; ablation mode).
    pub fn with_dynamic_memory(mut self) -> Self {
        self.static_memory = false;
        self
    }

    /// Disables targeted query processing.
    pub fn without_targeting(mut self) -> Self {
        self.targeted = false;
        self
    }

    /// Disables operator fusion (every node keeps its own window — the
    /// staged execution model).
    pub fn without_fusion(mut self) -> Self {
        self.fuse = false;
        self
    }
}

/// A maximal stretch of collected events on one grid: event `i` of the run
/// sits at `t0 + i * period` and lasts `duration` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Sync time of the run's first event.
    pub t0: Tick,
    /// Distance between consecutive events; 0 while the run holds a
    /// single event (its grid is not known yet).
    pub period: Tick,
    /// Duration shared by every event of the run.
    pub duration: Tick,
    /// Number of events.
    pub n: usize,
}

impl Run {
    /// Sync time of event `i`. Wrapping, like the rule that builds runs: a
    /// harness or a peer may `push` any `i64`, and modulo 2^64 the run
    /// form still gives back exactly what was pushed.
    fn time(&self, i: usize) -> Tick {
        self.t0.wrapping_add((i as Tick).wrapping_mul(self.period))
    }

    /// Sync times of the run's events, in order.
    pub fn times(&self) -> impl Iterator<Item = Tick> {
        let run = *self;
        (0..run.n).map(move |i| run.time(i))
    }

    /// True when the times ascend without wrapping, so a time range
    /// selects one index range.
    fn ascends(&self) -> bool {
        let last = (self.n as Tick - 1)
            .checked_mul(self.period)
            .and_then(|span| self.t0.checked_add(span));
        self.n == 1 || (self.period > 0 && last.is_some())
    }

    /// The events `lo..hi` of an ascending run whose sync time lies in
    /// `[t0, t1)`.
    fn index_range(&self, t0: Tick, t1: Tick) -> (usize, usize) {
        let p = self.period.max(1);
        let first_at_or_after = |t: Tick| {
            let steps = t
                .saturating_sub(self.t0)
                .saturating_add(p - 1)
                .div_euclid(p);
            steps.clamp(0, self.n as Tick) as usize
        };
        (first_at_or_after(t0), first_at_or_after(t1))
    }
}

/// Collects sink output: payload columns plus a run list for the times
/// (see the module docs, "Output is periodic too").
#[derive(Debug, Clone, Default)]
pub struct OutputCollector {
    arity: usize,
    len: usize,
    runs: Vec<Run>,
    fields: Vec<Vec<f32>>,
}

impl OutputCollector {
    /// Creates a collector for `arity`-wide events.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            runs: Vec::new(),
            fields: vec![Vec::new(); arity],
        }
    }

    /// Absorbs every present event of a window: one slice copy per field
    /// and presence run, and one run-list update per stretch of equal
    /// durations inside it.
    pub fn absorb(&mut self, w: &FWindow) {
        debug_assert_eq!(w.arity(), self.arity);
        let period = w.shape().period();
        let durations = w.durations();
        for (lo, hi) in w.presence().iter_runs() {
            for (f, col) in self.fields.iter_mut().enumerate() {
                col.extend_from_slice(&w.field(f)[lo..hi]);
            }
            let mut s = lo;
            while s < hi {
                let d = durations[s];
                let same = durations[s..hi].iter().take_while(|&&x| x == d).count();
                self.push_stretch(w.slot_time(s), period, d, same);
                s += same;
            }
        }
    }

    /// Records one event's time and duration: it continues the last run
    /// when the duration matches and the time is the run's next grid point
    /// (a single-event run takes its period from the event that follows
    /// it), and opens a new run otherwise. Every way of adding events
    /// reduces to this rule, so the run list depends on the event sequence
    /// alone.
    fn push_time(&mut self, t: Tick, d: Tick) {
        self.len += 1;
        if let Some(r) = self.runs.last_mut() {
            if r.duration == d {
                if r.n == 1 {
                    r.period = t.wrapping_sub(r.t0);
                    r.n = 2;
                    return;
                }
                if t == r.time(r.n) {
                    r.n += 1;
                    return;
                }
            }
        }
        self.runs.push(Run {
            t0: t,
            period: 0,
            duration: d,
            n: 1,
        });
    }

    /// Records `n` events `t, t + period, ..` of duration `d`. The first
    /// three go through [`push_time`](Self::push_time); by then the last
    /// run holds the two latest events, so its period is `period` and the
    /// rest extend it — the same list as `n` single pushes.
    fn push_stretch(&mut self, t: Tick, period: Tick, d: Tick, n: usize) {
        let head = n.min(3);
        for i in 0..head {
            self.push_time(t + i as Tick * period, d);
        }
        if n > head {
            self.runs.last_mut().expect("pushed above").n += n - head;
            self.len += n - head;
        }
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The run list: the collected events' times and durations, in order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Sync times of the collected events, computed from the runs.
    pub fn iter_times(&self) -> impl Iterator<Item = Tick> + '_ {
        self.runs.iter().flat_map(Run::times)
    }

    /// Sync times of the collected events, materialised (8 bytes per event
    /// on every call — loops want [`iter_times`](Self::iter_times)).
    pub fn times(&self) -> Vec<Tick> {
        self.iter_times().collect()
    }

    /// Durations of the collected events, materialised per call.
    pub fn durations(&self) -> Vec<Tick> {
        self.runs
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.duration, r.n))
            .collect()
    }

    /// Values of field `f` across all collected events.
    pub fn values(&self, f: usize) -> &[f32] {
        &self.fields[f]
    }

    /// Payload arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Appends one event directly (time, duration, payload fields).
    ///
    /// Lets harnesses build a collector from events that did not come out
    /// of a LifeStream sink — e.g. a baseline engine's collected output —
    /// so [`checksum`](Self::checksum) can compare engines uniformly.
    ///
    /// # Panics
    /// Panics when `values.len()` differs from the collector's arity.
    pub fn push(&mut self, t: Tick, d: Tick, values: &[f32]) {
        assert_eq!(values.len(), self.arity, "payload arity mismatch");
        self.push_time(t, d);
        for (f, &v) in values.iter().enumerate() {
            self.fields[f].push(v);
        }
    }

    /// A copy restricted to events whose sync time lies in `[t0, t1)`,
    /// preserving order — the output-side counterpart of
    /// [`SignalData::clipped`](crate::source::SignalData::clipped) for
    /// range-bounded retrospective queries: run the pipeline over a
    /// margin-padded input window, then clip the collected output to the
    /// requested range. Runs are trimmed by index arithmetic and their
    /// values copied as slices.
    pub fn clipped(&self, t0: Tick, t1: Tick) -> Self {
        let mut out = Self::new(self.arity);
        let mut at = 0usize;
        for r in &self.runs {
            if r.ascends() {
                let (lo, hi) = r.index_range(t0, t1);
                if lo < hi {
                    out.push_stretch(r.time(lo), r.period, r.duration, hi - lo);
                    out.copy_values(self, at + lo, at + hi);
                }
            } else {
                // Times that do not ascend only come from `push`.
                for (i, t) in r.times().enumerate() {
                    if t >= t0 && t < t1 {
                        out.push_time(t, r.duration);
                        out.copy_values(self, at + i, at + i + 1);
                    }
                }
            }
            at += r.n;
        }
        out
    }

    fn copy_values(&mut self, from: &Self, lo: usize, hi: usize) {
        for (dst, src) in self.fields.iter_mut().zip(&from.fields) {
            dst.extend_from_slice(&src[lo..hi]);
        }
    }

    /// Order-sensitive checksum over times and values — used by tests to
    /// compare targeted and untargeted runs bit-for-bit.
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        let mut at = 0usize;
        for r in &self.runs {
            for (i, t) in r.times().enumerate() {
                mix(t as u64);
                for col in &self.fields {
                    mix(col[at + i].to_bits() as u64);
                }
            }
            at += r.n;
        }
        h
    }
}

/// Executes a compiled query over a set of source datasets.
pub struct Executor {
    graph: Graph,
    kernels: Vec<Option<Box<dyn Kernel>>>,
    windows: Vec<Option<FWindow>>,
    sources: Vec<SignalData>,
    opts: ExecOptions,
    fusion: FusionPlan,
    round_dim: Tick,
    start: Tick,
    end: Tick,
    plan_bytes: usize,
}

impl Executor {
    /// Builds the executor over `ops`, each node's built operator, with
    /// the fusion `groups` they were built for.
    pub(crate) fn new(
        graph: Graph,
        ops: Vec<Option<Op>>,
        groups: Vec<FusionGroup>,
        sources: Vec<SignalData>,
        opts: ExecOptions,
        round_dim: Tick,
    ) -> Result<Self> {
        if round_dim <= 0 {
            return Err(Error::InvalidParameter {
                message: "round dimension must be positive".into(),
            });
        }
        let fusion = FusionPlan::new(&graph, groups);
        let kernels = fusion.kernels(&graph, ops);
        // Fused interiors need no FWindow — the whole point of fusion's
        // footprint reduction — so the memory plan skips them.
        let skip: Vec<bool> = fusion
            .roles
            .iter()
            .map(|r| matches!(r, Role::FusedInterior))
            .collect();
        let plan = MemoryPlan::allocate_skipping(&graph, &skip);
        let plan_bytes = plan.total_bytes();
        let (start, end) = span_of(&sources, round_dim);
        Ok(Self {
            graph,
            kernels,
            windows: plan.windows,
            sources,
            opts,
            fusion,
            round_dim,
            start,
            end,
            plan_bytes,
        })
    }

    /// The fused chains of this plan (empty when fusion is disabled or
    /// nothing qualified). Introspection for tests and diagnostics.
    pub fn fusion_groups(&self) -> &[FusionGroup] {
        &self.fusion.groups
    }

    /// The round (processing window) length in ticks.
    pub fn round_dim(&self) -> Tick {
        self.round_dim
    }

    /// Total preallocated intermediate-buffer bytes (the static memory
    /// plan's footprint).
    pub fn planned_bytes(&self) -> usize {
        self.plan_bytes
    }

    /// The traced computation graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Runs the query, discarding output payloads (events are counted in
    /// the returned stats).
    ///
    /// # Errors
    /// Propagates execution errors (none in the current kernel set, kept
    /// for forward compatibility).
    pub fn run(&mut self) -> Result<RunStats> {
        self.run_with(|_| {})
    }

    /// Runs the query, collecting the single sink's output.
    ///
    /// # Errors
    /// Returns an error when the query has more than one sink.
    pub fn run_collect(&mut self) -> Result<OutputCollector> {
        if self.graph.sinks.len() != 1 {
            return Err(Error::InvalidParameter {
                message: format!(
                    "run_collect requires exactly one sink, query has {}",
                    self.graph.sinks.len()
                ),
            });
        }
        let sink = self.graph.sinks[0];
        let arity = self.graph.nodes[sink].arity;
        let mut collector = OutputCollector::new(arity);
        self.run_with(|w| collector.absorb(w))?;
        Ok(collector)
    }

    /// Runs the query, invoking `on_output` with each sink's input window
    /// after every executed round.
    ///
    /// # Errors
    /// Propagates execution errors.
    pub fn run_with<F: FnMut(&FWindow)>(&mut self, mut on_output: F) -> Result<RunStats> {
        // Drain margin: lineage lookahead (aggregates) means a round can
        // need source data slightly past `end`, and trailing windows emit
        // past it; shift spill means pending events can flush after the
        // last data round.
        let hard_end = self.end + self.drain_ticks();
        let mut stats = self.run_span(self.start, hard_end, &mut on_output)?;
        // Spill drain: keep running while stateful kernels hold pending
        // events (bounded by a safety margin).
        let mut a = hard_end.max(self.start);
        let drain_bound = hard_end + 64 * self.round_dim;
        while self.any_pending() && a < drain_bound {
            let s = self.run_span(a, a + self.round_dim, &mut on_output)?;
            stats.merge(&s);
            a += self.round_dim;
        }
        Ok(stats)
    }

    /// How far past the data's end a run still executes rounds: one
    /// round, or the plan's reach back from a sink
    /// ([`history_margins`](Self::history_margins)) when that is longer —
    /// a sliding window wider than a round still sees the data in the
    /// rounds after it — so the events a run emits do not depend on the
    /// round's length. An unbounded margin (non-unit-scale lineage) keeps
    /// the one round.
    pub(crate) fn drain_ticks(&self) -> Tick {
        let margins = self.history_margins().into_iter();
        let reach = margins.filter(|&m| m < UNBOUNDED_MARGIN).max();
        reach.unwrap_or(0).max(self.round_dim)
    }

    /// Runs the rounds covering `[from, to)` (both aligned to the round
    /// grid), invoking `on_output` per executed round. Used by both
    /// retrospective runs and the live session's incremental polls;
    /// kernel state carries across calls.
    ///
    /// # Errors
    /// Propagates execution errors.
    pub fn run_span<F: FnMut(&FWindow)>(
        &mut self,
        from: Tick,
        to: Tick,
        on_output: &mut F,
    ) -> Result<RunStats> {
        let mut stats = RunStats::new();
        let mut a = from.div_euclid(self.round_dim) * self.round_dim;
        while a < to {
            let b = a + self.round_dim;
            let pending = self.any_pending();
            if self.opts.targeted && !pending && !self.round_active(a, b) {
                stats.windows_skipped += 1;
                for k in self.kernels.iter_mut().flatten() {
                    k.on_skip();
                }
                a = b;
                continue;
            }
            if !self.opts.static_memory {
                // Ablation mode: conventional per-round allocation. Fused
                // interiors have no window in either mode.
                for n in &self.graph.nodes {
                    if !matches!(n.kind, OpKind::Sink)
                        && !matches!(self.fusion.roles[n.id], Role::FusedInterior)
                    {
                        self.windows[n.id] = Some(FWindow::new(n.shape, n.dim, n.arity));
                        stats.steady_state_allocs += 1;
                    }
                }
            }
            self.execute_round(a, b, &mut stats, on_output);
            stats.windows_executed += 1;
            a = b;
        }
        Ok(stats)
    }

    /// Swaps the source datasets. Shapes must match the originals.
    ///
    /// Two callers rely on this: the live session grows its sources
    /// between polls, and pooled executors (the sharded runtime) are
    /// recycled across patients so locality tracing, memory planning, and
    /// static allocation happen once per pool slot instead of once per
    /// dataset. The run span is recomputed from the new presence maps.
    ///
    /// # Errors
    /// Returns a descriptive error — never panics — on a source-count or
    /// per-source shape mismatch; the executor is left untouched so the
    /// caller can retry with corrected inputs.
    pub fn replace_sources(&mut self, sources: Vec<SignalData>) -> Result<()> {
        if sources.len() != self.sources.len() {
            return Err(Error::SourceCountMismatch {
                expected: self.sources.len(),
                actual: sources.len(),
            });
        }
        for (slot, (old, new)) in self.sources.iter().zip(&sources).enumerate() {
            if old.shape() != new.shape() {
                // Name lookup only on the error path — recycle calls this
                // per patient and must not pay for it on success.
                let name = self.graph.source_ids().get(slot).map_or_else(
                    || format!("source {slot}"),
                    |&id| self.graph.nodes[id].name.clone(),
                );
                return Err(Error::SourceShapeMismatch {
                    name,
                    declared: old.shape(),
                    supplied: new.shape(),
                });
            }
        }
        (self.start, self.end) = span_of(&sources, self.round_dim);
        self.sources = sources;
        Ok(())
    }

    /// Releases the executor's hold on the current source datasets,
    /// swapping in empty same-shape placeholders. Incremental callers
    /// (live sessions) hand in a fresh `Arc`-shared snapshot via
    /// [`replace_sources`](Self::replace_sources) before every span and
    /// compact their buffers between spans; releasing here makes the
    /// session's buffer the *unique* owner again, so compaction and
    /// appends mutate in place instead of paying a copy-on-write clone
    /// against the executor's stale reference.
    pub fn release_sources(&mut self) {
        for s in &mut self.sources {
            *s = SignalData::dense(s.shape(), Vec::new());
        }
        self.start = 0;
        self.end = 0;
    }

    /// Clears every kernel's carried state, returning the executor to the
    /// condition it was in right after construction. Preallocated windows
    /// and the memory plan are kept — that is the point: a pool can hand
    /// the same executor a new patient without re-tracing or reallocating.
    pub fn reset(&mut self) {
        for k in self.kernels.iter_mut().flatten() {
            k.reset();
        }
    }

    /// Recycles the executor for a fresh, unrelated dataset:
    /// [`reset`](Self::reset) + [`replace_sources`](Self::replace_sources).
    /// This is the hot path of the sharded runtime's executor pools —
    /// per-patient cost is a state wipe and a span recomputation, not a
    /// compile.
    ///
    /// # Errors
    /// Propagates [`replace_sources`](Self::replace_sources) errors; the
    /// kernel reset still happens, so a failed recycle leaves the executor
    /// clean for the next attempt.
    pub fn recycle(&mut self, sources: Vec<SignalData>) -> Result<()> {
        self.reset();
        self.replace_sources(sources)
    }

    /// Payload arity of the single sink.
    ///
    /// # Errors
    /// Returns an error when the query has more than one sink.
    pub fn sink_arity(&self) -> Result<usize> {
        if self.graph.sinks.len() != 1 {
            return Err(Error::InvalidParameter {
                message: format!("query has {} sinks", self.graph.sinks.len()),
            });
        }
        Ok(self.graph.nodes[self.graph.sinks[0]].arity)
    }

    /// True while any stateful kernel holds events that must flush into a
    /// future round (live sessions drain on this).
    pub fn has_pending(&self) -> bool {
        self.any_pending()
    }

    fn any_pending(&self) -> bool {
        self.kernels.iter().flatten().any(|k| k.has_pending())
    }

    fn execute_round<F: FnMut(&FWindow)>(
        &mut self,
        a: Tick,
        b: Tick,
        stats: &mut RunStats,
        on_output: &mut F,
    ) {
        for id in 0..self.graph.nodes.len() {
            match self.graph.nodes[id].kind {
                OpKind::Source { index } => {
                    let w = self.windows[id].as_mut().expect("source window");
                    w.slide_to(a);
                    stats.input_events += fill_source(w, &self.sources[index], b) as u64;
                }
                OpKind::Sink => {
                    let input = self.graph.nodes[id].inputs[0];
                    let w = self.windows[input].as_ref().expect("sink input window");
                    stats.output_events += w.present_count() as u64;
                    on_output(w);
                }
                _ => {
                    // Fused interiors have no window and no kernel; the
                    // group's FusedKernel runs at the tail node, reading
                    // the group head's producer window directly.
                    let fused_input = match self.fusion.roles[id] {
                        Role::FusedInterior => continue,
                        Role::FusedTail { input } => Some(input),
                        Role::Normal => None,
                    };
                    let (before, after) = self.windows.split_at_mut(id);
                    let out = after[0].as_mut().expect("operator window");
                    out.slide_to(a);
                    let node = &self.graph.nodes[id];
                    let kernel = self.kernels[id].as_mut().expect("operator kernel");
                    stats.kernel_invocations += 1;
                    match (fused_input, node.inputs.len()) {
                        (Some(inp), _) => {
                            let i0 = before[inp].as_ref().expect("fused input window");
                            kernel.process(&[i0], out);
                        }
                        (None, 1) => {
                            let i0 = before[node.inputs[0]].as_ref().expect("input window");
                            kernel.process(&[i0], out);
                        }
                        (None, 2) => {
                            let i0 = before[node.inputs[0]].as_ref().expect("input window");
                            let i1 = before[node.inputs[1]].as_ref().expect("input window");
                            kernel.process(&[i0, i1], out);
                        }
                        (None, n) => unreachable!("operators take 1 or 2 inputs, got {n}"),
                    }
                }
            }
        }
    }

    /// Targeted query processing: can the round `[a, b)` produce output at
    /// any sink? Walks the lineage backward to the source presence maps.
    ///
    /// A round is also kept alive when data arrives at a `Shift` operator's
    /// input: the shifted events belong to a *future* round, so the current
    /// one must run to absorb them into the spill queue even though no sink
    /// output is due yet.
    fn round_active(&self, a: Tick, b: Tick) -> bool {
        if self.graph.sinks.iter().any(|&s| self.node_active(s, a, b)) {
            return true;
        }
        self.graph
            .nodes
            .iter()
            .any(|n| matches!(n.kind, OpKind::Shift { .. }) && self.node_active(n.inputs[0], a, b))
    }

    /// Per-source retirement margins for incremental (live) execution.
    ///
    /// For source `i`, the returned margin is the number of ticks *below*
    /// a round's start tick that deciding or filling any round at-or-after
    /// that start can still consult; source data older than
    /// `round_start - margin` is dead history a live session may retire.
    ///
    /// The margin is derived from the same composed lineage maps targeted
    /// processing walks: shifts carry their input lookback down to the
    /// sources, while window lookaheads only ever look *forward*.
    /// Kernel-internal history (FIR taps, shift spill, sliding-aggregate
    /// carries) is carried in kernel state across rounds, never re-read from
    /// source buffers, so it contributes nothing here. Margins are rounded
    /// up to whole source periods; a non-unit-scale lineage map (possible
    /// only through the generic [`LineageMap::scaled`] constructor, which
    /// no built-in operator uses) makes the margin effectively unbounded,
    /// disabling compaction rather than risking it.
    ///
    /// [`LineageMap::scaled`]: crate::lineage::LineageMap::scaled
    pub fn history_margins(&self) -> Vec<Tick> {
        const UNBOUNDED: Tick = -UNBOUNDED_MARGIN;
        let mut node_lows: Vec<Option<Tick>> = vec![None; self.graph.nodes.len()];
        // Mirror round_active's roots: every sink, plus every Shift input
        // (rounds stay alive to absorb shifted events into the spill).
        for &s in &self.graph.sinks {
            self.min_source_lows(s, 0, &mut node_lows, UNBOUNDED);
        }
        for n in &self.graph.nodes {
            if matches!(n.kind, OpKind::Shift { .. }) {
                self.min_source_lows(n.inputs[0], 0, &mut node_lows, UNBOUNDED);
            }
        }
        let mut lows: Vec<Tick> = vec![0; self.sources.len()];
        for n in &self.graph.nodes {
            if let OpKind::Source { index } = n.kind {
                lows[index] = node_lows[n.id].unwrap_or(0).min(0);
            }
        }
        lows.iter()
            .zip(&self.sources)
            .map(|(&lo, src)| {
                let p = src.shape().period();
                // Signed div_ceil is unstable; operands are non-negative.
                ((-lo).max(0) + p - 1) / p * p
            })
            .collect()
    }

    /// Per-source *forward* margins — the mirror of
    /// [`history_margins`](Self::history_margins) on the high side of the
    /// lineage maps.
    ///
    /// For source `i`, the returned margin is the number of ticks *at or
    /// above* a query range's end tick `t1` that producing every sink
    /// event strictly below `t1` can still consult: window lookaheads
    /// (tumbling/sliding aggregates read `[t, t+w)` to emit at `t`) and
    /// negative shifts pull future input into past output. A
    /// range-bounded retrospective query must therefore feed the pipeline
    /// input up to `t1 + margin` before clipping output to `[t0, t1)`.
    /// Margins are rounded up to whole source periods; a non-unit-scale
    /// lineage map makes the margin effectively unbounded (read to the
    /// end of history rather than risk truncation).
    pub fn future_margins(&self) -> Vec<Tick> {
        /// Sentinel "read everything" high for non-unit-scale lineage.
        const UNBOUNDED: Tick = 1 << 40;
        let mut node_his: Vec<Option<Tick>> = vec![None; self.graph.nodes.len()];
        // Only sinks root this walk: shift-spill events absorbed from
        // inputs below `t1` surface at-or-after `t1`, outside the clip
        // window, so they cannot affect the clipped output.
        for &s in &self.graph.sinks {
            self.max_source_his(s, 1, &mut node_his, UNBOUNDED);
        }
        let mut his: Vec<Tick> = vec![1; self.sources.len()];
        for n in &self.graph.nodes {
            if let OpKind::Source { index } = n.kind {
                his[index] = node_his[n.id].unwrap_or(1).max(1);
            }
        }
        his.iter()
            .zip(&self.sources)
            .map(|(&hi, src)| {
                let p = src.shape().period();
                // Signed div_ceil is unstable; operands are non-negative.
                ((hi - 1).max(0) + p - 1) / p * p
            })
            .collect()
    }

    /// Walks lineage edges from `id` down to the sources, recording per
    /// node the highest input tick (exclusive, relative to a round ending
    /// at 1) it can be asked about — the forward mirror of
    /// [`min_source_lows`](Self::min_source_lows). For unit-scale maps
    /// the high side of `map_interval` depends only on the interval end,
    /// so mapping `[hi-1, hi)` composes exactly.
    fn max_source_his(&self, id: NodeId, hi: Tick, node_his: &mut [Option<Tick>], unbounded: Tick) {
        match node_his[id] {
            Some(prev) if prev >= hi => return,
            _ => node_his[id] = Some(hi),
        }
        let node = &self.graph.nodes[id];
        for (&inp, lin) in node.inputs.iter().zip(&node.lineage) {
            let ib = if lin.is_unit_scale() {
                lin.map_interval(hi - 1, hi).1
            } else {
                unbounded
            };
            self.max_source_his(inp, ib, node_his, unbounded);
        }
    }

    /// Walks lineage edges from `id` down to the sources, recording per
    /// node the lowest input tick (relative to a round starting at 0) it
    /// can be asked about. A node is only re-expanded when a strictly
    /// lower value arrives, so reconvergent (multicast/join) DAGs cost
    /// linear work instead of one walk per path.
    fn min_source_lows(
        &self,
        id: NodeId,
        lo: Tick,
        node_lows: &mut [Option<Tick>],
        unbounded: Tick,
    ) {
        match node_lows[id] {
            Some(prev) if prev <= lo => return,
            _ => node_lows[id] = Some(lo),
        }
        let node = &self.graph.nodes[id];
        for (&inp, lin) in node.inputs.iter().zip(&node.lineage) {
            let ia = if lin.is_unit_scale() {
                lin.map_interval(lo, lo + 1).0
            } else {
                unbounded
            };
            self.min_source_lows(inp, ia, node_lows, unbounded);
        }
    }

    fn node_active(&self, id: NodeId, a: Tick, b: Tick) -> bool {
        let node = &self.graph.nodes[id];
        match node.kind {
            OpKind::Source { index } => self.sources[index].presence().overlaps(a, b),
            OpKind::Join { kind } => {
                let (la, lb) = node.lineage[0].map_interval(a, b);
                let (ra, rb) = node.lineage[1].map_interval(a, b);
                let l = self.node_active(node.inputs[0], la, lb);
                let r = self.node_active(node.inputs[1], ra, rb);
                match kind {
                    JoinKindTag::Inner => l && r,
                    JoinKindTag::Left => l,
                    JoinKindTag::Outer => l || r,
                }
            }
            OpKind::ClipJoin => {
                // Right-side data updates as-of state even without left
                // events, so either side keeps the round live.
                let (la, lb) = node.lineage[0].map_interval(a, b);
                let (ra, rb) = node.lineage[1].map_interval(a, b);
                self.node_active(node.inputs[0], la, lb) || self.node_active(node.inputs[1], ra, rb)
            }
            _ => node.inputs.iter().zip(&node.lineage).all(|(&inp, lin)| {
                let (ia, ib) = lin.map_interval(a, b);
                self.node_active(inp, ia, ib)
            }),
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("nodes", &self.graph.nodes.len())
            .field("round_dim", &self.round_dim)
            .field("span", &(self.start, self.end))
            .finish()
    }
}

/// The history margin of a source behind non-unit-scale lineage: keep
/// everything.
const UNBOUNDED_MARGIN: Tick = 1 << 40;

/// The span a run over `sources` covers: the earliest present tick
/// rounded down to the round grid, and the latest end (both 0 when
/// nothing is present).
fn span_of(sources: &[SignalData], round_dim: Tick) -> (Tick, Tick) {
    let start = (sources.iter().filter_map(|s| s.presence().start()))
        .min()
        .unwrap_or(0);
    let end = (sources.iter().filter_map(|s| s.presence().end()))
        .max()
        .unwrap_or(0);
    (start.div_euclid(round_dim) * round_dim, end)
}

/// Fills a source window from the dataset; returns the number of events
/// written. Uses bulk range copies over the presence map's kept intervals.
/// Sample indices are relative to the dataset's retained base, so compacted
/// live snapshots (non-zero [`SignalData::base_slot`]) fill correctly.
fn fill_source(w: &mut FWindow, data: &SignalData, round_end: Tick) -> usize {
    let sh = data.shape();
    let p = sh.period();
    let base = data.base_time();
    let mut written = 0usize;
    for &(rs, re) in data.presence().ranges() {
        if rs >= round_end {
            break;
        }
        let s = sh.align_up(rs.max(w.sync()).max(base));
        let e = re.min(round_end).min(data.end_time());
        if s >= e {
            continue;
        }
        let n = ((e - 1 - s) / p + 1) as usize;
        let src_lo = ((s - base) / p) as usize;
        let dst_lo = match w.slot_of(s) {
            Some(i) => i,
            None => continue,
        };
        let n = n.min(w.len() - dst_lo).min(data.values().len() - src_lo);
        w.fill_from_slice(dst_lo, &data.values()[src_lo..src_lo + n], p);
        written += n;
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::aggregate::AggKind;
    use crate::ops::join::JoinKind;
    use crate::query::CompiledQuery;
    use crate::source::SignalData;
    use crate::stream::{Query, Stream};
    use crate::time::StreamShape;
    use proptest::prelude::*;

    fn ramp(shape: StreamShape, n: usize) -> SignalData {
        SignalData::dense(shape, (0..n).map(|i| i as f32).collect())
    }

    /// One source of `shape` through `op` into a sink.
    fn compile(shape: StreamShape, op: impl FnOnce(Stream<'_>) -> Stream<'_>) -> CompiledQuery {
        let q = Query::new();
        op(q.source("s", shape)).sink();
        q.compile().unwrap()
    }

    /// Two sources inner-joined into a sink.
    fn joined(left: StreamShape, right: StreamShape) -> CompiledQuery {
        let q = Query::new();
        let (a, b) = (q.source("a", left), q.source("b", right));
        a.join(b, JoinKind::Inner).unwrap().sink();
        q.compile().unwrap()
    }

    /// One event as the collector stored it before it kept runs.
    type FlatEvent = (Tick, Tick, Vec<f32>);

    /// The present events of a window, one by one.
    fn flat_events(w: &FWindow) -> Vec<FlatEvent> {
        w.iter_present()
            .map(|(i, t, d)| (t, d, (0..w.arity()).map(|f| w.field(f)[i]).collect()))
            .collect()
    }

    fn pushed(arity: usize, events: &[FlatEvent]) -> OutputCollector {
        let mut c = OutputCollector::new(arity);
        for (t, d, row) in events {
            c.push(*t, *d, row);
        }
        c
    }

    /// Holds the run form to the flat per-event form on every read the
    /// collector offers, and to the run list `push` builds from the same
    /// events.
    fn assert_matches_flat(c: &OutputCollector, flat: &[FlatEvent], ctx: &str) {
        assert_eq!(c.len(), flat.len(), "{ctx}: len");
        assert_eq!(c.is_empty(), flat.is_empty(), "{ctx}: is_empty");
        let times: Vec<Tick> = flat.iter().map(|e| e.0).collect();
        assert_eq!(
            c.iter_times().collect::<Vec<_>>(),
            times,
            "{ctx}: iter_times"
        );
        assert_eq!(c.times(), times, "{ctx}: times");
        let durations: Vec<Tick> = flat.iter().map(|e| e.1).collect();
        assert_eq!(c.durations(), durations, "{ctx}: durations");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (t, _, row) in flat {
            for x in std::iter::once(*t as u64).chain(row.iter().map(|v| v.to_bits() as u64)) {
                h = (h ^ x).wrapping_mul(0x1000_0000_01b3);
            }
        }
        assert_eq!(c.checksum(), h, "{ctx}: checksum");
        for f in 0..c.arity() {
            let col: Vec<u32> = flat.iter().map(|e| e.2[f].to_bits()).collect();
            let got: Vec<u32> = c.values(f).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, col, "{ctx}: values({f})");
        }
        assert_eq!(
            c.runs().iter().map(|r| r.n).sum::<usize>(),
            flat.len(),
            "{ctx}"
        );
        assert_eq!(c.runs(), pushed(c.arity(), flat).runs(), "{ctx}: runs");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Windows of random presence, period, arity and durations (one
        /// duration, or several changing inside a presence run), absorbed
        /// round after round: the run form reads back exactly as the flat
        /// per-event form does, whole and clipped at every bound that
        /// splits a run or falls beside one.
        #[test]
        fn run_form_equals_the_flat_event_form(
            period in prop::sample::select(vec![1i64, 2, 5]),
            arity in 1usize..4,
            slots in 1usize..90,
            rounds in 1usize..5,
            absent in prop::collection::vec((0usize..360, 1usize..40), 0..6),
            duration_steps in prop::collection::vec((0usize..360, 1i64..4), 0..5),
            skipped_round in 0usize..6,
        ) {
            let shape = StreamShape::new(3, period);
            let mut w = FWindow::new(shape, slots as Tick * period, arity);
            let mut c = OutputCollector::new(arity);
            let mut flat = Vec::new();
            for r in (0..rounds).filter(|&r| r != skipped_round) {
                w.slide_to(r as Tick * w.dim());
                for i in 0..w.len() {
                    let g = r * slots + i; // slot index over the whole run
                    if absent.iter().any(|&(s, l)| (s..s + l).contains(&g)) {
                        continue;
                    }
                    // The duration steps up wherever a step lies at or below.
                    let d = period * (1 + duration_steps.iter().filter(|s| s.0 <= g).map(|s| s.1).sum::<Tick>());
                    let row: Vec<f32> = (0..arity).map(|f| (g * 7 + f) as f32 * 0.5 - 40.0).collect();
                    w.write(i, &row, d);
                }
                c.absorb(&w);
                flat.extend(flat_events(&w));
            }
            assert_matches_flat(&c, &flat, "absorbed");

            // Clip bounds: each run's first, second and last time, one tick
            // either side, and bounds outside everything.
            let mut bounds = vec![Tick::MIN, -1, Tick::MAX];
            for r in c.runs() {
                let last = r.t0 + (r.n as Tick - 1) * r.period;
                bounds.extend([r.t0 - 1, r.t0, r.t0 + 1, r.t0 + r.period, last, last + 1]);
            }
            for &t0 in &bounds {
                for &t1 in &bounds {
                    let want: Vec<FlatEvent> =
                        flat.iter().filter(|e| e.0 >= t0 && e.0 < t1).cloned().collect();
                    assert_matches_flat(&c.clipped(t0, t1), &want, &format!("clipped({t0}, {t1})"));
                }
            }
        }
    }

    #[test]
    fn pushed_events_in_any_order_read_back_and_clip_as_pushed() {
        // A harness (or a peer, through the wire decoder) may push what no
        // sink emits: repeated and descending times, a lone event between
        // two grids, and a grid that wraps past `Tick::MAX`.
        let rows = [
            (10, 2),
            (10, 2),
            (10, 2),
            (8, 2),
            (6, 2),
            (7, 1),
            (20, 1),
            (30, 1),
            (40, 3),
            (Tick::MAX - 1, 5),
            (Tick::MAX, 5),
            (Tick::MIN, 5),
            (Tick::MIN, 4),
            (Tick::MAX, 4),
        ];
        let events: Vec<FlatEvent> = rows
            .iter()
            .enumerate()
            .map(|(i, &(t, d))| (t, d, vec![i as f32, -(i as f32)]))
            .collect();
        let c = pushed(2, &events);
        assert_matches_flat(&c, &events, "pushed");
        let wrapped = c.runs().iter().find(|r| r.t0 == Tick::MAX - 1).unwrap();
        assert_eq!((wrapped.period, wrapped.n), (1, 3), "the grid wraps");
        let ranges = [
            (7, 11),
            (10, 11),
            (0, 8),
            (8, 41),
            (21, 30),
            (41, 50),
            (Tick::MIN, 0),
            (Tick::MIN, Tick::MAX),
            (Tick::MAX - 1, Tick::MAX),
        ];
        for (t0, t1) in ranges {
            let want: Vec<FlatEvent> = events
                .iter()
                .filter(|e| e.0 >= t0 && e.0 < t1)
                .cloned()
                .collect();
            assert_matches_flat(&c.clipped(t0, t1), &want, &format!("clipped({t0}, {t1})"));
        }
    }

    #[test]
    fn dense_rounds_collect_into_one_run() {
        let s = StreamShape::new(0, 2);
        let mut exec_out = compile(s, |s| s)
            .executor_with(
                vec![ramp(s, 1000)],
                ExecOptions::default().with_round_ticks(100),
            )
            .unwrap();
        let out = exec_out.run_collect().unwrap();
        assert_eq!(
            out.runs(),
            [Run {
                t0: 0,
                period: 2,
                duration: 2,
                n: 1000
            }]
        );
    }

    /// `run_collect` against the same run collected event by event.
    fn assert_collects_like_events(mut exec: Executor, ctx: &str) -> OutputCollector {
        let mut flat = Vec::new();
        exec.run_with(|w| flat.extend(flat_events(w))).unwrap();
        exec.reset();
        let out = exec.run_collect().unwrap();
        assert!(!out.is_empty(), "{ctx}: empty output proves nothing");
        assert_matches_flat(&out, &flat, ctx);
        out
    }

    #[test]
    fn chop_pipeline_collects_mixed_durations_exactly() {
        // Period-6 events chopped on multiples of 4 last 4, 2, 2, 4, ..:
        // the durations change inside every presence run.
        let s = StreamShape::new(0, 6);
        let mut data = ramp(s, 400);
        data.punch_gap(600, 900);
        let exec = compile(s, |s| s.chop(4).unwrap())
            .executor_with(vec![data], ExecOptions::default().with_round_ticks(120))
            .unwrap();
        let out = assert_collects_like_events(exec, "chop");
        let durations = out.durations();
        assert!(durations.contains(&2) && durations.contains(&4));
        assert!(
            out.runs().len() > 100,
            "a run ends where the duration changes"
        );
    }

    #[test]
    fn two_source_join_collects_both_fields_exactly() {
        let (sa, sb) = (StreamShape::new(0, 2), StreamShape::new(0, 5));
        let (mut a, mut b) = (ramp(sa, 2500), ramp(sb, 1000));
        a.punch_gap(700, 1900);
        b.punch_gap(1500, 2300);
        b.punch_gap(4005, 4010);
        let exec = joined(sa, sb)
            .executor_with(vec![a, b], ExecOptions::default().with_round_ticks(200))
            .unwrap();
        let out = assert_collects_like_events(exec, "join");
        assert_eq!(out.arity(), 2);
    }

    #[test]
    fn identity_pipeline_roundtrips() {
        let s = StreamShape::new(0, 2);
        let data = ramp(s, 100);
        let mut exec = compile(s, |s| s).executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out.values(0)[99], 99.0);
        assert_eq!(out.times()[1], 2);
    }

    #[test]
    fn select_pipeline_end_to_end() {
        let s = StreamShape::new(0, 1);
        let data = ramp(s, 50);
        let mut exec = compile(s, |s| s.map(|v| v + 1.0).unwrap())
            .executor(vec![data])
            .unwrap();
        let out = exec.run_collect().unwrap();
        assert_eq!(out.values(0)[0], 1.0);
        assert_eq!(out.values(0)[49], 50.0);
    }

    #[test]
    fn listing1_end_to_end_produces_joined_stream() {
        // Listing 1 over dense data, once on ramps and once on sawtooths:
        // an event at every tick both streams cover, each the sig500
        // sample less its 100-tick tumbling mean, beside the sig200 sample.
        type Wave = fn(usize) -> f32;
        let (s500, s200) = (StreamShape::new(0, 2), StreamShape::new(0, 5));
        let cases: [(usize, Wave, Wave); 2] = [
            (500, |i| i as f32, |i| i as f32),
            (5_000, |i| (i % 313) as f32, |i| (i % 71) as f32),
        ];
        for (n500, f500, f200) in cases {
            let span = 2 * n500; // both cover [0, span)
            let d500 = SignalData::dense(s500, (0..n500).map(f500).collect());
            let d200 = SignalData::dense(s200, (0..span / 5).map(f200).collect());
            let q = Query::new();
            let sig500 = q.source("sig500", s500);
            let sig200 = q.source("sig200", s200);
            let (a, b) = sig500.multicast();
            a.aggregate(AggKind::Mean, 100, 100)
                .unwrap()
                .join_map(b, JoinKind::Inner, 1, |m, v, o| o[0] = v[0] - m[0])
                .unwrap()
                .join(sig200, JoinKind::Inner)
                .unwrap()
                .sink();
            let mut exec = q.compile().unwrap().executor(vec![d500, d200]).unwrap();
            let res = exec.run_collect().unwrap();
            // Joint grid (0,1): every tick in [0, span) is covered.
            assert_eq!(res.len(), span);
            // At t=0: sig500 value 0, window mean of values 0..49 = 24.5.
            assert_eq!(res.values(0)[0], -24.5);
            for (k, t) in res.iter_times().enumerate() {
                assert_eq!(t, k as Tick);
                let first = k / 100 * 50; // first sig500 slot of k's window
                let mean = (first..first + 50).map(f500).sum::<f32>() / 50.0;
                let want = f500(k / 2) - mean;
                assert!((res.values(0)[k] - want).abs() < 1e-3, "t={t}");
                assert_eq!(res.values(1)[k], f200(k / 5), "t={t}");
            }
        }
    }

    #[test]
    fn targeted_skips_gap_rounds() {
        let s = StreamShape::new(0, 1);
        let mut data = ramp(s, 10_000);
        data.punch_gap(1000, 9000);
        let mut exec = compile(s, |s| s.map(|v| v * 2.0).unwrap())
            .executor_with(vec![data], ExecOptions::default().with_round_ticks(100))
            .unwrap();
        let stats = exec.run().unwrap();
        assert!(
            stats.windows_skipped >= 75,
            "skipped {}",
            stats.windows_skipped
        );
        assert_eq!(stats.output_events, 2000);
    }

    #[test]
    fn targeted_and_eager_agree_bitwise() {
        let s500 = StreamShape::new(0, 2);
        let s125 = StreamShape::new(0, 8);
        let mk = |gaps: bool| {
            let mut a = ramp(s500, 5000);
            let mut b = ramp(s125, 1250);
            if gaps {
                a.punch_gap(1000, 3000);
                b.punch_gap(5000, 8000);
            }
            (a, b)
        };
        let build = || {
            let q = Query::new();
            let a = q.source("ecg", s500);
            let b = q.source("abp", s125);
            let mean = a.aggregate(AggKind::Mean, 200, 200).unwrap();
            a.join_map(mean, JoinKind::Inner, 1, |v, m, o| o[0] = v[0] - m[0])
                .unwrap()
                .join(b, JoinKind::Inner)
                .unwrap()
                .sink();
            q.compile().unwrap()
        };
        for gaps in [false, true] {
            let (a1, b1) = mk(gaps);
            let (a2, b2) = mk(gaps);
            let mut e1 = build()
                .executor_with(vec![a1, b1], ExecOptions::default().with_round_ticks(400))
                .unwrap();
            let mut e2 = build()
                .executor_with(
                    vec![a2, b2],
                    ExecOptions::default()
                        .without_targeting()
                        .with_round_ticks(400),
                )
                .unwrap();
            let o1 = e1.run_collect().unwrap();
            let o2 = e2.run_collect().unwrap();
            assert_eq!(o1.len(), o2.len(), "gaps={gaps}");
            assert_eq!(o1.checksum(), o2.checksum(), "gaps={gaps}");
        }
    }

    #[test]
    fn targeted_join_skips_non_overlapping_regions() {
        let s = StreamShape::new(0, 1);
        // Left has data in [0, 1000), right only in [5000, 6000): no
        // overlap, so an inner join should skip everything.
        let mut l = ramp(s, 10_000);
        l.punch_gap(1000, 10_000);
        let mut r = ramp(s, 10_000);
        r.punch_gap(0, 5000);
        r.punch_gap(6000, 10_000);
        let mut exec = joined(s, s)
            .executor_with(vec![l, r], ExecOptions::default().with_round_ticks(100))
            .unwrap();
        let stats = exec.run().unwrap();
        assert_eq!(stats.output_events, 0);
        assert_eq!(stats.windows_executed, 0);
        // Data spans [0, 6000) with round 100 -> ~61 rounds, all skipped.
        assert!(
            stats.windows_skipped >= 60,
            "skipped {}",
            stats.windows_skipped
        );
    }

    #[test]
    fn dynamic_memory_mode_counts_allocations() {
        let s = StreamShape::new(0, 1);
        let data = ramp(s, 1000);
        let mut exec = compile(s, |s| s.map(|v| v).unwrap())
            .executor_with(
                vec![data],
                ExecOptions::default()
                    .with_round_ticks(100)
                    .with_dynamic_memory(),
            )
            .unwrap();
        let stats = exec.run().unwrap();
        assert!(stats.steady_state_allocs > 0);
    }

    #[test]
    fn static_memory_mode_has_zero_steady_state_allocs() {
        let s = StreamShape::new(0, 1);
        let data = ramp(s, 1000);
        let mut exec = compile(s, |s| s.map(|v| v).unwrap())
            .executor_with(vec![data], ExecOptions::default().with_round_ticks(100))
            .unwrap();
        let stats = exec.run().unwrap();
        assert_eq!(stats.steady_state_allocs, 0);
    }

    /// select → select → where chain over gappy data; fusible end to end.
    fn fusible_chain() -> (CompiledQuery, SignalData) {
        let s = StreamShape::new(0, 1);
        let mut data = ramp(s, 4000);
        data.punch_gap(500, 700);
        data.punch_gap(1203, 1207);
        let compiled = compile(s, |s| {
            let doubled = s.map(|v| v * 2.0).unwrap();
            let shifted = doubled.map(|v| v + 1.0).unwrap();
            shifted.where_(|v| v[0] as i64 % 3 != 0).unwrap()
        });
        (compiled, data)
    }

    #[test]
    fn fusion_collapses_chain_and_matches_staged() {
        let (q1, d1) = fusible_chain();
        let (q2, d2) = fusible_chain();
        let mut fused = q1
            .executor_with(vec![d1], ExecOptions::default().with_round_ticks(256))
            .unwrap();
        let mut staged = q2
            .executor_with(
                vec![d2],
                ExecOptions::default()
                    .with_round_ticks(256)
                    .without_fusion(),
            )
            .unwrap();
        assert_eq!(fused.fusion_groups().len(), 1);
        assert_eq!(fused.fusion_groups()[0].members.len(), 3);
        assert!(staged.fusion_groups().is_empty());
        let of = fused.run_collect().unwrap();
        let os = staged.run_collect().unwrap();
        assert_eq!(of.len(), os.len());
        assert_eq!(of.checksum(), os.checksum());
        assert_eq!(of.durations(), os.durations());
    }

    #[test]
    fn fused_plan_allocates_strictly_fewer_bytes() {
        let (q1, d1) = fusible_chain();
        let (q2, d2) = fusible_chain();
        let fused = q1.executor(vec![d1]).unwrap();
        let staged = q2
            .executor_with(vec![d2], ExecOptions::default().without_fusion())
            .unwrap();
        // Two interior windows disappear: head's and middle's. With the
        // uniform dim and arity 1 each interior window costs the same, so
        // the fused footprint is the staged one minus two windows.
        assert!(
            fused.planned_bytes() < staged.planned_bytes(),
            "fused {} !< staged {}",
            fused.planned_bytes(),
            staged.planned_bytes()
        );
        let per_window = staged.planned_bytes() / 4; // src + 3 ops, same shape
        assert_eq!(
            staged.planned_bytes() - fused.planned_bytes(),
            2 * per_window
        );
    }

    #[test]
    fn fusion_with_dynamic_memory_allocates_fewer_windows() {
        let (q1, d1) = fusible_chain();
        let (q2, d2) = fusible_chain();
        let opts = ExecOptions::default()
            .with_round_ticks(256)
            .with_dynamic_memory();
        let mut fused = q1.executor_with(vec![d1], opts).unwrap();
        let mut staged = q2.executor_with(vec![d2], opts.without_fusion()).unwrap();
        let sf = fused.run().unwrap();
        let ss = staged.run().unwrap();
        assert_eq!(sf.output_events, ss.output_events);
        assert!(sf.steady_state_allocs < ss.steady_state_allocs);
    }

    #[test]
    fn multicast_fan_out_breaks_fusion_group() {
        let s = StreamShape::new(0, 1);
        let mk = || {
            compile(s, |s| {
                let a = s.map(|v| v * 2.0).unwrap();
                let b = a.map(|v| v + 1.0).unwrap();
                // `a` feeds both `b` and the join: its window must survive.
                b.join(a, JoinKind::Inner).unwrap()
            })
        };
        let fused = mk().executor(vec![ramp(s, 100)]).unwrap();
        // No chain of >= 2 exclusive members exists, so nothing fuses.
        assert!(fused.fusion_groups().is_empty());
        let out = mk()
            .executor(vec![ramp(s, 100)])
            .unwrap()
            .run_collect()
            .unwrap();
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn shift_pipeline_drains_spill() {
        let s = StreamShape::new(0, 1);
        let data = ramp(s, 100);
        let mut exec = compile(s, |s| s.shift(250).unwrap())
            .executor_with(vec![data], ExecOptions::default().with_round_ticks(50))
            .unwrap();
        let out = exec.run_collect().unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out.times()[0], 250);
        assert_eq!(out.times()[99], 349);
    }

    #[test]
    fn empty_sources_produce_no_output() {
        let s = StreamShape::new(0, 1);
        let data = SignalData::dense(s, vec![]);
        let mut exec = compile(s, |s| s).executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn window_size_option_round_up() {
        let s = StreamShape::new(0, 2);
        let data = ramp(s, 10);
        let exec = compile(s, |s| s)
            .executor_with(vec![data], ExecOptions::default().with_round_ticks(7))
            .unwrap();
        assert_eq!(exec.round_dim(), 8); // 7 rounded up to a multiple of 2
    }
}
