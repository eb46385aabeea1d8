//! The temporal query language builder.
//!
//! [`QueryBuilder`] exposes the operator vocabulary of Table 2 as chainable
//! methods over [`StreamHandle`]s. Building produces the logical
//! computation graph; [`QueryBuilder::compile`] runs locality tracing and
//! returns a [`CompiledQuery`] from which executors are created.
//!
//! ```
//! use lifestream_core::prelude::*;
//!
//! // Listing 1 of the paper: adjust sig500 by its 100-tick tumbling mean,
//! // then join with sig200.
//! let mut qb = QueryBuilder::new();
//! let sig500 = qb.source("sig500", StreamShape::new(0, 2));
//! let sig200 = qb.source("sig200", StreamShape::new(0, 5));
//! let (a, b) = qb.multicast(sig500);
//! let mean = qb.aggregate(a, AggKind::Mean, 100, 100)?;
//! let adjusted = qb.join_map(b, mean, JoinKind::Inner, 1, |v, m, out| {
//!     out[0] = v[0] - m[0];
//! })?;
//! let joined = qb.join(adjusted, sig200, JoinKind::Inner)?;
//! qb.sink(joined);
//! let compiled = qb.compile()?;
//! assert_eq!(compiled.global_dim(), 100); // Fig. 6's traced dimension
//! # Ok::<(), lifestream_core::Error>(())
//! ```

use crate::dtw::StreamingMatcher;
use crate::error::{Error, Result};
use crate::exec::{ExecOptions, Executor};
use crate::fwindow::MAX_ARITY;
use crate::graph::{Graph, JoinKindTag, Node, NodeId, OpKind};
use crate::lineage::LineageMap;
use crate::ops::aggregate::{AggKind, SlidingAggKernel, TumblingAggKernel};
use crate::ops::fir::FirKernel;
use crate::ops::join::{ClipJoinKernel, JoinKernel, JoinKind, JoinMapFn};
use crate::ops::reshape::{AlterDurationKernel, AlterPeriodKernel, ChopKernel, ShiftKernel};
use crate::ops::select::{SelectKernel, WhereKernel};
use crate::ops::transform::{TransformCtx, TransformKernel};
use crate::ops::where_shape::{ShapeMode, WhereShapeKernel};
use crate::ops::Kernel;
use crate::source::SignalData;
use crate::time::{gcd, StreamShape, Tick};
use crate::trace::{self, TraceReport};

/// A handle to an intermediate stream inside a [`QueryBuilder`].
///
/// Handles carry the identity of the builder that created them, so
/// passing a handle to a *different* builder is detected (returning
/// [`Error::InvalidHandle`]) even when the node index happens to be in
/// range there.
#[must_use = "a StreamHandle names a sub-query; without reaching a sink() it computes nothing"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHandle {
    node: NodeId,
    builder: u64,
}

type KernelFactory = Box<dyn FnOnce(&Node) -> Box<dyn Kernel> + Send>;

/// Builder for temporal queries over periodic streams.
pub struct QueryBuilder {
    graph: Graph,
    factories: Vec<Option<KernelFactory>>,
    n_sources: usize,
    id: u64,
}

/// Process-unique builder identities, embedded in every [`StreamHandle`]
/// to detect handles crossing between builders.
static NEXT_BUILDER_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Default for QueryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            graph: Graph::new(),
            factories: Vec::new(),
            n_sources: 0,
            id: NEXT_BUILDER_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: Vec<NodeId>,
        shape: StreamShape,
        arity: usize,
        lineage: Vec<LineageMap>,
        factory: Option<KernelFactory>,
    ) -> StreamHandle {
        let id = self.graph.nodes.len();
        self.graph.nodes.push(Node {
            id,
            name: name.into(),
            kind,
            inputs,
            shape,
            arity,
            dim: 0,
            lineage,
        });
        self.factories.push(factory);
        StreamHandle {
            node: id,
            builder: self.id,
        }
    }

    fn node(&self, h: StreamHandle) -> Result<&Node> {
        if h.builder != self.id {
            return Err(Error::InvalidHandle { node: h.node });
        }
        self.graph
            .nodes
            .get(h.node)
            .ok_or(Error::InvalidHandle { node: h.node })
    }

    /// Declares a source stream. Datasets are later supplied to the
    /// executor in declaration order.
    pub fn source(&mut self, name: impl Into<String>, shape: StreamShape) -> StreamHandle {
        let index = self.n_sources;
        self.n_sources += 1;
        self.push(
            name,
            OpKind::Source { index },
            vec![],
            shape,
            1,
            vec![],
            None,
        )
    }

    /// `Select`: projects each event's payload through `f`
    /// (`out_arity` output fields).
    ///
    /// # Errors
    /// Returns an error for an invalid handle or `out_arity` out of range.
    pub fn select<F>(&mut self, input: StreamHandle, out_arity: usize, f: F) -> Result<StreamHandle>
    where
        F: FnMut(&[f32], &mut [f32]) + Send + 'static,
    {
        if out_arity == 0 || out_arity > MAX_ARITY {
            return Err(Error::InvalidParameter {
                message: format!("select out_arity {out_arity} out of range"),
            });
        }
        let n = self.node(input)?;
        let (shape, in_arity) = (n.shape, n.arity);
        let factory: KernelFactory =
            Box::new(move |_| Box::new(SelectKernel::new(in_arity, out_arity, Box::new(f))));
        Ok(self.push(
            "Select",
            OpKind::Select,
            vec![input.node],
            shape,
            out_arity,
            vec![LineageMap::identity()],
            Some(factory),
        ))
    }

    /// Single-field convenience `Select` mapping `f32 -> f32`.
    ///
    /// # Panics
    /// Panics if `input` is an invalid handle (use [`select`](Self::select)
    /// for a fallible variant).
    pub fn select_map<F>(&mut self, input: StreamHandle, mut f: F) -> StreamHandle
    where
        F: FnMut(f32) -> f32 + Send + 'static,
    {
        self.select(input, 1, move |i, o| o[0] = f(i[0]))
            .expect("select_map on invalid handle")
    }

    /// `Where`: keeps events satisfying `pred`.
    ///
    /// # Errors
    /// Returns an error for an invalid handle.
    pub fn where_<F>(&mut self, input: StreamHandle, pred: F) -> Result<StreamHandle>
    where
        F: FnMut(&[f32]) -> bool + Send + 'static,
    {
        let n = self.node(input)?;
        let (shape, arity) = (n.shape, n.arity);
        let factory: KernelFactory =
            Box::new(move |_| Box::new(WhereKernel::new(arity, Box::new(pred))));
        Ok(self.push(
            "Where",
            OpKind::Where,
            vec![input.node],
            shape,
            arity,
            vec![LineageMap::identity()],
            Some(factory),
        ))
    }

    /// Extended `Where` (§6.1): filters by visual pattern using streaming
    /// constrained DTW. `mode` selects artifact scrubbing ([`ShapeMode::Remove`])
    /// or detection ([`ShapeMode::Keep`]).
    ///
    /// # Errors
    /// Returns an error for an invalid handle, multi-field input, or an
    /// empty pattern.
    pub fn where_shape(
        &mut self,
        input: StreamHandle,
        pattern: Vec<f32>,
        band: usize,
        threshold: f32,
        normalize: bool,
        mode: ShapeMode,
    ) -> Result<StreamHandle> {
        let n = self.node(input)?;
        if n.arity != 1 {
            return Err(Error::ArityMismatch {
                expected: 1,
                actual: n.arity,
            });
        }
        if pattern.is_empty() {
            return Err(Error::InvalidParameter {
                message: "shape pattern must be non-empty".into(),
            });
        }
        let shape = n.shape;
        let factory: KernelFactory = Box::new(move |_| {
            Box::new(WhereShapeKernel::new(
                StreamingMatcher::new(pattern, band, threshold, normalize),
                mode,
            ))
        });
        Ok(self.push(
            "WhereShape",
            OpKind::WhereShape,
            vec![input.node],
            shape,
            1,
            vec![LineageMap::identity()],
            Some(factory),
        ))
    }

    /// `Aggregate(w, p)`: applies `kind` to `window`-tick windows with
    /// stride `stride`. Tumbling (`window == stride`) aggregates
    /// `[t, t+window)`; sliding (`window > stride`) aggregates the trailing
    /// window `(t-window, t]`.
    ///
    /// # Errors
    /// Returns an error for invalid parameters (window/stride not positive
    /// multiples of the input period, or window < stride) or a multi-field
    /// input.
    pub fn aggregate(
        &mut self,
        input: StreamHandle,
        kind: AggKind,
        window: Tick,
        stride: Tick,
    ) -> Result<StreamHandle> {
        let n = self.node(input)?;
        if n.arity != 1 {
            return Err(Error::ArityMismatch {
                expected: 1,
                actual: n.arity,
            });
        }
        let in_period = n.shape.period();
        if window <= 0 || stride <= 0 || window < stride {
            return Err(Error::InvalidParameter {
                message: format!("aggregate window {window} / stride {stride} invalid"),
            });
        }
        if window % in_period != 0 || stride % in_period != 0 {
            return Err(Error::InvalidParameter {
                message: format!(
                    "aggregate window {window} and stride {stride} must be multiples of the input period {in_period}"
                ),
            });
        }
        let shape = n.shape.aggregated(stride);
        let lineage = if window == stride {
            LineageMap::window(window)
        } else {
            LineageMap::with_margins(window, 0)
        };
        let factory: KernelFactory = Box::new(move |node: &Node| {
            if window == stride {
                Box::new(TumblingAggKernel::new(kind, window))
            } else {
                // Every window of a plan shares one dimension, so this is
                // the input window's slot count.
                let in_capacity = (node.dim / in_period) as usize;
                Box::new(SlidingAggKernel::new(kind, window, in_period, in_capacity))
            }
        });
        Ok(self.push(
            format!("Aggregate({kind:?},{window},{stride})"),
            OpKind::Aggregate { window, stride },
            vec![input.node],
            shape,
            1,
            vec![lineage],
            Some(factory),
        ))
    }

    /// Temporal equijoin concatenating both payloads.
    ///
    /// # Errors
    /// Returns an error when the grids never align or the combined arity
    /// exceeds [`MAX_ARITY`].
    pub fn join(
        &mut self,
        left: StreamHandle,
        right: StreamHandle,
        kind: JoinKind,
    ) -> Result<StreamHandle> {
        let (la, ra) = (self.node(left)?.arity, self.node(right)?.arity);
        self.join_inner(left, right, kind, la + ra, None)
    }

    /// Temporal equijoin with a payload projection.
    ///
    /// # Errors
    /// Returns an error when the grids never align or `out_arity` is out of
    /// range.
    pub fn join_map<F>(
        &mut self,
        left: StreamHandle,
        right: StreamHandle,
        kind: JoinKind,
        out_arity: usize,
        f: F,
    ) -> Result<StreamHandle>
    where
        F: FnMut(&[f32], &[f32], &mut [f32]) + Send + 'static,
    {
        self.join_inner(left, right, kind, out_arity, Some(Box::new(f)))
    }

    fn join_inner(
        &mut self,
        left: StreamHandle,
        right: StreamHandle,
        kind: JoinKind,
        out_arity: usize,
        map: Option<JoinMapFn>,
    ) -> Result<StreamHandle> {
        let (ls, la) = {
            let n = self.node(left)?;
            (n.shape, n.arity)
        };
        let (rs, ra) = {
            let n = self.node(right)?;
            (n.shape, n.arity)
        };
        if out_arity == 0 || out_arity > MAX_ARITY {
            return Err(Error::InvalidParameter {
                message: format!("join out_arity {out_arity} out of range"),
            });
        }
        let shape = ls.join(&rs);
        let tag = match kind {
            JoinKind::Inner => JoinKindTag::Inner,
            JoinKind::Left => JoinKindTag::Left,
            JoinKind::Outer => JoinKindTag::Outer,
        };
        let factory: KernelFactory = Box::new(move |node: &Node| {
            Box::new(JoinKernel::new(
                kind,
                la,
                ra,
                node.arity,
                node.capacity(),
                map,
            ))
        });
        Ok(self.push(
            format!("Join({kind:?})"),
            OpKind::Join { kind: tag },
            vec![left.node, right.node],
            shape,
            out_arity,
            vec![LineageMap::identity(), LineageMap::identity()],
            Some(factory),
        ))
    }

    /// `ClipJoin`: pairs each left event with the most recent right event
    /// at or before it (as-of join). Output grid follows the left stream.
    ///
    /// # Errors
    /// Returns an error when the combined arity exceeds [`MAX_ARITY`].
    pub fn clip_join(&mut self, left: StreamHandle, right: StreamHandle) -> Result<StreamHandle> {
        let (ls, la) = {
            let n = self.node(left)?;
            (n.shape, n.arity)
        };
        let ra = self.node(right)?.arity;
        if la + ra > MAX_ARITY {
            return Err(Error::InvalidParameter {
                message: format!("clip_join arity {} exceeds {MAX_ARITY}", la + ra),
            });
        }
        let factory: KernelFactory = Box::new(move |_| Box::new(ClipJoinKernel::new(la, ra)));
        Ok(self.push(
            "ClipJoin",
            OpKind::ClipJoin,
            vec![left.node, right.node],
            ls,
            la + ra,
            vec![LineageMap::identity(), LineageMap::identity()],
            Some(factory),
        ))
    }

    /// `Chop(b)`: splits event intervals on multiples of `boundary`.
    ///
    /// # Errors
    /// Returns an error when `boundary` is non-positive or the stream's
    /// offset does not lie on the joint grid.
    pub fn chop(&mut self, input: StreamHandle, boundary: Tick) -> Result<StreamHandle> {
        let n = self.node(input)?;
        if boundary <= 0 {
            return Err(Error::InvalidParameter {
                message: format!("chop boundary {boundary} must be positive"),
            });
        }
        let g = gcd(n.shape.period(), boundary);
        if n.shape.offset().rem_euclid(g) != 0 {
            return Err(Error::InvalidParameter {
                message: format!(
                    "chop boundary {boundary} incompatible with stream offset {}",
                    n.shape.offset()
                ),
            });
        }
        let shape = StreamShape::new(n.shape.offset(), g);
        let arity = n.arity;
        let factory: KernelFactory = Box::new(move |_| Box::new(ChopKernel::new(boundary, arity)));
        Ok(self.push(
            format!("Chop({boundary})"),
            OpKind::Chop { boundary },
            vec![input.node],
            shape,
            arity,
            vec![LineageMap::identity()],
            Some(factory),
        ))
    }

    /// `Shift(k)`: moves every sync time forward by `delta` ticks
    /// (non-negative).
    ///
    /// # Errors
    /// Returns an error for a negative `delta`.
    pub fn shift(&mut self, input: StreamHandle, delta: Tick) -> Result<StreamHandle> {
        let n = self.node(input)?;
        if delta < 0 {
            return Err(Error::InvalidParameter {
                message: format!("shift delta {delta} must be non-negative"),
            });
        }
        let shape = n.shape.shifted(delta);
        let arity = n.arity;
        let in_period = n.shape.period();
        let factory: KernelFactory =
            Box::new(move |_| Box::new(ShiftKernel::new(delta, arity, in_period)));
        Ok(self.push(
            format!("Shift({delta})"),
            OpKind::Shift { delta },
            vec![input.node],
            shape,
            arity,
            vec![LineageMap::shift(delta)],
            Some(factory),
        ))
    }

    /// `AlterPeriod(p)`: re-grids the stream to period `period`. Sync times
    /// are unchanged; upsampling leaves absent slots for a later fill.
    ///
    /// # Errors
    /// Returns an error for a non-positive period.
    pub fn alter_period(&mut self, input: StreamHandle, period: Tick) -> Result<StreamHandle> {
        let n = self.node(input)?;
        if period <= 0 {
            return Err(Error::InvalidParameter {
                message: format!("alter_period {period} must be positive"),
            });
        }
        let shape = n.shape.with_period(period);
        let arity = n.arity;
        let factory: KernelFactory = Box::new(move |_| Box::new(AlterPeriodKernel::new(arity)));
        Ok(self.push(
            format!("AlterPeriod({period})"),
            OpKind::AlterPeriod { period },
            vec![input.node],
            shape,
            arity,
            vec![LineageMap::identity()],
            Some(factory),
        ))
    }

    /// `AlterDuration(d)`: rewrites every event's active lifetime.
    ///
    /// # Errors
    /// Returns an error for a non-positive duration.
    pub fn alter_duration(&mut self, input: StreamHandle, duration: Tick) -> Result<StreamHandle> {
        let n = self.node(input)?;
        if duration <= 0 {
            return Err(Error::InvalidParameter {
                message: format!("alter_duration {duration} must be positive"),
            });
        }
        let shape = n.shape;
        let arity = n.arity;
        let factory: KernelFactory =
            Box::new(move |_| Box::new(AlterDurationKernel::new(duration, arity)));
        Ok(self.push(
            format!("AlterDuration({duration})"),
            OpKind::AlterDuration { duration },
            vec![input.node],
            shape,
            arity,
            vec![LineageMap::identity()],
            Some(factory),
        ))
    }

    /// `Transform(w)`: applies a user window-to-window function to
    /// `window`-tick sub-windows (single-field streams).
    ///
    /// # Errors
    /// Returns an error for a multi-field input or a window that is not a
    /// positive multiple of the period.
    pub fn transform<F>(&mut self, input: StreamHandle, window: Tick, f: F) -> Result<StreamHandle>
    where
        F: FnMut(TransformCtx<'_>) + Send + 'static,
    {
        let n = self.node(input)?;
        if n.arity != 1 {
            return Err(Error::ArityMismatch {
                expected: 1,
                actual: n.arity,
            });
        }
        let period = n.shape.period();
        if window <= 0 || window % period != 0 {
            return Err(Error::InvalidParameter {
                message: format!(
                    "transform window {window} must be a positive multiple of period {period}"
                ),
            });
        }
        let shape = n.shape;
        let factory: KernelFactory = Box::new(move |node: &Node| {
            Box::new(TransformKernel::new(
                window,
                period,
                node.capacity(),
                Box::new(f),
            ))
        });
        Ok(self.push(
            format!("Transform({window})"),
            OpKind::Transform { window },
            vec![input.node],
            shape,
            1,
            vec![LineageMap::window(window)],
            Some(factory),
        ))
    }

    /// `PassFilter`: FIR-filters the stream with `taps` coefficients
    /// (newest sample first): `y[t] = Σₖ taps[k] · x[t − k·period]` within
    /// each maximal present run; gaps reset the filter. Presence passes
    /// through unchanged; durations are rewritten to the grid period.
    ///
    /// This is the first-class form of the old `Transform`-closure
    /// `pass_filter` — same results on dense data, but fusible and
    /// vectorizable. Lineage carries a `(taps−1)·period` lookback margin
    /// so targeted skipping and live suffix replay see the warm-up
    /// samples.
    ///
    /// # Errors
    /// Returns an error for a multi-field input or empty taps.
    pub fn pass_filter(&mut self, input: StreamHandle, taps: Vec<f32>) -> Result<StreamHandle> {
        let n = self.node(input)?;
        if n.arity != 1 {
            return Err(Error::ArityMismatch {
                expected: 1,
                actual: n.arity,
            });
        }
        if taps.is_empty() {
            return Err(Error::InvalidParameter {
                message: "pass_filter taps must be non-empty".into(),
            });
        }
        let shape = n.shape;
        let lookback = (taps.len() as Tick - 1) * shape.period();
        let n_taps = taps.len();
        let factory: KernelFactory =
            Box::new(move |node: &Node| Box::new(FirKernel::new(taps, node.capacity())));
        Ok(self.push(
            format!("Fir({n_taps})"),
            OpKind::Fir { taps: n_taps },
            vec![input.node],
            shape,
            1,
            vec![LineageMap::with_margins(lookback, 0)],
            Some(factory),
        ))
    }

    /// `Multicast`: forks a stream so multiple subqueries can read it.
    ///
    /// This is **aliasing, not copying**: the engine's graph supports
    /// fan-out natively (every operator consuming a handle adds an edge to
    /// the same node), so no node is inserted and both returned handles
    /// name the same stream. Since [`StreamHandle`] is `Copy`, using the
    /// input handle twice is equivalent; `multicast` exists to mirror the
    /// paper's operator vocabulary (Listing 1). The fluent counterpart is
    /// [`Stream::multicast`](crate::stream::Stream::multicast).
    pub fn multicast(&mut self, input: StreamHandle) -> (StreamHandle, StreamHandle) {
        (input, input)
    }

    /// Marks `input` as a query output.
    ///
    /// # Panics
    /// Panics on a handle from a different builder or out of range.
    pub fn sink(&mut self, input: StreamHandle) {
        assert_eq!(
            input.builder, self.id,
            "stream handle from a different builder passed to sink()"
        );
        let (shape, arity) = {
            let n = &self.graph.nodes[input.node];
            (n.shape, n.arity)
        };
        let h = self.push(
            "Sink",
            OpKind::Sink,
            vec![input.node],
            shape,
            arity,
            vec![LineageMap::identity()],
            None,
        );
        self.graph.sinks.push(h.node);
    }

    /// Shape of an intermediate stream (useful when composing pipelines).
    ///
    /// # Errors
    /// Returns an error for an invalid handle.
    pub fn shape_of(&self, h: StreamHandle) -> Result<StreamShape> {
        Ok(self.node(h)?.shape)
    }

    /// Compiles the query: validates the graph and runs locality tracing.
    ///
    /// # Errors
    /// Returns an error when the query has no sink or tracing diverges.
    pub fn compile(mut self) -> Result<CompiledQuery> {
        if self.graph.sinks.is_empty() {
            return Err(Error::NoSink);
        }
        let report = trace::trace(&mut self.graph)?;
        Ok(CompiledQuery {
            graph: self.graph,
            factories: self.factories,
            report,
            n_sources: self.n_sources,
        })
    }
}

impl std::fmt::Debug for QueryBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBuilder")
            .field("nodes", &self.graph.nodes.len())
            .field("sources", &self.n_sources)
            .finish()
    }
}

/// A compiled (traced) query, ready to instantiate executors.
#[must_use = "a CompiledQuery does nothing until an executor is created from it"]
pub struct CompiledQuery {
    graph: Graph,
    factories: Vec<Option<KernelFactory>>,
    report: TraceReport,
    n_sources: usize,
}

impl CompiledQuery {
    /// The traced computation graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The uniform FWindow dimension chosen by locality tracing.
    pub fn global_dim(&self) -> Tick {
        self.report.global_dim
    }

    /// The locality-tracing report (iterations + adjustment log).
    pub fn trace_report(&self) -> &TraceReport {
        &self.report
    }

    /// Shapes of the declared sources, in dataset-slot order.
    pub fn source_shapes(&self) -> Vec<StreamShape> {
        self.graph
            .source_ids()
            .iter()
            .map(|&id| self.graph.nodes[id].shape)
            .collect()
    }
    /// Number of declared sources.
    pub fn source_count(&self) -> usize {
        self.n_sources
    }

    /// Creates an executor with default options.
    ///
    /// # Errors
    /// Returns an error when the supplied datasets do not match the
    /// declared sources.
    pub fn executor(self, sources: Vec<SignalData>) -> Result<Executor> {
        self.executor_with(sources, ExecOptions::default())
    }

    /// Creates an executor with explicit options.
    ///
    /// # Errors
    /// Returns an error when the datasets mismatch the declared sources or
    /// the requested round dimension is incompatible with the traced
    /// dimension.
    pub fn executor_with(
        mut self,
        sources: Vec<SignalData>,
        opts: ExecOptions,
    ) -> Result<Executor> {
        if sources.len() != self.n_sources {
            return Err(Error::SourceCountMismatch {
                expected: self.n_sources,
                actual: sources.len(),
            });
        }
        for (slot, src_id) in self.graph.source_ids().iter().enumerate() {
            let n = &self.graph.nodes[*src_id];
            if sources[slot].shape() != n.shape {
                return Err(Error::SourceShapeMismatch {
                    name: n.name.clone(),
                    declared: n.shape,
                    supplied: sources[slot].shape(),
                });
            }
        }
        // Apply the requested round (processing window) size.
        let round_dim = match opts.round_ticks {
            Some(r) => {
                let g = self.report.global_dim;
                // Round the requested size up to the next multiple of the
                // traced dimension (both are positive; signed div_ceil is
                // not stable yet).
                let aligned = ((r.max(g) as u64).div_ceil(g as u64) * g as u64) as Tick;
                trace::apply_round_dim(&mut self.graph, g, aligned)?;
                aligned
            }
            None => {
                trace::apply_round_dim(
                    &mut self.graph,
                    self.report.global_dim,
                    self.report.global_dim,
                )?;
                self.report.global_dim
            }
        };
        // Instantiate kernels now that capacities are final.
        let mut kernels: Vec<Option<Box<dyn Kernel>>> = Vec::with_capacity(self.graph.nodes.len());
        for (i, fac) in self.factories.into_iter().enumerate() {
            kernels.push(fac.map(|f| f(&self.graph.nodes[i])));
        }
        Executor::new(self.graph, kernels, sources, opts, round_dim)
    }
}

impl std::fmt::Debug for CompiledQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledQuery")
            .field("nodes", &self.graph.nodes.len())
            .field("global_dim", &self.report.global_dim)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_compiles_to_dim_100() {
        let mut qb = QueryBuilder::new();
        let sig500 = qb.source("sig500", StreamShape::new(0, 2));
        let sig200 = qb.source("sig200", StreamShape::new(0, 5));
        let (a, b) = qb.multicast(sig500);
        let mean = qb.aggregate(a, AggKind::Mean, 100, 100).unwrap();
        let adj = qb
            .join_map(b, mean, JoinKind::Inner, 1, |v, m, o| o[0] = v[0] - m[0])
            .unwrap();
        let out = qb.join(adj, sig200, JoinKind::Inner).unwrap();
        qb.sink(out);
        let compiled = qb.compile().unwrap();
        assert_eq!(compiled.global_dim(), 100);
        assert_eq!(compiled.source_count(), 2);
    }

    #[test]
    fn compile_without_sink_fails() {
        let mut qb = QueryBuilder::new();
        let s = qb.source("s", StreamShape::new(0, 1));
        let _ = qb.select_map(s, |v| v);
        assert_eq!(qb.compile().unwrap_err(), Error::NoSink);
    }

    #[test]
    fn aggregate_validates_parameters() {
        let mut qb = QueryBuilder::new();
        let s = qb.source("s", StreamShape::new(0, 2));
        assert!(qb.aggregate(s, AggKind::Mean, 0, 0).is_err());
        assert!(qb.aggregate(s, AggKind::Mean, 5, 5).is_err()); // not multiple of 2
        assert!(qb.aggregate(s, AggKind::Mean, 4, 8).is_err()); // window < stride
        assert!(qb.aggregate(s, AggKind::Mean, 8, 4).is_ok());
    }

    #[test]
    fn join_of_staggered_grids_refines_period() {
        let mut qb = QueryBuilder::new();
        let a = qb.source("a", StreamShape::new(0, 4));
        let b = qb.source("b", StreamShape::new(2, 4));
        let j = qb.join(a, b, JoinKind::Inner).unwrap();
        assert_eq!(qb.shape_of(j).unwrap(), StreamShape::new(0, 2));
    }

    #[test]
    fn shift_rejects_negative() {
        let mut qb = QueryBuilder::new();
        let s = qb.source("s", StreamShape::new(0, 1));
        assert!(qb.shift(s, -1).is_err());
        assert!(qb.shift(s, 5).is_ok());
    }

    #[test]
    fn transform_requires_single_field() {
        let mut qb = QueryBuilder::new();
        let a = qb.source("a", StreamShape::new(0, 1));
        let b = qb.source("b", StreamShape::new(0, 1));
        let j = qb.join(a, b, JoinKind::Inner).unwrap();
        assert!(matches!(
            qb.transform(j, 4, |_| {}),
            Err(Error::ArityMismatch { .. })
        ));
    }

    #[test]
    fn executor_rejects_wrong_source_count() {
        let mut qb = QueryBuilder::new();
        let s = qb.source("s", StreamShape::new(0, 1));
        qb.sink(s);
        let compiled = qb.compile().unwrap();
        assert!(matches!(
            compiled.executor(vec![]),
            Err(Error::SourceCountMismatch { .. })
        ));
    }

    #[test]
    fn executor_rejects_wrong_shape() {
        let mut qb = QueryBuilder::new();
        let s = qb.source("s", StreamShape::new(0, 2));
        qb.sink(s);
        let compiled = qb.compile().unwrap();
        let data = SignalData::dense(StreamShape::new(0, 8), vec![0.0; 4]);
        assert!(matches!(
            compiled.executor(vec![data]),
            Err(Error::SourceShapeMismatch { .. })
        ));
    }
}
