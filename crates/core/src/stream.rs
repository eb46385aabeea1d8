//! The temporal query language: [`Query`] scopes and chainable
//! [`Stream`]s.
//!
//! A [`Query`] owns the logical plan under construction;
//! [`Query::source`] hands out lightweight, `Copy` [`Stream`] values, and
//! every Table-2 operator is a chainable method on [`Stream`]. Each method
//! validates its parameters, appends its node and kernel factory to the
//! plan, and returns the new stream; all of them are fallible (they return
//! [`Result`]), so a bad parameter reaches the caller as an [`Error`].
//! A `Stream` can only be created by its own `Query`, so the one guard
//! left is [`Error::CrossQuery`], for two-input operators handed streams
//! of different scopes.
//!
//! One plan, every execution mode: the [`CompiledQuery`] that
//! [`Query::compile`] produces is the *only* logical-plan artifact in
//! the system. The same compiled plan deploys live (a `LiveSession` or
//! sharded ingest), runs cold over recorded [`SignalData`]
//! (`executor_with`), and replays retrospectively over the tiered
//! history store — the store crate's `HistoryQuery` hands exactly this
//! type (or a factory producing it) to its `pipeline(...)` builder.
//! There is no second query language for history: write the pipeline
//! once, and range-bounded replays of durable segments are
//! byte-identical to what the live run produced over the same window.
//!
//! The paper's Listing 1: adjust `sig500` by its 100-tick tumbling mean,
//! then join with `sig200`.
//!
//! ```
//! use lifestream_core::prelude::*;
//!
//! let q = Query::new();
//! let sig500 = q.source("sig500", StreamShape::new(0, 2));
//! let sig200 = q.source("sig200", StreamShape::new(0, 5));
//! let (a, b) = sig500.multicast();
//! a.aggregate(AggKind::Mean, 100, 100)?
//!     .join_map(b, JoinKind::Inner, 1, |m, v, out| out[0] = v[0] - m[0])?
//!     .join(sig200, JoinKind::Inner)?
//!     .sink();
//! let compiled = q.compile()?;
//! assert_eq!(compiled.global_dim(), 100); // Fig. 6's traced dimension
//! # Ok::<(), lifestream_core::Error>(())
//! ```
//!
//! [`SignalData`]: crate::source::SignalData

use std::cell::RefCell;

use crate::dtw::StreamingMatcher;
use crate::error::{Error, Result};
use crate::fwindow::MAX_ARITY;
use crate::graph::{JoinKindTag, Node, NodeId, OpKind};
use crate::lineage::LineageMap;
use crate::ops::aggregate::{AggKind, AggregateStage};
use crate::ops::fir::FirStage;
use crate::ops::join::{ClipJoinKernel, JoinKernel, JoinKind, JoinMapFn};
use crate::ops::reshape::{AlterDurationKernel, AlterPeriodKernel, ChopKernel, ShiftKernel};
use crate::ops::select::{FusedSelectStage, FusedWhereStage, SelectKernel, WhereKernel};
use crate::ops::transform::{TransformCtx, TransformStage};
use crate::ops::where_shape::{ShapeMode, WhereShapeKernel};
use crate::ops::Op;
use crate::query::{CompiledQuery, OpFactory, Plan};
use crate::time::{gcd, StreamShape, Tick};

/// A query under construction, owning the logical plan that its
/// [`Stream`]s extend.
///
/// Interior mutability (a `RefCell` around the plan) is what lets
/// multiple live `Stream`s — e.g. both sides of a join — share one plan
/// without threading `&mut` through every call.
#[derive(Debug, Default)]
pub struct Query {
    plan: RefCell<Plan>,
}

impl Query {
    /// Creates an empty query scope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a source stream. Datasets are later supplied to the
    /// executor in declaration order.
    pub fn source(&self, name: impl Into<String>, shape: StreamShape) -> Stream<'_> {
        let mut plan = self.plan.borrow_mut();
        let index = plan.n_sources;
        plan.n_sources += 1;
        let node = plan.push(
            name,
            OpKind::Source { index },
            vec![],
            shape,
            1,
            vec![],
            None,
        );
        Stream { query: self, node }
    }

    /// Compiles the query: validates the graph and runs locality tracing.
    ///
    /// # Errors
    /// Returns an error when the query has no sink or tracing diverges.
    pub fn compile(self) -> Result<CompiledQuery> {
        self.plan.into_inner().compile()
    }
}

/// A stream inside a [`Query`], with every Table-2 operator as a
/// chainable method.
///
/// `Stream` is `Copy`: it is only a `(scope, node)` pair, so a stream can
/// be consumed by several operators — that is how fan-out is written (see
/// [`Stream::multicast`]).
#[must_use = "a Stream describes a sub-query; without reaching a sink() it computes nothing"]
#[derive(Debug, Clone, Copy)]
pub struct Stream<'q> {
    query: &'q Query,
    node: NodeId,
}

impl<'q> Stream<'q> {
    /// Shape of this stream (offset and period).
    pub fn shape(&self) -> StreamShape {
        self.meta().0
    }

    /// Shape and payload arity of this stream's node.
    fn meta(&self) -> (StreamShape, usize) {
        let plan = self.query.plan.borrow();
        let n = &plan.graph.nodes[self.node];
        (n.shape, n.arity)
    }

    /// The shape of a single-field stream; operators that need one refuse
    /// wider payloads with [`Error::ArityMismatch`].
    fn single_field(&self) -> Result<StreamShape> {
        match self.meta() {
            (shape, 1) => Ok(shape),
            (_, actual) => Err(Error::ArityMismatch {
                expected: 1,
                actual,
            }),
        }
    }

    fn same_scope(&self, other: &Stream<'q>) -> Result<()> {
        if std::ptr::eq(self.query, other.query) {
            Ok(())
        } else {
            Err(Error::CrossQuery)
        }
    }

    /// Appends an operator node reading `inputs` and returns its stream.
    #[allow(clippy::too_many_arguments)]
    fn push(
        self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: Vec<NodeId>,
        shape: StreamShape,
        arity: usize,
        lineage: Vec<LineageMap>,
        factory: Option<OpFactory>,
    ) -> Stream<'q> {
        let node = self
            .query
            .plan
            .borrow_mut()
            .push(name, kind, inputs, shape, arity, lineage, factory);
        Stream {
            query: self.query,
            node,
        }
    }

    /// [`push`](Self::push) for an operator reading this stream alone.
    fn unary(
        self,
        name: impl Into<String>,
        kind: OpKind,
        shape: StreamShape,
        arity: usize,
        lineage: LineageMap,
        factory: OpFactory,
    ) -> Stream<'q> {
        let inputs = vec![self.node];
        self.push(
            name,
            kind,
            inputs,
            shape,
            arity,
            vec![lineage],
            Some(factory),
        )
    }

    /// `Select`: projects each event's payload through `f` (`out_arity`
    /// output fields).
    ///
    /// # Errors
    /// Returns an error for `out_arity` out of range.
    pub fn select<F>(self, out_arity: usize, f: F) -> Result<Stream<'q>>
    where
        F: FnMut(&[f32], &mut [f32]) + Send + 'static,
    {
        if out_arity == 0 || out_arity > MAX_ARITY {
            return Err(Error::InvalidParameter {
                message: format!("select out_arity {out_arity} out of range"),
            });
        }
        let (shape, in_arity) = self.meta();
        Ok(self.unary(
            "Select",
            OpKind::Select,
            shape,
            out_arity,
            LineageMap::identity(),
            Box::new(move |_, member| {
                if member {
                    Op::Stage(Box::new(FusedSelectStage::new(f)))
                } else {
                    Op::Kernel(Box::new(SelectKernel::new(
                        in_arity,
                        out_arity,
                        Box::new(f),
                    )))
                }
            }),
        ))
    }

    /// Single-field `Select` mapping `f32 -> f32`.
    ///
    /// # Errors
    /// None; the `Result` only lets every operator chain with `?`.
    pub fn map<F>(self, mut f: F) -> Result<Stream<'q>>
    where
        F: FnMut(f32) -> f32 + Send + 'static,
    {
        self.select(1, move |i, o| o[0] = f(i[0]))
    }

    /// `Where`: keeps events satisfying `pred`.
    ///
    /// # Errors
    /// None; the `Result` only lets every operator chain with `?`.
    pub fn where_<F>(self, pred: F) -> Result<Stream<'q>>
    where
        F: FnMut(&[f32]) -> bool + Send + 'static,
    {
        let (shape, arity) = self.meta();
        Ok(self.unary(
            "Where",
            OpKind::Where,
            shape,
            arity,
            LineageMap::identity(),
            Box::new(move |_, member| {
                if member {
                    Op::Stage(Box::new(FusedWhereStage::new(pred)))
                } else {
                    Op::Kernel(Box::new(WhereKernel::new(arity, Box::new(pred))))
                }
            }),
        ))
    }

    /// Extended `Where` (§6.1): filters by visual pattern using streaming
    /// constrained DTW. `mode` selects artifact scrubbing
    /// ([`ShapeMode::Remove`]) or detection ([`ShapeMode::Keep`]).
    ///
    /// # Errors
    /// Returns an error for a multi-field input or an empty pattern.
    pub fn where_shape(
        self,
        pattern: Vec<f32>,
        band: usize,
        threshold: f32,
        normalize: bool,
        mode: ShapeMode,
    ) -> Result<Stream<'q>> {
        let shape = self.single_field()?;
        if pattern.is_empty() {
            return Err(Error::InvalidParameter {
                message: "shape pattern must be non-empty".into(),
            });
        }
        Ok(self.unary(
            "WhereShape",
            OpKind::WhereShape,
            shape,
            1,
            LineageMap::identity(),
            Box::new(move |_, _| {
                Op::Kernel(Box::new(WhereShapeKernel::new(
                    StreamingMatcher::new(pattern, band, threshold, normalize),
                    mode,
                )))
            }),
        ))
    }

    /// `Aggregate(w, p)`: applies `kind` to `window`-tick windows with
    /// stride `stride`. Tumbling (`window == stride`) aggregates the spans
    /// `[k·window, (k+1)·window)`, each at its first input grid point `t`;
    /// sliding (`window > stride`) aggregates the trailing window
    /// `(t-window, t]`.
    ///
    /// # Errors
    /// Returns an error for invalid parameters (window/stride not positive
    /// multiples of the input period, or window < stride) or a multi-field
    /// input.
    pub fn aggregate(self, kind: AggKind, window: Tick, stride: Tick) -> Result<Stream<'q>> {
        let in_shape = self.single_field()?;
        let in_period = in_shape.period();
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
        let lineage = if window == stride {
            LineageMap::window(window)
        } else {
            LineageMap::with_margins(window, 0)
        };
        Ok(self.unary(
            format!("Aggregate({kind:?},{window},{stride})"),
            OpKind::Aggregate { window, stride },
            in_shape.aggregated(window, stride),
            1,
            lineage,
            Box::new(move |node: &Node, _| {
                // Every window of a plan shares one dimension, so this is
                // the input window's slot count.
                let capacity = (node.dim / in_period) as usize;
                let stage = AggregateStage::new(kind, window, stride, in_period, capacity);
                Op::Stage(Box::new(stage))
            }),
        ))
    }

    /// Temporal equijoin with `other`, concatenating both payloads.
    ///
    /// # Errors
    /// Returns an error when the combined arity exceeds [`MAX_ARITY`] or
    /// `other` belongs to a different [`Query`].
    pub fn join(self, other: Stream<'q>, kind: JoinKind) -> Result<Stream<'q>> {
        let out_arity = self.meta().1 + other.meta().1;
        self.join_inner(other, kind, out_arity, None)
    }

    /// Temporal equijoin with a payload projection: `f(left, right, out)`.
    ///
    /// # Errors
    /// Returns an error when `out_arity` is out of range or `other`
    /// belongs to a different [`Query`].
    pub fn join_map<F>(
        self,
        other: Stream<'q>,
        kind: JoinKind,
        out_arity: usize,
        f: F,
    ) -> Result<Stream<'q>>
    where
        F: FnMut(&[f32], &[f32], &mut [f32]) + Send + 'static,
    {
        self.join_inner(other, kind, out_arity, Some(Box::new(f)))
    }

    fn join_inner(
        self,
        other: Stream<'q>,
        kind: JoinKind,
        out_arity: usize,
        map: Option<JoinMapFn>,
    ) -> Result<Stream<'q>> {
        self.same_scope(&other)?;
        let ((ls, la), (rs, ra)) = (self.meta(), other.meta());
        if out_arity == 0 || out_arity > MAX_ARITY {
            return Err(Error::InvalidParameter {
                message: format!("join out_arity {out_arity} out of range"),
            });
        }
        let tag = match kind {
            JoinKind::Inner => JoinKindTag::Inner,
            JoinKind::Left => JoinKindTag::Left,
            JoinKind::Outer => JoinKindTag::Outer,
        };
        let factory: OpFactory = Box::new(move |node: &Node, _| {
            Op::Kernel(Box::new(JoinKernel::new(
                kind,
                la,
                ra,
                node.arity,
                node.capacity(),
                map,
            )))
        });
        Ok(self.push(
            format!("Join({kind:?})"),
            OpKind::Join { kind: tag },
            vec![self.node, other.node],
            ls.join(&rs),
            out_arity,
            vec![LineageMap::identity(), LineageMap::identity()],
            Some(factory),
        ))
    }

    /// `ClipJoin`: pairs each event of this stream with the most recent
    /// event of `other` at or before it (as-of join). The output grid
    /// follows this stream.
    ///
    /// # Errors
    /// Returns an error when the combined arity exceeds [`MAX_ARITY`] or
    /// `other` belongs to a different [`Query`].
    pub fn clip_join(self, other: Stream<'q>) -> Result<Stream<'q>> {
        self.same_scope(&other)?;
        let ((ls, la), ra) = (self.meta(), other.meta().1);
        if la + ra > MAX_ARITY {
            return Err(Error::InvalidParameter {
                message: format!("clip_join arity {} exceeds {MAX_ARITY}", la + ra),
            });
        }
        Ok(self.push(
            "ClipJoin",
            OpKind::ClipJoin,
            vec![self.node, other.node],
            ls,
            la + ra,
            vec![LineageMap::identity(), LineageMap::identity()],
            Some(Box::new(move |_, _| {
                Op::Kernel(Box::new(ClipJoinKernel::new(la, ra)))
            })),
        ))
    }

    /// `Chop(b)`: splits event intervals on multiples of `boundary`.
    ///
    /// # Errors
    /// Returns an error when `boundary` is non-positive or the stream's
    /// offset does not lie on the joint grid.
    pub fn chop(self, boundary: Tick) -> Result<Stream<'q>> {
        let (shape, arity) = self.meta();
        if boundary <= 0 {
            return Err(Error::InvalidParameter {
                message: format!("chop boundary {boundary} must be positive"),
            });
        }
        let g = gcd(shape.period(), boundary);
        if shape.offset().rem_euclid(g) != 0 {
            return Err(Error::InvalidParameter {
                message: format!(
                    "chop boundary {boundary} incompatible with stream offset {}",
                    shape.offset()
                ),
            });
        }
        Ok(self.unary(
            format!("Chop({boundary})"),
            OpKind::Chop { boundary },
            StreamShape::new(shape.offset(), g),
            arity,
            LineageMap::identity(),
            Box::new(move |_, _| Op::Kernel(Box::new(ChopKernel::new(boundary, arity)))),
        ))
    }

    /// `Shift(k)`: moves every sync time forward by `delta` ticks
    /// (non-negative).
    ///
    /// # Errors
    /// Returns an error for a negative `delta`.
    pub fn shift(self, delta: Tick) -> Result<Stream<'q>> {
        let (shape, arity) = self.meta();
        if delta < 0 {
            return Err(Error::InvalidParameter {
                message: format!("shift delta {delta} must be non-negative"),
            });
        }
        let in_period = shape.period();
        Ok(self.unary(
            format!("Shift({delta})"),
            OpKind::Shift { delta },
            shape.shifted(delta),
            arity,
            LineageMap::shift(delta),
            Box::new(move |_, _| Op::Kernel(Box::new(ShiftKernel::new(delta, arity, in_period)))),
        ))
    }

    /// `AlterPeriod(p)`: re-grids the stream to period `period`. Sync times
    /// are unchanged; upsampling leaves absent slots for a later fill.
    ///
    /// # Errors
    /// Returns an error for a non-positive period.
    pub fn alter_period(self, period: Tick) -> Result<Stream<'q>> {
        let (shape, arity) = self.meta();
        if period <= 0 {
            return Err(Error::InvalidParameter {
                message: format!("alter_period {period} must be positive"),
            });
        }
        Ok(self.unary(
            format!("AlterPeriod({period})"),
            OpKind::AlterPeriod { period },
            shape.with_period(period),
            arity,
            LineageMap::identity(),
            Box::new(move |_, _| Op::Kernel(Box::new(AlterPeriodKernel::new(arity)))),
        ))
    }

    /// `AlterDuration(d)`: rewrites every event's active lifetime.
    ///
    /// # Errors
    /// Returns an error for a non-positive duration.
    pub fn alter_duration(self, duration: Tick) -> Result<Stream<'q>> {
        let (shape, arity) = self.meta();
        if duration <= 0 {
            return Err(Error::InvalidParameter {
                message: format!("alter_duration {duration} must be positive"),
            });
        }
        Ok(self.unary(
            format!("AlterDuration({duration})"),
            OpKind::AlterDuration { duration },
            shape,
            arity,
            LineageMap::identity(),
            Box::new(move |_, _| Op::Kernel(Box::new(AlterDurationKernel::new(duration, arity)))),
        ))
    }

    /// `Transform(w)`: applies a user window-to-window function to
    /// `window`-tick sub-windows, the spans `[k·window, (k+1)·window)`
    /// (single-field streams).
    ///
    /// # Errors
    /// Returns an error for a multi-field input or a window that is not a
    /// positive multiple of the period.
    pub fn transform<F>(self, window: Tick, f: F) -> Result<Stream<'q>>
    where
        F: FnMut(TransformCtx<'_>) + Send + 'static,
    {
        let shape = self.single_field()?;
        let period = shape.period();
        if window <= 0 || window % period != 0 {
            return Err(Error::InvalidParameter {
                message: format!(
                    "transform window {window} must be a positive multiple of period {period}"
                ),
            });
        }
        Ok(self.unary(
            format!("Transform({window})"),
            OpKind::Transform { window },
            shape,
            1,
            LineageMap::window(window),
            Box::new(move |_, _| Op::Stage(Box::new(TransformStage::new(window, Box::new(f))))),
        ))
    }

    /// `PassFilter`: FIR-filters the stream with `taps` coefficients
    /// (newest sample first): `y[t] = Σₖ taps[k] · x[t − k·period]` within
    /// each maximal present run; gaps reset the filter. Presence passes
    /// through unchanged; durations are rewritten to the grid period.
    ///
    /// The operator is fusible and vectorizable. Lineage carries a
    /// `(taps−1)·period` lookback margin so targeted skipping and live
    /// suffix replay see the warm-up samples.
    ///
    /// # Errors
    /// Returns an error for a multi-field input or empty taps.
    pub fn pass_filter(self, taps: Vec<f32>) -> Result<Stream<'q>> {
        let shape = self.single_field()?;
        if taps.is_empty() {
            return Err(Error::InvalidParameter {
                message: "pass_filter taps must be non-empty".into(),
            });
        }
        let n_taps = taps.len();
        let lookback = (n_taps as Tick - 1) * shape.period();
        Ok(self.unary(
            format!("Fir({n_taps})"),
            OpKind::Fir { taps: n_taps },
            shape,
            1,
            LineageMap::with_margins(lookback, 0),
            Box::new(move |_, _| Op::Stage(Box::new(FirStage::new(taps)))),
        ))
    }

    /// `Multicast`: forks the stream so multiple subqueries can read it.
    ///
    /// The engine's graph supports fan-out natively — every operator that
    /// consumes a stream adds an edge to the same node — so this returns
    /// two *aliases* of the same underlying stream rather than inserting
    /// copy nodes. It exists to mirror the paper's operator vocabulary
    /// (Listing 1); because `Stream` is `Copy`, simply using the value
    /// twice is equivalent.
    pub fn multicast(self) -> (Stream<'q>, Stream<'q>) {
        (self, self)
    }

    /// Marks this stream as a query output, ending the chain.
    pub fn sink(self) {
        let (shape, arity) = self.meta();
        let mut plan = self.query.plan.borrow_mut();
        let id = plan.push(
            "Sink",
            OpKind::Sink,
            vec![self.node],
            shape,
            arity,
            vec![LineageMap::identity()],
            None,
        );
        plan.graph.sinks.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SignalData;

    #[test]
    fn listing1_fluent_compiles_to_dim_100() {
        let q = Query::new();
        let sig500 = q.source("sig500", StreamShape::new(0, 2));
        let sig200 = q.source("sig200", StreamShape::new(0, 5));
        let (a, b) = sig500.multicast();
        a.aggregate(AggKind::Mean, 100, 100)
            .unwrap()
            .join_map(b, JoinKind::Inner, 1, |m, v, o| o[0] = v[0] - m[0])
            .unwrap()
            .join(sig200, JoinKind::Inner)
            .unwrap()
            .sink();
        let compiled = q.compile().unwrap();
        assert_eq!(compiled.global_dim(), 100);
        assert_eq!(compiled.source_count(), 2);
    }

    #[test]
    fn cross_query_join_is_rejected() {
        // `b`'s node index (0) is in range in `q1` too: the scope check,
        // not bounds, must reject it.
        let q1 = Query::new();
        let q2 = Query::new();
        let a = q1.source("a", StreamShape::new(0, 1));
        let b = q2.source("b", StreamShape::new(0, 1));
        assert_eq!(a.join(b, JoinKind::Inner).unwrap_err(), Error::CrossQuery);
        assert_eq!(
            a.join_map(b, JoinKind::Inner, 1, |_, _, _| {}).unwrap_err(),
            Error::CrossQuery
        );
        assert_eq!(a.clip_join(b).unwrap_err(), Error::CrossQuery);
        // A refusal leaves both plans intact: each continues and compiles.
        b.aggregate(AggKind::Mean, 100, 100).unwrap().sink();
        assert_eq!(q2.compile().unwrap().global_dim(), 100);
        a.sink();
        assert_eq!(q1.compile().unwrap().graph().len(), 2);
    }

    #[test]
    fn fluent_map_is_fallible_not_panicking() {
        let q = Query::new();
        let s = q.source("s", StreamShape::new(0, 1));
        let mapped = s.map(|v| v * 2.0);
        assert!(mapped.is_ok());
    }

    #[test]
    fn compile_without_sink_fails() {
        let q = Query::new();
        let s = q.source("s", StreamShape::new(0, 1));
        let _ = s.map(|v| v).unwrap();
        assert_eq!(q.compile().unwrap_err(), Error::NoSink);
    }

    #[test]
    fn fluent_chain_runs_end_to_end() {
        let data = SignalData::dense(
            StreamShape::new(0, 100),
            (0..100).map(|i| i as f32).collect(),
        );
        let q = Query::new();
        q.source("sig", data.shape()).map(|v| v * v).unwrap().sink();
        let mut exec = q.compile().unwrap().executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out.values(0)[3], 9.0);
    }

    /// Starts a plan in a helper and hands back the stream it ends on.
    fn declare_source(q: &Query) -> Stream<'_> {
        q.source("s", StreamShape::new(0, 2))
    }

    #[test]
    fn from_builder_continues_fluently() {
        // A stream handed out by one part of the code keeps extending the
        // same plan after other nodes were declared through the query.
        let q = Query::new();
        let src = declare_source(&q);
        let _ = q.source("unused", StreamShape::new(0, 5));
        src.aggregate(AggKind::Mean, 100, 100).unwrap().sink();
        let compiled = q.compile().unwrap();
        assert_eq!(compiled.global_dim(), 100);
        assert_eq!(compiled.source_count(), 2);
    }

    #[test]
    fn stream_rejects_foreign_handles() {
        // The foreign stream's node index (1) is in range in `q` too, and
        // names a node of the same shape and arity there: scope identity,
        // not bounds or shape, must reject it.
        let other = Query::new();
        let foreign = other
            .source("a", StreamShape::new(0, 1))
            .map(|v| v)
            .unwrap();
        let q = Query::new();
        let s = q.source("s", StreamShape::new(0, 1)).map(|v| v).unwrap();
        assert_eq!(
            s.join(foreign, JoinKind::Left).unwrap_err(),
            Error::CrossQuery
        );
        assert_eq!(
            foreign.join(s, JoinKind::Outer).unwrap_err(),
            Error::CrossQuery
        );
        assert_eq!(foreign.clip_join(s).unwrap_err(), Error::CrossQuery);
        // Nothing foreign was appended to either plan.
        s.sink();
        assert_eq!(q.compile().unwrap().graph().len(), 3);
    }

    #[test]
    fn shape_tracks_operators() {
        let q = Query::new();
        let s = q.source("s", StreamShape::new(0, 2));
        assert_eq!(s.shape(), StreamShape::new(0, 2));
        let agg = s.aggregate(AggKind::Mean, 100, 100).unwrap();
        assert_eq!(agg.shape().period(), 100);
        let shifted = agg.shift(10).unwrap();
        assert_eq!(shifted.shape().offset(), 10);
    }
}
