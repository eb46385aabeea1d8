//! The logical plan a [`Query`](crate::stream::Query) builds, and the
//! [`CompiledQuery`] it compiles to.
//!
//! Every [`Stream`](crate::stream::Stream) operator appends one [`Node`]
//! and the factory of its kernel to the query's plan; the graph stays
//! topologically ordered because a node can only read streams that
//! already exist. Compiling runs locality tracing and returns the
//! [`CompiledQuery`] from which executors, live sessions and history
//! replays are created. The kernels are instantiated only once the
//! executor has fixed every window's capacity.
//!
//! ```
//! use lifestream_core::prelude::*;
//!
//! let abp = StreamShape::new(0, 8);
//! let q = Query::new();
//! q.source("abp", abp).shift(16)?.sink();
//! let compiled = q.compile()?;
//! assert_eq!(compiled.source_shapes(), [abp]);
//! let mut exec = compiled.executor(vec![SignalData::dense(abp, vec![1.0; 10])])?;
//! assert_eq!(exec.run_collect()?.times()[0], 16);
//! # Ok::<(), lifestream_core::Error>(())
//! ```

use crate::error::{Error, Result};
use crate::exec::{ExecOptions, Executor};
use crate::graph::{Graph, Node, NodeId, OpKind};
use crate::lineage::LineageMap;
use crate::ops::Kernel;
use crate::source::SignalData;
use crate::time::{StreamShape, Tick};
use crate::trace::{self, TraceReport};

/// Builds a node's kernel from its traced node (capacities are final).
pub(crate) type KernelFactory = Box<dyn FnOnce(&Node) -> Box<dyn Kernel> + Send>;

/// A query plan under construction: the graph plus one kernel factory per
/// node (`None` for sources and sinks).
#[derive(Default)]
pub(crate) struct Plan {
    pub(crate) graph: Graph,
    factories: Vec<Option<KernelFactory>>,
    pub(crate) n_sources: usize,
}

impl Plan {
    /// Appends a node and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: Vec<NodeId>,
        shape: StreamShape,
        arity: usize,
        lineage: Vec<LineageMap>,
        factory: Option<KernelFactory>,
    ) -> NodeId {
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
        id
    }

    /// Validates the graph and runs locality tracing.
    pub(crate) fn compile(mut self) -> Result<CompiledQuery> {
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

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
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
    use crate::ops::aggregate::AggKind;
    use crate::ops::join::JoinKind;
    use crate::stream::Query;

    fn identity(shape: StreamShape) -> CompiledQuery {
        let q = Query::new();
        q.source("s", shape).sink();
        q.compile().unwrap()
    }

    #[test]
    fn listing1_compiles_to_dim_100() {
        let q = Query::new();
        let sig500 = q.source("sig500", StreamShape::new(0, 2));
        let sig200 = q.source("sig200", StreamShape::new(0, 5));
        let mean = sig500.aggregate(AggKind::Mean, 100, 100).unwrap();
        sig500
            .join_map(mean, JoinKind::Inner, 1, |v, m, o| o[0] = v[0] - m[0])
            .unwrap()
            .join(sig200, JoinKind::Inner)
            .unwrap()
            .sink();
        let compiled = q.compile().unwrap();
        assert_eq!(compiled.global_dim(), 100);
        assert_eq!(compiled.source_count(), 2);
        // Two sources, aggregate, two joins and the sink, in build order.
        let kinds: Vec<&str> = compiled
            .graph()
            .nodes
            .iter()
            .map(|n| n.kind.name())
            .collect();
        assert_eq!(
            kinds,
            ["Source", "Source", "Aggregate", "Join", "Join", "Sink"]
        );
        assert_eq!(compiled.graph().sinks, [5]);
    }

    #[test]
    fn compile_without_sink_fails() {
        assert_eq!(Plan::default().compile().unwrap_err(), Error::NoSink);
    }

    #[test]
    fn aggregate_validates_parameters() {
        let q = Query::new();
        let s = q.source("s", StreamShape::new(0, 2));
        assert!(s.aggregate(AggKind::Mean, 0, 0).is_err());
        assert!(s.aggregate(AggKind::Mean, 5, 5).is_err()); // not multiple of 2
        assert!(s.aggregate(AggKind::Mean, 4, 8).is_err()); // window < stride
        assert!(s.aggregate(AggKind::Mean, 8, 4).is_ok());
    }

    #[test]
    fn join_of_staggered_grids_refines_period() {
        let q = Query::new();
        let a = q.source("a", StreamShape::new(0, 4));
        let b = q.source("b", StreamShape::new(2, 4));
        let j = a.join(b, JoinKind::Inner).unwrap();
        assert_eq!(j.shape(), StreamShape::new(0, 2));
    }

    #[test]
    fn shift_rejects_negative() {
        let q = Query::new();
        let s = q.source("s", StreamShape::new(0, 1));
        assert!(s.shift(-1).is_err());
        assert!(s.shift(5).is_ok());
    }

    #[test]
    fn transform_requires_single_field() {
        let q = Query::new();
        let a = q.source("a", StreamShape::new(0, 1));
        let b = q.source("b", StreamShape::new(0, 1));
        let j = a.join(b, JoinKind::Inner).unwrap();
        assert!(matches!(
            j.transform(4, |_| {}),
            Err(Error::ArityMismatch { .. })
        ));
    }

    #[test]
    fn executor_rejects_wrong_source_count() {
        assert!(matches!(
            identity(StreamShape::new(0, 1)).executor(vec![]),
            Err(Error::SourceCountMismatch { .. })
        ));
    }

    #[test]
    fn executor_rejects_wrong_shape() {
        let data = SignalData::dense(StreamShape::new(0, 8), vec![0.0; 4]);
        assert!(matches!(
            identity(StreamShape::new(0, 2)).executor(vec![data]),
            Err(Error::SourceShapeMismatch { .. })
        ));
    }
}
