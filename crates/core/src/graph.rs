//! The logical computation graph.
//!
//! A compiled query is a DAG of [`Node`]s. Each node produces one output
//! stream, described by a [`StreamShape`], into one preallocated
//! [`FWindow`](crate::fwindow::FWindow); edges are implicit in `inputs`.
//! The graph carries only *metadata* (shapes, dimensions, lineage); the
//! executable kernels live alongside it in the compiled query so the graph
//! itself stays inspectable and `Debug`-printable.

use std::fmt;

use crate::lineage::LineageMap;
use crate::time::{StreamShape, Tick};

/// Identifier of a node within its graph (index into [`Graph::nodes`]).
pub type NodeId = usize;

/// Temporal join flavours supported by the `Join` operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKindTag {
    /// Emit only where both sides have overlapping events.
    Inner,
    /// Emit wherever the left side has an event; absent right payloads are
    /// NaN-padded.
    Left,
    /// Emit wherever either side has an event; absent payloads NaN-padded.
    Outer,
}

/// The operator vocabulary of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Stream ingestion; `index` identifies the dataset slot.
    Source {
        /// Position in the executor's dataset vector.
        index: usize,
    },
    /// Stateless payload projection.
    Select,
    /// Predicate filter (marks events absent).
    Where,
    /// Shape/pattern filter using constrained DTW (the extended `Where` of
    /// §6.1).
    WhereShape,
    /// Windowed aggregation: window `w`, stride `p`. Tumbling (`w == p`) is
    /// stateless; sliding (`w > p`) carries the last `w / period − 1` input slots.
    Aggregate {
        /// Aggregation window length in ticks.
        window: Tick,
        /// Output stride in ticks (output stream period).
        stride: Tick,
    },
    /// Temporal equijoin of two streams on overlapping event intervals.
    Join {
        /// Inner / left / outer flavour.
        kind: JoinKindTag,
    },
    /// As-of join: pairs each left event with the most recent right event
    /// at or before it.
    ClipJoin,
    /// Splits event intervals on `boundary`-aligned period boundaries.
    Chop {
        /// Boundary grid the durations are split on.
        boundary: Tick,
    },
    /// Shifts every sync time forward by `delta` ticks.
    Shift {
        /// Shift amount (non-negative).
        delta: Tick,
    },
    /// Re-grids the stream to a new period, leaving sync times intact.
    AlterPeriod {
        /// New period.
        period: Tick,
    },
    /// Overwrites every event's duration.
    AlterDuration {
        /// New duration.
        duration: Tick,
    },
    /// User transformation over fixed `window`-sized intervals
    /// (`w`-in → `w`-out).
    Transform {
        /// Sub-window size in ticks.
        window: Tick,
    },
    /// FIR filter over present runs (`taps` coefficients, newest-first);
    /// the first-class form of `pass_filter`. Gaps reset the filter.
    Fir {
        /// Number of filter coefficients.
        taps: usize,
    },
    /// Query output.
    Sink,
}

impl OpKind {
    /// Short operator name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Source { .. } => "Source",
            OpKind::Select => "Select",
            OpKind::Where => "Where",
            OpKind::WhereShape => "WhereShape",
            OpKind::Aggregate { .. } => "Aggregate",
            OpKind::Join { .. } => "Join",
            OpKind::ClipJoin => "ClipJoin",
            OpKind::Chop { .. } => "Chop",
            OpKind::Shift { .. } => "Shift",
            OpKind::AlterPeriod { .. } => "AlterPeriod",
            OpKind::AlterDuration { .. } => "AlterDuration",
            OpKind::Transform { .. } => "Transform",
            OpKind::Fir { .. } => "Fir",
            OpKind::Sink => "Sink",
        }
    }

    /// The dimension-divisibility constraint this operator imposes on its
    /// FWindow (Table 2's *Dimension* column): the FWindow dimension must be
    /// a multiple of this value.
    pub fn dim_constraint(&self, out_shape: StreamShape) -> Tick {
        match self {
            OpKind::Aggregate { window, stride } => {
                // Tumbling windows must align with FWindow boundaries so the
                // stateless path applies; sliding windows only need stride
                // alignment (the ring state handles the rest).
                if window == stride {
                    crate::time::lcm(*window, out_shape.period())
                } else {
                    crate::time::lcm(*stride, out_shape.period())
                }
            }
            OpKind::Transform { window } => crate::time::lcm(*window, out_shape.period()),
            OpKind::Chop { boundary } => crate::time::lcm(*boundary, out_shape.period()),
            _ => out_shape.period(),
        }
    }
}

/// One operator instance in the computation graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id (its index in the graph).
    pub id: NodeId,
    /// Human-readable name (source name or operator name).
    pub name: String,
    /// Operator kind and parameters.
    pub kind: OpKind,
    /// Producer nodes, in operator-argument order.
    pub inputs: Vec<NodeId>,
    /// Shape of the output stream — a linear transformation of the input
    /// shapes (the linearity property).
    pub shape: StreamShape,
    /// Payload arity of the output stream.
    pub arity: usize,
    /// FWindow dimension; set by locality tracing
    /// ([`trace`](crate::trace)). Zero until traced.
    pub dim: Tick,
    /// Per-input lineage maps (output interval → required input interval).
    pub lineage: Vec<LineageMap>,
}

impl Node {
    /// FWindow slot capacity implied by the traced dimension
    /// (the bounded-memory-footprint property: `dim / period`).
    pub fn capacity(&self) -> usize {
        (self.dim / self.shape.period()) as usize
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} {}[{}] arity={}",
            self.id, self.name, self.shape, self.dim, self.arity
        )
    }
}

/// The computation graph: nodes in topological order (construction via
/// [`QueryBuilder`](crate::query::QueryBuilder) guarantees producers precede
/// consumers), plus the sink set.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// All nodes, index == id, topologically ordered.
    pub nodes: Vec<Node>,
    /// Sink node ids.
    pub sinks: Vec<NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all source nodes, in dataset-slot order.
    pub fn source_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<(usize, NodeId)> = self
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                OpKind::Source { index } => Some((index, n.id)),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, id)| id).collect()
    }

    /// Consumers of each node (inverse adjacency).
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                out[i].push(n.id);
            }
        }
        out
    }

    /// Renders the graph one node per line — the textual analogue of the
    /// paper's Fig. 6 computation-graph drawings.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for n in &self.nodes {
            s.push_str(&format!("{} <- {:?}\n", n, n.inputs));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: NodeId, kind: OpKind, inputs: Vec<NodeId>, shape: StreamShape) -> Node {
        Node {
            id,
            name: kind.name().to_string(),
            kind,
            inputs,
            shape,
            arity: 1,
            dim: shape.period(),
            lineage: vec![],
        }
    }

    #[test]
    fn source_ids_ordered_by_slot() {
        let mut g = Graph::new();
        g.nodes.push(node(
            0,
            OpKind::Source { index: 1 },
            vec![],
            StreamShape::new(0, 2),
        ));
        g.nodes.push(node(
            1,
            OpKind::Source { index: 0 },
            vec![],
            StreamShape::new(0, 5),
        ));
        assert_eq!(g.source_ids(), vec![1, 0]);
    }

    #[test]
    fn consumers_inverts_edges() {
        let mut g = Graph::new();
        g.nodes.push(node(
            0,
            OpKind::Source { index: 0 },
            vec![],
            StreamShape::new(0, 1),
        ));
        g.nodes
            .push(node(1, OpKind::Select, vec![0], StreamShape::new(0, 1)));
        g.nodes.push(node(
            2,
            OpKind::Join {
                kind: JoinKindTag::Inner,
            },
            vec![0, 1],
            StreamShape::new(0, 1),
        ));
        let c = g.consumers();
        assert_eq!(c[0], vec![1, 2]);
        assert_eq!(c[1], vec![2]);
        assert!(c[2].is_empty());
    }

    #[test]
    fn dim_constraints_follow_table2() {
        let s = StreamShape::new(0, 2);
        assert_eq!(OpKind::Select.dim_constraint(s), 2);
        assert_eq!(
            OpKind::Aggregate {
                window: 100,
                stride: 100
            }
            .dim_constraint(StreamShape::new(0, 100)),
            100
        );
        // Sliding aggregate only constrains to the stride grid.
        assert_eq!(
            OpKind::Aggregate {
                window: 100,
                stride: 10
            }
            .dim_constraint(StreamShape::new(0, 10)),
            10
        );
        assert_eq!(OpKind::Transform { window: 40 }.dim_constraint(s), 40);
        assert_eq!(OpKind::Chop { boundary: 6 }.dim_constraint(s), 6);
    }

    #[test]
    fn node_capacity_is_dim_over_period() {
        let mut n = node(0, OpKind::Select, vec![], StreamShape::new(0, 2));
        n.dim = 100;
        assert_eq!(n.capacity(), 50);
    }

    #[test]
    fn render_is_nonempty() {
        let mut g = Graph::new();
        g.nodes.push(node(
            0,
            OpKind::Source { index: 0 },
            vec![],
            StreamShape::new(0, 2),
        ));
        assert!(g.render().contains("Source"));
    }
}
