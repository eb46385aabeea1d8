//! # numlib-baseline
//!
//! The numerical-library baseline (the paper's "NumLib": NumPy, SciPy,
//! Scikit-learn driven from Python).
//!
//! Two ingredients reproduce that stack's performance profile:
//!
//! * [`ops`] — hand-optimized whole-array kernels (normalize, FIR filter,
//!   gap fills, linear-interpolation resample). These stand in for the
//!   C-backed library functions: tight loops over dense arrays, each
//!   *materializing a fresh output array* (and a fresh timestamp array
//!   when the grid changes), exactly like chaining NumPy calls.
//! * [`pyvm`] — a small tree-walking interpreter over boxed dynamic
//!   values. The paper notes that operations without library support —
//!   most importantly the temporal join — had to be written in pure
//!   Python; we run those stages on this interpreter so they pay the
//!   per-operation dynamic-dispatch cost an interpreted loop pays.
//!
//! [`pipeline`] wires both into the Fig. 3 end-to-end application: fast
//! vectorized kernels, interpreted join, full intermediate
//! materialization between stages — fast in microbenchmarks, beaten
//! end-to-end, as in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ops;
pub mod pipeline;
pub mod pyvm;

pub use ops::{fill_const, fill_mean, fir_filter, normalize_windows, resample_linear};
pub use pipeline::{fig3_numlib, NumLibStats};
