//! # lifestream-signal
//!
//! The physiological-waveform substrate for the LifeStream reproduction.
//!
//! The paper evaluates on a private dataset from The Hospital for Sick
//! Children (6100 patients, ECG at 500 Hz and ABP at 125 Hz) plus a
//! synthetic 1000 Hz dataset. The private data cannot be shared — the
//! paper's own artifact ships synthetic data instead — so this crate
//! synthesizes datasets that reproduce the *properties the engine's
//! optimizations exploit*:
//!
//! * strict periodicity at the clinical rates (ECG 500 Hz, ABP 125 Hz);
//! * morphologically plausible waveforms (PQRST-like ECG, pulsatile ABP);
//! * bursty, calendar-clustered discontinuities like Fig. 2 — long
//!   contiguous data runs separated by disconnection episodes;
//! * directly controllable mutual overlap between signals (the Fig. 10a
//!   knob);
//! * injectable line-zero calibration artifacts (Fig. 7).
//!
//! CSV ingest/egress mirrors the paper's end-to-end setup, which reads
//! retrospective data from CSV files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifacts;
pub mod csv;
pub mod dataset;
pub mod gaps;
pub mod waveform;

pub use artifacts::{inject_line_zero, LineZeroSpec};
pub use dataset::{DatasetBuilder, SignalKind};
pub use gaps::GapModel;
pub use waveform::{abp_wave, ecg_wave, random_wave, sine_wave};
