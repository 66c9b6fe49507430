//! End-to-end and per-layer benchmark of the EDEN workspace.
//!
//! Three workloads drive the workspace crates through their public API:
//! `pipeline` (characterize → retrain → characterize → map → estimate),
//! `sweep` (Figure 8-style accuracy-vs-BER curves) and `serve` (an
//! open-loop load on the eden-serve daemon). See `README.md` for what each
//! measures and why.

pub mod checks;
pub mod openloop;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
