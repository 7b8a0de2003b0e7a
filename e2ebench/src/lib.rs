//! End-to-end benchmark of the SLiMFast workspace.
//!
//! The benchmark drives the library only through public functions of
//! `slimfast-data`, `slimfast-core` and `slimfast-optim`, on inputs generated by
//! `slimfast-datagen` or by its own seeded stream, and checks every output against
//! values it computes itself. See `README.md` in this directory for the workloads,
//! the metrics and how to run it.

pub mod check;
pub mod clock;
pub mod inputs;
pub mod report;
pub mod trace;
pub mod workloads;
