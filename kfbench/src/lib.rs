//! End-to-end benchmark of a `kf_serve` node (see README.md).
//!
//! [`workload`] generates the seeded request sets, [`node`] boots the node,
//! [`loadgen`] drives it over loopback sockets, [`reference`] recomputes
//! every output in process for the correctness gate, and [`trace`] holds the
//! traced mode's span recorder and in-process layer passes.

pub mod loadgen;
pub mod node;
pub mod reference;
pub mod report;
pub mod trace;
pub mod wire;
pub mod workload;
