//! # kg-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's Section 5 evaluation
//! with the `report` binary. Every artifact is a count (keys, encryptions,
//! messages, bytes, key changes) except Table 4 and Figures 10–11, whose
//! subject is the paper's server time:
//!
//! | Artifact | What it reports | Regenerated by |
//! |----------|-----------------|----------------|
//! | Table 1  | keys held by server / per user | `report table1` |
//! | Table 2  | enc/dec cost per join/leave | `report table2` |
//! | Table 3  | average cost per operation | `report table3` |
//! | Table 4  | Merkle signing vs per-message signing (time) | `report table4` |
//! | Figure 10 | server time vs group size (time) | `report fig10` |
//! | Figure 11 | server time vs tree degree (time) | `report fig11` |
//! | Table 5  | rekey messages sent by server | `report table5` |
//! | Table 6  | rekey messages received by a client | `report table6` |
//! | Figure 12 | key changes per client per request | `report fig12` |
//! | §6 | Iolus comparison | `report iolus` |
//! | batch | periodic batch rekeying vs per-op | `report batch` |
//! | cluster | sharded deployment at 10⁶ members | `report cluster` |
//! | trace | telemetry plane: rekey-cost ledger + trace reassembly | `report trace` |
//! | derived | client-derived vs shipped rekeying | `report derived` |
//!
//! Run `cargo run --release -p kg-bench --bin report -- all` to print
//! everything, or name individual artifacts. Time per layer is the
//! canonical benchmark's (`src/bin/perf`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod harness;
pub mod trace;
pub mod workload;

pub use cluster::{run_cluster_scale, ClusterBenchConfig, ClusterScaleResult, ShardLoad};
pub use trace::{run_trace_plane, LedgerRow, TraceBenchConfig, TraceBenchResult};

pub use harness::{
    run, run_batch_comparison, run_derived_costs, BatchComparison, BatchConfig, ClientSide,
    DerivedCosts, DerivedPhase, ExperimentConfig, ExperimentResult, RekeyCosts, TextTable,
};
pub use workload::{ChurnWorkload, Request, TimedRequest, Workload, SEEDS};
