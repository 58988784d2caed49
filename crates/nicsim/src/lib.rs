//! `nic-sim`: a cycle-level SoC SmartNIC simulator (Netronome Agilio-like).
//!
//! This crate substitutes for the physical 40 Gbps Netronome Agilio CX of
//! the Clara paper. It models the mechanisms the paper's evaluation
//! depends on, so the *shape* of every result (who wins, where knees and
//! crossovers fall) reproduces even though absolute Mpps differ from
//! silicon:
//!
//! - **many wimpy cores** (60 × 1.2 GHz) processing packets
//!   run-to-completion;
//! - a **four-level memory hierarchy** — CLS, CTM, IMEM, EMEM — with
//!   increasing capacities and latencies, and an SRAM cache in front of
//!   DRAM-backed EMEM whose hit rate depends on the workload's working
//!   set (few large flows hit, many small flows miss);
//! - **per-level bandwidth with queueing contention**: adding cores
//!   raises throughput until a memory level saturates, after which
//!   latency climbs — producing the scale-out knees of Figure 11 and the
//!   colocation interference of Figure 14;
//! - **ASIC accelerators**: a checksum engine (~300 cycles vs ~2000 in
//!   software), a CRC engine, and an LPM flow cache (CAM), enabling the
//!   Figure 10 experiments;
//! - a **vendor library** cost model for reverse-ported framework calls
//!   (hash-map probes, vector ops, header parses).
//!
//! The simulator prices the events [`click_model::Machine`] produces,
//! with the per-block issue costs produced by [`nfcc`], under a
//! [`PortConfig`] describing porting decisions (state placement,
//! accelerator substitution, coalescing, core count). One costing sink
//! receives each event as the interpreter runs, so a profile keeps no
//! per-packet trace. Each question runs an NF over a trace once:
//!
//! - a profile is one streamed pass ([`profile_workload`]);
//! - [`profile_summarized`] adds a [`CoalesceSummary`] to a naive
//!   profile's pass, from which [`CoalesceSummary::price`] gives the
//!   profile of any coalescing plan without running the NF again;
//! - [`run_chain`] profiles a service chain's stages in one pass, and its
//!   first stage's profile is the first NF's standalone profile.
//!
//! [`record_workload`] keeps the interpreter traces for tools that
//! inspect them; no analysis path records.

pub mod config;
pub mod fingerprint;
pub mod model;
pub mod port;
pub mod profile;
pub mod sim;

pub use config::{MemLevel, MemLevelCfg, NicConfig};
pub use fingerprint::{fingerprint_bytes, module_fingerprint, trace_fingerprint};
pub use model::{solve_colocated, solve_perf, PerfPoint};
pub use port::{Accel, CoalescePlan, PortConfig};
pub use profile::{
    profile_recorded, profile_recorded_compiled, profile_summarized, profile_workload,
    profile_workload_compiled, record_workload, CoalesceSummary, RecordedWorkload, WorkloadProfile,
};
pub use sim::{
    chain_global, merge_stage_profiles, optimal_cores, profile_chain, profile_chain_stages,
    run_chain, simulate, simulate_colocated, sweep_cores, ChainPass, CHAIN_STRIDE,
};
