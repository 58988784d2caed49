//! `clara-serve`: a backpressured NF-analysis service.
//!
//! Every one-shot `clara` invocation pays full process startup: load (or
//! train) the models, compile, profile, exit. This crate keeps that state
//! **resident** behind a request interface, the way λ-NIC keeps NF
//! workloads resident and Cora re-queries its performance model across an
//! iterative offloading search:
//!
//! - **warm model state** — the server loads a versioned persisted
//!   [`clara_core::Clara`] pipeline once and shares it across workers via
//!   `Arc`;
//! - **accumulating caches** — one long-lived [`clara_core::Engine`]
//!   handle serves every request, so the in-memory and on-disk
//!   compile/profile artifact caches warm up monotonically across
//!   requests, and a serve-level prediction cache keyed by
//!   `(spec, backend, precision)` answers repeats without re-entering
//!   the engine (the second identical request recomputes — and
//!   re-hashes — nothing);
//! - **bounded queue + admission control** — requests run on a
//!   fixed-size worker pool behind a bounded queue; when the queue is
//!   full the server answers with a typed `overloaded` error immediately
//!   instead of hanging the client;
//! - **one route per request** — admission checks a request's NFs and
//!   picks its device backend and precision once (the request's, else
//!   its tenant's, else the server's); a worker runs each job on its
//!   own along that route;
//! - **deadlines** — a per-request budget turns queue-stuck requests
//!   into typed `deadline` errors; each worker thread also installs it
//!   as its own engine stage deadline
//!   ([`clara_core::engine::set_stage_deadline`]), so a wedged stage is
//!   cut short without touching another server's stages;
//! - **graceful drain** — a `drain` request (or SIGTERM on the CLI)
//!   stops admission, finishes everything in flight, and answers with a
//!   final deterministic [`clara_obs::RunReport`].
//!
//! - **multi-tenant fleet serving** — every request runs as a tenant
//!   ([`tenant`]); `op:"register"` pins per-tenant NF sets, default
//!   backend/precision, and admission quotas. Tenants get their own
//!   sub-queues under the shared capacity budget with round-robin
//!   dispatch and sharded workers, so one tenant's burst
//!   collects typed `quota_exceeded` while everyone else keeps their
//!   latency; `stats` surfaces per-tenant counters and pairwise
//!   colocation-interference predictions.
//!
//! The wire protocol is versioned JSON over TCP lines or UDS frames
//! (see [`protocol`] and [`transport`]). [`server`] hosts the daemon
//! (in-process startable for tests). Load generation lives outside the
//! library, in the `clara-perf` harness.

pub mod protocol;
pub mod server;
pub mod tenant;
pub mod transport;

pub use protocol::{RegisterSpec, Request, WorkSpec, PROTOCOL_VERSION};
pub use server::{ServeOptions, ServeSummary, Server, ServerHandle};
pub use tenant::{Registry, Tenant, TenantStats, DEFAULT_TENANT};
