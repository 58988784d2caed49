//! A Click-like NF framework model with executable semantics.
//!
//! This crate substitutes for the Click modular router in the Clara
//! reproduction. It provides:
//!
//! - [`PacketView`]: a mutable header-field view of a [`trafgen::Packet`];
//! - [`StateStore`]: runtime storage for an NF's stateful globals, with
//!   Netronome-style fixed-bucket hash maps and tombstoned vectors (the
//!   semantics Clara's *reverse porting* targets, Section 3.3);
//! - [`Machine`]: an interpreter that executes an NF's NIR module packet by
//!   packet, handing each event (basic-block visits, stateful memory
//!   accesses, packet accesses, framework API events) to an
//!   [`EventSink`] as it happens; an [`ExecTrace`] is the sink that
//!   records them;
//! - [`RefMachine`]: an independently written reference executor for the
//!   same NIR, compared against [`Machine`] event-for-event by the
//!   `clara difftest` oracle;
//! - the NF corpus: all 17 Click programs of the paper's Table 2 plus the
//!   Figure 1 motivation NFs, each defined purely by its NIR module
//!   ([`NfElement`]).
//!
//! Defining elements *only* as IR and executing them through one
//! interpreter guarantees that Clara's static analyses and the simulator's
//! dynamic traces can never disagree about program structure.
//!
//! # Examples
//!
//! ```
//! use click_model::{corpus, Machine};
//! use trafgen::{Trace, WorkloadSpec};
//!
//! let nf = click_model::elements::aggcounter();
//! let mut machine = Machine::new(&nf.module).expect("valid module");
//! let trace = Trace::generate(&WorkloadSpec::large_flows(), 10, 1);
//! for pkt in &trace.pkts {
//!     let t = machine.run(pkt).expect("no step limit");
//!     assert!(!t.events.is_empty());
//! }
//! assert!(corpus().len() >= 17);
//! ```

pub mod chain;
pub mod element;
pub mod elements;
pub mod exec;
pub mod interp;
pub mod packet;
pub mod state;

pub use chain::{Chain, ChainResult};
pub use element::{
    corpus, extended_corpus, motivation_variants, ElementMeta, InsightClass, NfElement,
};
pub use exec::{ApiEvent, Event, EventSink, ExecTrace, RefMachine, TraceError};
pub use interp::Machine;
pub use packet::{PacketSnapshot, PacketView};
pub use state::{FlowCounters, StateStore};
