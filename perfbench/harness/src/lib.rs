//! The harness behind `perfbench/run.py`: deterministic workload
//! generators, a closed-loop `nanopowerd` client, the `ppa` optimizer
//! workload, and the traced replay that times each layer's public calls.
//!
//! Every input a run sends is a pure function of the workload seed (see
//! [`gen`]), so two runs with one seed send byte-identical requests.

pub mod client;
pub mod gen;
pub mod out;
pub mod ppa;
pub mod serve;
pub mod stats;
pub mod trace;
