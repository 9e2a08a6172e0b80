//! The repo benchmark of record.
//!
//! Four workloads (`paper_figs`, `campus1024`, `mobile_refresh`,
//! `sweep_short`) driven through the entry points users call
//! (`wmn_netsim::run`, `wmn_experiments::sweep::run_sweep`, and
//! `fig3`/`fig6::generate` for the output checks), measured end to end with
//! tracing off ([`measure`]) and, in a separate run, layer by layer from
//! outside ([`attribution`], [`probes`]). `BENCHMARK.json` at the repository
//! root is the contract; see `README.md` in this directory.

pub mod attribution;
pub mod checks;
pub mod compare;
pub mod measure;
pub mod probes;
pub mod report;
pub mod workloads;
