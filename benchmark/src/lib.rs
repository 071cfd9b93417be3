//! `pargrid-e2e`: the repository's benchmark. It drives the real, unpaced
//! serving stack on loopback from an in-process load generator, checks every
//! answer against a serial oracle, and prints every metric `BENCHMARK.json`
//! declares by name with its unit. See `README.md` beside this package.

#![warn(missing_docs)]

pub mod host;
pub mod inputs;
pub mod load;
pub mod replay;
pub mod report;
pub mod run;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod wire;
