//! The repository's benchmark: four workloads over the cioq-switch
//! crates, measured end to end (untraced) and layer by layer (traced) from
//! the benchmark's own side of each public interface. See `README.md`.

pub mod measure;
pub mod report;
pub mod trace;
pub mod workloads;
