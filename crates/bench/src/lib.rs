//! Experiment harness for the reproduction.
//!
//! Every table (T1–T10) and figure (F1–F4) of the experiment plan in the
//! repository-root `DESIGN.md` (§3) is regenerated by [`experiments::run`],
//! which the `experiments` binary dispatches to:
//!
//! ```sh
//! cargo run -p locality-bench --release --bin experiments -- all
//! cargo run -p locality-bench --release --bin experiments -- t5 f1
//! ```
//!
//! The Criterion benches (`cargo bench`) time the hot paths; the experiment
//! binary reports the *model* quantities (rounds, colors, diameters, bits,
//! success rates) that the paper's theorems constrain.

// Bracketed citation keys ([EN16], [GKM17], ...) are bibliography
// references, not intra-doc links.
#![allow(rustdoc::broken_intra_doc_links)]
pub mod experiments;
pub mod table;
