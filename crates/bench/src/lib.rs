//! # dyndex-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (the repo benchmark with its recorded reference
//! numbers is separate: see `benchmark/README.md`).
//!
//! Binaries (run with `cargo run -p dyndex-bench --release --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_static` | Table 1 — static compressed indexes |
//! | `table2_dynamic` | Table 2 — dynamic indexing vs prior art |
//! | `table3_fast` | Table 3 — O(n log σ)-bit fast indexes |
//! | `table4_counting` | Table 4 — counting queries |
//! | `table5_relations` | Theorem 2 — dynamic binary relations |
//! | `table6_graph` | Theorem 3 — dynamic graphs |
//! | `fig1_subcollections` | Figure 1 — Transformation 1 layout |
//! | `fig2_worstcase` | Figure 2 — Transformation 2 layout |
//! | `fig3_rebuild_lifecycle` | Figure 3 — background rebuild lifecycle |
//! | `fig4_sharding` | beyond the paper — `dyndex-store` shard-count scaling |

pub mod workloads;
