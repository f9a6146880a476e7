//! # sc-bench
//!
//! The two Criterion targets that are left: `micro_substrates` (crypto,
//! TLS, GFW classification, TCP, PAC rows) and `obs_overhead` (emission
//! cost per dispatcher configuration). They stay until every row
//! EXPERIMENTS.md cites from them has an owner in
//! `benchmark/src/micro.rs` (ROADMAP item 1d); then this crate and
//! `vendor/criterion` go (ROADMAP item 5).
//!
//! The per-figure targets (`fig3_survey`, `fig5_performance`,
//! `fig6_overhead`, `fig7_scalability`, `ablations`) only timed what
//! `cargo run --release --example paper_figures` runs, and
//! EXPERIMENTS.md's figure blocks pin what that prints. `cache_ops`'s
//! rows are `cache.lookup_hit_ns`, `cache.insert_evict_ns` and
//! `cache.singleflight_63_waiters_ns` in the repository benchmark.
//!
//! End-to-end performance is measured by the repository benchmark
//! (`benchmark/`, a package of its own), not here.
