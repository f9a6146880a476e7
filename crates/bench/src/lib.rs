//! # sc-bench
//!
//! Criterion benchmark targets for the reproduction. Each paper figure has
//! a bench that regenerates its data (`cargo bench -p sc-bench`); the
//! measured quantity is harness wall-time, and each bench *prints* the
//! figure's rows once per run so `bench_output.txt` doubles as the
//! experiment record.
//!
//! Targets: `fig3_survey`, `fig5_performance`, `fig6_overhead`,
//! `fig7_scalability`, `ablations`, `micro_substrates`, `obs_overhead`,
//! `cache_ops`.
//!
//! End-to-end performance is measured by the repository benchmark
//! (`benchmark/`, a package of its own), not here.
