//! Error-tolerant multi-threaded workloads for the Ghostwriter simulator.
//!
//! Rust ports of the paper's Table 2 applications (Phoenix: `histogram`,
//! `linear_regression`, `pca`; AxBench: `blackscholes`, `inversek2j`,
//! `jpeg`) plus the §2 dot-product microbenchmarks. Every workload is
//! execution-driven: its shared data structures live in simulated memory
//! and all array accesses go through the coherence protocol, so stale
//! values read from approximate blocks feed back into the computation —
//! producing real output error, measured against a precise execution.
//!
//! Inputs are synthetic and seeded (DESIGN.md §7.3 documents the
//! substitution for the original input files).

pub mod blackscholes;
pub mod dot;
pub mod histogram;
pub mod inversek2j;
pub mod jpeg;
pub mod kmeans;
pub mod linreg;
pub mod metrics;
pub mod pca;
pub mod registry;
pub mod runner;
pub mod sobel;
pub mod tuner;

pub use blackscholes::BlackScholes;
pub use dot::{BadDotProduct, GoodDotProduct};
pub use histogram::Histogram;
pub use inversek2j::InverseK2J;
pub use jpeg::Jpeg;
pub use kmeans::KMeans;
pub use linreg::LinearRegression;
pub use metrics::{mpe, nrmse, Metric};
pub use pca::Pca;
pub use registry::{
    all_benchmarks, extended_benchmarks, find_benchmark, micro_benchmarks, paper_benchmarks,
    BenchmarkEntry, ScaleClass, Suite, DEFAULT_SEED,
};
pub use runner::{
    compare, compare_default, compare_on, execute, execute_faulty, Comparison, RunOutcome, Workload,
};
pub use sobel::Sobel;
pub use tuner::{autotune, Candidate, TuneResult, DEFAULT_LADDER};
