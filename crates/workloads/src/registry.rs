//! The benchmark roster (paper Table 2) and factory functions.
//!
//! Each entry describes one application and can build identically-seeded
//! instances at a chosen scale, so the evaluation harness can run the same
//! inputs under both protocols.

use crate::blackscholes::BlackScholes;
use crate::dot::{BadDotProduct, GoodDotProduct};
use crate::histogram::Histogram;
use crate::inversek2j::InverseK2J;
use crate::jpeg::Jpeg;
use crate::kmeans::KMeans;
use crate::linreg::LinearRegression;
use crate::metrics::Metric;
use crate::pca::Pca;
use crate::runner::Workload;
use crate::sobel::Sobel;

/// Which suite an application comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suite {
    /// Phoenix map-reduce benchmarks (pthreads in the paper).
    Phoenix,
    /// AxBench approximate-computing benchmarks (OpenMP in the paper).
    AxBench,
    /// The paper's §2 / Fig. 12 microbenchmarks.
    Micro,
}

impl Suite {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Phoenix => "Phoenix",
            Suite::AxBench => "AxBench",
            Suite::Micro => "Microbenchmark",
        }
    }
}

/// How large an instance to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleClass {
    /// Small inputs for unit/integration tests (seconds).
    Test,
    /// The evaluation scale used by the figure harness (DESIGN.md §7.3
    /// documents the reduction from the paper's input sizes).
    Eval,
}

/// One Table 2 row.
pub struct BenchmarkEntry {
    /// Application name as in the paper.
    pub name: &'static str,
    /// Application domain (Table 2).
    pub domain: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// Input description at evaluation scale.
    pub input_desc: &'static str,
    /// Error metric.
    pub metric: Metric,
    factory: fn(ScaleClass, u64) -> Box<dyn Workload>,
}

impl BenchmarkEntry {
    /// Builds a fresh instance with the default evaluation seed.
    pub fn build(&self, scale: ScaleClass) -> Box<dyn Workload> {
        self.build_seeded(scale, DEFAULT_SEED)
    }

    /// Builds a fresh instance with an explicit input seed.
    ///
    /// Every workload constructor requires a seed (none may reach for an
    /// ambient entropy source), so threading the experiment spec's seed
    /// through here is the *only* way inputs are generated — identical
    /// seeds give bit-identical inputs, and the experiment engine's
    /// cache fingerprints include this seed.
    pub fn build_seeded(&self, scale: ScaleClass, seed: u64) -> Box<dyn Workload> {
        (self.factory)(scale, seed)
    }
}

/// The evaluation-default input seed (EXPERIMENTS.md provenance).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// All three rosters: paper, extended, then micro.
pub fn all_benchmarks() -> Vec<BenchmarkEntry> {
    let mut all = paper_benchmarks();
    all.extend(extended_benchmarks());
    all.extend(micro_benchmarks());
    all
}

/// Looks a benchmark up by name across all three rosters.
pub fn find_benchmark(name: &str) -> Option<BenchmarkEntry> {
    all_benchmarks().into_iter().find(|e| e.name == name)
}

/// The six paper applications (Table 2).
pub fn paper_benchmarks() -> Vec<BenchmarkEntry> {
    vec![
        BenchmarkEntry {
            name: "histogram",
            domain: "Image Processing",
            suite: Suite::Phoenix,
            input_desc: "synthetic RGB image",
            metric: Metric::Mpe,
            factory: |s, seed| {
                Box::new(Histogram::new(
                    seed,
                    match s {
                        ScaleClass::Test => 600,
                        ScaleClass::Eval => 6_000,
                    },
                ))
            },
        },
        BenchmarkEntry {
            name: "linear_regression",
            domain: "Machine Learning",
            suite: Suite::Phoenix,
            input_desc: "synthetic point file",
            metric: Metric::Mpe,
            factory: |s, seed| {
                Box::new(LinearRegression::new(
                    seed,
                    match s {
                        ScaleClass::Test => 400,
                        ScaleClass::Eval => 6_000,
                    },
                ))
            },
        },
        BenchmarkEntry {
            name: "pca",
            domain: "Machine Learning",
            suite: Suite::Phoenix,
            input_desc: "synthetic matrix",
            metric: Metric::Nrmse,
            factory: |s, seed| match s {
                ScaleClass::Test => Box::new(Pca::new(seed, 16, 24)),
                ScaleClass::Eval => Box::new(Pca::new(seed, 40, 48)),
            },
        },
        BenchmarkEntry {
            name: "blackscholes",
            domain: "Financial Analysis",
            suite: Suite::AxBench,
            input_desc: "synthetic options",
            metric: Metric::Mpe,
            factory: |s, seed| {
                Box::new(BlackScholes::new(
                    seed,
                    match s {
                        ScaleClass::Test => 300,
                        ScaleClass::Eval => 4_000,
                    },
                ))
            },
        },
        BenchmarkEntry {
            name: "inversek2j",
            domain: "Robotics",
            suite: Suite::AxBench,
            input_desc: "synthetic reachable points",
            metric: Metric::Nrmse,
            factory: |s, seed| {
                Box::new(InverseK2J::new(
                    seed,
                    match s {
                        ScaleClass::Test => 300,
                        ScaleClass::Eval => 4_000,
                    },
                ))
            },
        },
        BenchmarkEntry {
            name: "jpeg",
            domain: "Image Compression",
            suite: Suite::AxBench,
            input_desc: "synthetic grayscale image",
            metric: Metric::Nrmse,
            factory: |s, seed| match s {
                ScaleClass::Test => Box::new(Jpeg::new(seed, 16, 16)),
                ScaleClass::Eval => Box::new(Jpeg::new(seed, 64, 64)),
            },
        },
    ]
}

/// Extension workloads from the same suites, beyond the paper's
/// Table 2 (used by the `extended_eval` binary).
pub fn extended_benchmarks() -> Vec<BenchmarkEntry> {
    vec![
        BenchmarkEntry {
            name: "kmeans",
            domain: "Machine Learning",
            suite: Suite::Phoenix,
            input_desc: "clustered 2-D integer points",
            metric: Metric::Nrmse,
            factory: |s, seed| match s {
                ScaleClass::Test => Box::new(KMeans::new(seed, 120, 4, 3)),
                ScaleClass::Eval => Box::new(KMeans::new(seed, 600, 8, 5)),
            },
        },
        BenchmarkEntry {
            name: "sobel",
            domain: "Image Processing",
            suite: Suite::AxBench,
            input_desc: "synthetic grayscale image",
            metric: Metric::Nrmse,
            factory: |s, seed| match s {
                ScaleClass::Test => Box::new(Sobel::new(seed, 24, 24)),
                ScaleClass::Eval => Box::new(Sobel::new(seed, 64, 64)),
            },
        },
    ]
}

/// The §2 microbenchmarks (Fig. 1, Fig. 12).
pub fn micro_benchmarks() -> Vec<BenchmarkEntry> {
    vec![
        BenchmarkEntry {
            name: "bad_dot_product",
            domain: "Microbenchmark",
            suite: Suite::Micro,
            input_desc: "sparse integer vectors (0..=255)",
            metric: Metric::Mpe,
            factory: |s, seed| {
                Box::new(BadDotProduct::new(
                    seed,
                    match s {
                        ScaleClass::Test => 512,
                        ScaleClass::Eval => 8_000,
                    },
                    true,
                ))
            },
        },
        BenchmarkEntry {
            name: "good_dot_product",
            domain: "Microbenchmark",
            suite: Suite::Micro,
            input_desc: "sparse integer vectors (0..=255)",
            metric: Metric::Mpe,
            factory: |s, seed| {
                Box::new(GoodDotProduct::new(
                    seed,
                    match s {
                        ScaleClass::Test => 512,
                        ScaleClass::Eval => 8_000,
                    },
                ))
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_table2() {
        let b = paper_benchmarks();
        let names: Vec<_> = b.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "histogram",
                "linear_regression",
                "pca",
                "blackscholes",
                "inversek2j",
                "jpeg"
            ]
        );
        // Metrics as in Table 2.
        assert_eq!(b[0].metric, Metric::Mpe);
        assert_eq!(b[2].metric, Metric::Nrmse);
        assert_eq!(b[5].metric, Metric::Nrmse);
        assert_eq!(b[0].suite, Suite::Phoenix);
        assert_eq!(b[3].suite, Suite::AxBench);
    }

    #[test]
    fn factories_build_named_workloads() {
        for entry in paper_benchmarks()
            .iter()
            .chain(micro_benchmarks().iter())
            .chain(extended_benchmarks().iter())
        {
            let w = entry.build(ScaleClass::Test);
            assert_eq!(w.name(), entry.name);
            assert_eq!(w.metric(), entry.metric);
        }
    }

    #[test]
    fn find_benchmark_spans_all_rosters() {
        for name in ["histogram", "kmeans", "bad_dot_product"] {
            assert_eq!(find_benchmark(name).expect(name).name, name);
        }
        assert!(find_benchmark("nonesuch").is_none());
    }

    #[test]
    fn explicit_seed_reaches_every_workload() {
        // Same seed ⇒ bit-identical inputs (compared via the precise
        // reference output); different seed ⇒ different inputs. This is
        // the audit for the "no workload constructs its own unseeded
        // generator" rule: inputs must be a pure function of the seed.
        for entry in paper_benchmarks()
            .iter()
            .chain(micro_benchmarks().iter())
            .chain(extended_benchmarks().iter())
        {
            let a = entry.build_seeded(ScaleClass::Test, 7).reference();
            let b = entry.build_seeded(ScaleClass::Test, 7).reference();
            let c = entry.build_seeded(ScaleClass::Test, 8).reference();
            assert_eq!(a, b, "{}: same seed must give identical inputs", entry.name);
            assert_ne!(a, c, "{}: seed must actually vary the inputs", entry.name);
        }
    }
}
