//! # machsuite
//!
//! The MachSuite [Reagen et al., IISWC'14] benchmark kernels the paper
//! evaluates on, reimplemented as IR builders with deterministic input
//! generators and golden Rust implementations.
//!
//! Each kernel produces a [`BuiltKernel`]: the accelerator function (as
//! `salam-ir`), the pointer/scalar arguments the host would program through
//! MMRs, an initial memory image, and a checker that validates simulated
//! memory against the golden result. The same artifact drives the reference
//! interpreter, the SALAM runtime engine, the HLS reference scheduler and the
//! Aladdin baseline, so all execution models are compared on identical
//! workloads.
//!
//! Kernels (matching the paper's §IV selection):
//!
//! | module | benchmark | character |
//! |---|---|---|
//! | [`bfs`] | BFS (queue) | irregular integer, data-dependent control |
//! | [`fft`] | FFT (strided) | double-precision butterflies |
//! | [`gemm`] | GEMM (n-cubed) | regular dense double-precision |
//! | [`md_grid`] | MD (grid) | 3-D cell neighborhood FP |
//! | [`md_knn`] | MD (k-NN) | heavy double-precision arithmetic |
//! | [`nw`] | Needleman–Wunsch | integer DP with muxes |
//! | [`spmv`] | SpMV (CRS) | data-dependent sparse FP |
//! | [`stencil2d`] | Stencil2D | regular 2-D f32 |
//! | [`stencil3d`] | Stencil3D | regular 3-D f32 |
//!
//! # Example
//!
//! ```
//! use machsuite::{gemm, BuiltKernel};
//!
//! let k = gemm::build(&gemm::Params { n: 4, unroll: 1 });
//! let mut mem = salam_ir::interp::SparseMemory::new();
//! k.load_into(&mut mem);
//! salam_ir::interp::run_function(
//!     &k.func, &k.args, &mut mem,
//!     &mut salam_ir::interp::NullObserver, 10_000_000,
//! ).unwrap();
//! k.check(&mut mem).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod data;
pub mod fft;
pub mod gemm;
pub mod md_grid;
pub mod md_knn;
pub mod nw;
pub mod spmv;
pub mod stencil2d;
pub mod stencil3d;

use salam_ir::interp::{Memory, RtVal, SparseMemory};
use salam_ir::Function;

/// Output-validation callback: checks simulated memory against the golden
/// result.
pub type Checker = Box<dyn Fn(&mut SparseMemory) -> Result<(), String> + Send + Sync>;

/// A ready-to-simulate benchmark instance.
pub struct BuiltKernel {
    /// Benchmark name (e.g. `"gemm-ncubed"`).
    pub name: String,
    /// The accelerator kernel.
    pub func: Function,
    /// Arguments as the host driver would program them.
    pub args: Vec<RtVal>,
    /// Initial memory image as `(address, bytes)` chunks.
    pub init: Vec<(u64, Vec<u8>)>,
    /// Full data footprint `[lo, hi)` including outputs (defaults to the
    /// initial image's span; kernels with outputs beyond it override this).
    pub footprint: (u64, u64),
    checker: Checker,
}

impl BuiltKernel {
    /// Builds from parts; `checker` validates output memory.
    pub fn new(
        name: &str,
        func: Function,
        args: Vec<RtVal>,
        init: Vec<(u64, Vec<u8>)>,
        checker: Checker,
    ) -> Self {
        let lo = init.iter().map(|(a, _)| *a).min().unwrap_or(0);
        let hi = init
            .iter()
            .map(|(a, b)| a + b.len() as u64)
            .max()
            .unwrap_or(0);
        BuiltKernel {
            name: name.to_string(),
            func,
            args,
            init,
            footprint: (lo, hi),
            checker,
        }
    }

    /// Overrides the data footprint (kernels whose outputs lie beyond the
    /// initial image).
    pub fn with_footprint(mut self, lo: u64, hi: u64) -> Self {
        self.footprint = (lo, hi);
        self
    }

    /// Writes the initial image into an interpreter memory.
    pub fn load_into(&self, mem: &mut SparseMemory) {
        for (addr, bytes) in &self.init {
            mem.write(*addr, bytes);
        }
    }

    /// Applies the initial image through a raw byte-writer (e.g. a memsys
    /// scratchpad or DRAM backdoor).
    pub fn load_with(&self, mut write: impl FnMut(u64, &[u8])) {
        for (addr, bytes) in &self.init {
            write(*addr, bytes);
        }
    }

    /// Validates the output in `mem` against the golden model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn check(&self, mem: &mut SparseMemory) -> Result<(), String> {
        (self.checker)(mem)
    }

    /// Span `[lo, hi)` of all addresses touched by the initial image.
    pub fn init_span(&self) -> (u64, u64) {
        let lo = self.init.iter().map(|(a, _)| *a).min().unwrap_or(0);
        let hi = self
            .init
            .iter()
            .map(|(a, b)| a + b.len() as u64)
            .max()
            .unwrap_or(0);
        (lo, hi)
    }
}

impl std::fmt::Debug for BuiltKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltKernel")
            .field("name", &self.name)
            .field("func", &self.func.name)
            .field("args", &self.args.len())
            .field("init_chunks", &self.init.len())
            .finish()
    }
}

/// The benchmarks of the paper's evaluation, for iteration in harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bench {
    /// Breadth-first search (queue variant).
    Bfs,
    /// Strided FFT.
    FftStrided,
    /// Dense matrix multiply (n-cubed variant).
    GemmNcubed,
    /// Molecular dynamics, grid variant.
    MdGrid,
    /// Molecular dynamics, k-nearest-neighbors variant.
    MdKnn,
    /// Needleman–Wunsch sequence alignment.
    Nw,
    /// Sparse matrix-vector multiply (CRS format).
    SpmvCrs,
    /// 2-D stencil.
    Stencil2d,
    /// 3-D stencil.
    Stencil3d,
}

impl Bench {
    /// All benchmarks in the paper's Table IV order.
    pub const ALL: [Bench; 9] = [
        Bench::Bfs,
        Bench::FftStrided,
        Bench::GemmNcubed,
        Bench::MdGrid,
        Bench::MdKnn,
        Bench::Nw,
        Bench::SpmvCrs,
        Bench::Stencil2d,
        Bench::Stencil3d,
    ];

    /// Display name as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Bench::Bfs => "BFS",
            Bench::FftStrided => "FFT",
            Bench::GemmNcubed => "GEMM",
            Bench::MdGrid => "MD-Grid",
            Bench::MdKnn => "MD-KNN",
            Bench::Nw => "NW",
            Bench::SpmvCrs => "SPMV",
            Bench::Stencil2d => "Stencil2D",
            Bench::Stencil3d => "Stencil3D",
        }
    }

    /// The benchmark whose [`label`](Bench::label) matches `label` ignoring
    /// ASCII case — so the lowercase ids of sweeps, `salam_report`,
    /// `salam_lint` and serve (`gemm`, `md-grid`, ...) resolve too.
    pub fn from_label(label: &str) -> Option<Bench> {
        Bench::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(label))
    }

    /// Builds the benchmark at its standard (simulation-friendly) size.
    pub fn build_standard(self) -> BuiltKernel {
        match self {
            Bench::Bfs => bfs::build(&bfs::Params::default()),
            Bench::FftStrided => fft::build(&fft::Params::default()),
            Bench::GemmNcubed => gemm::build(&gemm::Params::default()),
            Bench::MdGrid => md_grid::build(&md_grid::Params::default()),
            Bench::MdKnn => md_knn::build(&md_knn::Params::default()),
            Bench::Nw => nw::build(&nw::Params::default()),
            Bench::SpmvCrs => spmv::build(&spmv::Params::default()),
            Bench::Stencil2d => stencil2d::build(&stencil2d::Params::default()),
            Bench::Stencil3d => stencil3d::build(&stencil3d::Params::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salam_ir::interp::{run_function, NullObserver};

    #[test]
    fn labels_resolve_ignoring_case() {
        assert_eq!(Bench::from_label("gemm"), Some(Bench::GemmNcubed));
        assert_eq!(Bench::from_label("md-grid"), Some(Bench::MdGrid));
        assert_eq!(Bench::from_label("nope"), None);
    }

    #[test]
    fn every_standard_benchmark_verifies_and_matches_golden() {
        for bench in Bench::ALL {
            let k = bench.build_standard();
            salam_ir::verify_function(&k.func).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let mut mem = SparseMemory::new();
            k.load_into(&mut mem);
            run_function(&k.func, &k.args, &mut mem, &mut NullObserver, 200_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            k.check(&mut mem)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Bench::ALL.iter().map(|b| b.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Bench::ALL.len());
    }

    #[test]
    fn init_span_is_sane() {
        let k = Bench::GemmNcubed.build_standard();
        let (lo, hi) = k.init_span();
        assert!(hi > lo);
    }
}

#[cfg(test)]
mod size_tests {
    use super::*;
    use salam_ir::interp::{run_function, NullObserver};

    fn run_check(k: &BuiltKernel) {
        salam_ir::verify_function(&k.func).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let mut mem = SparseMemory::new();
        k.load_into(&mut mem);
        run_function(&k.func, &k.args, &mut mem, &mut NullObserver, 500_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        k.check(&mut mem)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
    }

    #[test]
    fn kernels_scale_beyond_standard_sizes() {
        run_check(&gemm::build(&gemm::Params { n: 24, unroll: 8 }));
        run_check(&spmv::build(&spmv::Params {
            rows: 64,
            nnz_per_row: 12,
            ..Default::default()
        }));
        run_check(&stencil2d::build(&stencil2d::Params { rows: 24, cols: 32 }));
        run_check(&stencil3d::build(&stencil3d::Params {
            height: 6,
            rows: 10,
            cols: 12,
        }));
        run_check(&nw::build(&nw::Params { alen: 40, blen: 32 }));
        run_check(&fft::build(&fft::Params { n: 128 }));
        run_check(&bfs::build(&bfs::Params {
            nodes: 96,
            degree: 3,
            start: 5,
            seed: 11,
        }));
        run_check(&md_knn::build(&md_knn::Params { n_atoms: 48, k: 12 }));
        run_check(&md_grid::build(&md_grid::Params {
            block_side: 3,
            density: 3,
        }));
    }

    #[test]
    fn all_kernels_roundtrip_through_textual_ir() {
        // Every generated kernel prints to valid `.ll`-style text that
        // reparses to a printing fixed point — broad parser/printer coverage
        // over real control-flow shapes.
        for bench in Bench::ALL {
            let k = bench.build_standard();
            let mut m = salam_ir::Module::new("m");
            m.add_function(k.func.clone());
            let text = m.to_string();
            let parsed =
                salam_ir::parse_module(&text).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert_eq!(parsed.to_string(), text, "{} not a fixed point", k.name);
            salam_ir::verify_function(&parsed.functions()[0])
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn reparsed_kernels_compute_identical_results() {
        for bench in [Bench::SpmvCrs, Bench::Nw, Bench::FftStrided] {
            let k = bench.build_standard();
            let mut m = salam_ir::Module::new("m");
            m.add_function(k.func.clone());
            let parsed = salam_ir::parse_module(&m.to_string()).unwrap();
            let mut mem = SparseMemory::new();
            k.load_into(&mut mem);
            run_function(
                &parsed.functions()[0],
                &k.args,
                &mut mem,
                &mut NullObserver,
                500_000_000,
            )
            .unwrap();
            k.check(&mut mem)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }
}
