//! Sweep specification: deterministic parameter grids over standalone
//! accelerator configurations.
//!
//! A [`SweepSpec`] is kernels × axes. Each axis is an ordered list of
//! labelled settings (closures over [`StandaloneConfig`]); enumeration is
//! kernel-major with the **last axis varying fastest**, so a spec always
//! yields the same points in the same order — the foundation for both
//! byte-identical reports across worker counts and stable cache keys.

use std::sync::Arc;

use hw_profile::FuKind;
use machsuite::{Bench, BuiltKernel};
use salam::standalone::{run_kernel, StandaloneConfig};
use salam::RunReport;

use crate::cache::CacheId;
use crate::SweepJob;

/// A kernel the sweep can instantiate on any worker thread.
///
/// The `id` is part of the cache identity: it must uniquely describe the
/// kernel *including its parameters and dataset* (the bundled builders are
/// deterministic, seeded generators, so the id is sufficient). Builders
/// run once per point per worker — kernels are built where they run
/// instead of being shared across threads.
#[derive(Clone)]
pub struct KernelSpec {
    /// Stable identity, e.g. `gemm-ncubed` or `gemm[n=16,u=16]`.
    pub id: String,
    builder: Arc<dyn Fn() -> BuiltKernel + Send + Sync>,
}

impl std::fmt::Debug for KernelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSpec").field("id", &self.id).finish()
    }
}

impl KernelSpec {
    /// A standard MachSuite benchmark instance.
    pub fn bench(bench: Bench) -> Self {
        KernelSpec {
            id: bench.label().to_ascii_lowercase(),
            builder: Arc::new(move || bench.build_standard()),
        }
    }

    /// A custom kernel. `id` must change whenever the built kernel does.
    pub fn custom(
        id: impl Into<String>,
        builder: impl Fn() -> BuiltKernel + Send + Sync + 'static,
    ) -> Self {
        KernelSpec {
            id: id.into(),
            builder: Arc::new(builder),
        }
    }

    /// Instantiates the kernel.
    pub fn build(&self) -> BuiltKernel {
        (self.builder)()
    }
}

type Apply = Arc<dyn Fn(&mut StandaloneConfig) + Send + Sync>;

/// One sweep dimension: a name (the report column) and an ordered list of
/// labelled settings.
#[derive(Clone)]
pub struct Axis {
    /// Column name, e.g. `ports` or `fmul`.
    pub name: String,
    settings: Vec<(String, Apply)>,
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("labels", &self.labels().collect::<Vec<_>>())
            .finish()
    }
}

impl Axis {
    /// An empty axis; add settings with [`Axis::setting`].
    pub fn new(name: impl Into<String>) -> Self {
        Axis {
            name: name.into(),
            settings: Vec::new(),
        }
    }

    /// Renames the axis (the report column header) — e.g. the paper calls
    /// the `fp_mul_dp` pool limit simply `fmul`.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Appends a labelled setting.
    pub fn setting(
        mut self,
        label: impl Into<String>,
        apply: impl Fn(&mut StandaloneConfig) + Send + Sync + 'static,
    ) -> Self {
        self.settings.push((label.into(), Arc::new(apply)));
        self
    }

    /// Symmetric SPM read/write ports (the Fig. 14 knob).
    pub fn spm_ports(values: &[u32]) -> Self {
        values.iter().fold(Axis::new("ports"), |a, &v| {
            a.setting(v.to_string(), move |c| {
                c.spm_read_ports = v;
                c.spm_write_ports = v;
            })
        })
    }

    /// SPM access latency in cycles.
    pub fn spm_latency(values: &[u64]) -> Self {
        values.iter().fold(Axis::new("spm-lat"), |a, &v| {
            a.setting(v.to_string(), move |c| c.spm_latency = v)
        })
    }

    /// Reservation-window depth (the lookahead knob).
    pub fn reservation_entries(values: &[usize]) -> Self {
        values.iter().fold(Axis::new("window"), |a, &v| {
            a.setting(v.to_string(), move |c| c.engine.reservation_entries = v)
        })
    }

    /// Caps one functional-unit pool (the FU-constraint knob of the
    /// paper's co-design sweeps). Column name is the FU's stable name.
    pub fn fu_limit(kind: FuKind, values: &[u32]) -> Self {
        values.iter().fold(Axis::new(kind.name()), |a, &v| {
            a.setting(v.to_string(), move |c| {
                c.constraints = c.constraints.clone().with_limit(kind, v);
            })
        })
    }

    /// An on/off ablation knob.
    pub fn toggle(
        name: impl Into<String>,
        apply: impl Fn(&mut StandaloneConfig, bool) + Send + Sync + 'static,
    ) -> Self {
        let apply = Arc::new(apply);
        let on = apply.clone();
        Axis::new(name)
            .setting("off", move |c| apply(c, false))
            .setting("on", move |c| on(c, true))
    }

    /// Setting labels in order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.settings.iter().map(|(l, _)| l.as_str())
    }

    /// Number of settings.
    pub fn len(&self) -> usize {
        self.settings.len()
    }

    /// Whether the axis has no settings.
    pub fn is_empty(&self) -> bool {
        self.settings.is_empty()
    }
}

/// A deterministic parameter grid: kernels × axes over a base config.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (report titles, metric prefixes).
    pub name: String,
    base: StandaloneConfig,
    kernels: Vec<KernelSpec>,
    axes: Vec<Axis>,
}

impl SweepSpec {
    /// A sweep over `base`; add kernels and axes, then [`SweepSpec::points`].
    pub fn new(name: impl Into<String>, base: StandaloneConfig) -> Self {
        SweepSpec {
            name: name.into(),
            base,
            kernels: Vec::new(),
            axes: Vec::new(),
        }
    }

    /// Adds a kernel (outermost enumeration dimension).
    pub fn kernel(mut self, k: KernelSpec) -> Self {
        self.kernels.push(k);
        self
    }

    /// Adds an axis; later axes vary faster.
    pub fn axis(mut self, a: Axis) -> Self {
        assert!(!a.is_empty(), "axis '{}' has no settings", a.name);
        self.axes.push(a);
        self
    }

    /// Axis names in declaration order (the report's coordinate columns).
    pub fn axis_names(&self) -> Vec<String> {
        self.axes.iter().map(|a| a.name.clone()).collect()
    }

    /// Total number of points (kernels × settings product).
    pub fn point_count(&self) -> usize {
        self.kernels.len() * self.axes.iter().map(Axis::len).product::<usize>()
    }

    /// Enumerates every design point in canonical order: kernels outermost
    /// (in insertion order), then the axis grid with the last axis varying
    /// fastest — exactly nested-for-loop order.
    pub fn points(&self) -> Vec<StandalonePoint> {
        let combos: usize = self.axes.iter().map(Axis::len).product();
        let mut out = Vec::with_capacity(self.point_count());
        for kernel in &self.kernels {
            for combo in 0..combos {
                // Decode the mixed-radix index, last axis fastest.
                let mut idx = vec![0usize; self.axes.len()];
                let mut n = combo;
                for pos in (0..self.axes.len()).rev() {
                    idx[pos] = n % self.axes[pos].len();
                    n /= self.axes[pos].len();
                }
                let mut config = self.base.clone();
                let mut coords = Vec::with_capacity(self.axes.len());
                for (a, &i) in self.axes.iter().zip(&idx) {
                    let (label, apply) = &a.settings[i];
                    apply(&mut config);
                    coords.push((a.name.clone(), label.clone()));
                }
                out.push(StandalonePoint {
                    kernel: kernel.clone(),
                    config,
                    coords,
                });
            }
        }
        out
    }
}

/// One enumerated design point: a kernel plus the fully applied config and
/// the human-readable coordinates that produced it.
#[derive(Debug, Clone)]
pub struct StandalonePoint {
    /// The kernel to run.
    pub kernel: KernelSpec,
    /// The point's complete configuration.
    pub config: StandaloneConfig,
    /// `(axis name, setting label)` pairs in axis order.
    pub coords: Vec<(String, String)>,
}

impl StandalonePoint {
    /// A compact `kernel/axis=v/axis=v` label for metrics and logs.
    pub fn label(&self) -> String {
        let mut s = self.kernel.id.clone();
        for (k, v) in &self.coords {
            s.push_str(&format!("/{k}={v}"));
        }
        s
    }
}

impl SweepJob for StandalonePoint {
    type Output = RunReport;

    fn cache_id(&self) -> CacheId {
        CacheId::new(
            format!("standalone/{}", self.kernel.id),
            self.config.canonical_repr(),
        )
    }

    /// A nonsensical configuration (zero ports, zero word size, …) is
    /// rejected as a `C001` diagnostic instead of panicking a worker:
    /// axis grids routinely sweep a knob through zero.
    fn validate(&self) -> Result<(), salam_verify::Diagnostic> {
        config_diagnostic(&self.config)
    }

    fn run(&self) -> RunReport {
        run_kernel(&self.kernel.build(), &self.config)
    }

    /// Records the point's cycle count into the sweep-wide `dse.point.cycles`
    /// histogram. Called for cache hits and fresh simulations alike, so the
    /// histogram is a pure function of the point set — independent of cache
    /// state, worker count and merge order.
    fn record_telemetry(&self, output: &RunReport, tel: &mut salam_telemetry::Telemetry) {
        tel.record("dse.point.cycles", output.cycles);
    }
}

/// Maps a rejected configuration to the sweep engine's `C001` diagnostic.
/// Every sweep job over a [`StandaloneConfig`] validates through here.
pub(crate) fn config_diagnostic(cfg: &StandaloneConfig) -> Result<(), salam_verify::Diagnostic> {
    use salam_verify::{codes, Diagnostic, Span};
    cfg.validate().map_err(|e| match e {
        salam::SimError::Config(c) => Diagnostic::error(
            codes::C001,
            Span::default(),
            format!("{}.{}: {}", c.component, c.field, c.detail),
        ),
        other => Diagnostic::error(codes::C001, Span::default(), other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_gemm() -> KernelSpec {
        KernelSpec::custom("gemm[n=4,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
        })
    }

    #[test]
    fn enumeration_is_nested_loop_order() {
        let spec = SweepSpec::new("t", StandaloneConfig::default())
            .kernel(tiny_gemm())
            .axis(Axis::spm_ports(&[1, 2]))
            .axis(Axis::spm_latency(&[1, 2, 4]));
        let pts = spec.points();
        assert_eq!(pts.len(), 6);
        assert_eq!(spec.point_count(), 6);
        let coords: Vec<String> = pts.iter().map(|p| p.label()).collect();
        assert_eq!(
            coords,
            [
                "gemm[n=4,u=1]/ports=1/spm-lat=1",
                "gemm[n=4,u=1]/ports=1/spm-lat=2",
                "gemm[n=4,u=1]/ports=1/spm-lat=4",
                "gemm[n=4,u=1]/ports=2/spm-lat=1",
                "gemm[n=4,u=1]/ports=2/spm-lat=2",
                "gemm[n=4,u=1]/ports=2/spm-lat=4",
            ]
        );
        // Settings really applied.
        assert_eq!(pts[0].config.spm_read_ports, 1);
        assert_eq!(pts[5].config.spm_latency, 4);
        assert_eq!(pts[5].config.spm_write_ports, 2);
    }

    #[test]
    fn no_axes_yields_one_point_per_kernel() {
        let spec = SweepSpec::new("t", StandaloneConfig::default())
            .kernel(tiny_gemm())
            .kernel(KernelSpec::bench(Bench::SpmvCrs));
        let pts = spec.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].kernel.id, "spmv");
    }

    #[test]
    fn distinct_points_have_distinct_cache_ids() {
        let spec = SweepSpec::new("t", StandaloneConfig::default())
            .kernel(tiny_gemm())
            .axis(Axis::spm_ports(&[1, 2, 4]))
            .axis(Axis::fu_limit(FuKind::FpMulF64, &[1, 2]));
        let pts = spec.points();
        let mut keys: Vec<u64> = pts.iter().map(|p| p.cache_id().key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), pts.len(), "cache keys must be unique");
    }

    #[test]
    fn point_runs_and_verifies() {
        let spec = SweepSpec::new("t", StandaloneConfig::default()).kernel(tiny_gemm());
        let pts = spec.points();
        let report = pts[0].run();
        assert!(report.verified);
        assert!(report.cycles > 0);
    }
}
