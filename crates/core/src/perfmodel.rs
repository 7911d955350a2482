//! Calibrated performance models for transfer and computation times.
//!
//! The paper treats every task's communication and computation duration as
//! a fixed analytic input. Its own argument, though, is that *better
//! performance models change scheduling decisions* — and the related work
//! (StarPU's history/regression models, the Cray XE piecewise-linear
//! communication fits) builds those models from measurements. This module
//! is that layer:
//!
//! * [`CostModel`] — the trait every backend implements:
//!   `transfer_time(task, link)` and `compute_time(task, backend)`.
//! * [`Analytic`] — the paper's numbers verbatim: the task's own
//!   `comm_time` / `comp_time` fields. This is the **normalized default**:
//!   an instance or trace carrying an explicit `Analytic` spec serializes
//!   exactly like one carrying none, so every pre-existing golden file,
//!   digest and `Eq` comparison is untouched by this layer's existence.
//! * [`HistoryModel`] — StarPU-style per-(link class, size bucket) tables
//!   of observed mean durations.
//! * [`RegressionModel`] — a least-squares `t = α + β·bytes` fit per link
//!   class, fitted and evaluated in pure integer arithmetic (the slope is
//!   stored in picoseconds per byte) so predictions are bit-identical
//!   across platforms and libm versions.
//!
//! Model files are versioned JSON with the same strict dual-direction
//! validation discipline as the dts-trace format: unknown keys, unknown
//! versions, float/negative coefficients and empty history tables are
//! typed [`CoreError::InvalidCostModel`] errors on import, export refuses
//! to render a model that would not re-import, and export → import →
//! export is byte-identical.
//!
//! Times are **materialized once per instance**, at model-application
//! time ([`crate::instance::Instance::with_cost_model`]): the model
//! rewrites each task's `comm_time` / `comp_time`, and every simulator,
//! heuristic and candidate-index query downstream keeps reading plain
//! task fields. The O(log n) decision paths never query a model.

use crate::doc::{self, At};
use crate::error::{CoreError, Result};
use crate::task::Task;
use crate::time::Time;
use serde::{Serialize, Value};
use std::fmt;
use std::path::Path;

/// `format` field of a cost-model file.
pub const FORMAT_NAME: &str = "dts-cost-model";

/// Version this build writes and the only version it reads.
pub const FORMAT_VERSION: u64 = 1;

/// Scale of regression slopes: β is stored in picoseconds per byte, so
/// `β·bytes / PS_PER_MICRO` is microseconds — integer all the way.
pub const PS_PER_MICRO: u64 = 1_000_000;

/// Relative-error scale of [`FitReport`]: basis points (1/100 of a %).
pub const REL_ERR_SCALE_BP: u64 = 10_000;

/// R² scale of [`FitReport`]: parts per million.
pub const R2_SCALE_PPM: u64 = 1_000_000;

fn invalid(msg: impl Into<String>) -> CoreError {
    CoreError::InvalidCostModel(msg.into())
}

/// The link class a transfer runs on. The pipeline of the paper has a
/// single host-to-device input link; the device-to-host class exists so
/// model files stay forward-compatible with output transfers, and
/// predictions for it fall back to the host-to-device fit when a model
/// carries no explicit entry (symmetric-link assumption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkClass {
    /// Input transfers into device memory (the paper's only link).
    HostToDevice,
    /// Output transfers back to the host.
    DeviceToHost,
}

impl LinkClass {
    /// Every link class, in canonical model-file order.
    pub const ALL: [LinkClass; 2] = [LinkClass::HostToDevice, LinkClass::DeviceToHost];

    /// Model-file name of the link class.
    pub fn name(self) -> &'static str {
        match self {
            LinkClass::HostToDevice => "h2d",
            LinkClass::DeviceToHost => "d2h",
        }
    }

    /// Parses a model-file link name (case-insensitive).
    pub fn from_name(name: &str) -> Option<LinkClass> {
        let lower = name.to_ascii_lowercase();
        LinkClass::ALL.iter().copied().find(|l| l.name() == lower)
    }
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The compute backend a computation runs on. The paper's node model has
/// one processing unit; the enum keeps the model-file schema explicit
/// about what was calibrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComputeBackend {
    /// The single processing unit of the paper's node model.
    Cpu,
}

impl ComputeBackend {
    /// Every compute backend, in canonical model-file order.
    pub const ALL: [ComputeBackend; 1] = [ComputeBackend::Cpu];

    /// Model-file name of the backend.
    pub fn name(self) -> &'static str {
        match self {
            ComputeBackend::Cpu => "cpu",
        }
    }

    /// Parses a model-file backend name (case-insensitive).
    pub fn from_name(name: &str) -> Option<ComputeBackend> {
        let lower = name.to_ascii_lowercase();
        ComputeBackend::ALL
            .iter()
            .copied()
            .find(|b| b.name() == lower)
    }
}

impl fmt::Display for ComputeBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A performance model: predicts the transfer and computation duration of
/// a task. Fitted backends ([`HistoryModel`], [`RegressionModel`]) read
/// only the task's memory footprint (`bytes → time`); [`Analytic`] reads
/// the task's own recorded durations.
pub trait CostModel {
    /// Predicted duration of the task's input transfer on `link`.
    fn transfer_time(&self, task: &Task, link: LinkClass) -> Time;

    /// Predicted duration of the task's computation on `backend`.
    fn compute_time(&self, task: &Task, backend: ComputeBackend) -> Time;
}

/// The paper's analytic model: every duration is the task's own recorded
/// value. This backend is the identity of the cost-model layer — applying
/// it never changes an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Analytic;

impl CostModel for Analytic {
    fn transfer_time(&self, task: &Task, _link: LinkClass) -> Time {
        task.comm_time
    }

    fn compute_time(&self, task: &Task, _backend: ComputeBackend) -> Time {
        task.comp_time
    }
}

/// One least-squares line `t_us = alpha_us + beta·bytes`, with the slope
/// in picoseconds per byte so evaluation is exact integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinearFit {
    /// Intercept, microseconds.
    pub alpha_us: u64,
    /// Slope, picoseconds per byte.
    pub beta_ps_per_byte: u64,
    /// Number of observations the fit was computed from.
    pub samples: u64,
}

impl LinearFit {
    /// Evaluates the line at `bytes`, rounding the slope term half up and
    /// saturating at `u64::MAX` microseconds.
    pub fn predict_us(&self, bytes: u64) -> u64 {
        let scaled = u128::from(bytes) * u128::from(self.beta_ps_per_byte);
        let beta_us = (scaled + u128::from(PS_PER_MICRO / 2)) / u128::from(PS_PER_MICRO);
        u128::from(self.alpha_us)
            .saturating_add(beta_us)
            .min(u128::from(u64::MAX)) as u64
    }
}

/// Fits `t_us = α + β·bytes` to observations by integer least squares.
///
/// All sums and the normal-equation solve run in `i128`/`u128`; negative
/// fitted slopes or intercepts (possible on adversarial data) clamp to
/// zero, so the returned coefficients always pass model-file validation.
/// Returns [`CoreError::InvalidCostModel`] for an empty observation list
/// or sums beyond 128-bit range.
pub fn fit_linear(samples: &[(u64, u64)]) -> Result<LinearFit> {
    if samples.is_empty() {
        return Err(invalid("cannot fit a regression to zero observations"));
    }
    let n = samples.len() as i128;
    let overflow = || invalid("calibration sums exceed 128-bit range");
    let mut sx: i128 = 0;
    let mut sy: i128 = 0;
    let mut sxx: i128 = 0;
    let mut sxy: i128 = 0;
    for &(bytes, micros) in samples {
        let x = bytes as i128;
        let y = micros as i128;
        sx = sx.checked_add(x).ok_or_else(overflow)?;
        sy = sy.checked_add(y).ok_or_else(overflow)?;
        sxx = x
            .checked_mul(x)
            .and_then(|xx| sxx.checked_add(xx))
            .ok_or_else(overflow)?;
        sxy = x
            .checked_mul(y)
            .and_then(|xy| sxy.checked_add(xy))
            .ok_or_else(overflow)?;
    }
    let den = n
        .checked_mul(sxx)
        .and_then(|nsxx| sx.checked_mul(sx).map(|sx2| nsxx - sx2))
        .ok_or_else(overflow)?;
    let round_div = |num: i128, den: i128| -> i128 {
        // Round half away from zero; callers clamp negatives to 0 anyway.
        if num >= 0 {
            (num + den / 2) / den
        } else {
            (num - den / 2) / den
        }
    };
    let beta_ps_per_byte = if den == 0 {
        // Every observation shares one size: the line degenerates to the
        // mean duration.
        0
    } else {
        let num = n
            .checked_mul(sxy)
            .and_then(|nsxy| sx.checked_mul(sy).map(|sxsy| nsxy - sxsy))
            .and_then(|slope_num| slope_num.checked_mul(PS_PER_MICRO as i128))
            .ok_or_else(overflow)?;
        round_div(num, den).max(0)
    };
    // α = mean(y) − β·mean(x), at ps scale to keep the division exact-ish.
    let alpha_num = sy
        .checked_mul(PS_PER_MICRO as i128)
        .and_then(|sy_ps| beta_ps_per_byte.checked_mul(sx).map(|bx| sy_ps - bx))
        .ok_or_else(overflow)?;
    let alpha_us = round_div(alpha_num, n * PS_PER_MICRO as i128).max(0);
    Ok(LinearFit {
        alpha_us: alpha_us.min(u64::MAX as i128) as u64,
        beta_ps_per_byte: beta_ps_per_byte.min(u64::MAX as i128) as u64,
        samples: samples.len() as u64,
    })
}

/// The power-of-two size bucket of a byte count: `floor(log2(bytes))`,
/// with zero-byte transfers in bucket 0.
pub fn size_bucket(bytes: u64) -> u32 {
    if bytes == 0 {
        0
    } else {
        63 - bytes.leading_zeros()
    }
}

/// One observed-duration bucket of a history table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryBucket {
    /// Power-of-two size bucket, `floor(log2(bytes))`, 0–63.
    pub bucket: u32,
    /// Mean observed duration of the bucket, microseconds.
    pub mean_us: u64,
    /// Number of observations behind the mean (≥ 1).
    pub samples: u64,
}

/// A per-link-class (or per-backend) history table: mean observed
/// durations by power-of-two size bucket, strictly ascending and
/// non-empty by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HistoryTable {
    buckets: Vec<HistoryBucket>,
}

impl HistoryTable {
    /// Builds a table, enforcing the model-file invariants: at least one
    /// bucket, buckets strictly ascending, every bucket ≤ 63 with at
    /// least one sample.
    pub fn new(buckets: Vec<HistoryBucket>) -> Result<Self> {
        if buckets.is_empty() {
            return Err(invalid("history tables must hold at least one bucket"));
        }
        for pair in buckets.windows(2) {
            if pair[1].bucket <= pair[0].bucket {
                return Err(invalid(format!(
                    "history buckets must be strictly ascending, got {} after {}",
                    pair[1].bucket, pair[0].bucket
                )));
            }
        }
        for b in &buckets {
            if b.bucket > 63 {
                return Err(invalid(format!(
                    "history bucket {} is out of range (log2 of a u64 is at most 63)",
                    b.bucket
                )));
            }
            if b.samples == 0 {
                return Err(invalid(format!(
                    "history bucket {} carries zero samples",
                    b.bucket
                )));
            }
        }
        Ok(HistoryTable { buckets })
    }

    /// The buckets, strictly ascending.
    pub fn buckets(&self) -> &[HistoryBucket] {
        &self.buckets
    }

    /// Predicts the duration of a `bytes`-sized item: the mean of its
    /// exact size bucket, or of the nearest recorded bucket (ties toward
    /// the smaller one) when the exact bucket was never observed.
    pub fn predict_us(&self, bytes: u64) -> u64 {
        let target = size_bucket(bytes);
        let mut best = &self.buckets[0];
        for b in &self.buckets {
            let dist = b.bucket.abs_diff(target);
            if dist < best.bucket.abs_diff(target) {
                best = b;
            }
        }
        best.mean_us
    }

    /// Merges new observations into the table, combining per-bucket means
    /// weighted by sample count (the `dts calibrate --update` path).
    pub fn merged_with(&self, other: &HistoryTable) -> HistoryTable {
        let mut buckets = self.buckets.clone();
        for add in &other.buckets {
            match buckets.binary_search_by_key(&add.bucket, |b| b.bucket) {
                Ok(i) => {
                    let old = buckets[i];
                    let total = old.samples.saturating_add(add.samples);
                    let weighted = u128::from(old.mean_us) * u128::from(old.samples)
                        + u128::from(add.mean_us) * u128::from(add.samples);
                    buckets[i] = HistoryBucket {
                        bucket: old.bucket,
                        mean_us: ((weighted + u128::from(total) / 2) / u128::from(total.max(1)))
                            .min(u128::from(u64::MAX)) as u64,
                        samples: total,
                    };
                }
                Err(i) => buckets.insert(i, *add),
            }
        }
        HistoryTable { buckets }
    }
}

/// Fits a history table to observations: observations are grouped by
/// [`size_bucket`] and each bucket records its rounded mean duration.
pub fn fit_history(samples: &[(u64, u64)]) -> Result<HistoryTable> {
    if samples.is_empty() {
        return Err(invalid("cannot fit a history table to zero observations"));
    }
    let mut sums: Vec<(u32, u128, u64)> = Vec::new();
    for &(bytes, micros) in samples {
        let bucket = size_bucket(bytes);
        match sums.binary_search_by_key(&bucket, |&(b, _, _)| b) {
            Ok(i) => {
                sums[i].1 += u128::from(micros);
                sums[i].2 += 1;
            }
            Err(i) => sums.insert(i, (bucket, u128::from(micros), 1)),
        }
    }
    HistoryTable::new(
        sums.into_iter()
            .map(|(bucket, sum, count)| HistoryBucket {
                bucket,
                mean_us: ((sum + u128::from(count) / 2) / u128::from(count))
                    .min(u128::from(u64::MAX)) as u64,
                samples: count,
            })
            .collect(),
    )
}

/// Checks the per-link / per-backend entry lists shared by both fitted
/// backends: non-empty, unique, in canonical declaration order, and
/// carrying the required default entry (`h2d` for transfers, `cpu` for
/// compute) so predictions are total.
fn check_entries<K: Copy + Eq + fmt::Display>(
    entries: &[(K, impl Sized)],
    all: &[K],
    required: K,
    section: &str,
) -> Result<()> {
    if entries.is_empty() {
        return Err(invalid(format!("model {section} section is empty")));
    }
    let position = |k: K| all.iter().position(|&a| a == k).unwrap_or(usize::MAX);
    for pair in entries.windows(2) {
        if position(pair[1].0) <= position(pair[0].0) {
            return Err(invalid(format!(
                "model {section} entries must be unique and in canonical order, \
                 got {} after {}",
                pair[1].0, pair[0].0
            )));
        }
    }
    if !entries.iter().any(|(k, _)| *k == required) {
        return Err(invalid(format!(
            "model {section} section must cover `{required}`"
        )));
    }
    Ok(())
}

/// A history-based cost model: one [`HistoryTable`] per link class and
/// compute backend.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HistoryModel {
    transfer: Vec<(LinkClass, HistoryTable)>,
    compute: Vec<(ComputeBackend, HistoryTable)>,
}

/// A regression cost model: one [`LinearFit`] per link class and compute
/// backend.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegressionModel {
    transfer: Vec<(LinkClass, LinearFit)>,
    compute: Vec<(ComputeBackend, LinearFit)>,
}

macro_rules! fitted_model_impl {
    ($model:ident, $entry:ty) => {
        impl $model {
            /// Builds the model, enforcing the entry invariants:
            /// canonical order, uniqueness, and the required `h2d` /
            /// `cpu` default entries.
            pub fn new(
                transfer: Vec<(LinkClass, $entry)>,
                compute: Vec<(ComputeBackend, $entry)>,
            ) -> Result<Self> {
                check_entries(
                    &transfer,
                    &LinkClass::ALL,
                    LinkClass::HostToDevice,
                    "transfer",
                )?;
                check_entries(
                    &compute,
                    &ComputeBackend::ALL,
                    ComputeBackend::Cpu,
                    "compute",
                )?;
                Ok($model { transfer, compute })
            }

            /// The per-link transfer entries, in canonical order.
            pub fn transfer_entries(&self) -> &[(LinkClass, $entry)] {
                &self.transfer
            }

            /// The per-backend compute entries, in canonical order.
            pub fn compute_entries(&self) -> &[(ComputeBackend, $entry)] {
                &self.compute
            }

            /// The entry for `link`, falling back to the guaranteed
            /// host-to-device entry (symmetric-link assumption).
            pub fn transfer_entry(&self, link: LinkClass) -> &$entry {
                self.transfer
                    .iter()
                    .find(|(l, _)| *l == link)
                    .or_else(|| {
                        self.transfer
                            .iter()
                            .find(|(l, _)| *l == LinkClass::HostToDevice)
                    })
                    .map(|(_, e)| e)
                    // lint: allow(L001) check_entries enforces the h2d entry at construction
                    .expect("construction guarantees an h2d entry")
            }

            /// The entry for `backend` (guaranteed by construction).
            pub fn compute_entry(&self, backend: ComputeBackend) -> &$entry {
                self.compute
                    .iter()
                    .find(|(b, _)| *b == backend)
                    .or_else(|| self.compute.iter().find(|(b, _)| *b == ComputeBackend::Cpu))
                    .map(|(_, e)| e)
                    // lint: allow(L001) check_entries enforces the cpu entry at construction
                    .expect("construction guarantees a cpu entry")
            }
        }
    };
}

fitted_model_impl!(HistoryModel, HistoryTable);
fitted_model_impl!(RegressionModel, LinearFit);

impl CostModel for HistoryModel {
    fn transfer_time(&self, task: &Task, link: LinkClass) -> Time {
        Time::from_micros(self.transfer_entry(link).predict_us(task.mem.bytes()))
    }

    fn compute_time(&self, task: &Task, backend: ComputeBackend) -> Time {
        Time::from_micros(self.compute_entry(backend).predict_us(task.mem.bytes()))
    }
}

impl CostModel for RegressionModel {
    fn transfer_time(&self, task: &Task, link: LinkClass) -> Time {
        Time::from_micros(self.transfer_entry(link).predict_us(task.mem.bytes()))
    }

    fn compute_time(&self, task: &Task, backend: ComputeBackend) -> Time {
        Time::from_micros(self.compute_entry(backend).predict_us(task.mem.bytes()))
    }
}

/// The cost-model spec an instance, trace or solve request carries: the
/// analytic default or one of the fitted backends. Mirrors
/// [`crate::exec::ExecutionModel`]: `Analytic` is the normalized default
/// that never appears in serialized form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum CostModelSpec {
    /// The paper's fixed analytic durations (the default).
    #[default]
    Analytic,
    /// A history-based model.
    History(HistoryModel),
    /// A regression model.
    Regression(RegressionModel),
}

impl CostModelSpec {
    /// The model-file backend name: `analytic`, `history` or `regression`.
    pub fn backend_name(&self) -> &'static str {
        match self {
            CostModelSpec::Analytic => "analytic",
            CostModelSpec::History(_) => "history",
            CostModelSpec::Regression(_) => "regression",
        }
    }

    /// `true` iff the spec is the analytic default. Analytic specs are
    /// normalized away (`Option<CostModelSpec>::None`) wherever a spec is
    /// carried, so legacy serialized forms stay byte- and `Eq`-identical.
    pub fn is_analytic(&self) -> bool {
        matches!(self, CostModelSpec::Analytic)
    }

    /// Re-checks the structural invariants (constructed models always
    /// pass; specs assembled by hand or through serde funnels are
    /// re-validated before use).
    pub fn validate(&self) -> Result<()> {
        match self {
            CostModelSpec::Analytic => Ok(()),
            CostModelSpec::History(m) => {
                HistoryModel::new(m.transfer.clone(), m.compute.clone()).map(|_| ())
            }
            CostModelSpec::Regression(m) => {
                RegressionModel::new(m.transfer.clone(), m.compute.clone()).map(|_| ())
            }
        }
    }
}

impl CostModel for CostModelSpec {
    fn transfer_time(&self, task: &Task, link: LinkClass) -> Time {
        match self {
            CostModelSpec::Analytic => Analytic.transfer_time(task, link),
            CostModelSpec::History(m) => m.transfer_time(task, link),
            CostModelSpec::Regression(m) => m.transfer_time(task, link),
        }
    }

    fn compute_time(&self, task: &Task, backend: ComputeBackend) -> Time {
        match self {
            CostModelSpec::Analytic => Analytic.compute_time(task, backend),
            CostModelSpec::History(m) => m.compute_time(task, backend),
            CostModelSpec::Regression(m) => m.compute_time(task, backend),
        }
    }
}

impl fmt::Display for CostModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.backend_name())
    }
}

// ---------------------------------------------------------------------------
// Model-file rendering (the export half of the dual-direction validation).
// ---------------------------------------------------------------------------

fn linear_fit_value(fit: &LinearFit, key: &str, name: &str) -> Value {
    Value::Object(vec![
        (key.to_string(), Value::Str(name.to_string())),
        ("alpha_us".to_string(), Value::UInt(fit.alpha_us)),
        (
            "beta_ps_per_byte".to_string(),
            Value::UInt(fit.beta_ps_per_byte),
        ),
        ("samples".to_string(), Value::UInt(fit.samples)),
    ])
}

fn history_table_value(table: &HistoryTable, key: &str, name: &str) -> Value {
    Value::Object(vec![
        (key.to_string(), Value::Str(name.to_string())),
        (
            "buckets".to_string(),
            Value::Array(
                table
                    .buckets
                    .iter()
                    .map(|b| {
                        Value::Object(vec![
                            ("bucket".to_string(), Value::UInt(u64::from(b.bucket))),
                            ("mean_us".to_string(), Value::UInt(b.mean_us)),
                            ("samples".to_string(), Value::UInt(b.samples)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a fitted model as its versioned file [`Value`].
///
/// Returns [`CoreError::InvalidCostModel`] for the analytic spec (it has
/// no file form — absence *is* its serialized form) or a spec that fails
/// [`CostModelSpec::validate`]: a file that would not re-import is never
/// rendered.
pub fn model_value(spec: &CostModelSpec) -> Result<Value> {
    spec.validate()?;
    let (transfer, compute) = match spec {
        CostModelSpec::Analytic => {
            return Err(invalid(
                "the analytic model has no file form; pass `analytic` instead of a path",
            ))
        }
        CostModelSpec::History(m) => (
            m.transfer
                .iter()
                .map(|(l, t)| history_table_value(t, "link", l.name()))
                .collect::<Vec<_>>(),
            m.compute
                .iter()
                .map(|(b, t)| history_table_value(t, "backend", b.name()))
                .collect::<Vec<_>>(),
        ),
        CostModelSpec::Regression(m) => (
            m.transfer
                .iter()
                .map(|(l, f)| linear_fit_value(f, "link", l.name()))
                .collect::<Vec<_>>(),
            m.compute
                .iter()
                .map(|(b, f)| linear_fit_value(f, "backend", b.name()))
                .collect::<Vec<_>>(),
        ),
    };
    Ok(Value::Object(vec![
        ("format".to_string(), Value::Str(FORMAT_NAME.to_string())),
        ("version".to_string(), Value::UInt(FORMAT_VERSION)),
        (
            "backend".to_string(),
            Value::Str(spec.backend_name().to_string()),
        ),
        ("transfer".to_string(), Value::Array(transfer)),
        ("compute".to_string(), Value::Array(compute)),
    ]))
}

/// Renders a fitted model as its canonical model-file JSON text.
pub fn export_model(spec: &CostModelSpec) -> Result<String> {
    let value = model_value(spec)?;
    Ok(serde_json::to_string_pretty(&value)? + "\n")
}

/// Writes a model file ([`export_model`] to disk).
pub fn export_model_file(spec: &CostModelSpec, path: &Path) -> Result<()> {
    let rendered = export_model(spec)?;
    std::fs::write(path, rendered).map_err(|e| CoreError::Serialization(e.to_string()))
}

// ---------------------------------------------------------------------------
// Model-file parsing (the import half).
// ---------------------------------------------------------------------------

/// The root of a cost-model file in reader messages.
const FILE: At<'static, CoreError> = At::Root("cost-model file", CoreError::InvalidCostModel);

/// The key naming an entry's class (`link` or `backend`) and its resolver.
type Class<K> = (&'static str, fn(&str, At<'_, CoreError>) -> Result<K>);
const LINK: Class<LinkClass> = ("link", link_of);
const BACKEND: Class<ComputeBackend> = ("backend", backend_of);

fn link_of(name: &str, at: At<'_, CoreError>) -> Result<LinkClass> {
    LinkClass::from_name(name).ok_or_else(|| {
        at.error(format!(
            "{at} names unknown link class `{name}` (known: h2d, d2h)"
        ))
    })
}

fn backend_of(name: &str, at: At<'_, CoreError>) -> Result<ComputeBackend> {
    ComputeBackend::from_name(name).ok_or_else(|| {
        at.error(format!(
            "{at} names unknown compute backend `{name}` (known: cpu)"
        ))
    })
}

fn linear_entry<K>(
    value: &Value,
    at: At<'_, CoreError>,
    (key, class): Class<K>,
) -> Result<(K, LinearFit)> {
    let [name, alpha, beta, samples] =
        doc::keyed(value, &[key, "alpha_us", "beta_ps_per_byte", "samples"], at)?;
    let name = doc::string(name, key, at)?;
    let fit = LinearFit {
        alpha_us: doc::uint(alpha, "alpha_us", at)?,
        beta_ps_per_byte: doc::uint(beta, "beta_ps_per_byte", at)?,
        samples: doc::uint(samples, "samples", at)?,
    };
    Ok((class(name, at)?, fit))
}

fn history_entry<K>(
    value: &Value,
    at: At<'_, CoreError>,
    (key, class): Class<K>,
) -> Result<(K, HistoryTable)> {
    let [name, buckets] = doc::keyed(value, &[key, "buckets"], at)?;
    let name = doc::string(name, key, at)?;
    let buckets_at = at.key("buckets");
    let buckets = doc::array(buckets, "buckets", at)?
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let at = buckets_at.index(i);
            let [bucket, mean, samples] = doc::keyed(item, &["bucket", "mean_us", "samples"], at)?;
            let index = doc::uint(bucket, "bucket", at)?;
            Ok(HistoryBucket {
                bucket: u32::try_from(index)
                    .map_err(|_| at.error(format!("{at}.bucket {index} is out of range")))?,
                mean_us: doc::uint(mean, "mean_us", at)?,
                samples: doc::uint(samples, "samples", at)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((class(name, at)?, HistoryTable::new(buckets)?))
}

/// Reads a model-file object (see [`import_model`] for the rules).
fn model_from_value(value: &Value) -> Result<CostModelSpec> {
    let [format, version, backend, transfer, compute] = doc::keyed(
        value,
        &["format", "version", "backend", "transfer", "compute"],
        FILE,
    )?;
    let format = doc::string(format, "format", FILE)?;
    if format != FORMAT_NAME {
        return Err(invalid(format!(
            "not a cost-model file: format is `{format}`, expected `{FORMAT_NAME}`"
        )));
    }
    let version = doc::uint(version, "version", FILE)?;
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "unsupported cost-model version {version}; this build reads version \
             {FORMAT_VERSION} only"
        )));
    }
    let backend = doc::string(backend, "backend", FILE)?;
    let (transfer_at, compute_at) = (FILE.key("transfer"), FILE.key("compute"));
    let transfer = doc::array(transfer, "transfer", FILE)?.iter().enumerate();
    let compute = doc::array(compute, "compute", FILE)?.iter().enumerate();
    let spec = match backend {
        "regression" => CostModelSpec::Regression(RegressionModel::new(
            transfer
                .map(|(i, item)| linear_entry(item, transfer_at.index(i), LINK))
                .collect::<Result<_>>()?,
            compute
                .map(|(i, item)| linear_entry(item, compute_at.index(i), BACKEND))
                .collect::<Result<_>>()?,
        )?),
        "history" => CostModelSpec::History(HistoryModel::new(
            transfer
                .map(|(i, item)| history_entry(item, transfer_at.index(i), LINK))
                .collect::<Result<_>>()?,
            compute
                .map(|(i, item)| history_entry(item, compute_at.index(i), BACKEND))
                .collect::<Result<_>>()?,
        )?),
        other => {
            return Err(invalid(format!(
                "unknown cost-model backend `{other}` (known: history, regression)"
            )))
        }
    };
    Ok(spec)
}

/// `true` iff `word` is the `analytic` keyword, in any case: the one
/// spelling of the analytic default on the command line, in traces, in
/// daemon requests and in instances.
pub fn is_analytic_keyword(word: &str) -> bool {
    word.eq_ignore_ascii_case("analytic")
}

/// Reads an embedded cost-model value: the `analytic` keyword (see
/// [`is_analytic_keyword`]) or a full model-file object with the strict
/// validation of [`import_model`]. The one reader behind the `cost_model`
/// key of traces and daemon requests.
pub fn spec_from_value(value: &Value) -> Result<CostModelSpec> {
    match value {
        Value::Str(word) if is_analytic_keyword(word) => Ok(CostModelSpec::Analytic),
        Value::Str(other) => Err(invalid(format!(
            "unknown cost-model keyword `{other}` (only `analytic`, or an inline model file)"
        ))),
        file => model_from_value(file),
    }
}

/// Parses model-file JSON text with the full strict validation: exact
/// format/version envelope, no unknown or repeated keys anywhere,
/// integer-only coefficients, canonical entry order, non-empty history
/// tables. Syntax errors are [`CoreError::Serialization`], every other
/// failure a typed [`CoreError::InvalidCostModel`] naming the path.
pub fn import_model(json: &str) -> Result<CostModelSpec> {
    doc::parse(json, model_from_value)
}

/// Reads a model file from disk.
pub fn import_model_file(path: &Path) -> Result<CostModelSpec> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| CoreError::InvalidCostModel(format!("cannot load {}: {e}", path.display())))?;
    import_model(&json)
}

// The spec serializes as its file Value (or the literal string
// "analytic"), so traces and solve requests can embed it with
// the exact same strict validation as the standalone file.
impl Serialize for CostModelSpec {
    fn to_value(&self) -> Value {
        match model_value(self) {
            Ok(value) => value,
            // Analytic is the only infallible-at-validate spec without a
            // file form; broken hand-assembled specs are caught at
            // validate() before any serialization path reaches here.
            Err(_) => Value::Str("analytic".to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// Fit quality.
// ---------------------------------------------------------------------------

/// Fit quality of a model against a set of observations, in integer
/// fixed-point: relative error in basis points, R² in parts per million.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitReport {
    /// Observations evaluated.
    pub samples: u64,
    /// Observations skipped because the observed duration was zero
    /// (relative error is undefined there).
    pub skipped_zero: u64,
    /// Mean relative error over the evaluated observations, basis points
    /// (100 bp = 1 %).
    pub mean_rel_err_bp: u64,
    /// Coefficient of determination, parts per million (1 000 000 = a
    /// perfect fit). Defined as 0 when every observation is identical but
    /// mispredicted.
    pub r2_ppm: u64,
}

/// Evaluates predictions against observations. `predict` maps a byte
/// count to a predicted duration in microseconds.
pub fn fit_quality(samples: &[(u64, u64)], predict: impl Fn(u64) -> u64) -> FitReport {
    let n = samples.len() as u128;
    if n == 0 {
        return FitReport {
            samples: 0,
            skipped_zero: 0,
            mean_rel_err_bp: 0,
            r2_ppm: 0,
        };
    }
    let sy: u128 = samples.iter().map(|&(_, y)| u128::from(y)).sum();
    let mut err_bp_sum: u128 = 0;
    let mut evaluated: u128 = 0;
    let mut skipped: u64 = 0;
    let mut ss_res: u128 = 0;
    let mut ss_tot: u128 = 0;
    for &(bytes, y) in samples {
        let p = predict(bytes);
        let abs_err = u128::from(p.abs_diff(y));
        ss_res = ss_res.saturating_add(abs_err.saturating_mul(abs_err).saturating_mul(n * n));
        // (n·y − Σy)² keeps the mean exact without leaving integers.
        let dev = (n * u128::from(y)).abs_diff(sy);
        ss_tot = ss_tot.saturating_add(dev.saturating_mul(dev).saturating_mul(n));
        if y == 0 {
            skipped += 1;
        } else {
            err_bp_sum += abs_err * u128::from(REL_ERR_SCALE_BP) / u128::from(y);
            evaluated += 1;
        }
    }
    let mean_rel_err_bp = err_bp_sum
        .checked_div(evaluated)
        .map_or(0, |mean| mean.min(u128::from(u64::MAX)) as u64);
    let r2_ppm = match ss_res
        .saturating_mul(u128::from(R2_SCALE_PPM))
        .checked_div(ss_tot)
    {
        Some(scaled) => u128::from(R2_SCALE_PPM).saturating_sub(scaled) as u64,
        // Constant observations: perfect iff residual-free.
        None if ss_res == 0 => R2_SCALE_PPM,
        None => 0,
    };
    FitReport {
        samples: samples.len() as u64,
        skipped_zero: skipped,
        mean_rel_err_bp,
        r2_ppm,
    }
}

/// The calibration observations an instance yields: per task, the
/// `(bytes, duration_us)` pairs of its transfer and its computation. The
/// durations are the instance's materialized times — under the analytic
/// default these are exactly the simulated per-task durations every
/// execution model charges for link occupancy and compute.
pub fn observations_of(instance: &crate::instance::Instance) -> CalibrationObservations {
    let mut transfer = Vec::with_capacity(instance.len());
    let mut compute = Vec::with_capacity(instance.len());
    for task in instance.tasks() {
        transfer.push((task.mem.bytes(), task.comm_time.ticks()));
        compute.push((task.mem.bytes(), task.comp_time.ticks()));
    }
    CalibrationObservations { transfer, compute }
}

/// The observation sets calibration fits from; see [`observations_of`].
#[derive(Debug, Clone, Default)]
pub struct CalibrationObservations {
    /// `(bytes, observed transfer duration in µs)` per task.
    pub transfer: Vec<(u64, u64)>,
    /// `(bytes, observed computation duration in µs)` per task.
    pub compute: Vec<(u64, u64)>,
}

impl CalibrationObservations {
    /// Appends another instance's observations (multi-trace calibration).
    pub fn extend(&mut self, other: CalibrationObservations) {
        self.transfer.extend(other.transfer);
        self.compute.extend(other.compute);
    }

    /// Fits a [`RegressionModel`] spec to the observations.
    pub fn fit_regression(&self) -> Result<CostModelSpec> {
        let model = RegressionModel::new(
            vec![(LinkClass::HostToDevice, fit_linear(&self.transfer)?)],
            vec![(ComputeBackend::Cpu, fit_linear(&self.compute)?)],
        )?;
        Ok(CostModelSpec::Regression(model))
    }

    /// Fits a [`HistoryModel`] spec to the observations.
    pub fn fit_history(&self) -> Result<CostModelSpec> {
        let model = HistoryModel::new(
            vec![(LinkClass::HostToDevice, fit_history(&self.transfer)?)],
            vec![(ComputeBackend::Cpu, fit_history(&self.compute)?)],
        )?;
        Ok(CostModelSpec::History(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemSize;

    fn task(bytes: u64, comm_us: u64, comp_us: u64) -> Task {
        Task::new(
            "t",
            Time::from_micros(comm_us),
            Time::from_micros(comp_us),
            MemSize::from_bytes(bytes),
        )
    }

    fn regression_spec() -> CostModelSpec {
        CostModelSpec::Regression(
            RegressionModel::new(
                vec![(
                    LinkClass::HostToDevice,
                    LinearFit {
                        alpha_us: 5,
                        beta_ps_per_byte: 2 * PS_PER_MICRO,
                        samples: 10,
                    },
                )],
                vec![(
                    ComputeBackend::Cpu,
                    LinearFit {
                        alpha_us: 1,
                        beta_ps_per_byte: 0,
                        samples: 10,
                    },
                )],
            )
            .unwrap(),
        )
    }

    fn history_spec() -> CostModelSpec {
        CostModelSpec::History(
            HistoryModel::new(
                vec![(
                    LinkClass::HostToDevice,
                    HistoryTable::new(vec![
                        HistoryBucket {
                            bucket: 2,
                            mean_us: 40,
                            samples: 3,
                        },
                        HistoryBucket {
                            bucket: 5,
                            mean_us: 300,
                            samples: 2,
                        },
                    ])
                    .unwrap(),
                )],
                vec![(
                    ComputeBackend::Cpu,
                    HistoryTable::new(vec![HistoryBucket {
                        bucket: 0,
                        mean_us: 7,
                        samples: 1,
                    }])
                    .unwrap(),
                )],
            )
            .unwrap(),
        )
    }

    #[test]
    fn analytic_is_the_identity() {
        let t = task(100, 30, 20);
        assert_eq!(
            Analytic.transfer_time(&t, LinkClass::HostToDevice),
            Time::from_micros(30)
        );
        assert_eq!(
            Analytic.compute_time(&t, ComputeBackend::Cpu),
            Time::from_micros(20)
        );
        assert!(CostModelSpec::default().is_analytic());
    }

    #[test]
    fn regression_predicts_the_line_exactly() {
        let spec = regression_spec();
        // 5 + 2·bytes µs.
        let t = task(100, 0, 0);
        assert_eq!(
            spec.transfer_time(&t, LinkClass::HostToDevice),
            Time::from_micros(205)
        );
        assert_eq!(
            spec.compute_time(&t, ComputeBackend::Cpu),
            Time::from_micros(1)
        );
        // The d2h class falls back to the h2d fit.
        assert_eq!(
            spec.transfer_time(&t, LinkClass::DeviceToHost),
            Time::from_micros(205)
        );
    }

    #[test]
    fn sub_microsecond_slopes_round_half_up() {
        let fit = LinearFit {
            alpha_us: 0,
            beta_ps_per_byte: 1, // 1 ps/byte
            samples: 1,
        };
        assert_eq!(fit.predict_us(499_999), 0);
        assert_eq!(fit.predict_us(500_000), 1);
        assert_eq!(fit.predict_us(1_500_000), 2);
        // Saturation instead of overflow.
        let huge = LinearFit {
            alpha_us: u64::MAX,
            beta_ps_per_byte: u64::MAX,
            samples: 1,
        };
        assert_eq!(huge.predict_us(u64::MAX), u64::MAX);
    }

    #[test]
    fn history_uses_nearest_bucket() {
        let spec = history_spec();
        // bytes 4..7 → bucket 2 exactly.
        assert_eq!(
            spec.transfer_time(&task(5, 0, 0), LinkClass::HostToDevice),
            Time::from_micros(40)
        );
        // bucket 3 is unrecorded; nearest is 2.
        assert_eq!(
            spec.transfer_time(&task(10, 0, 0), LinkClass::HostToDevice),
            Time::from_micros(40)
        );
        // bucket 4 → nearest is 5.
        assert_eq!(
            spec.transfer_time(&task(20, 0, 0), LinkClass::HostToDevice),
            Time::from_micros(300)
        );
        // bucket 6 → nearest is 5.
        assert_eq!(
            spec.transfer_time(&task(100, 0, 0), LinkClass::HostToDevice),
            Time::from_micros(300)
        );
        // bucket 3 ties between 2 and 4; ties go to the smaller bucket.
        let tie = HistoryTable::new(vec![
            HistoryBucket {
                bucket: 2,
                mean_us: 11,
                samples: 1,
            },
            HistoryBucket {
                bucket: 4,
                mean_us: 99,
                samples: 1,
            },
        ])
        .unwrap();
        assert_eq!(tie.predict_us(8), 11);
    }

    #[test]
    fn size_buckets_are_log2_floors() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 0);
        assert_eq!(size_bucket(2), 1);
        assert_eq!(size_bucket(3), 1);
        assert_eq!(size_bucket(1024), 10);
        assert_eq!(size_bucket(u64::MAX), 63);
    }

    #[test]
    fn fit_linear_recovers_an_exact_line() {
        // y = 7 + 3·x, exact integer observations.
        let samples: Vec<(u64, u64)> = (1..=50).map(|x| (x, 7 + 3 * x)).collect();
        let fit = fit_linear(&samples).unwrap();
        assert_eq!(fit.alpha_us, 7);
        assert_eq!(fit.beta_ps_per_byte, 3 * PS_PER_MICRO);
        assert_eq!(fit.samples, 50);
        let report = fit_quality(&samples, |x| fit.predict_us(x));
        assert_eq!(report.mean_rel_err_bp, 0);
        assert_eq!(report.r2_ppm, R2_SCALE_PPM);
    }

    #[test]
    fn fit_linear_handles_degenerate_data() {
        // Constant x: slope 0, intercept the mean.
        let fit = fit_linear(&[(5, 10), (5, 20), (5, 30)]).unwrap();
        assert_eq!(fit.beta_ps_per_byte, 0);
        assert_eq!(fit.alpha_us, 20);
        // Decreasing data clamps the slope at zero rather than going
        // negative (negative coefficients are unrepresentable by design).
        let fit = fit_linear(&[(1, 100), (2, 50), (3, 1)]).unwrap();
        assert_eq!(fit.beta_ps_per_byte, 0);
        // Empty observation lists are a typed error.
        assert!(matches!(
            fit_linear(&[]),
            Err(CoreError::InvalidCostModel(_))
        ));
    }

    #[test]
    fn fit_history_groups_by_bucket_and_averages() {
        let table = fit_history(&[(4, 10), (5, 20), (1024, 100)]).unwrap();
        assert_eq!(table.buckets().len(), 2);
        assert_eq!(table.buckets()[0].bucket, 2);
        assert_eq!(table.buckets()[0].mean_us, 15);
        assert_eq!(table.buckets()[0].samples, 2);
        assert_eq!(table.buckets()[1].bucket, 10);
        assert_eq!(table.buckets()[1].mean_us, 100);
    }

    #[test]
    fn history_merge_weights_by_samples() {
        let a = fit_history(&[(4, 10), (4, 10)]).unwrap();
        let b = fit_history(&[(4, 40), (1024, 9)]).unwrap();
        let merged = a.merged_with(&b);
        assert_eq!(merged.buckets().len(), 2);
        // (10·2 + 40·1) / 3 = 20.
        assert_eq!(merged.buckets()[0].mean_us, 20);
        assert_eq!(merged.buckets()[0].samples, 3);
        assert_eq!(merged.buckets()[1].mean_us, 9);
    }

    #[test]
    fn model_files_round_trip_byte_identically() {
        for spec in [regression_spec(), history_spec()] {
            let rendered = export_model(&spec).unwrap();
            let back = import_model(&rendered).unwrap();
            assert_eq!(back, spec);
            assert_eq!(export_model(&back).unwrap(), rendered);
        }
    }

    #[test]
    fn analytic_has_no_file_form() {
        assert!(matches!(
            export_model(&CostModelSpec::Analytic),
            Err(CoreError::InvalidCostModel(_))
        ));
    }

    fn reject(json: &str, needle: &str) {
        match import_model(json) {
            Err(CoreError::InvalidCostModel(msg)) => assert!(
                msg.contains(needle),
                "message `{msg}` does not mention `{needle}` for {json}"
            ),
            other => panic!("malformed file accepted or mis-typed: {other:?} for {json}"),
        }
    }

    #[test]
    fn importer_rejects_malformed_files_with_typed_errors() {
        let valid = export_model(&regression_spec()).unwrap();
        // Unknown version.
        reject(
            &valid.replace("\"version\": 1", "\"version\": 99"),
            "version 99",
        );
        // Wrong format name.
        reject(&valid.replace("dts-cost-model", "dts-trace"), "format");
        // Unknown top-level key.
        reject(
            &valid.replace("\"backend\"", "\"banana\""),
            "unknown key `banana`",
        );
        // Unknown backend.
        reject(
            &valid.replace("\"regression\"", "\"neural\""),
            "unknown cost-model backend",
        );
        // Negative coefficient.
        reject(
            &valid.replace("\"alpha_us\": 5", "\"alpha_us\": -5"),
            "negative",
        );
        // Float coefficient.
        reject(
            &valid.replace("\"alpha_us\": 5", "\"alpha_us\": 5.5"),
            "non-integer",
        );
        // Unknown link class.
        reject(&valid.replace("\"h2d\"", "\"pcie9\""), "unknown link class");
        // JSON syntax errors are Serialization, not InvalidCostModel.
        assert!(matches!(
            import_model("{ nope"),
            Err(CoreError::Serialization(_))
        ));
    }

    #[test]
    fn importer_rejects_empty_history_tables() {
        let json = r#"{
  "format": "dts-cost-model",
  "version": 1,
  "backend": "history",
  "transfer": [ { "link": "h2d", "buckets": [] } ],
  "compute": [ { "backend": "cpu", "buckets": [ { "bucket": 0, "mean_us": 1, "samples": 1 } ] } ]
}"#;
        reject(json, "at least one bucket");
    }

    #[test]
    fn importer_rejects_empty_sections() {
        let json = r#"{
  "format": "dts-cost-model",
  "version": 1,
  "backend": "regression",
  "transfer": [],
  "compute": [ { "backend": "cpu", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1 } ]
}"#;
        reject(json, "transfer section is empty");
    }

    #[test]
    fn importer_requires_the_default_entries() {
        let json = r#"{
  "format": "dts-cost-model",
  "version": 1,
  "backend": "regression",
  "transfer": [ { "link": "d2h", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1 } ],
  "compute": [ { "backend": "cpu", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1 } ]
}"#;
        reject(json, "must cover `h2d`");
    }

    #[test]
    fn spec_serde_round_trips_and_accepts_the_analytic_keyword() {
        let spec = regression_spec();
        let value = spec.to_value();
        assert_eq!(spec_from_value(&value).unwrap(), spec);
        assert_eq!(
            spec_from_value(&Value::Str("analytic".into())).unwrap(),
            CostModelSpec::Analytic
        );
        assert_eq!(
            spec_from_value(&Value::Str("Analytic".into())).unwrap(),
            CostModelSpec::Analytic
        );
        assert!(spec_from_value(&Value::Str("bogus".into())).is_err());
    }

    #[test]
    fn fit_quality_reports_skipped_zeroes_and_bounded_r2() {
        let report = fit_quality(&[(1, 0), (2, 100)], |_| 50);
        assert_eq!(report.samples, 2);
        assert_eq!(report.skipped_zero, 1);
        // |50−100|/100 = 50 % = 5000 bp.
        assert_eq!(report.mean_rel_err_bp, 5000);
        assert!(report.r2_ppm <= R2_SCALE_PPM);
        // Constant observations, perfect prediction.
        let perfect = fit_quality(&[(1, 9), (2, 9)], |_| 9);
        assert_eq!(perfect.r2_ppm, R2_SCALE_PPM);
        assert_eq!(perfect.mean_rel_err_bp, 0);
    }
}
