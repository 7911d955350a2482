//! Trace model and its on-disk format, `dts-trace` v1.
//!
//! A *trace* is the per-process list of independent tasks the runtime
//! scheduler sees: for every task, the time of its input-data transfer, the
//! time of its computation and the memory its input data occupies. This is
//! exactly the information the paper extracts from its NWChem runs.
//!
//! Traces have exactly one file format, written by [`Trace::to_json`] /
//! [`Trace::save`] and read by [`Trace::from_json`] / [`Trace::load`]
//! (and, for documents embedded in a larger JSON payload such as a daemon
//! request, [`Trace::from_value`]):
//!
//! ```json
//! {
//!   "format": "dts-trace",
//!   "version": 1,
//!   "kernel": "MD",
//!   "rank": 0,
//!   "model": "streams:4",
//!   "tasks": [
//!     { "name": "md(0)", "kind": "Contraction",
//!       "comm_micros": 104, "comp_micros": 52, "mem_bytes": 4301 }
//!   ]
//! }
//! ```
//!
//! * `format` must be the literal `"dts-trace"` and `version` the integer
//!   `1`; anything else — including a future version this build does not
//!   know — is rejected, never half-read. A document without `format` is
//!   an unversioned trace from an older build; regenerate it with
//!   `dts generate` (generation is deterministic).
//! * `model` is optional and uses the CLI spec syntax of
//!   [`ExecutionModel::parse`] (`explicit`, `duplex`, `streams:<k>`,
//!   `implicit[:<efficiency>]`).
//! * `cost_model` is optional and embeds a full `dts-cost-model` file (or
//!   the `analytic` keyword, in any case, which normalizes to absence); it
//!   is read by [`perfmodel::spec_from_value`], the same reader as a
//!   daemon request's `cost_model`, so a malformed embedded model surfaces
//!   as [`CoreError::InvalidCostModel`].
//! * Every numeric field must be a non-negative JSON integer: floats
//!   (including `1e30`-style notation), negative values and non-numeric
//!   types are each rejected with a message naming the offending path.
//! * Task names are the task identity, so they must be non-empty and
//!   unique; the totals of `comm_micros + comp_micros` and of `mem_bytes`
//!   must fit `u64`, because the simulators' tick/byte arithmetic does.
//! * Unknown and repeated keys are rejected at every level, so a typo'd
//!   field fails loudly instead of being ignored. The key and field checks
//!   are the shared strict reader of [`dts_core::doc`].
//!
//! Reader and writer share one semantic validator: every file the writer
//! emits is accepted by the reader, and the round-trip is byte-identical. Malformed data always surfaces as
//! [`CoreError::InvalidTrace`] (or [`CoreError::Serialization`] for broken
//! JSON syntax / I/O) — never as a panic.

use dts_core::doc::{self, At};
use dts_core::perfmodel;
use dts_core::prelude::*;
use serde::{Serialize, Value};
use std::collections::HashSet;
use std::path::Path;

/// The literal `format` marker of trace files.
const FORMAT_NAME: &str = "dts-trace";
/// The only format version this build reads and writes.
const FORMAT_VERSION: u64 = 1;
/// Hard ceiling on the number of tasks a trace may hold, so neither a
/// typo'd generator argument nor a hostile file can ask for a terabyte of
/// task records.
pub const MAX_TASKS: usize = 10_000_000;

/// Kind of tensor work a trace task performs (informational; the scheduling
/// heuristics only look at times and memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Tensor contraction (block matrix multiplication).
    Contraction,
    /// Tensor transpose (index permutation).
    Transpose,
    /// Contraction preceded by one or more transposes of its operands.
    FusedTransposeContraction,
}

impl TaskKind {
    /// The `kind` spelling of the trace format.
    fn name(self) -> &'static str {
        match self {
            TaskKind::Contraction => "Contraction",
            TaskKind::Transpose => "Transpose",
            TaskKind::FusedTransposeContraction => "FusedTransposeContraction",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "Contraction" => Some(TaskKind::Contraction),
            "Transpose" => Some(TaskKind::Transpose),
            "FusedTransposeContraction" => Some(TaskKind::FusedTransposeContraction),
            _ => None,
        }
    }
}

/// One task of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTask {
    /// Task label (kernel and tile indices).
    pub name: String,
    /// What the task computes.
    pub kind: TaskKind,
    /// Input-data transfer time in microseconds.
    pub comm_micros: u64,
    /// Computation time in microseconds.
    pub comp_micros: u64,
    /// Memory occupied by the input data, in bytes.
    pub mem_bytes: u64,
}

/// A per-process trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Kernel that produced the trace (`"HF"` or `"CCSD"`).
    pub kernel: String,
    /// Process rank (0..149 in the paper's setup).
    pub rank: usize,
    /// The independent tasks seen by this process.
    pub tasks: Vec<TraceTask>,
    /// Execution model the trace targets (stamped by `dts generate
    /// --model`); absent means the paper's explicit half-duplex link.
    /// Threaded into every instance built from the trace.
    pub model: Option<ExecutionModel>,
    /// Cost model to materialize task durations under (stamped by `dts run
    /// --cost-model` before conversion); absent means the analytic default —
    /// the trace's recorded durations verbatim. Applied by
    /// [`Trace::to_instance`].
    pub cost_model: Option<CostModelSpec>,
}

impl Trace {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` iff the trace has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Minimum memory capacity `mc` needed to execute every task (the
    /// largest single-task memory requirement).
    pub fn min_capacity(&self) -> MemSize {
        MemSize::from_bytes(self.tasks.iter().map(|t| t.mem_bytes).max().unwrap_or(0))
    }

    /// Checks that the total communication-plus-computation time of the
    /// trace fits in the `u64` tick arithmetic of the simulators. Every
    /// schedule time is bounded by the fully sequential sum of all task
    /// durations (no model stretches a task beyond `comm + comp`), so a
    /// finite total guarantees overflow-free simulation; an overflowing
    /// total would otherwise surface as a debug-build panic deep inside an
    /// executor instead of a typed error at the trust boundary.
    pub fn check_time_totals(&self) -> Result<()> {
        let mut total: u64 = 0;
        for task in &self.tasks {
            total = task
                .comm_micros
                .checked_add(task.comp_micros)
                .and_then(|t| total.checked_add(t))
                .ok_or_else(|| {
                    CoreError::InvalidTrace(format!(
                        "total task time overflows u64 microseconds at task `{}`",
                        task.name
                    ))
                })?;
        }
        Ok(())
    }

    /// The semantic checks the reader and the writer share: whatever
    /// passes here can be simulated, and whatever the writer emits reads
    /// back. An explicit analytic cost model must be normalized to
    /// absence, since the format has no spelling that reads back as it.
    fn validate(&self) -> Result<()> {
        if self.kernel.is_empty() {
            return Err(invalid("kernel must be a non-empty string"));
        }
        if self.tasks.len() > MAX_TASKS {
            return Err(invalid(format!(
                "{} tasks, but traces are capped at {MAX_TASKS}",
                self.tasks.len()
            )));
        }
        let mut names = HashSet::with_capacity(self.tasks.len());
        let mut total_mem: u64 = 0;
        for (i, task) in self.tasks.iter().enumerate() {
            if task.name.is_empty() {
                return Err(invalid(format!("tasks[{i}].name must be non-empty")));
            }
            if !names.insert(task.name.as_str()) {
                return Err(invalid(format!(
                    "duplicate task name `{}` (tasks[{i}]); task names are the task identity",
                    task.name
                )));
            }
            total_mem = total_mem.checked_add(task.mem_bytes).ok_or_else(|| {
                invalid(format!(
                    "total mem_bytes overflows u64 at tasks[{i}] (`{}`)",
                    task.name
                ))
            })?;
        }
        self.check_time_totals()?;
        if let Some(model) = self.model {
            model.validate()?;
        }
        if let Some(cost_model) = &self.cost_model {
            cost_model.validate()?;
            if cost_model.is_analytic() {
                return Err(CoreError::InvalidCostModel(
                    "an explicit analytic spec must be normalized to absence before writing".into(),
                ));
            }
        }
        Ok(())
    }

    /// Converts the trace into a scheduling [`Instance`] with the given
    /// memory capacity. A model carried by the trace is attached to the
    /// instance, so every executor and heuristic honors it; a cost model
    /// carried by the trace is materialized into the task durations here —
    /// once per instance, never per scheduling decision.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTrace`] when the summed task times
    /// overflow `u64` (see [`Trace::check_time_totals`]) — such a trace
    /// cannot be simulated without wrapping the clock — and
    /// [`CoreError::InvalidCostModel`] when a stamped cost model is
    /// malformed or its predictions overflow the clock.
    pub fn to_instance(&self, capacity: MemSize) -> Result<Instance> {
        self.check_time_totals()?;
        let tasks = self
            .tasks
            .iter()
            .map(|t| {
                Task::new(
                    t.name.clone(),
                    Time::from_micros(t.comm_micros),
                    Time::from_micros(t.comp_micros),
                    MemSize::from_bytes(t.mem_bytes),
                )
            })
            .collect();
        let instance = Instance::with_label(
            tasks,
            capacity,
            format!("{}-rank{}", self.kernel, self.rank),
        )?;
        let instance = match self.model {
            Some(model) => instance.with_model(model)?,
            None => instance,
        };
        match &self.cost_model {
            Some(spec) => instance.with_cost_model(spec),
            None => Ok(instance),
        }
    }

    /// Converts the trace into an instance whose capacity is `factor · mc`
    /// (the sweep axis of Figs. 9–13).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCapacityFactor`] when `factor` is NaN,
    /// infinite or negative — [`MemSize::scale`] asserts on such factors,
    /// and a user-supplied factor (e.g. from the `dts run` command line)
    /// must surface as an error, not a panic.
    pub fn to_instance_scaled(&self, factor: f64) -> Result<Instance> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(CoreError::InvalidCapacityFactor(factor.to_string()));
        }
        self.to_instance(self.min_capacity().scale(factor))
    }

    /// The trace's `dts-trace` document as a JSON tree, without the
    /// semantic validation: a daemon request embeds it as-is, and the
    /// receiving [`Trace::from_value`] validates it. Files go through
    /// [`Trace::to_json`], which validates first.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("format".to_string(), Value::Str(FORMAT_NAME.to_string())),
            ("version".to_string(), Value::UInt(FORMAT_VERSION)),
            ("kernel".to_string(), Value::Str(self.kernel.clone())),
            ("rank".to_string(), Value::UInt(self.rank as u64)),
        ];
        if let Some(model) = self.model {
            fields.push(("model".to_string(), Value::Str(model.to_string())));
        }
        if let Some(cost_model) = &self.cost_model {
            fields.push(("cost_model".to_string(), cost_model.to_value()));
        }
        let tasks = self
            .tasks
            .iter()
            .map(|t| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(t.name.clone())),
                    ("kind".to_string(), Value::Str(t.kind.name().to_string())),
                    ("comm_micros".to_string(), Value::UInt(t.comm_micros)),
                    ("comp_micros".to_string(), Value::UInt(t.comp_micros)),
                    ("mem_bytes".to_string(), Value::UInt(t.mem_bytes)),
                ])
            })
            .collect();
        fields.push(("tasks".to_string(), Value::Array(tasks)));
        Value::Object(fields)
    }

    /// Serializes the trace as a `dts-trace` v1 document (pretty JSON).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidTrace`] for an empty kernel, more than
    /// [`MAX_TASKS`] tasks, an empty or repeated task name, or overflowing
    /// time or memory totals; [`CoreError::InvalidExecutionModel`] and
    /// [`CoreError::InvalidCostModel`] for a malformed stamped model. The
    /// reader refuses exactly these, so they never reach disk.
    pub fn to_json(&self) -> Result<String> {
        self.validate()?;
        Ok(serde_json::to_string_pretty(&Document(self))?)
    }

    /// Parses and strictly validates a `dts-trace` v1 document.
    ///
    /// # Errors
    ///
    /// [`CoreError::Serialization`] for broken JSON syntax, and otherwise
    /// the errors of [`Trace::from_value`].
    pub fn from_json(json: &str) -> Result<Self> {
        doc::parse(json, Self::from_value)
    }

    /// Strictly reads a `dts-trace` v1 document from an already-parsed
    /// JSON tree (see the module docs for the rules).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidTrace`] for every shape or semantic violation —
    /// including an unversioned document, which names the missing
    /// `format` key; [`CoreError::InvalidExecutionModel`] and
    /// [`CoreError::InvalidCostModel`] for a malformed stamped model.
    pub fn from_value(value: &Value) -> Result<Self> {
        let [format, version, kernel, rank, model, cost_model, tasks] =
            doc::keyed(value, &TRACE_KEYS, FILE)?;
        if format.is_none() {
            return Err(invalid(
                "trace file is missing required key `format`: it is an unversioned trace, \
                 which this build does not read; regenerate it with `dts generate`",
            ));
        }
        let format = doc::string(format, "format", FILE)?;
        if format != FORMAT_NAME {
            return Err(invalid(format!(
                "format is `{format}`, expected `{FORMAT_NAME}` (is this a trace file?)"
            )));
        }
        let version = doc::uint(version, "version", FILE)?;
        if version != FORMAT_VERSION {
            return Err(invalid(format!(
                "unsupported format version {version}; this build reads version {FORMAT_VERSION} only"
            )));
        }
        let kernel = doc::string(kernel, "kernel", FILE)?.to_string();
        let rank = doc::size(rank, "rank", FILE)?;
        let model = match model {
            None => None,
            Some(Value::Str(spec)) => Some(ExecutionModel::parse(spec)?),
            Some(other) => {
                return Err(invalid(format!(
                    "model must be a spec string like \"streams:4\", got {}",
                    other.kind()
                )))
            }
        };
        let cost_model = cost_model
            .map(perfmodel::spec_from_value)
            .transpose()?
            .filter(|spec| !spec.is_analytic());
        let tasks_at = FILE.key("tasks");
        let tasks = doc::array(tasks, "tasks", FILE)?
            .iter()
            .enumerate()
            .map(|(i, item)| task_from_value(item, tasks_at.index(i)))
            .collect::<Result<Vec<_>>>()?;
        let trace = Trace {
            kernel,
            rank,
            tasks,
            model,
            cost_model,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// Writes the trace to `path` as a `dts-trace` v1 document.
    ///
    /// # Errors
    ///
    /// The errors of [`Trace::to_json`], and [`CoreError::Serialization`]
    /// for I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let json = self.to_json()?;
        std::fs::write(path, json).map_err(|e| CoreError::Serialization(e.to_string()))
    }

    /// Reads and strictly validates a `dts-trace` v1 file.
    ///
    /// # Errors
    ///
    /// The errors of [`Trace::from_json`], and [`CoreError::Serialization`]
    /// for I/O failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let json =
            std::fs::read_to_string(path).map_err(|e| CoreError::Serialization(e.to_string()))?;
        Self::from_json(&json)
    }
}

fn invalid(msg: impl Into<String>) -> CoreError {
    CoreError::InvalidTrace(msg.into())
}

/// Hands [`Trace::to_value`]'s tree to the JSON renderer by value (the
/// renderer's `Value` impl would clone the whole tree first).
struct Document<'a>(&'a Trace);

impl Serialize for Document<'_> {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

const TRACE_KEYS: [&str; 7] = [
    "format",
    "version",
    "kernel",
    "rank",
    "model",
    "cost_model",
    "tasks",
];
const TASK_KEYS: [&str; 5] = ["name", "kind", "comm_micros", "comp_micros", "mem_bytes"];

/// The root of a trace file in reader messages.
const FILE: At<'static, CoreError> = At::Root("trace file", CoreError::InvalidTrace);

fn task_from_value(value: &Value, at: At<'_, CoreError>) -> Result<TraceTask> {
    let [name, kind, comm, comp, mem] = doc::keyed(value, &TASK_KEYS, at)?;
    let name = doc::string(name, "name", at)?.to_string();
    let kind = doc::string(kind, "kind", at)?;
    let kind = TaskKind::from_name(kind).ok_or_else(|| {
        invalid(format!(
            "{at}.kind is `{kind}`; expected one of Contraction, Transpose, \
             FusedTransposeContraction"
        ))
    })?;
    Ok(TraceTask {
        name,
        kind,
        comm_micros: doc::uint(comm, "comm_micros", at)?,
        comp_micros: doc::uint(comp, "comp_micros", at)?,
        mem_bytes: doc::uint(mem, "mem_bytes", at)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            kernel: "HF".into(),
            rank: 3,
            tasks: vec![
                TraceTask {
                    name: "fock(0,1)".into(),
                    kind: TaskKind::FusedTransposeContraction,
                    comm_micros: 110,
                    comp_micros: 30,
                    mem_bytes: 160_000,
                },
                TraceTask {
                    name: "fock(0,2)".into(),
                    kind: TaskKind::Contraction,
                    comm_micros: 95,
                    comp_micros: 25,
                    mem_bytes: 176_128,
                },
            ],
            model: None,
            cost_model: None,
        }
    }

    #[test]
    fn every_constructor_rejects_an_oversized_task() {
        // "Non-empty, every task fits" is a type invariant of `Instance`:
        // each constructor checks it, so no executor re-checks it.
        let oversized = |r: Result<Instance>| {
            assert!(
                matches!(r, Err(CoreError::TaskExceedsCapacity { .. })),
                "{r:?}"
            )
        };
        let tiny = MemSize::from_bytes(176_127);
        let tasks = || sample().to_instance_scaled(1.0).unwrap().tasks().to_vec();
        oversized(Instance::new(tasks(), tiny));
        oversized(InstanceBuilder::new().capacity(tiny).tasks(tasks()).build());
        let fitting = Instance::new(tasks(), MemSize::from_bytes(176_128)).unwrap();
        oversized(fitting.with_capacity(tiny));
        oversized(sample().to_instance_scaled(0.99));
        // A sub-instance keeps its parent's capacity, so it inherits the
        // invariant and can only fail on its batch.
        let sub = fitting.sub_instance(&[TaskId(1)]).unwrap();
        assert_eq!(sub.capacity(), fitting.capacity());
        assert_eq!(
            fitting.sub_instance(&[]).unwrap_err(),
            CoreError::EmptyInstance
        );
    }

    #[test]
    fn min_capacity_is_largest_task() {
        assert_eq!(sample().min_capacity(), MemSize::from_bytes(176_128));
        assert_eq!(sample().len(), 2);
        assert!(!sample().is_empty());
    }

    #[test]
    fn conversion_to_instance_preserves_times() {
        let trace = sample();
        let inst = trace.to_instance(MemSize::from_bytes(400_000)).unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.task(TaskId(0)).comm_time, Time::from_micros(110));
        assert_eq!(inst.task(TaskId(1)).comp_time, Time::from_micros(25));
        assert_eq!(inst.task(TaskId(1)).mem, MemSize::from_bytes(176_128));
        assert_eq!(inst.label, "HF-rank3");
    }

    #[test]
    fn scaled_instance_uses_mc_multiples() {
        let trace = sample();
        let inst = trace.to_instance_scaled(1.5).unwrap();
        assert_eq!(inst.capacity(), MemSize::from_bytes(264_192));
        // Factor 1.0 is exactly feasible.
        assert!(trace.to_instance_scaled(1.0).is_ok());
    }

    #[test]
    fn malformed_scale_factors_error_instead_of_panicking() {
        // Regression: these used to trip the `MemSize::scale` assert.
        let trace = sample();
        for factor in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = trace.to_instance_scaled(factor).unwrap_err();
            match err {
                CoreError::InvalidCapacityFactor(text) => {
                    assert_eq!(text, factor.to_string());
                }
                other => panic!("expected InvalidCapacityFactor, got {other:?}"),
            }
        }
        // Zero is degenerate but well-defined: capacity 0, so the largest
        // task no longer fits and instance construction reports it.
        assert!(matches!(
            trace.to_instance_scaled(0.0),
            Err(CoreError::TaskExceedsCapacity { .. })
        ));
    }

    #[test]
    fn overflowing_time_totals_error_instead_of_wrapping() {
        // Each task is fine on its own; the *sum* of their durations
        // overflows u64, which used to wrap (release) or panic (debug)
        // inside the executors instead of erroring at conversion time.
        let mut trace = sample();
        for task in &mut trace.tasks {
            task.comm_micros = u64::MAX / 2;
            task.comp_micros = u64::MAX / 2 - 1;
        }
        assert!(trace.check_time_totals().is_err());
        assert!(matches!(
            trace.to_instance_scaled(1.5),
            Err(CoreError::InvalidTrace(_))
        ));
        // A single task saturating the clock is still representable.
        trace.tasks.truncate(1);
        assert!(trace.check_time_totals().is_ok());
    }

    #[test]
    fn json_round_trip() {
        let trace = sample();
        let json = trace.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(trace, back);
        assert!(Trace::from_json("not json").is_err());
    }

    #[test]
    fn model_is_optional_in_json_and_threads_into_instances() {
        // Model-less traces serialize without a `model` key, so trace files
        // from before the execution-model layer keep loading unchanged...
        let mut trace = sample();
        let json = trace.to_json().unwrap();
        assert!(!json.contains("model"));
        assert_eq!(Trace::from_json(&json).unwrap().model, None);
        let inst = trace.to_instance_scaled(1.5).unwrap();
        assert_eq!(inst.model(), ExecutionModel::Explicit);

        // ...while a stamped model round-trips and lands on the instance.
        trace.model = Some(ExecutionModel::Streams { k: 4 });
        let back = Trace::from_json(&trace.to_json().unwrap()).unwrap();
        assert_eq!(back.model, Some(ExecutionModel::Streams { k: 4 }));
        let inst = back.to_instance_scaled(1.5).unwrap();
        assert_eq!(inst.model(), ExecutionModel::Streams { k: 4 });

        // Invalid stamped models surface as errors, not panics.
        trace.model = Some(ExecutionModel::Streams { k: 0 });
        assert!(matches!(
            trace.to_instance_scaled(1.5),
            Err(CoreError::InvalidExecutionModel(_))
        ));
    }

    #[test]
    fn cost_model_is_optional_in_json_and_materializes_times() {
        use dts_core::perfmodel::{LinearFit, RegressionModel, PS_PER_MICRO};

        // Model-less traces keep serializing without a `cost_model` key.
        let mut trace = sample();
        let json = trace.to_json().unwrap();
        assert!(!json.contains("cost_model"));
        assert_eq!(Trace::from_json(&json).unwrap().cost_model, None);

        // The `analytic` keyword reads in any case, as in requests and on
        // the command line, and normalizes to absence.
        let keyword = json.replacen("\"tasks\"", "\"cost_model\": \"Analytic\",\n  \"tasks\"", 1);
        assert_eq!(Trace::from_json(&keyword).unwrap().cost_model, None);

        // A stamped model round-trips and rewrites the instance durations.
        let spec = CostModelSpec::Regression(
            RegressionModel::new(
                vec![(
                    LinkClass::HostToDevice,
                    LinearFit {
                        alpha_us: 10,
                        beta_ps_per_byte: PS_PER_MICRO / 1000, // 1 µs per KB
                        samples: 2,
                    },
                )],
                vec![(
                    ComputeBackend::Cpu,
                    LinearFit {
                        alpha_us: 40,
                        beta_ps_per_byte: 0,
                        samples: 2,
                    },
                )],
            )
            .unwrap(),
        );
        trace.cost_model = Some(spec.clone());
        let back = Trace::from_json(&trace.to_json().unwrap()).unwrap();
        assert_eq!(back.cost_model, Some(spec.clone()));
        let inst = back.to_instance_scaled(1.5).unwrap();
        assert_eq!(inst.cost_model(), spec);
        // fock(0,1): 160 000 bytes → 10 + 160 µs transfer, 40 µs compute.
        assert_eq!(inst.task(TaskId(0)).comm_time, Time::from_micros(170));
        assert_eq!(inst.task(TaskId(0)).comp_time, Time::from_micros(40));
    }

    #[test]
    fn file_round_trip() {
        let trace = sample();
        let dir = std::env::temp_dir().join("dts-chem-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-rank3.json");
        trace.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
        assert!(Trace::load(dir.join("missing.json")).is_err());
    }

    #[test]
    fn export_import_round_trips_byte_identically() {
        let mut trace = sample();
        for model in [None, Some(ExecutionModel::Streams { k: 4 })] {
            trace.model = model;
            let json = trace.to_json().unwrap();
            let back = Trace::from_json(&json).unwrap();
            assert_eq!(back, trace);
            assert_eq!(back.to_json().unwrap(), json, "re-export changed bytes");
        }
    }

    #[test]
    fn embedded_cost_models_round_trip_and_validate() {
        use dts_core::perfmodel::{LinearFit, RegressionModel, PS_PER_MICRO};

        let mut trace = sample();
        trace.cost_model = Some(CostModelSpec::Regression(
            RegressionModel::new(
                vec![(
                    LinkClass::HostToDevice,
                    LinearFit {
                        alpha_us: 3,
                        beta_ps_per_byte: PS_PER_MICRO,
                        samples: 4,
                    },
                )],
                vec![(
                    ComputeBackend::Cpu,
                    LinearFit {
                        alpha_us: 9,
                        beta_ps_per_byte: 0,
                        samples: 4,
                    },
                )],
            )
            .unwrap(),
        ));
        let json = trace.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_json().unwrap(), json, "re-export changed bytes");

        // The literal string "analytic" normalizes to absence.
        let plain_json = sample().to_json().unwrap().replacen(
            "\"tasks\"",
            "\"cost_model\": \"analytic\",\n  \"tasks\"",
            1,
        );
        assert_eq!(Trace::from_json(&plain_json).unwrap().cost_model, None);

        // A malformed embedded model is a typed InvalidCostModel. The outer
        // version stays 1; only the embedded model's version is corrupted
        // (the embedded object is the second `"version"` occurrence).
        let idx = json.rfind("\"version\": 1").unwrap();
        let mut broken = json.clone();
        broken.replace_range(idx.."\"version\": 1".len() + idx, "\"version\": 7");
        assert!(matches!(
            Trace::from_json(&broken),
            Err(CoreError::InvalidCostModel(_))
        ));
    }

    #[test]
    fn syntax_errors_are_serialization_semantic_errors_invalid_trace() {
        assert!(matches!(
            Trace::from_json("{ not json"),
            Err(CoreError::Serialization(_))
        ));
        assert!(matches!(
            Trace::from_json("[1, 2]"),
            Err(CoreError::InvalidTrace(_))
        ));
    }

    fn reject(json: &str, needle: &str) {
        match Trace::from_json(json) {
            Err(CoreError::InvalidTrace(msg)) => assert!(
                msg.contains(needle),
                "message `{msg}` does not mention `{needle}`"
            ),
            other => panic!("expected InvalidTrace mentioning `{needle}`, got {other:?}"),
        }
    }

    fn valid_with_tasks(tasks_json: &str) -> String {
        format!(
            r#"{{"format": "dts-trace", "version": 1, "kernel": "MD", "rank": 0, "tasks": {tasks_json}}}"#
        )
    }

    fn task(name: &str, comm: &str, comp: &str, mem: &str) -> String {
        format!(
            r#"{{"name": "{name}", "kind": "Contraction", "comm_micros": {comm}, "comp_micros": {comp}, "mem_bytes": {mem}}}"#
        )
    }

    #[test]
    fn every_malformed_class_is_rejected_with_a_typed_error() {
        // Envelope violations; an unversioned document names the missing
        // key and the way out.
        reject(
            r#"{"kernel": "MD", "rank": 0, "tasks": []}"#,
            "missing required key `format`",
        );
        reject(
            r#"{"kernel": "MD", "rank": 0, "tasks": []}"#,
            "regenerate it with `dts generate`",
        );
        reject(
            &valid_with_tasks("[]").replace("dts-trace", "dts-schedule"),
            "dts-trace",
        );
        reject(
            &valid_with_tasks("[]").replace("\"version\": 1", "\"version\": 2"),
            "unsupported format version 2",
        );
        reject(
            &valid_with_tasks("[]").replace("\"version\": 1", "\"version\": 1.0"),
            "non-integer",
        );
        reject(
            &valid_with_tasks("[]").replace("\"rank\": 0", "\"rank\": -1"),
            "negative",
        );
        reject(
            &valid_with_tasks("[]").replace("\"kernel\": \"MD\"", "\"kernel\": \"\""),
            "kernel",
        );
        reject(
            &valid_with_tasks("[]").replace("\"rank\": 0", "\"rank\": 0, \"extra\": 1"),
            "unknown key `extra`",
        );
        reject(
            &valid_with_tasks("[]").replace("\"rank\": 0", "\"rank\": 0, \"rank\": 1"),
            "repeats key `rank`",
        );
        // Task-field violations.
        reject(
            &valid_with_tasks(&format!("[{}]", task("t", "1.5", "1", "1"))),
            "tasks[0].comm_micros",
        );
        reject(
            &valid_with_tasks(&format!("[{}]", task("t", "1", "-3", "1"))),
            "negative",
        );
        reject(
            &valid_with_tasks(&format!("[{}]", task("t", "1", "1", "1e30"))),
            "non-integer",
        );
        reject(
            &valid_with_tasks(&format!("[{}]", task("", "1", "1", "1"))),
            "name",
        );
        reject(
            &valid_with_tasks(&format!(
                "[{}]",
                task("t", "1", "1", "1").replace("\"mem_bytes\"", "\"extra\": 0, \"mem_bytes\"")
            )),
            "tasks[0] has unknown key `extra`",
        );
        reject(
            &valid_with_tasks(&format!(
                "[{}, {}]",
                task("dup", "1", "1", "1"),
                task("dup", "2", "2", "2")
            )),
            "duplicate task name `dup`",
        );
        reject(
            &valid_with_tasks(&format!(
                "[{}]",
                task("t", "1", "1", "1").replace("Contraction", "Convolution")
            )),
            "Convolution",
        );
        // Overflowing totals.
        let half = format!("{}", u64::MAX / 2 + 1);
        reject(
            &valid_with_tasks(&format!("[{}]", task("t", &half, &half, "1"))),
            "overflows",
        );
        reject(
            &valid_with_tasks(&format!(
                "[{}, {}]",
                task("a", "1", "1", &half),
                task("b", "1", "1", &half)
            )),
            "mem_bytes overflows",
        );
        // Malformed model spec surfaces through ExecutionModel::parse.
        let with_model =
            valid_with_tasks("[]").replace("\"rank\": 0", "\"rank\": 0, \"model\": \"streams:0\"");
        assert!(matches!(
            Trace::from_json(&with_model),
            Err(CoreError::InvalidExecutionModel(_))
        ));
    }

    #[test]
    fn export_refuses_semantically_broken_traces() {
        let mut trace = sample();
        let first = trace.tasks[0].name.clone();
        trace.tasks[1].name = first;
        assert!(matches!(trace.to_json(), Err(CoreError::InvalidTrace(_))));
        let mut trace = sample();
        trace.kernel.clear();
        assert!(matches!(trace.to_json(), Err(CoreError::InvalidTrace(_))));
        let mut trace = sample();
        trace.tasks[0].name.clear();
        let path = std::env::temp_dir().join(format!("dts-refused-{}.json", std::process::id()));
        assert!(matches!(trace.save(&path), Err(CoreError::InvalidTrace(_))));
        assert!(!path.exists(), "a refused trace reached disk");
    }

    #[test]
    fn file_round_trip_and_missing_files() {
        let dir = std::env::temp_dir().join(format!("dts-chem-format-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.dts.json");
        let trace = sample();
        trace.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), trace);
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            Trace::load(dir.join("missing.json")),
            Err(CoreError::Serialization(_))
        ));
    }
}
