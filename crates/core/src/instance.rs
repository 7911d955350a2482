//! Problem instances: a set of tasks plus a memory capacity.

use crate::error::{CoreError, Result};
use crate::exec::ExecutionModel;
use crate::memory::MemSize;
use crate::perfmodel::{ComputeBackend, CostModel, CostModelSpec, LinkClass};
use crate::task::{Task, TaskId, TaskIntensity};
use crate::time::Time;
use serde::Serialize;

/// An instance of problem `DT`: independent tasks, a single communication
/// link, a single processing unit and a local memory of capacity
/// [`capacity`](Instance::capacity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    tasks: Vec<Task>,
    capacity: MemSize,
    /// Optional label (trace file name, table number, ...).
    pub label: String,
    /// Execution model the instance is meant to run under; absent (the
    /// common case) means the paper's [`ExecutionModel::Explicit`].
    model: Option<ExecutionModel>,
    /// Cost model the task durations were materialized under; absent means
    /// the analytic default (the durations are the trace's own numbers).
    cost_model: Option<CostModelSpec>,
}

impl Instance {
    /// Creates an instance, validating that it is non-empty and that every
    /// task individually fits in the capacity (otherwise no schedule exists).
    pub fn new(tasks: Vec<Task>, capacity: MemSize) -> Result<Self> {
        Self::with_label(tasks, capacity, String::new())
    }

    /// [`Instance::new`] with an explicit label.
    pub fn with_label(tasks: Vec<Task>, capacity: MemSize, label: String) -> Result<Self> {
        if tasks.is_empty() {
            return Err(CoreError::EmptyInstance);
        }
        let instance = Instance {
            tasks,
            capacity,
            label,
            model: None,
            cost_model: None,
        };
        instance.check_tasks_fit()?;
        Ok(instance)
    }

    /// The execution model the instance runs under;
    /// [`ExecutionModel::Explicit`] unless one was attached with
    /// [`Instance::with_model`].
    #[inline]
    pub fn model(&self) -> ExecutionModel {
        self.model.unwrap_or_default()
    }

    /// Returns a copy of this instance carrying the given execution model;
    /// every executor and heuristic entry point honors it by default.
    /// Rejects invalid models (zero stream count) that bypassed
    /// [`ExecutionModel::parse`].
    pub fn with_model(&self, model: ExecutionModel) -> Result<Self> {
        model.validate()?;
        let mut instance = self.clone();
        instance.model = (!model.is_explicit()).then_some(model);
        Ok(instance)
    }

    /// The cost model the task durations were materialized under;
    /// [`CostModelSpec::Analytic`] unless one was applied with
    /// [`Instance::with_cost_model`].
    #[inline]
    pub fn cost_model(&self) -> CostModelSpec {
        self.cost_model.clone().unwrap_or_default()
    }

    /// Returns a copy of this instance with every task's communication and
    /// computation time **materialized once** from `spec`. Downstream
    /// consumers — executors, heuristics, the O(log n) candidate index —
    /// keep reading plain task fields and never query a model per decision.
    ///
    /// Applying [`CostModelSpec::Analytic`] is the identity (and keeps the
    /// copy `Eq` to the original). A fitted model can only be applied to an
    /// instance still carrying its analytic durations: re-modeling an
    /// already-materialized instance would silently stack predictions on
    /// predictions, so it is a typed error — re-apply to the source trace
    /// instead.
    pub fn with_cost_model(&self, spec: &CostModelSpec) -> Result<Self> {
        spec.validate()?;
        if spec.is_analytic() {
            return Ok(self.clone());
        }
        if let Some(applied) = &self.cost_model {
            return Err(CoreError::InvalidCostModel(format!(
                "instance already carries a {applied} cost model; \
                 apply the new model to the source trace instead"
            )));
        }
        let mut instance = self.clone();
        let mut sum_comm = Time::ZERO;
        let mut sum_comp = Time::ZERO;
        for task in &mut instance.tasks {
            task.comm_time = spec.transfer_time(task, LinkClass::HostToDevice);
            task.comp_time = spec.compute_time(task, ComputeBackend::Cpu);
            sum_comm = sum_comm.checked_add(task.comm_time).ok_or_else(|| {
                CoreError::InvalidCostModel(
                    "modeled communication times overflow the u64 tick range".into(),
                )
            })?;
            sum_comp = sum_comp.checked_add(task.comp_time).ok_or_else(|| {
                CoreError::InvalidCostModel(
                    "modeled computation times overflow the u64 tick range".into(),
                )
            })?;
        }
        instance.cost_model = Some(spec.clone());
        Ok(instance)
    }

    /// Checks that every task individually fits in the capacity, returning
    /// [`CoreError::TaskExceedsCapacity`] for the lowest-id violator. Every
    /// instance goes through [`Instance::with_label`], so no executor has
    /// to re-check: an oversized task could never be scheduled, only
    /// waited on forever.
    fn check_tasks_fit(&self) -> Result<()> {
        for (id, task) in self.iter() {
            if task.mem > self.capacity {
                return Err(CoreError::TaskExceedsCapacity {
                    task: id,
                    name: task.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` iff the instance has no tasks (never true for constructed
    /// instances; kept for the conventional `len`/`is_empty` pair).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Memory capacity `C` of the target node.
    #[inline]
    pub fn capacity(&self) -> MemSize {
        self.capacity
    }

    /// All tasks, indexable by [`TaskId`].
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range; ids are only produced by this
    /// instance, so an out-of-range id is a logic error.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Fallible lookup of a task.
    pub fn get_task(&self, id: TaskId) -> Result<&Task> {
        self.tasks.get(id.0).ok_or(CoreError::UnknownTask(id))
    }

    /// Iterator over `(TaskId, &Task)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// All task ids, in index order (this is the paper's *order of
    /// submission*, `OS`).
    pub fn task_ids(&self) -> Vec<TaskId> {
        (0..self.tasks.len()).map(TaskId).collect()
    }

    /// Returns a copy of this instance with a different memory capacity.
    /// Used by capacity sweeps (`mc`, `1.125·mc`, ..., `2·mc`).
    pub fn with_capacity(&self, capacity: MemSize) -> Result<Self> {
        let mut instance = Instance::with_label(self.tasks.clone(), capacity, self.label.clone())?;
        instance.model = self.model;
        instance.cost_model = self.cost_model.clone();
        Ok(instance)
    }

    /// Returns the sub-instance made of the given tasks (used for batched
    /// scheduling, Section 6.3 of the paper). Task ids in the returned
    /// instance are renumbered `0..batch.len()`; the mapping back to the
    /// original ids is the order of `batch`.
    pub fn sub_instance(&self, batch: &[TaskId]) -> Result<Self> {
        let mut tasks = Vec::with_capacity(batch.len());
        for id in batch {
            tasks.push(self.get_task(*id)?.clone());
        }
        let mut instance = Instance::with_label(tasks, self.capacity, self.label.clone())?;
        instance.model = self.model;
        instance.cost_model = self.cost_model.clone();
        Ok(instance)
    }

    /// Minimum memory capacity `mc` required to run every task: the largest
    /// single-task memory requirement (tasks can always be run one at a
    /// time).
    pub fn min_capacity(&self) -> MemSize {
        self.tasks
            .iter()
            .map(|t| t.mem)
            .max()
            .unwrap_or(MemSize::ZERO)
    }

    /// Aggregate workload statistics (Fig. 8 of the paper).
    pub fn stats(&self) -> InstanceStats {
        let sum_comm: Time = self.tasks.iter().map(|t| t.comm_time).sum();
        let sum_comp: Time = self.tasks.iter().map(|t| t.comp_time).sum();
        let total_mem: MemSize = self.tasks.iter().map(|t| t.mem).sum();
        let compute_intensive = self
            .tasks
            .iter()
            .filter(|t| t.intensity() == TaskIntensity::ComputeIntensive)
            .count();
        InstanceStats {
            n_tasks: self.tasks.len(),
            sum_comm,
            sum_comp,
            max_comm: self
                .tasks
                .iter()
                .map(|t| t.comm_time)
                .max()
                .unwrap_or(Time::ZERO),
            max_comp: self
                .tasks
                .iter()
                .map(|t| t.comp_time)
                .max()
                .unwrap_or(Time::ZERO),
            min_capacity: self.min_capacity(),
            total_mem,
            compute_intensive,
            communication_intensive: self.tasks.len() - compute_intensive,
        }
    }
}

/// Aggregate characteristics of an instance, matching the quantities plotted
/// in Fig. 8 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct InstanceStats {
    /// Number of tasks.
    pub n_tasks: usize,
    /// Total communication time (lower bound on link busy time).
    pub sum_comm: Time,
    /// Total computation time (lower bound on CPU busy time).
    pub sum_comp: Time,
    /// Largest single communication time.
    pub max_comm: Time,
    /// Largest single computation time.
    pub max_comp: Time,
    /// Minimum feasible capacity `mc` (largest single-task memory).
    pub min_capacity: MemSize,
    /// Sum of all task memory requirements.
    pub total_mem: MemSize,
    /// Number of compute-intensive tasks (`CP >= CM`).
    pub compute_intensive: usize,
    /// Number of communication-intensive tasks (`CP < CM`).
    pub communication_intensive: usize,
}

impl InstanceStats {
    /// `max(sum_comm, sum_comp)` — a lower bound on any makespan.
    pub fn resource_lower_bound(&self) -> Time {
        self.sum_comm.max(self.sum_comp)
    }

    /// `sum_comm + sum_comp` — the makespan of the fully sequential schedule
    /// with zero overlap (an upper bound for reasonable schedules).
    pub fn sequential_upper_bound(&self) -> Time {
        self.sum_comm + self.sum_comp
    }

    /// Fraction of tasks that are compute intensive.
    pub fn compute_intensive_fraction(&self) -> f64 {
        if self.n_tasks == 0 {
            0.0
        } else {
            self.compute_intensive as f64 / self.n_tasks as f64
        }
    }
}

/// Fluent builder for [`Instance`].
///
/// ```
/// use dts_core::prelude::*;
///
/// let instance = InstanceBuilder::new()
///     .capacity(MemSize::from_bytes(6))
///     .task_units("A", 3.0, 2.0, 3)
///     .task_units("B", 1.0, 3.0, 1)
///     .build()
///     .unwrap();
/// assert_eq!(instance.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    tasks: Vec<Task>,
    capacity: Option<MemSize>,
    label: String,
}

impl InstanceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the memory capacity. Defaults to [`MemSize::UNBOUNDED`].
    pub fn capacity(mut self, capacity: MemSize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the instance label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Adds an already-built task.
    pub fn task(mut self, task: Task) -> Self {
        self.tasks.push(task);
        self
    }

    /// Adds a task given in the paper's example convention (times in units,
    /// memory in bytes equal to the communication volume).
    pub fn task_units(self, name: &str, comm: f64, comp: f64, mem_bytes: u64) -> Self {
        self.task(Task::from_units(name, comm, comp, mem_bytes))
    }

    /// Adds many tasks at once.
    pub fn tasks(mut self, tasks: impl IntoIterator<Item = Task>) -> Self {
        self.tasks.extend(tasks);
        self
    }

    /// Builds the instance.
    pub fn build(self) -> Result<Instance> {
        Instance::with_label(
            self.tasks,
            self.capacity.unwrap_or(MemSize::UNBOUNDED),
            self.label,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .label("table3")
            .task_units("A", 3.0, 2.0, 3)
            .task_units("B", 1.0, 3.0, 1)
            .task_units("C", 4.0, 4.0, 4)
            .task_units("D", 2.0, 1.0, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds() {
        let inst = sample();
        assert_eq!(inst.len(), 4);
        assert_eq!(inst.capacity(), MemSize::from_bytes(6));
        assert_eq!(inst.label, "table3");
        assert_eq!(inst.task(TaskId(2)).name, "C");
        assert_eq!(inst.task_ids().len(), 4);
    }

    #[test]
    fn empty_instance_rejected() {
        let err = InstanceBuilder::new().build().unwrap_err();
        assert_eq!(err, CoreError::EmptyInstance);
    }

    #[test]
    fn oversized_task_rejected() {
        let err = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(2))
            .task_units("big", 5.0, 1.0, 5)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::TaskExceedsCapacity { .. }));
    }

    #[test]
    fn stats_match_hand_computation() {
        let stats = sample().stats();
        assert_eq!(stats.n_tasks, 4);
        assert_eq!(stats.sum_comm, Time::units_int(10));
        assert_eq!(stats.sum_comp, Time::units_int(10));
        assert_eq!(stats.max_comm, Time::units_int(4));
        assert_eq!(stats.max_comp, Time::units_int(4));
        assert_eq!(stats.min_capacity, MemSize::from_bytes(4));
        assert_eq!(stats.total_mem, MemSize::from_bytes(10));
        assert_eq!(stats.compute_intensive, 2); // B and C
        assert_eq!(stats.communication_intensive, 2); // A and D
        assert_eq!(stats.resource_lower_bound(), Time::units_int(10));
        assert_eq!(stats.sequential_upper_bound(), Time::units_int(20));
        assert!((stats.compute_intensive_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn with_capacity_rescales() {
        let inst = sample();
        let bigger = inst.with_capacity(MemSize::from_bytes(12)).unwrap();
        assert_eq!(bigger.capacity(), MemSize::from_bytes(12));
        assert_eq!(bigger.len(), inst.len());
        // Shrinking below the largest task is rejected.
        assert!(inst.with_capacity(MemSize::from_bytes(3)).is_err());
    }

    #[test]
    fn sub_instance_renumbers() {
        let inst = sample();
        let sub = inst.sub_instance(&[TaskId(2), TaskId(0)]).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.task(TaskId(0)).name, "C");
        assert_eq!(sub.task(TaskId(1)).name, "A");
        assert!(inst.sub_instance(&[TaskId(9)]).is_err());
    }

    #[test]
    fn min_capacity_is_largest_task() {
        let inst = sample();
        assert_eq!(inst.min_capacity(), MemSize::from_bytes(4));
    }

    #[test]
    fn model_defaults_to_explicit_and_round_trips() {
        use crate::exec::ExecutionModel;
        let inst = sample();
        assert_eq!(inst.model(), ExecutionModel::Explicit);
        let duplex = inst.with_model(ExecutionModel::Duplex).unwrap();
        assert_eq!(duplex.model(), ExecutionModel::Duplex);
        // Attaching Explicit is a no-op that keeps equality with the plain
        // instance, also on the way back from another model.
        assert_eq!(inst.with_model(ExecutionModel::Explicit).unwrap(), inst);
        assert_eq!(duplex.with_model(ExecutionModel::Explicit).unwrap(), inst);
        // Invalid models are rejected, not stored.
        assert!(inst.with_model(ExecutionModel::Streams { k: 0 }).is_err());
    }

    fn sample_regression_spec() -> CostModelSpec {
        use crate::perfmodel::{LinearFit, RegressionModel, PS_PER_MICRO};
        CostModelSpec::Regression(
            RegressionModel::new(
                vec![(
                    LinkClass::HostToDevice,
                    LinearFit {
                        alpha_us: 100,
                        beta_ps_per_byte: PS_PER_MICRO,
                        samples: 4,
                    },
                )],
                vec![(
                    ComputeBackend::Cpu,
                    LinearFit {
                        alpha_us: 50,
                        beta_ps_per_byte: 0,
                        samples: 4,
                    },
                )],
            )
            .unwrap(),
        )
    }

    #[test]
    fn cost_model_materializes_times_once() {
        let inst = sample();
        assert!(inst.cost_model().is_analytic());
        // Analytic is the identity and keeps equality.
        let same = inst.with_cost_model(&CostModelSpec::Analytic).unwrap();
        assert_eq!(same, inst);

        let spec = sample_regression_spec();
        let modeled = inst.with_cost_model(&spec).unwrap();
        assert_eq!(modeled.cost_model(), spec);
        // Task A: mem 3 bytes → comm 100 + 3 µs, comp 50 µs.
        assert_eq!(modeled.task(TaskId(0)).comm_time, Time::from_micros(103));
        assert_eq!(modeled.task(TaskId(0)).comp_time, Time::from_micros(50));
        // Memory footprints (and hence feasibility) are untouched.
        assert_eq!(modeled.task(TaskId(0)).mem, inst.task(TaskId(0)).mem);
        // Re-modeling a materialized instance is a typed error, not a
        // silent prediction-on-prediction stack.
        assert!(matches!(
            modeled.with_cost_model(&spec),
            Err(CoreError::InvalidCostModel(_))
        ));
    }

    #[test]
    fn cost_model_round_trips_and_stays_absent_by_default() {
        let inst = sample();
        assert_eq!(inst.cost_model(), CostModelSpec::Analytic);
        let modeled = inst.with_cost_model(&sample_regression_spec()).unwrap();
        assert_eq!(modeled.cost_model(), sample_regression_spec());
        // Capacity and label ride along unchanged.
        assert_eq!(modeled.capacity(), inst.capacity());
        assert_eq!(modeled.label, inst.label);
    }

    #[test]
    fn cost_model_survives_capacity_changes_and_sub_instances() {
        let spec = sample_regression_spec();
        let inst = sample().with_cost_model(&spec).unwrap();
        let resized = inst.with_capacity(MemSize::from_bytes(12)).unwrap();
        assert_eq!(resized.cost_model(), spec);
        let sub = inst.sub_instance(&[TaskId(2), TaskId(0)]).unwrap();
        assert_eq!(sub.cost_model(), spec);
    }

    #[test]
    fn model_survives_capacity_changes_and_sub_instances() {
        use crate::exec::ExecutionModel;
        let inst = sample()
            .with_model(ExecutionModel::Streams { k: 3 })
            .unwrap();
        let resized = inst.with_capacity(MemSize::from_bytes(12)).unwrap();
        assert_eq!(resized.model(), ExecutionModel::Streams { k: 3 });
        let sub = inst.sub_instance(&[TaskId(2), TaskId(0)]).unwrap();
        assert_eq!(sub.model(), ExecutionModel::Streams { k: 3 });
    }
}
