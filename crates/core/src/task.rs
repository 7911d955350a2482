//! Tasks of the data-transfer problem.

use crate::memory::MemSize;
use crate::time::Time;
use serde::Serialize;
use std::fmt;

/// Index of a task inside its [`Instance`](crate::instance::Instance).
///
/// Task ids are dense indices (`0..n`), which lets schedules and solvers use
/// plain vectors instead of hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The underlying index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Classification of a task following the paper: a task is *compute
/// intensive* if its computation time is at least its communication time,
/// and *communication intensive* otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TaskIntensity {
    /// `CP >= CM`.
    ComputeIntensive,
    /// `CP < CM`.
    CommunicationIntensive,
}

impl fmt::Display for TaskIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskIntensity::ComputeIntensive => write!(f, "compute-intensive"),
            TaskIntensity::CommunicationIntensive => write!(f, "communication-intensive"),
        }
    }
}

/// One independent task of problem `DT`.
///
/// A task first occupies the communication link for `comm_time` (its input
/// transfer from the remote memory node), then the processing unit for
/// `comp_time`. It holds `mem` bytes of the local memory from the start of
/// its communication until the end of its computation. Output data is not
/// modelled (the paper assumes it is negligible or stored in a preallocated
/// buffer).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Task {
    /// Human-readable name (task label in the paper's tables, or the kernel
    /// name in generated traces).
    pub name: String,
    /// Input-data transfer time `CM_i`.
    pub comm_time: Time,
    /// Computation time `CP_i`.
    pub comp_time: Time,
    /// Memory required to hold the input data, `MC(i)`.
    pub mem: MemSize,
}

impl Task {
    /// Creates a task from raw quantities.
    pub fn new(name: impl Into<String>, comm_time: Time, comp_time: Time, mem: MemSize) -> Self {
        Task {
            name: name.into(),
            comm_time,
            comp_time,
            mem,
        }
    }

    /// Creates a task using the paper's example convention: times are given
    /// in abstract units and the memory requirement (in bytes) equals the
    /// communication volume.
    pub fn from_units(name: impl Into<String>, comm: f64, comp: f64, mem_bytes: u64) -> Self {
        Task {
            name: name.into(),
            comm_time: Time::units(comm),
            comp_time: Time::units(comp),
            mem: MemSize::from_bytes(mem_bytes),
        }
    }

    /// Intensity classification (`CP >= CM` ⇒ compute intensive).
    #[inline]
    pub fn intensity(&self) -> TaskIntensity {
        if self.comp_time >= self.comm_time {
            TaskIntensity::ComputeIntensive
        } else {
            TaskIntensity::CommunicationIntensive
        }
    }

    /// `true` iff the task is compute intensive.
    #[inline]
    pub fn is_compute_intensive(&self) -> bool {
        self.intensity() == TaskIntensity::ComputeIntensive
    }

    /// Acceleration ratio `CP / CM`, used by the MAMR/OOMAMR heuristics.
    /// Follows the conventions of [`Time::ratio`].
    #[inline]
    pub fn acceleration_ratio(&self) -> f64 {
        self.comp_time.ratio(self.comm_time)
    }

    /// Sum of communication and computation time (IOCCS/DOCCS sort key).
    #[inline]
    pub fn total_time(&self) -> Time {
        self.comm_time + self.comp_time
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (comm {}, comp {}, mem {})",
            self.name, self.comm_time, self.comp_time, self.mem
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_classification() {
        let compute = Task::from_units("B", 1.0, 3.0, 1);
        let comm = Task::from_units("A", 3.0, 2.0, 3);
        let balanced = Task::from_units("C", 4.0, 4.0, 4);
        assert_eq!(compute.intensity(), TaskIntensity::ComputeIntensive);
        assert_eq!(comm.intensity(), TaskIntensity::CommunicationIntensive);
        // Equality counts as compute intensive (CP >= CM).
        assert_eq!(balanced.intensity(), TaskIntensity::ComputeIntensive);
        assert!(compute.is_compute_intensive());
        assert!(!comm.is_compute_intensive());
    }

    #[test]
    fn acceleration_ratio_and_total() {
        let t = Task::from_units("D", 2.0, 1.0, 2);
        assert!((t.acceleration_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(t.total_time(), Time::units_int(3));
        let zero_comm = Task::from_units("K0", 0.0, 3.0, 0);
        assert_eq!(zero_comm.acceleration_ratio(), f64::INFINITY);
    }

    #[test]
    fn serde_round_trip() {
        // Times serialize as ticks, memory as bytes; the document survives
        // JSON text unchanged.
        let t = Task::from_units("A", 3.0, 2.0, 3);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(
            json,
            r#"{"name":"A","comm_time":3000,"comp_time":2000,"mem":3}"#
        );
        let back: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t.to_value());
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(4).to_string(), "T4");
        assert_eq!(TaskId(4).index(), 4);
    }
}
