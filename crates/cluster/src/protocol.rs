//! The unit the DataManager hands out.
//!
//! The original platform shipped Java objects over TCP. Here a task is a
//! plain value: in process a worker takes it from the lock-guarded
//! [`crate::DataManager`] directly, and across machines [`crate::wire`]
//! encodes it into the frames of [`crate::net`] (request, assign,
//! complete, shutdown).

/// One unit of assignable work: a photon batch with its RNG stream index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTask {
    /// Unique, dense task identifier (also the RNG stream index, which is
    /// what makes re-execution after a failure give identical photons).
    pub task_id: u64,
    /// Photons in this batch.
    pub photons: u64,
}
