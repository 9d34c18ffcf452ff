//! The engine configurations the workloads run on, and what the benchmark
//! needs from an engine beyond the `Engine` trait.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use mmdb_common::durability::CheckpointPolicy;
use mmdb_common::engine::Engine;
use mmdb_common::error::Result;
use mmdb_common::ids::TableId;
use mmdb_core::{MvConfig, MvEngine};
use mmdb_onev::{SvConfig, SvEngine};
use mmdb_storage::checkpoint::{CheckpointStore, RecoveryPlan};
use mmdb_storage::log::RecoveryReport;

/// Group-commit flush policy of the logged workload: a background flusher
/// writes and `fdatasync`s the shared log buffer every 10 ms; commits are
/// asynchronous and never wait for it.
pub const FLUSH_TICK: Duration = Duration::from_millis(10);

/// Engine operations the benchmark uses besides `Engine`.
pub trait BenchEngine: Engine + Clone {
    /// Name of the crate that implements the engine's transactions, the
    /// prefix of its per-layer metrics.
    const LAYER: &'static str;

    /// Load a checkpoint chain and log tail into this fresh engine (its
    /// tables already re-created).
    fn recover(&self, plan: &RecoveryPlan) -> Result<RecoveryReport>;

    /// Versions reachable in `table`, for engines that keep version chains.
    fn versions(&self, table: TableId) -> Option<usize>;

    /// Take the checkpoint `policy` calls for next (delta or base) into
    /// `store`, which must hold this engine's redo log.
    fn checkpoint(&self, store: &CheckpointStore, policy: &CheckpointPolicy) -> Result<()>;
}

impl BenchEngine for MvEngine {
    const LAYER: &'static str = "core";

    fn recover(&self, plan: &RecoveryPlan) -> Result<RecoveryReport> {
        self.recover_from_checkpoint(plan)
    }

    fn versions(&self, table: TableId) -> Option<usize> {
        self.version_count(table).ok()
    }

    fn checkpoint(&self, store: &CheckpointStore, policy: &CheckpointPolicy) -> Result<()> {
        self.checkpoint_auto(store, policy).map(|_| ())
    }
}

impl BenchEngine for SvEngine {
    const LAYER: &'static str = "onev";

    fn recover(&self, plan: &RecoveryPlan) -> Result<RecoveryReport> {
        self.recover_from_checkpoint(plan)
    }

    fn versions(&self, _table: TableId) -> Option<usize> {
        None
    }

    fn checkpoint(&self, store: &CheckpointStore, policy: &CheckpointPolicy) -> Result<()> {
        self.checkpoint_auto(store, policy).map(|_| ())
    }
}

/// A workload's engine plus, for the logged workload, the checkpoint store
/// its redo log goes to.
pub struct Env<E> {
    /// The engine under test.
    pub engine: E,
    /// The store behind the engine's redo log, if it has one.
    pub store: Option<Arc<CheckpointStore>>,
}

/// How each workload builds its engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// MV/O, redo records discarded.
    Optimistic,
    /// MV/L, redo records discarded.
    Pessimistic,
    /// MV/A, redo log into a checkpoint store (group commit, async commit).
    AdaptiveLogged,
    /// 1V, redo records discarded.
    SingleVersion,
}

impl Scheme {
    /// Engine label as the engines report it.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Optimistic => "MV/O",
            Scheme::Pessimistic => "MV/L",
            Scheme::AdaptiveLogged => "MV/A",
            Scheme::SingleVersion => "1V",
        }
    }

    fn mv_config(self) -> MvConfig {
        match self {
            Scheme::Optimistic => MvConfig::optimistic(),
            Scheme::Pessimistic => MvConfig::pessimistic(),
            _ => MvConfig::adaptive(),
        }
    }

    /// The engine a run measures; `dir` holds the checkpoint store of the
    /// logged scheme.
    pub fn make_mv(self, dir: &Path) -> Result<Env<MvEngine>> {
        if self == Scheme::AdaptiveLogged {
            let store = Arc::new(CheckpointStore::create_with_tick(dir, FLUSH_TICK)?);
            let engine = MvEngine::with_logger(self.mv_config(), store.logger().clone());
            Ok(Env {
                engine,
                store: Some(store),
            })
        } else {
            Ok(Env {
                engine: MvEngine::new(self.mv_config()),
                store: None,
            })
        }
    }

    /// A fresh engine to restart into (no redo log).
    pub fn fresh_mv(self) -> MvEngine {
        MvEngine::new(self.mv_config())
    }
}

/// The 1V engine with its default configuration.
pub fn make_sv() -> Env<SvEngine> {
    Env {
        engine: SvEngine::new(SvConfig::default()),
        store: None,
    }
}
