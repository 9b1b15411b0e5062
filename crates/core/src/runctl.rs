//! Checkpoint/resume policy for the experiment harness.
//!
//! The binary entry point declares once, with [`configure`], how system
//! runs should checkpoint and resume; the run loop in
//! [`UvmSystem::try_run_with_hints`](crate::system::UvmSystem::try_run_with_hints)
//! consults the policy transparently, so every experiment gains
//! `--checkpoint-every` / `--resume` support without touching experiment
//! code.
//!
//! ## Resume model
//!
//! A checkpoint records a [`run_key`]: digests of the run's hints,
//! workload and config, i.e. of what it runs and nothing else. A run is a
//! pure function of those inputs, so runs with equal keys are
//! interchangeable. Resuming re-executes the harness from the start, at
//! any `--jobs`: runs replay in full (the simulator is deterministic), and
//! the first run whose key matches the pending snapshot restores
//! mid-flight instead. Whichever equal-key run claims it, the resumed
//! invocation's output alone is byte-identical to the uninterrupted one.
//! The key is computed only while a checkpoint policy or a pending
//! snapshot can read it, so ordinary runs skip the digests.
//!
//! Concurrent runs share one checkpoint path. Checkpoint writes and
//! end-of-run cleanup hold the policy lock, so a `.tmp` file never has two
//! writers, and a finishing run removes the file only if it still holds
//! that run's checkpoint.

use std::num::NonZeroU64;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use serde::Serialize;
use uvm_sim::error::UvmError;
use uvm_sim::snapshot::digest_value;
use uvm_workloads::workload::Workload;

use crate::config::SystemConfig;
use crate::snapshot::{run_key, SystemSnapshot};
use crate::system::RunHints;

/// Checkpoint/resume policy, set once per process from CLI flags.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    /// Write a checkpoint every N serviced batches (latest overwrites
    /// earlier ones). `None` disables auto-checkpointing.
    pub checkpoint_every: Option<NonZeroU64>,
    /// Where checkpoints are written. Defaults to `uvm-ckpt.json` in the
    /// working directory.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from this checkpoint file (loaded eagerly so a bad file
    /// fails fast, before any simulation runs).
    pub resume_from: Option<PathBuf>,
    /// Exit the process (status 0) immediately after the first checkpoint
    /// is written. Simulates a mid-run kill for resume testing; the
    /// partial output up to that point has already been printed.
    pub halt_after_checkpoint: bool,
}

/// The key of a run of `workload` under `config` with `hints` (see
/// [`run_key`]).
pub(crate) fn key_of(config: &SystemConfig, workload: &Workload, hints: &RunHints) -> u64 {
    run_key(
        digest_value(&hints.to_value()),
        digest_value(&workload.to_value()),
        digest_value(&config.to_value()),
    )
}

/// The policy plus what the runs have done with it so far. The process
/// holds one in [`CTL`]; tests drive their own.
#[derive(Debug, Default)]
struct CtlState {
    ctl: RunCtl,
    /// The pending resume snapshot; taken (once) by a run whose key
    /// matches.
    resume: Option<SystemSnapshot>,
    /// Sessions opened with a key so far; numbers them.
    sessions: u64,
    /// The session whose checkpoint the file at the checkpoint path holds.
    on_disk: Option<u64>,
}

impl CtlState {
    /// Whether a starting run needs its key.
    fn wants_key(&self) -> bool {
        self.ctl.checkpoint_every.is_some() || self.resume.is_some()
    }

    fn checkpoint_path(&self) -> PathBuf {
        self.ctl
            .checkpoint_path
            .clone()
            .unwrap_or_else(|| PathBuf::from("uvm-ckpt.json"))
    }

    /// Open a session for a run with `key` (`None` when not wanted),
    /// handing it the pending resume snapshot if the keys match.
    fn open(&mut self, key: Option<u64>) -> RunSession {
        let Some(key) = key else {
            return RunSession::default();
        };
        self.sessions += 1;
        RunSession {
            id: self.sessions,
            checkpoint: self.ctl.checkpoint_every.map(|every| (every, key)),
            resume: self.resume.take_if(|snap| snap.run_key == key),
        }
    }

    /// Write `snap` to the checkpoint path (atomically, overwriting the
    /// previous checkpoint) and honor `halt_after_checkpoint`.
    fn write_checkpoint(&mut self, session: &RunSession, snap: &SystemSnapshot) {
        let path = self.checkpoint_path();
        if let Err(e) = snap.save(&path) {
            eprintln!("warning: failed to write checkpoint {}: {e}", path.display());
            return;
        }
        self.on_disk = Some(session.id);
        if self.ctl.halt_after_checkpoint {
            eprintln!(
                "checkpoint written to {} after batch {}; halting as requested",
                path.display(),
                snap.batches
            );
            std::process::exit(0);
        }
    }

    /// The run completed: a checkpoint of it is now stale (resuming from
    /// it would redo finished work), so remove it — unless another run
    /// has overwritten it since.
    fn finish(&mut self, session: &RunSession) {
        if self.on_disk == Some(session.id) {
            std::fs::remove_file(self.checkpoint_path()).ok();
            self.on_disk = None;
        }
    }
}

static CTL: OnceLock<Mutex<CtlState>> = OnceLock::new();

/// Lock `ctl`. A poisoned lock is recovered rather than propagated: every
/// mutation is a whole-field assignment, so a panic in another thread
/// cannot leave the state torn.
fn lock(ctl: &Mutex<CtlState>) -> MutexGuard<'_, CtlState> {
    ctl.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn global() -> &'static Mutex<CtlState> {
    CTL.get_or_init(Mutex::default)
}

fn state() -> MutexGuard<'static, CtlState> {
    lock(global())
}

/// Install the process-wide policy. Call once, before any experiment runs.
/// When `resume_from` is set, the snapshot is loaded and validated here;
/// an unreadable or unparsable file is an immediate error.
pub fn configure(ctl: RunCtl) -> Result<(), UvmError> {
    let resume = match &ctl.resume_from {
        Some(path) => Some(SystemSnapshot::load(path)?),
        None => None,
    };
    *state() = CtlState { ctl, resume, ..CtlState::default() };
    Ok(())
}

/// Take the resume snapshot if no run has claimed it. Called after the
/// harness finishes, `Some` means the resume restored nothing: the
/// snapshot belongs to another invocation (or an older build).
pub fn take_unclaimed_resume() -> Option<SystemSnapshot> {
    state().resume.take()
}

/// One run's view of the policy, handed out by `begin_run`.
#[derive(Debug, Default)]
pub struct RunSession {
    id: u64,
    /// The checkpoint interval and this run's key, when checkpointing.
    checkpoint: Option<(NonZeroU64, u64)>,
    resume: Option<SystemSnapshot>,
}

/// Register the start of a system run and capture the policy that applies
/// to it. `key` computes the run's key; it is called only when the policy
/// reads it, and if the pending resume snapshot's key matches, this run
/// takes the snapshot.
pub(crate) fn begin_run(key: impl FnOnce() -> u64) -> RunSession {
    begin_run_in(global(), key)
}

fn begin_run_in(ctl: &Mutex<CtlState>, key: impl FnOnce() -> u64) -> RunSession {
    // Digest outside the lock, so concurrent runs do not queue on it.
    let wanted = lock(ctl).wants_key();
    let key = wanted.then(key);
    lock(ctl).open(key)
}

impl RunSession {
    /// Take the resume snapshot, if one matched this run.
    pub(crate) fn take_resume(&mut self) -> Option<SystemSnapshot> {
        self.resume.take()
    }

    /// This run's key if a checkpoint is due after serviced batch `n`
    /// (1-based).
    pub(crate) fn checkpoint_due(&self, n: u64) -> Option<u64> {
        self.checkpoint
            .filter(|(every, _)| n % every.get() == 0)
            .map(|(_, key)| key)
    }

    /// Write `snap` as the process's checkpoint.
    pub(crate) fn write_checkpoint(&self, snap: &SystemSnapshot) {
        state().write_checkpoint(self, snap);
    }

    /// The run completed; drop its checkpoint if the file still holds it.
    pub(crate) fn finish(self) {
        if self.checkpoint.is_some() {
            state().finish(&self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::stub_snapshot;
    use uvm_workloads::cpu_init::CpuInitPolicy;
    use uvm_workloads::stream::{self, StreamParams};

    fn workload() -> Workload {
        stream::build(StreamParams {
            warps: 4,
            pages_per_warp: 4,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::Striped { threads: 2 }),
        })
    }

    fn config() -> SystemConfig {
        SystemConfig::test_small(16 * 1024 * 1024)
    }

    fn checkpointing(path: PathBuf) -> CtlState {
        CtlState {
            ctl: RunCtl {
                checkpoint_every: NonZeroU64::new(1),
                checkpoint_path: Some(path),
                ..RunCtl::default()
            },
            ..CtlState::default()
        }
    }

    #[test]
    fn equal_inputs_give_equal_keys() {
        let w = workload();
        let key = key_of(&config(), &w, &RunHints::default());
        assert_eq!(key, key_of(&config(), &workload(), &RunHints::default()));
        assert_ne!(key, key_of(&config().with_seed(7), &w, &RunHints::default()));

        // A run with that key claims a snapshot of it; a second run with
        // the same key finds nothing left to claim.
        let ctl = Mutex::new(CtlState {
            resume: Some(stub_snapshot(key, 3)),
            ..CtlState::default()
        });
        let mut other = begin_run_in(&ctl, || key ^ 1);
        assert!(other.take_resume().is_none());
        let mut first = begin_run_in(&ctl, || key);
        assert_eq!(first.take_resume().map(|s| s.batches), Some(3));
        assert!(begin_run_in(&ctl, || key).take_resume().is_none());
    }

    #[test]
    fn changing_the_hints_changes_the_key() {
        let (c, w) = (config(), workload());
        let prefetch = RunHints {
            prefetch: w.allocations.clone(),
            ..RunHints::default()
        };
        assert_ne!(key_of(&c, &w, &RunHints::default()), key_of(&c, &w, &prefetch));
    }

    #[test]
    fn unconfigured_session_never_checkpoints() {
        let ctl = Mutex::new(CtlState::default());
        let mut s = begin_run_in(&ctl, || panic!("the key is read only by a policy"));
        assert!(s.take_resume().is_none());
        assert_eq!(s.checkpoint_due(1), None);
        assert_eq!(s.checkpoint_due(50), None);

        // Once a pending resume is claimed, later runs skip the key again.
        let ctl = Mutex::new(CtlState {
            resume: Some(stub_snapshot(9, 1)),
            ..CtlState::default()
        });
        assert!(begin_run_in(&ctl, || 9).take_resume().is_some());
        begin_run_in(&ctl, || panic!("no resume is pending any more"));
    }

    #[test]
    fn finishing_run_keeps_another_runs_later_checkpoint() {
        let dir = std::env::temp_dir().join(format!("uvm-runctl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut st = checkpointing(path.clone());
        let a = st.open(Some(1));
        let b = st.open(Some(2));
        assert_eq!(a.checkpoint_due(1), Some(1));
        st.write_checkpoint(&a, &stub_snapshot(1, 1));
        st.write_checkpoint(&b, &stub_snapshot(2, 1));

        st.finish(&a);
        assert_eq!(SystemSnapshot::load(&path).unwrap().run_key, 2, "B's checkpoint survives");
        st.finish(&b);
        assert!(!path.exists(), "B's own checkpoint goes when B finishes");
        std::fs::remove_dir_all(&dir).ok();
    }
}
