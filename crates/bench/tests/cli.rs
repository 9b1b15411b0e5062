//! The `paper` binary's argument errors and its checkpoint/resume
//! contract, driven end to end: a flag missing its value exits 2, a
//! resume snapshot that no run claims exits 1, and a run killed after a
//! checkpoint at `--jobs 2` and resumed at `--jobs 2` prints exactly what
//! an uninterrupted run prints. Hostile `--resume` and `--repro` files fail
//! with a typed error, never a crash.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use uvm_core::sim::error::UvmError;
use uvm_core::SystemSnapshot;

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("paper binary runs")
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli").join(test);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Stdout with the wall-clock `[N.NNs]` banner suffixes removed.
fn stdout_untimed(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| match line.rfind(" [") {
            Some(i) if line.ends_with("s]") => line[..i].trim_end(),
            _ => line,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run fig3 at `--jobs 2` until its first checkpoint and return the
/// checkpoint's path.
fn halted_fig3_checkpoint(dir: &Path) -> PathBuf {
    let ckpt = dir.join("fig3.ckpt");
    let ckpt_arg = ckpt.to_str().unwrap();
    let out = paper(&[
        "fig3",
        "--jobs",
        "2",
        "--checkpoint-every",
        "1",
        "--checkpoint-file",
        ckpt_arg,
        "--halt-after-checkpoint",
    ]);
    assert!(out.status.success(), "halted run failed: {out:?}");
    assert!(ckpt.exists(), "no checkpoint was written");
    ckpt
}

#[test]
fn flag_errors_exit_2() {
    for flag in ["--resume", "--checkpoint-file", "--json", "--out", "--trace-filter", "--repro"] {
        let out = paper(&["fig3", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} without a value");
        assert!(String::from_utf8_lossy(&out.stderr).contains(flag), "{flag}: {out:?}");
    }
    let out = paper(&["fig3", "--checkpoint-every", "0"]);
    assert_eq!(out.status.code(), Some(2), "--checkpoint-every 0");
    assert!(out.stdout.is_empty(), "nothing runs after a flag error");
}

#[test]
fn killed_run_resumes_at_jobs_2_to_the_uninterrupted_output() {
    let dir = scratch("resume");
    let plain = paper(&["fig3"]);
    assert!(stdout_untimed(&plain).contains("vecadd fault batches"), "{plain:?}");
    let ckpt = halted_fig3_checkpoint(&dir);
    let resumed = paper(&["fig3", "--jobs", "2", "--resume", ckpt.to_str().unwrap()]);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(stdout_untimed(&resumed), stdout_untimed(&plain));
}

#[test]
fn unclaimed_resume_exits_1_after_its_output() {
    let dir = scratch("unclaimed");
    let ckpt = halted_fig3_checkpoint(&dir);
    // fig5 never runs fig3's vecadd, so no run claims the snapshot.
    let out = paper(&["fig5", "--resume", ckpt.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout_untimed(&out).starts_with(&stdout_untimed(&paper(&["fig5"]))));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("workload vecadd, batch 1"), "stderr: {stderr}");
}

#[test]
fn every_prefix_of_a_checkpoint_is_rejected() {
    let dir = scratch("truncated");
    let ckpt = halted_fig3_checkpoint(&dir);
    let bytes = std::fs::read(&ckpt).unwrap();
    SystemSnapshot::load(&ckpt).expect("the whole checkpoint loads");
    let cut = dir.join("cut.ckpt");
    for len in (0..bytes.len()).step_by(bytes.len() / 200 + 1) {
        std::fs::write(&cut, &bytes[..len]).unwrap();
        assert!(
            matches!(SystemSnapshot::load(&cut), Err(UvmError::SnapshotInvalid { .. })),
            "a {len}-byte prefix of {} bytes loaded",
            bytes.len()
        );
    }
}

#[test]
fn deeply_nested_resume_and_repro_files_exit_1() {
    let dir = scratch("nested");
    let path = dir.join("nested.json");
    std::fs::write(&path, "[".repeat(300_000)).unwrap();
    let path = path.to_str().unwrap();
    for args in [["fig3", "--resume", path], ["chaos", "--repro", path]] {
        let out = paper(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("snapshot cannot be restored") && stderr.contains("recursion limit"),
            "{args:?}: {stderr}"
        );
    }
}
