//! Child processes: building `reptile-correct`, running it (or this
//! harness in serve mode) as a fresh process per trial, and sampling the
//! child's peak resident set while it runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The repository root: this package sits one directory below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

/// Build the CLI the batch workloads drive (tier-1's `cargo build
/// --release` does not build it) and return the binary's path. Cargo
/// output goes to stderr; a warm build is a sub-second no-op.
pub fn build_cli() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "reptile-cli",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p reptile-cli failed: {status}"));
    }
    // The child cargo inherited this process's directory and environment,
    // so a relative CARGO_TARGET_DIR means the same place to both.
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), PathBuf::from);
    let bin = target.join("release").join("reptile-correct");
    if !bin.is_file() {
        return Err(format!("built binary not found at {}", bin.display()));
    }
    std::path::absolute(&bin).map_err(|e| format!("{}: {e}", bin.display()))
}

/// One finished child: wall-clock from spawn to exit and its `VmHWM`
/// (`None` when it exited before the first sample).
#[derive(Clone, Copy, Debug)]
pub struct ChildRun {
    pub wall_s: f64,
    pub peak_rss_mb: Option<f64>,
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run `cmd` to completion. A second thread reads the child's `VmHWM`
/// from `/proc/<pid>/status` every 20 ms while this one blocks in
/// `wait`, so the wall-clock is not quantized by the sampling.
pub fn run_sampled(cmd: &mut Command) -> Result<ChildRun, String> {
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let (status, peak_kb) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0u64;
            while !exited.load(Ordering::SeqCst) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(kb);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        let status = child.wait();
        let wall = started.elapsed();
        exited.store(true, Ordering::SeqCst);
        ((status, wall), sampler.join().expect("sampler thread panicked"))
    });
    let (status, wall) = status;
    let status = status.map_err(|e| format!("wait for {cmd:?}: {e}"))?;
    if !status.success() {
        return Err(format!("{cmd:?} exited with {status}"));
    }
    let peak_rss_mb = (peak_kb > 0).then_some(peak_kb as f64 / 1024.0);
    Ok(ChildRun { wall_s: wall.as_secs_f64(), peak_rss_mb })
}
