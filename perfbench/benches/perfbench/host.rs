//! The host header every output carries, so that a regression can be told
//! apart from a different machine or toolchain.

use locality_json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Host and invocation facts, gathered once per run.
pub fn header(workload: &str, seed: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let command: Vec<String> = std::env::args().collect();
    Json::object(vec![
        ("git_rev", Json::Str(git_rev())),
        (
            "source_fnv",
            Json::Str(format!("{:016x}", source_fingerprint())),
        ),
        ("nproc", Json::Int(nproc as i64)),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string())),
        ("profile", Json::Str(env!("PERFBENCH_PROFILE").to_string())),
        ("command", Json::Str(command.join(" "))),
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Int(seed as i64)),
        ("trace", Json::Bool(trace)),
    ])
}

/// The benchmark package's directory (`perfbench/`), wherever the binary
/// runs from: `cargo bench` starts it in the package directory.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    package_dir().join("..")
}

/// `git rev-parse HEAD`, or a marker when the checkout is not a git
/// repository (the source fingerprint still identifies the code).
fn git_rev() -> String {
    let marker = || "none (not a git checkout)".to_string();
    let root = repo_root();
    if !root.join(".git").exists() {
        return marker();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(marker)
}

/// FNV-1a over the repository-relative path and bytes of every `.rs` and
/// `Cargo.toml` file under `crates/` and `perfbench/`, in sorted path order.
fn source_fingerprint() -> u64 {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "perfbench"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        let rel = path.strip_prefix(&root).unwrap_or(&path).to_string_lossy();
        for b in rel.bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n != "out" && n != "target")
            {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}
