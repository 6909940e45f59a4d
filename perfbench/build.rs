//! Stamps build provenance into the benchmark binary: the compiler
//! version, the build profile and, when the source tree is a git checkout,
//! the commit it was built from. Reads only inside the source tree.

use std::fs;
use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={}", git_commit());
}

/// The commit `HEAD` names, resolved from the files under `.git` at the
/// repository root (one level above this package), or `"unknown"` when
/// the tree is not a git checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head_path = git.join("HEAD");
    let Ok(head) = fs::read_to_string(&head_path) else {
        return "unknown".to_string();
    };
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let ref_path = git.join(reference);
    if let Ok(commit) = fs::read_to_string(&ref_path) {
        println!("cargo:rerun-if-changed={}", ref_path.display());
        return commit.trim().to_string();
    }
    let packed = git.join("packed-refs");
    if let Ok(refs) = fs::read_to_string(&packed) {
        println!("cargo:rerun-if-changed={}", packed.display());
        for line in refs.lines() {
            if let Some((commit, name)) = line.split_once(' ') {
                if name == reference {
                    return commit.to_string();
                }
            }
        }
    }
    "unknown".to_string()
}
