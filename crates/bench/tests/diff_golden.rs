//! Registry diff golden: `repro -- diff superoffload zero-offload` writes
//! artifacts byte-identical to the committed digests, which were recorded
//! before the diff, emitters and JSON parser were rewritten to borrow and
//! write in place. Any drift of a byte in the snapshot, the side-by-side
//! trace or the HTML report fails here.

use std::path::PathBuf;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn registry_diff_artifacts_match_committed_digests() {
    let golden = include_str!("golden/diff_superoffload_vs_zero-offload.digests");
    let dir: PathBuf = std::env::temp_dir().join(format!("diff-golden-{}", std::process::id()));
    let args: Vec<String> = ["superoffload", "zero-offload", "--out-dir"]
        .iter()
        .map(|s| s.to_string())
        .chain([dir.to_string_lossy().into_owned()])
        .collect();
    superoffload_bench::diff::run(&args).unwrap();
    let mut checked = 0;
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split(' ');
        let (name, len, digest) = (
            fields.next().unwrap(),
            fields.next().unwrap(),
            fields.next().unwrap(),
        );
        let body = std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(body.len().to_string(), len, "{name}: length drifted");
        assert_eq!(
            format!("{:016x}", fnv1a(&body)),
            digest,
            "{name}: bytes drifted"
        );
        checked += 1;
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(checked, 3, "snapshot, trace and report are all pinned");
}
