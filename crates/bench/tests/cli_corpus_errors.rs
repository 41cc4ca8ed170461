//! Pins the `repro` binary's corpus-failure contract: every subcommand that
//! reads a corpus — `merge`, `analyze`, `tail`, `diagnose` — exits 1 with a
//! one-line stderr message when the corpus directory is missing or its
//! bytes no longer match the recorded digest, and so do the writers —
//! `record` onto a path it cannot create a corpus at, `diagnose --bless`
//! onto a golden path it cannot write. Exit 1 is the correctness code
//! (exit 2 is reserved for malformed invocations, 101 is a panic).

use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::corpus::{Corpus, MANIFEST_NAME};
use std::path::{Path, PathBuf};
use std::process::Command;

const CORPUS_SUBCOMMANDS: [&str; 4] = ["merge", "analyze", "tail", "diagnose"];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jigsaw-cli-corpus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `repro <cmd> --corpus <dir> <extra>…` and asserts exit 1 with one
/// stderr line containing `needle`.
fn assert_failure(cmd: &str, dir: &Path, extra: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([cmd, "--corpus"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{cmd}: expected exit 1, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{cmd}: expected a one-line message, got:\n{stderr}"
    );
    assert!(
        stderr.starts_with(&format!("{cmd}: ")) && stderr.contains(needle),
        "{cmd}: expected `{cmd}: …{needle}…`, got:\n{stderr}"
    );
}

#[test]
fn missing_corpus_directory_exits_1() {
    let dir = tmpdir("missing");
    for cmd in CORPUS_SUBCOMMANDS {
        assert_failure(cmd, &dir, &[], "open corpus");
    }
}

#[test]
fn byte_flipped_corpus_exits_1() {
    let seed = 20060124;
    let dir = tmpdir("flipped");
    let out = ScenarioConfig::tiny(seed).run();
    jigsaw_bench::record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).expect("record");
    let trace = {
        let corpus = Corpus::open(&dir).expect("open");
        dir.join(&corpus.manifest().radios[0].data)
    };
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&trace, bytes).expect("write trace");

    for cmd in CORPUS_SUBCOMMANDS {
        assert_failure(cmd, &dir, &[], "digest");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_onto_a_regular_file_exits_1() {
    let file = tmpdir("record-file");
    std::fs::write(&file, b"not a directory").expect("write file");
    assert_failure("record", &file, &["--scenario", "tiny"], "record corpus");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn diagnose_bless_onto_an_unwritable_golden_exits_1() {
    let seed = 20060124;
    let dir = tmpdir("bless");
    let out = ScenarioConfig::tiny(seed).run();
    jigsaw_bench::record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).expect("record");
    // The golden's parent directory is a regular file.
    let golden = dir.join(MANIFEST_NAME).join("diagnose.golden");
    let golden = golden.to_str().expect("utf-8 temp path");
    assert_failure(
        "diagnose",
        &dir,
        &["--golden", golden, "--bless"],
        "create golden dir",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
