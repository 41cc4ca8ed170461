//! Pins the `repro` binary's corpus-failure contract: every subcommand that
//! reads a corpus — `merge`, `analyze`, `tail`, `diagnose` — exits 1 with a
//! one-line stderr message when the corpus directory is missing or its
//! bytes no longer match the recorded digest. Exit 1 is the correctness
//! code (exit 2 is reserved for malformed invocations, 101 is a panic).

use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::corpus::Corpus;
use std::path::{Path, PathBuf};
use std::process::Command;

const CORPUS_SUBCOMMANDS: [&str; 4] = ["merge", "analyze", "tail", "diagnose"];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jigsaw-cli-corpus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `repro <cmd> --corpus <dir>` and asserts exit 1 with one stderr
/// line containing `needle`.
fn assert_corpus_failure(cmd: &str, dir: &Path, needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([cmd, "--corpus"])
        .arg(dir)
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
        assert_corpus_failure(cmd, &dir, "open corpus");
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
        assert_corpus_failure(cmd, &dir, "digest");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
