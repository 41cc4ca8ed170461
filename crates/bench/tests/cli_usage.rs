//! Pins the `repro` binary's usage-error contract: every malformed
//! invocation — unknown flag or subcommand, a flag value that does not
//! parse, a missing flag value or required flag, a second subcommand —
//! exits 2 with a one-line stderr message, before any simulation starts.
//! (Correctness failures exit 1; that split is what CI keys off.)

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_usage_error(args: &[&str]) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?}: expected a one-line message, got:\n{stderr}"
    );
}

#[test]
fn unparseable_flag_values_exit_2() {
    assert_usage_error(&["--seed", "notanumber", "smoke"]);
    assert_usage_error(&["--scale", "fast", "smoke"]);
    assert_usage_error(&["--threads", "-3", "smoke"]);
    assert_usage_error(&["--block-bytes", "4k", "record"]);
    assert_usage_error(&["--snaplen", "full", "record"]);
    assert_usage_error(&["--from", "late", "merge"]);
    assert_usage_error(&["--to", "never", "merge"]);
    assert_usage_error(&["--max-buffered", "many", "merge"]);
}

#[test]
fn missing_flag_values_exit_2() {
    assert_usage_error(&["--threads"]);
    assert_usage_error(&["--corpus"]);
    assert_usage_error(&["--scenario"]);
    assert_usage_error(&["--golden"]);
}

#[test]
fn unknown_flags_and_subcommands_exit_2() {
    assert_usage_error(&["--bogus-flag"]);
    assert_usage_error(&["definitely-not-a-subcommand"]);
    assert_usage_error(&["smoke", "extra-subcommand"]);
}

#[test]
fn missing_required_corpus_exits_2() {
    assert_usage_error(&["merge"]);
    assert_usage_error(&["analyze"]);
    assert_usage_error(&["record"]);
    assert_usage_error(&["diagnose"]);
    assert_usage_error(&["tail"]);
}

#[test]
fn tail_shares_the_usage_contract() {
    // The live subcommand rides the same declarative flag table: values
    // validate eagerly, missing values and unknown flags die identically,
    // and the one-subcommand rule holds.
    assert_usage_error(&["--chunk-bytes", "big", "tail"]);
    assert_usage_error(&["--chunk-bytes", "-1", "tail"]);
    assert_usage_error(&["--chunk-bytes"]);
    assert_usage_error(&["--max-lag-us", "forever", "tail"]);
    assert_usage_error(&["--max-lag-us"]);
    assert_usage_error(&["tail", "extra-subcommand"]);
}

#[test]
fn diagnose_shares_the_usage_contract() {
    // The same flag table drives every subcommand: window timestamps
    // validate eagerly even though diagnose would fail later anyway,
    // and the one-subcommand rule holds.
    assert_usage_error(&["--from", "late", "diagnose"]);
    assert_usage_error(&["--to", "never", "diagnose"]);
    assert_usage_error(&["diagnose", "extra-subcommand"]);
}

#[test]
fn unknown_scenario_names_exit_2() {
    assert_usage_error(&[
        "record",
        "--corpus",
        "target/never-created",
        "--scenario",
        "nope",
    ]);
    assert_usage_error(&["sweep", "--scenario", "not-a-matrix-entry"]);
}
