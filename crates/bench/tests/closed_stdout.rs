//! A reader that closes `balloc`'s stdout early (`balloc list | head -1`)
//! ends the run quietly with exit 0; any other failed write is a clean
//! exit-1 error (exit 2, the I/O error code, under `balloc lint`).
//! Neither may panic.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Output, Stdio};

/// Runs `balloc args`, reads the first chunk of its stdout, closes the
/// pipe, and waits for the exit.
fn run_and_close_early(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_balloc"))
        .args(args)
        // Text mode saves artifacts under the working directory.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn balloc");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 16];
    let got = stdout.read(&mut first).expect("first read");
    assert!(got > 0, "balloc {args:?} printed nothing");
    drop(stdout);
    child.wait_with_output().expect("wait for balloc")
}

fn assert_quiet_success(args: &[&str], out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "balloc {args:?}: {stderr}");
    assert_ne!(out.status.code(), Some(101), "balloc {args:?} panicked");
    assert_eq!(out.status.code(), Some(0), "balloc {args:?}: {stderr}");
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // The JSON array is one write far larger than a pipe buffer, so the
    // close always lands mid-write; text mode prints while it runs.
    for args in [
        &["all", "--smoke", "--runs", "2", "--n", "64", "--json"][..],
        &["all", "--smoke", "--runs", "2", "--n", "64"],
        &["list"],
        &["lint", "--list"],
    ] {
        assert_quiet_success(args, &run_and_close_early(args));
    }
}

/// Runs `balloc args` with stdout on `/dev/full` (every write fails with
/// ENOSPC) and checks the exit code and message. Hosts without the device
/// skip the check.
fn assert_full_stdout_fails(args: &[&str], code: i32) {
    let full = Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_balloc"))
        .args(args)
        .stdout(File::create(full).expect("open /dev/full"))
        .output()
        .expect("run balloc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "balloc {args:?}: {stderr}");
    assert_eq!(out.status.code(), Some(code), "balloc {args:?}: {stderr}");
    assert!(
        stderr.contains("error: writing to stdout"),
        "balloc {args:?}: {stderr}"
    );
}

#[test]
fn other_stdout_write_errors_exit_1_with_a_message() {
    assert_full_stdout_fails(&["list"], 1);
}

#[test]
fn lint_stdout_write_errors_exit_2_with_a_message() {
    assert_full_stdout_fails(&["lint", "--list"], 2);
}
