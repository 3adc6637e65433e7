//! `fleet-replay` on sizes it cannot allocate and on an `--out` it cannot
//! create: a one-line message and exit 2, never a panic, an abort or a
//! hang.
//!
//! Both sizes are rounded up to a power of two per shard. Unchecked,
//! `--trace-depth 2^64-1` rounds to a zero-slot ring and panics a shard
//! worker, `--queue-capacity 2^63+1` rounds to a zero-slot queue that
//! never accepts a record, and `--queue-capacity 2^40` asks the allocator
//! for tens of GiB. The child is killed at a deadline so a hang fails the
//! test instead of stalling the suite.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `fleet-replay` with `args`; returns its exit code and stderr, or
/// `None` for the exit code if it had to be killed at the deadline.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = std::env::temp_dir().join(format!("fleet-replay-cli-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet-replay"))
        .args(["--quick", "--records", "10", "--out"])
        .arg(&out)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleet-replay");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on fleet-replay") {
            break status.code();
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let _ = std::fs::remove_dir_all(&out);
    (status, stderr)
}

#[test]
fn oversized_queue_capacity_and_trace_depth_exit_2_with_one_line() {
    // A directory under a regular file can never be created: that `--out`
    // fails before the replay, not with a panic after it.
    let file = std::env::temp_dir().join(format!("fleet-replay-cli-file-{}", std::process::id()));
    std::fs::write(&file, b"").expect("create the blocking file");
    let out = file.join("sub");
    let out = out.to_str().expect("UTF-8 temp path");
    for (flag, value, says) in [
        ("--trace-depth", "18446744073709551615", "must be at most"),
        ("--trace-depth", "1048577", "must be at most"),
        ("--queue-capacity", "9223372036854775809", "must be at most"),
        ("--queue-capacity", "1099511627776", "must be at most"),
        ("--queue-capacity", "1048577", "must be at most"),
        ("--out", out, out),
    ] {
        let (code, stderr) = run(&[flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: stderr {stderr:?}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: {stderr:?}");
        assert!(
            stderr.starts_with(&format!("fleet-replay: {flag} {says}")),
            "{flag} {value}: {stderr:?}"
        );
    }
    let _ = std::fs::remove_file(&file);
}
