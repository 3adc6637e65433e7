//! Host-agent child image for the distributed integration test.
//!
//! `tests/fleet_distributed.rs` points `DistributedConfig::child_exe`
//! at this binary (via `CARGO_BIN_EXE_wire-host`); all the real logic
//! lives in `xentry_integration_tests::distributed::child_main`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(xentry_integration_tests::distributed::child_main(&args));
}
