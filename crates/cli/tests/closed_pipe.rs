//! The `pimsim` binary against a reader that has already gone away, as
//! in `pimsim list | head -1`: the closed pipe ends the output normally,
//! with exit code 0 and nothing on stderr.

use std::process::{Command, Stdio};

#[test]
fn list_into_a_closed_pipe_exits_cleanly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run pimsim");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
