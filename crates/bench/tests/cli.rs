//! The `dynapar-bench` binary answers bad input with a message and a
//! non-zero exit status, never with a panic.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Runs the binary; returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dynapar-bench"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_input_fails_cleanly() {
    // A regular file where a directory is needed: not creatable, even
    // as root.
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-not-a-dir");
    fs::write(&file, "").expect("temporary file");
    let unwritable = file.join("out");
    let unwritable = unwritable.to_str().expect("utf-8 path");

    let cases: [(&[&str], i32, &str); 7] = [
        (
            &["--scale", "tiny", "diag", "--bench", "Nope"],
            1,
            "unknown benchmark \"Nope\"",
        ),
        (
            &["--scale", "tiny", "figures", "--out", unwritable],
            1,
            "cli-not-a-dir",
        ),
        (
            &["--scale", "tiny", "fig99"],
            2,
            "unknown experiment \"fig99\"",
        ),
        (
            &["--scale", "tiny", "--frobnicate", "fig15"],
            2,
            "unknown argument \"--frobnicate\"",
        ),
        (&["--scale", "huge", "fig15"], 2, "--scale expects"),
        (
            &["--scale", "tiny", "table1", "--out"],
            2,
            "--out expects a directory",
        ),
        (&["--scale", "tiny"], 2, "name at least one experiment"),
    ];
    for (args, code, message) in cases {
        let (got, stderr) = run(args);
        assert_eq!(got, Some(code), "{args:?}: stderr was\n{stderr}");
        assert!(
            stderr.starts_with("dynapar-bench: error: ") && stderr.contains(message),
            "{args:?}: stderr was\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        // Command-line mistakes come with the usage text.
        assert_eq!(
            stderr.contains("usage: dynapar-bench"),
            code == 2,
            "{args:?}"
        );
    }
}
