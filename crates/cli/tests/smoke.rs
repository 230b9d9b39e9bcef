//! End-to-end smoke tests of the `dynapar` binary itself.

use std::process::Command;

fn dynapar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dynapar"))
}

#[test]
fn list_names_the_suite() {
    let out = dynapar().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for name in ["AMR", "BFS-graph500", "SA-thaliana", "MM-large"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = dynapar().output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("USAGE"));
    assert!(text.contains("spawn"));
}

#[test]
fn run_executes_a_tiny_benchmark() {
    let out = dynapar()
        .args([
            "run",
            "--bench",
            "GC-citation",
            "--policy",
            "spawn",
            "--scale",
            "tiny",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("cycles"), "no cycle count in:\n{text}");
    assert!(text.contains("spawn"));
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    let out = dynapar()
        .args(["run", "--bench", "NOPE", "--policy", "flat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown benchmark"));
}

#[test]
fn bad_arguments_print_usage() {
    let out = dynapar()
        .args(["frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("USAGE"));
}

#[test]
fn spec_subcommand_runs_a_file() {
    let dir = std::env::temp_dir().join("dynapar-cli-smoke");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("smoke.spec");
    let items: Vec<String> = (0..256)
        .map(|i| if i % 32 == 0 { "300" } else { "2" }.to_string())
        .collect();
    std::fs::write(
        &path,
        format!("name: smoke\nthreshold: 64\nitems: {}\n", items.join(" ")),
    )
    .expect("write spec");
    let out = dynapar()
        .args([
            "spec",
            "--file",
            path.to_str().expect("utf8 path"),
            "--policy",
            "baseline",
            "--scale",
            "tiny",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("smoke"));
    assert!(text.contains("vs flat"));
}
