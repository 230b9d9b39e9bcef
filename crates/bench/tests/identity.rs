//! Byte identity of every experiment's text and SVG output at tiny
//! scale, against FNV-1a digests recorded from the per-experiment
//! binaries this crate built before the experiments became subcommands
//! of one `dynapar-bench` binary.
//!
//! The same runs check two properties of the shared [`Invocation`]:
//! naming several experiments at once writes exactly the concatenation
//! of their single-name outputs (even though the suite-based ones then
//! share one simulation of the suite), and `--jobs 1` and `--jobs 2`
//! write the same bytes.
//!
//! The tier-1 test covers the experiments that take a few milliseconds
//! in release; the `#[ignore]`d test covers all 24 names and runs in
//! release (`cargo test --release -p dynapar-bench -- --ignored`).

use std::fs;
use std::path::PathBuf;

use dynapar_bench::{Invocation, EXPERIMENTS};
use dynapar_engine::fnv1a_64;

/// Digest of each experiment's `--scale tiny` text. `diag`'s host
/// timings are masked (see [`masked`]); `figures` and `fig_timeseries`
/// list the files they wrote, with the output directory written `OUT`.
const TINY: [(&str, u64); 24] = [
    ("table1", 0x6dcc602c862008ae),
    ("table2", 0xc482d4709c5e8d7e),
    ("fig05", 0x1e60efb1f5dd3dac),
    ("fig06", 0x5865c908fa70880f),
    ("fig07", 0xb0b9265ce05de07d),
    ("fig08", 0xa3c352a0ac7b1af4),
    ("fig12", 0x5cf215449693ef1f),
    ("fig15", 0xeb812412ecf0e574),
    ("fig16", 0x7979af8f073b710d),
    ("fig17", 0x53290bd36ad3667f),
    ("fig18", 0x7393902d1034ade5),
    ("fig19", 0x6f7204713fb2c5e5),
    ("fig20", 0x24aa1260ff606fbb),
    ("fig21", 0x70e90ef7e2a55f18),
    ("fig_timeseries", 0x38c97f68c01fcc88),
    ("figures", 0x90a8ad2f9106b77b),
    ("ablation", 0x58e2082191ae2b9e),
    ("accuracy", 0x0521eadd9bfb2536),
    ("diag", 0xae5e542538f206ec),
    ("future", 0x393b736f5d7fb325),
    ("levels", 0x03e1906c838a7351),
    ("matrix", 0x556aa2259cad9505),
    ("scorecard", 0x771484fb506ef0a8),
    ("seeds", 0x57d864c498e21663),
];

/// Digest of each SVG file `figures` and `fig_timeseries` write at tiny
/// scale.
const TINY_SVG: [(&str, u64); 6] = [
    ("fig05.svg", 0x8c267ce833dd6ccf),
    ("fig15.svg", 0xa7ba5838dac1bcf1),
    ("fig18.svg", 0x549232ae581482b7),
    ("fig19.svg", 0x343d4131678fbe2b),
    ("fig_timeseries_AMR.svg", 0x1db3f5a63d22cbc9),
    ("fig_timeseries_BFS-graph500.svg", 0x2ffc1208bec33b24),
];

/// The experiments that take well under 100 ms each at tiny scale in
/// release, cheap enough for the debug test suite.
const CHEAP: [&str; 10] = [
    "table1", "table2", "fig06", "fig12", "fig19", "fig20", "levels", "future", "accuracy", "diag",
];

/// The experiments that write SVG files; they run with `--out`.
const SVG_WRITERS: [&str; 2] = ["figures", "fig_timeseries"];

/// Replaces `diag`'s host timings (`wall=…ms`, `rate=…ev/s`), the only
/// bytes of any experiment's text that vary from run to run.
fn masked(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = ["wall=", "rate="]
        .iter()
        .filter_map(|key| rest.find(key))
        .min()
    {
        out.push_str(&rest[..i + 5]);
        rest = &rest[i + 5..];
        let digits = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(rest.len());
        out.push('?');
        rest = &rest[digits..];
    }
    out.push_str(rest);
    out
}

fn args(jobs: usize, names: &[&str]) -> Vec<String> {
    let mut args = vec![
        "--scale".into(),
        "tiny".into(),
        "--jobs".into(),
        jobs.to_string(),
    ];
    args.extend(names.iter().map(|n| n.to_string()));
    args
}

/// Runs one invocation writing to a buffer; returns its text.
fn stdout_of(jobs: usize, names: &[&str]) -> String {
    let inv = Invocation::parse(args(jobs, names)).expect("valid command line");
    let mut buf = Vec::new();
    inv.run(&mut buf).expect("experiments succeed");
    String::from_utf8(buf).expect("utf-8 text")
}

/// Runs one invocation with `--out` into a fresh directory; returns each
/// name's text (directory written `OUT`) and the directory.
fn files_of(jobs: usize, names: &[&str], tag: &str) -> (Vec<String>, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("identity-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    let mut args = args(jobs, names);
    args.extend(["--out".to_string(), dir.display().to_string()]);
    let inv = Invocation::parse(args).expect("valid command line");
    inv.run(&mut std::io::sink()).expect("experiments succeed");
    let texts = names
        .iter()
        .map(|n| {
            fs::read_to_string(dir.join(format!("{n}.txt")))
                .expect("text file written")
                .replace(&dir.display().to_string(), "OUT")
        })
        .collect();
    (texts, dir)
}

fn expect_digest(name: &str, text: &str) {
    let want = TINY
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no recorded digest for {name}"))
        .1;
    let got = fnv1a_64(masked(text).as_bytes());
    assert_eq!(
        got, want,
        "{name}: tiny-scale text changed (digest {got:#018x}):\n{text}"
    );
}

/// Checks each of `names` alone at `--jobs 1` against its digest, then
/// all of them in one `--jobs 2` invocation against the concatenation.
fn check_text(names: &[&str]) {
    let singles: Vec<String> = names.iter().map(|n| stdout_of(1, &[n])).collect();
    for (name, text) in names.iter().zip(&singles) {
        expect_digest(name, text);
    }
    assert_eq!(
        masked(&stdout_of(2, names)),
        masked(&singles.concat()),
        "one invocation must write the concatenation of the single-name outputs"
    );
}

#[test]
fn cheap_experiments_match_recorded_digests() {
    check_text(&CHEAP);
}

#[test]
fn every_experiment_has_a_digest() {
    for exp in EXPERIMENTS {
        assert!(
            TINY.iter().any(|(n, _)| *n == exp.name),
            "{} has no recorded digest",
            exp.name
        );
    }
    assert_eq!(EXPERIMENTS.len(), TINY.len());
}

#[test]
#[ignore = "simulates the whole suite several times; run in release"]
fn every_experiment_matches_recorded_digests() {
    let text_names: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .filter(|n| !SVG_WRITERS.contains(n))
        .collect();
    check_text(&text_names);

    for jobs in [1, 2] {
        let (texts, dir) = files_of(jobs, &SVG_WRITERS, &format!("svg-jobs{jobs}"));
        for (name, text) in SVG_WRITERS.iter().zip(&texts) {
            expect_digest(name, text);
        }
        for (file, want) in TINY_SVG {
            let got = fnv1a_64(&fs::read(dir.join(file)).expect("svg written"));
            assert_eq!(got, want, "{file} (--jobs {jobs}) changed: {got:#018x}");
        }
    }
}
