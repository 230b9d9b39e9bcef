//! Differential test: [`Json::parse`] must accept and reject exactly what
//! the reference parser below accepts and rejects, with equal trees and
//! equal [`ParseError`]s.
//!
//! The reference is the engine's original recursive-descent parser, kept
//! here verbatim as a test-only oracle, the way the reference heap in
//! `reference_queue/` backs the timing wheel in `wheel_differential.rs`.
//! Its string scan re-validates the whole rest of the input for every
//! character, so it is quadratic; the production parser copies each
//! unescaped run as one slice. Inputs are real documents — a tiny-scale
//! AMR `full` artifact, a submit line and a sweep line carrying warm-ramp
//! spec text — mutated by a seeded [`DetRng`]. Cases report their index
//! for replay.

use dynapar_core::PolicySpec;
use dynapar_engine::json::Json;
use dynapar_engine::DetRng;
use dynapar_gpu::{MetricsLevel, SimWindow};
use dynapar_server::{GpuPreset, JobRequest, Request, SweepRequest, WorkloadRef};
use dynapar_workloads::{warm_ramp_spec, Scale};

/// The original parser, unchanged apart from its entry point.
mod oracle {
    use dynapar_engine::json::{Json, ParseError};

    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, msg: &str) -> ParseError {
            ParseError {
                offset: self.pos,
                message: msg.to_string(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(&format!("expected {word:?}")))
            }
        }

        fn value(&mut self) -> Result<Json, ParseError> {
            match self.peek() {
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn array(&mut self) -> Result<Json, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn object(&mut self) -> Result<Json, ParseError> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("invalid \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("invalid \\u escape"))?;
                                // Surrogates are not produced by our emitter;
                                // map unpaired ones to the replacement char.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Advance one whole UTF-8 character.
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                        let c = s.chars().next().expect("non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
            if !is_float {
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(Json::U64(v));
                }
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            }
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

fn job(workload: WorkloadRef) -> JobRequest {
    JobRequest {
        workload,
        policy: PolicySpec::Spawn,
        seed: 7,
        metrics: MetricsLevel::Full,
        gpu: GpuPreset::KeplerK20m,
        sim_jobs: None,
        sim_window: SimWindow::Auto,
    }
}

fn amr() -> JobRequest {
    job(WorkloadRef::Suite {
        bench: "AMR".into(),
        scale: Scale::Tiny,
    })
}

fn submit_line() -> String {
    Request::Submit(amr()).to_json().to_string()
}

fn sweep_line(light: u32, heavy: u32) -> String {
    let base = job(WorkloadRef::Spec {
        text: warm_ramp_spec(light, heavy).to_text(),
    });
    Request::Sweep(SweepRequest {
        base,
        policies: vec![PolicySpec::Spawn, PolicySpec::Threshold(16)],
        fork_warmup: Some(2000),
    })
    .to_json()
    .to_string()
}

fn amr_artifact() -> String {
    amr().artifact().expect("tiny AMR runs").to_string()
}

/// Both parsers on one input: equal `Result`s, and never a panic.
/// Returns whether the input parsed.
fn assert_agree(text: &str, what: &str) -> bool {
    let got = Json::parse(text);
    let want = oracle::parse(text);
    assert_eq!(
        got,
        want,
        "{what}: parsers disagree on {} bytes",
        text.len()
    );
    got.is_ok()
}

/// Fragments the mutator splices in: string delimiters, escapes (valid,
/// surrogate, short and malformed `\u`), multi-byte characters and a raw
/// control character.
const INSERTS: &[&str] = &[
    "\"", "\\", "\\u", "\\u0041", "\\ud800", "\\u00e9", "\\u12", "\\uZZZZ", "\\u+abc", "\\x", "é",
    "€", "😀", "\u{1}", "\\\"", "\"\\",
];

/// One seeded mutation of `base`: one to four byte flips, truncations
/// or inserts. Byte-level damage to multi-byte characters is mapped
/// back to a `&str` lossily, as the wire does before parsing.
fn mutate(rng: &mut DetRng, base: &str) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..rng.range_inclusive(1, 4) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            _ => {
                let insert = INSERTS[rng.below(INSERTS.len() as u64) as usize];
                bytes.splice(at..at, insert.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every sub-document of `doc` whose rendering is at most `max` bytes
/// and at least `min`, in document order.
fn subdocuments(doc: &Json, min: usize, max: usize, out: &mut Vec<String>) {
    let text = doc.to_string();
    if text.len() <= max {
        if text.len() >= min {
            out.push(text);
        }
        return;
    }
    match doc {
        Json::Arr(items) => items.iter().for_each(|v| subdocuments(v, min, max, out)),
        Json::Obj(members) => members
            .iter()
            .for_each(|(_, v)| subdocuments(v, min, max, out)),
        _ => {}
    }
}

/// Runs `cases` seeded mutations of `bases` through both parsers. Both
/// outcomes must be common, or the mutator exercises only one of them.
fn fuzz(seed: u64, cases: u64, bases: &[String], what: &str) {
    let mut rng = DetRng::new(seed);
    let mut accepted = 0;
    for case in 0..cases {
        let base = &bases[rng.below(bases.len() as u64) as usize];
        let text = mutate(&mut rng, base);
        accepted += u64::from(assert_agree(&text, &format!("{what} case {case}")));
    }
    assert!(
        (cases / 20..cases - cases / 20).contains(&accepted),
        "{what}: {accepted} of {cases} mutants parsed"
    );
}

#[test]
fn real_documents_parse_identically() {
    let artifact = amr_artifact();
    let pretty = Json::parse(&artifact).expect("artifact parses").pretty();
    for (text, what) in [
        (artifact, "tiny AMR artifact"),
        (pretty, "pretty artifact"),
        (submit_line(), "submit line"),
        (sweep_line(40, 4), "sweep line"),
    ] {
        assert!(assert_agree(&text, what), "{what} parses");
    }
}

#[test]
fn mutated_artifacts_agree() {
    let doc = Json::parse(&amr_artifact()).expect("artifact parses");
    let mut bases = Vec::new();
    subdocuments(&doc, 64, 4096, &mut bases);
    assert!(
        bases.len() > 20,
        "artifact yields {} sub-documents",
        bases.len()
    );
    fuzz(0x15a0_0001, 10_000, &bases, "artifact");
}

#[test]
fn mutated_wire_lines_agree() {
    let bases = [submit_line(), sweep_line(8, 2)];
    fuzz(0x15a0_0002, 10_000, &bases, "wire line");
}

#[test]
fn hand_picked_edge_cases_agree() {
    for text in [
        "",
        " ",
        "\"",
        "\"\\",
        "\"\\u",
        "\"\\u00",
        "\"\\u00e9\"",
        "\"\\ud800\"",
        "\"\\u+abc\"",
        "\"\\u-abc\"",
        "\"\\uéa\"",
        "\"raw\u{1}ctl\"",
        "\"é€😀\"",
        "\"a\\\"b\"",
        "[\"x\",",
        "{\"k\":\"v\"",
        "{\"k\u{7f}\":1}",
        "\"tail",
        "\"é",
        "1e",
        "-",
        "--1",
        "01",
        "1.",
        "nul",
        "[1,]",
        "{} x",
        "\"\\/\\b\\f\\n\\r\\t\"",
    ] {
        assert_agree(text, &format!("{text:?}"));
    }
    // A mutant of the whole artifact, not only of its parts.
    let artifact = amr_artifact();
    let mut rng = DetRng::new(0x15a0_0003);
    for case in 0..4 {
        assert_agree(
            &mutate(&mut rng, &artifact),
            &format!("whole artifact case {case}"),
        );
    }
}
