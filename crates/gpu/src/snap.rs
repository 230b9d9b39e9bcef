//! Snapshot container format and shared value serializers.
//!
//! A snapshot is one UTF-8 JSON header line followed by the raw binary
//! simulation state (DESIGN.md §13):
//!
//! ```text
//! {"schema":"dynapar-snapshot/1","job":{...},"state_len":N,"state_fnv":H}\n
//! <N bytes of ByteWriter-encoded state>
//! ```
//!
//! The header carries the job description needed to rebuild the static
//! half of the simulation (config, workload, policy, seed, metrics); the
//! binary body carries only dynamic state, written with the checked
//! fixed-width readers/writers of [`dynapar_engine::snap`]. `state_len`
//! and the FNV-1a checksum reject truncated or corrupted files before
//! any state decoding starts.
//!
//! This module also hosts the value serializers for the work-model types
//! whose fields are crate-visible ([`ThreadWork`], [`ThreadSource`],
//! [`WorkClass`]); stateful components with private fields (SMXs, the
//! GMU, the memory system, the spec table) implement
//! `encode_state`/`decode_state` in their own modules.

use std::sync::{Mutex, OnceLock};

use dynapar_engine::json::Json;
use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::{fnv1a_64, Cycle};

use crate::work::{ThreadSource, ThreadWork, WorkClass};

/// Schema tag of the snapshot container (header `schema` field).
pub const SNAPSHOT_SCHEMA: &str = "dynapar-snapshot/1";

/// Frames `state` behind a header line carrying `job` and integrity
/// fields; the result is the full snapshot file/fork image.
pub fn write_snapshot(job: &Json, state: &[u8]) -> Vec<u8> {
    let header = Json::obj([
        ("schema", Json::str(SNAPSHOT_SCHEMA)),
        ("job", job.clone()),
        ("state_len", Json::U64(state.len() as u64)),
        ("state_fnv", Json::U64(fnv1a_64(state))),
    ]);
    let mut out = header.to_string().into_bytes();
    out.push(b'\n');
    out.extend_from_slice(state);
    out
}

/// Splits a snapshot image into its job header and verified state bytes.
///
/// # Errors
///
/// Rejects a missing/non-UTF-8/non-JSON header line, a schema mismatch,
/// a body whose length differs from `state_len` (truncation or trailing
/// garbage), and a body whose FNV-1a checksum differs from `state_fnv`.
pub fn parse_snapshot(bytes: &[u8]) -> Result<(Json, &[u8]), SnapError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(SnapError::Invalid("snapshot missing header line"))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| SnapError::Invalid("snapshot header is not UTF-8"))?;
    let json =
        Json::parse(header).map_err(|e| SnapError::Corrupt(format!("snapshot header: {e:?}")))?;
    match json.get("schema").and_then(Json::as_str) {
        Some(SNAPSHOT_SCHEMA) => {}
        Some(other) => {
            return Err(SnapError::Corrupt(format!(
                "unknown snapshot schema {other:?}"
            )))
        }
        None => return Err(SnapError::Invalid("snapshot header lacks a schema tag")),
    }
    let state = &bytes[nl + 1..];
    let want_len = json
        .get("state_len")
        .and_then(Json::as_u64)
        .ok_or(SnapError::Invalid("snapshot header lacks state_len"))?;
    if state.len() as u64 != want_len {
        return Err(SnapError::Corrupt(format!(
            "snapshot state is {} bytes, header says {want_len}",
            state.len()
        )));
    }
    let want_fnv = json
        .get("state_fnv")
        .and_then(Json::as_u64)
        .ok_or(SnapError::Invalid("snapshot header lacks state_fnv"))?;
    let got_fnv = fnv1a_64(state);
    if got_fnv != want_fnv {
        return Err(SnapError::Corrupt(format!(
            "snapshot state checksum {got_fnv:#x} != header {want_fnv:#x}"
        )));
    }
    let job = json
        .get("job")
        .cloned()
        .ok_or(SnapError::Invalid("snapshot header lacks a job"))?;
    Ok((job, state))
}

/// Whether `bytes` is a well-formed snapshot taken before the run's
/// first launch decision. Such a *pristine* ramp is identical under
/// every launch policy, so it is the one snapshot a warm-start sweep may
/// fork into branches that run other policies (DESIGN.md §13). Every
/// forking sweep (daemon, CLI, `perf --sweep-fork`) decides with it.
pub fn snapshot_is_pristine(bytes: &[u8]) -> bool {
    parse_snapshot(bytes)
        .is_ok_and(|(job, _)| job.get("pristine").and_then(Json::as_bool) == Some(true))
}

/// Human-readable comparison of two snapshot images (the CLI's
/// `snap-diff`): lists every header field whose value differs, then
/// locates the first divergent byte of the binary state and attributes
/// it to the outermost encode-order section it falls in.
///
/// Corrupt inputs are reported rather than rejected — diffing a good
/// snapshot against a truncated or bit-flipped one is exactly the
/// debugging situation this exists for — but a snapshot whose header
/// line cannot be parsed at all ends the comparison at that finding.
pub fn diff_snapshots(a: &[u8], b: &[u8]) -> String {
    let mut out = String::new();
    let mut push = |line: &str| {
        out.push_str(line);
        out.push('\n');
    };
    if a == b {
        push(&format!("identical ({} bytes)", a.len()));
        return out;
    }
    let parse_header = |bytes: &[u8]| -> Result<(Json, usize), String> {
        let nl = bytes
            .iter()
            .position(|&x| x == b'\n')
            .ok_or("missing header line")?;
        let text = std::str::from_utf8(&bytes[..nl]).map_err(|_| "header is not UTF-8")?;
        let json = Json::parse(text).map_err(|e| format!("header: {e:?}"))?;
        Ok((json, nl + 1))
    };
    let (ha, sa) = match parse_header(a) {
        Ok((h, off)) => (h, &a[off..]),
        Err(e) => {
            push(&format!("A: unreadable snapshot ({e})"));
            return out;
        }
    };
    let (hb, sb) = match parse_header(b) {
        Ok((h, off)) => (h, &b[off..]),
        Err(e) => {
            push(&format!("B: unreadable snapshot ({e})"));
            return out;
        }
    };
    // Integrity first: a checksum mismatch means the state bytes below
    // are corrupt, not a semantic divergence — say so up front.
    for (name, header, state) in [("A", &ha, sa), ("B", &hb, sb)] {
        if let Some(want) = header.get("state_len").and_then(Json::as_u64) {
            if state.len() as u64 != want {
                push(&format!(
                    "{name}: corrupt: state is {} bytes, header says {want}",
                    state.len()
                ));
            }
        }
        if let Some(want) = header.get("state_fnv").and_then(Json::as_u64) {
            if fnv1a_64(state) != want {
                push(&format!(
                    "{name}: corrupt: state checksum does not match header"
                ));
            }
        }
    }
    // Header fields, with the job object flattened one level so the
    // interesting keys (cycle, policy, config_fnv, ...) print by name.
    let flatten = |h: &Json| -> Vec<(String, String)> {
        let mut fields = Vec::new();
        if let Some(members) = h.as_object() {
            for (k, v) in members {
                match (k.as_str(), v.as_object()) {
                    ("job", Some(inner)) => {
                        for (jk, jv) in inner {
                            fields.push((format!("job.{jk}"), jv.to_string()));
                        }
                    }
                    _ => fields.push((k.clone(), v.to_string())),
                }
            }
        }
        fields
    };
    let fa = flatten(&ha);
    let fb = flatten(&hb);
    let mut differs = false;
    for (k, va) in &fa {
        match fb.iter().find(|(bk, _)| bk == k) {
            Some((_, vb)) if va == vb => {}
            Some((_, vb)) => {
                push(&format!("header {k}: A={va} B={vb}"));
                differs = true;
            }
            None => {
                push(&format!("header {k}: A={va} B=<absent>"));
                differs = true;
            }
        }
    }
    for (k, vb) in &fb {
        if !fa.iter().any(|(ak, _)| ak == k) {
            push(&format!("header {k}: A=<absent> B={vb}"));
            differs = true;
        }
    }
    if !differs {
        push("header: identical");
    }
    // Binary state: first divergent byte, attributed to a section.
    let common = sa.len().min(sb.len());
    let div = (0..common).find(|&i| sa[i] != sb[i]);
    match div {
        None if sa.len() == sb.len() => push("state: identical"),
        None => push(&format!(
            "state: A is a {}-byte prefix match, lengths differ ({} vs {} bytes)",
            common,
            sa.len(),
            sb.len()
        )),
        Some(i) => push(&format!(
            "state: first divergent byte at offset {i} (A={:#04x} B={:#04x}) in section `{}`; \
             lengths {} vs {} bytes",
            sa[i],
            sb[i],
            state_section_at(i, sa),
            sa.len(),
            sb.len()
        )),
    }
    out
}

/// Names the encode-order section of `Simulation::encode_state` that
/// byte offset `i` of `state` falls in. The fixed scalar prefix and the
/// global event queue are resolved exactly (entry by entry); everything
/// past the event queue is attributed to the component blob that
/// follows it. Must mirror the encode order in `sim.rs`.
fn state_section_at(i: usize, state: &[u8]) -> String {
    let mut pos = 0usize;
    for (name, size) in [
        ("now", 8),
        ("live_kernels", 4),
        ("next_stream", 4),
        ("warp_seq", 8),
        ("rr_smx", 8),
    ] {
        if i < pos + size {
            return name.to_string();
        }
        pos += size;
    }
    // dispatch_at: option tag byte, then 8 payload bytes when set.
    let opt_len = match state.get(pos) {
        Some(0) => 1,
        _ => 9,
    };
    if i < pos + opt_len {
        return "dispatch_at".to_string();
    }
    pos += opt_len;
    if i < pos + 8 {
        return "event queue (total_pushed)".to_string();
    }
    pos += 8;
    let count = state
        .get(pos..pos + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .unwrap_or(0);
    if i < pos + 8 {
        return "event queue (entry count)".to_string();
    }
    pos += 8;
    for k in 0..count {
        // One entry: time u64, then the `put_ev` tag + payload (sizes
        // mirror `put_ev` in sim.rs).
        let tag = state.get(pos + 8).copied();
        let payload = match tag {
            Some(0) => 4, // KernelArrive(kernel u32)
            Some(1) => 8, // AggArrive { kernel u32, count u32 }
            Some(2) => 0, // Dispatch
            Some(3) => 5, // CtaStart { smx u8, cta_slot u32 }
            Some(4) => 1, // SmxWork(smx u8)
            Some(5) => 4, // HwqRelease(kernel u32)
            Some(6) => 0, // Sample
            _ => return format!("event queue entry {k} (unrecognized tag)"),
        };
        let len = 8 + 1 + payload;
        if i < pos + len {
            return format!("event queue entry {k}");
        }
        pos += len;
    }
    "component state (GMU / SMXs / memory / kernels / specs / statistics)".to_string()
}

/// Interns a decoded work-class label as `&'static str`.
///
/// [`WorkClass::label`] is a static string by design (labels come from
/// workload-generator literals); a snapshot restores labels by leaking
/// one copy per distinct string into a process-global table, so repeated
/// resumes in one process never grow memory past the label vocabulary.
pub(crate) fn intern_label(s: &str) -> &'static str {
    static LABELS: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut table = LABELS
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("label intern table poisoned");
    if let Some(&l) = table.iter().find(|&&l| l == s) {
        return l;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

pub(crate) fn put_cycle(w: &mut ByteWriter, c: Cycle) {
    w.put_u64(c.as_u64());
}

pub(crate) fn get_cycle(r: &mut ByteReader<'_>) -> Result<Cycle, SnapError> {
    Ok(Cycle(r.get_u64()?))
}

pub(crate) fn put_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    match v {
        Some(x) => {
            w.put_u8(1);
            w.put_u64(x);
        }
        None => w.put_u8(0),
    }
}

pub(crate) fn get_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, SnapError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_u64()?)),
        tag => Err(SnapError::BadTag {
            what: "Option<u64>",
            tag,
        }),
    }
}

pub(crate) fn put_opt_u32(w: &mut ByteWriter, v: Option<u32>) {
    match v {
        Some(x) => {
            w.put_u8(1);
            w.put_u32(x);
        }
        None => w.put_u8(0),
    }
}

pub(crate) fn get_opt_u32(r: &mut ByteReader<'_>) -> Result<Option<u32>, SnapError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_u32()?)),
        tag => Err(SnapError::BadTag {
            what: "Option<u32>",
            tag,
        }),
    }
}

pub(crate) fn put_opt_cycle(w: &mut ByteWriter, v: Option<Cycle>) {
    put_opt_u64(w, v.map(|c| c.as_u64()));
}

pub(crate) fn get_opt_cycle(r: &mut ByteReader<'_>) -> Result<Option<Cycle>, SnapError> {
    Ok(get_opt_u64(r)?.map(Cycle))
}

pub(crate) fn encode_thread_work(t: &ThreadWork, w: &mut ByteWriter) {
    w.put_u32(t.items);
    w.put_u64(t.seq_base);
    w.put_u64(t.rand_seed);
}

pub(crate) fn decode_thread_work(r: &mut ByteReader<'_>) -> Result<ThreadWork, SnapError> {
    Ok(ThreadWork {
        items: r.get_u32()?,
        seq_base: r.get_u64()?,
        rand_seed: r.get_u64()?,
    })
}

pub(crate) fn encode_source(s: &ThreadSource, w: &mut ByteWriter) {
    match s {
        ThreadSource::Explicit(v) => {
            w.put_u8(0);
            w.put_len(v.len());
            for t in v.iter() {
                encode_thread_work(t, w);
            }
        }
        ThreadSource::Derived {
            origin,
            items_per_thread,
        } => {
            w.put_u8(1);
            encode_thread_work(origin, w);
            w.put_u32(*items_per_thread);
        }
    }
}

pub(crate) fn decode_source(r: &mut ByteReader<'_>) -> Result<ThreadSource, SnapError> {
    match r.get_u8()? {
        0 => {
            let n = r.get_len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(decode_thread_work(r)?);
            }
            Ok(ThreadSource::Explicit(v.into()))
        }
        1 => Ok(ThreadSource::Derived {
            origin: decode_thread_work(r)?,
            items_per_thread: r.get_u32()?,
        }),
        tag => Err(SnapError::BadTag {
            what: "ThreadSource",
            tag,
        }),
    }
}

pub(crate) fn encode_class(c: &WorkClass, w: &mut ByteWriter) {
    w.put_str(c.label);
    w.put_u32(c.compute_per_item);
    w.put_u32(c.init_cycles);
    w.put_u32(c.seq_bytes_per_item);
    w.put_u8(c.rand_refs_per_item);
    w.put_u64(c.rand_region_base);
    w.put_u64(c.rand_region_bytes);
    w.put_u8(c.writes_per_item);
}

pub(crate) fn decode_class(r: &mut ByteReader<'_>) -> Result<WorkClass, SnapError> {
    Ok(WorkClass {
        label: intern_label(&r.get_str()?),
        compute_per_item: r.get_u32()?,
        init_cycles: r.get_u32()?,
        seq_bytes_per_item: r.get_u32()?,
        rand_refs_per_item: r.get_u8()?,
        rand_region_base: r.get_u64()?,
        rand_region_bytes: r.get_u64()?,
        writes_per_item: r.get_u8()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_round_trips_job_and_state() {
        let job = Json::obj([("policy", Json::str("spawn")), ("seed", Json::U64(7))]);
        let state = vec![1u8, 2, 3, 4, 5];
        let img = write_snapshot(&job, &state);
        let (job_back, state_back) = parse_snapshot(&img).expect("valid image");
        assert_eq!(job_back.get("policy").and_then(Json::as_str), Some("spawn"));
        assert_eq!(job_back.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(state_back, &state[..]);
    }

    #[test]
    fn diff_reports_header_fields_and_first_divergent_state_byte() {
        let job = |cycle: u64| Json::obj([("cycle", Json::U64(cycle))]);
        let a = write_snapshot(&job(5), &[1, 2, 3, 4]);
        assert!(diff_snapshots(&a, &a).starts_with("identical"));

        // Different header field and one differing state byte: both the
        // flattened job key and the byte offset (with its encode-order
        // section) are named.
        let b = write_snapshot(&job(9), &[1, 2, 9, 4]);
        let out = diff_snapshots(&a, &b);
        assert!(out.contains("header job.cycle: A=5 B=9"), "{out}");
        assert!(out.contains("header state_fnv:"), "{out}");
        assert!(
            out.contains("state: first divergent byte at offset 2"),
            "{out}"
        );
        assert!(out.contains("in section `now`"), "{out}");

        // A truncated side is flagged corrupt, and the state compare
        // degrades to a prefix/length report instead of a byte diff.
        let out = diff_snapshots(&a, &a[..a.len() - 1]);
        assert!(
            out.contains("B: corrupt: state is 3 bytes, header says 4"),
            "{out}"
        );
        assert!(out.contains("lengths differ (4 vs 3 bytes)"), "{out}");

        // An unreadable header ends the comparison with a finding, not
        // a panic or an Err.
        let out = diff_snapshots(b"not a snapshot", &a);
        assert!(out.contains("A: unreadable snapshot"), "{out}");
    }

    #[test]
    fn truncated_and_corrupted_images_are_rejected() {
        let job = Json::obj([("seed", Json::U64(1))]);
        let img = write_snapshot(&job, &[9u8; 64]);
        // Truncated body: length check fires.
        let err = parse_snapshot(&img[..img.len() - 3]).expect_err("truncated");
        assert!(err.to_string().contains("bytes"), "{err}");
        // Flipped state byte: checksum check fires.
        let mut bad = img.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        let err = parse_snapshot(&bad).expect_err("corrupted");
        assert!(err.to_string().contains("checksum"), "{err}");
        // Missing header newline entirely.
        assert!(parse_snapshot(b"no newline here").is_err());
        // Wrong schema tag.
        let other = write_snapshot(&job, &[1]);
        let txt = String::from_utf8(other)
            .unwrap()
            .replace("snapshot/1", "snapshot/9");
        assert!(parse_snapshot(txt.as_bytes()).is_err());
    }

    #[test]
    fn label_interning_dedups_and_outlives() {
        let a = intern_label("snap-test-label-alpha");
        let b = intern_label("snap-test-label-alpha");
        assert!(std::ptr::eq(a, b), "same string must intern to one leak");
        assert_eq!(a, "snap-test-label-alpha");
    }

    #[test]
    fn work_model_values_round_trip() {
        let class = WorkClass {
            label: "rt-class",
            compute_per_item: 24,
            init_cycles: 40,
            seq_bytes_per_item: 8,
            rand_refs_per_item: 2,
            rand_region_base: 0x4000_0000,
            rand_region_bytes: 1 << 20,
            writes_per_item: 1,
        };
        let sources = [
            ThreadSource::Explicit(
                vec![
                    ThreadWork::with_items(3),
                    ThreadWork {
                        items: 9,
                        seq_base: 64,
                        rand_seed: 5,
                    },
                ]
                .into(),
            ),
            ThreadSource::Derived {
                origin: ThreadWork {
                    items: 100,
                    seq_base: 4096,
                    rand_seed: 77,
                },
                items_per_thread: 4,
            },
        ];
        let mut w = ByteWriter::new();
        encode_class(&class, &mut w);
        for s in &sources {
            encode_source(s, &mut w);
        }
        put_opt_cycle(&mut w, Some(Cycle(41)));
        put_opt_u32(&mut w, None);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let class_back = decode_class(&mut r).unwrap();
        assert_eq!(class_back, class);
        for s in &sources {
            let back = decode_source(&mut r).unwrap();
            assert_eq!(back.thread_count(), s.thread_count());
            assert_eq!(back.total_items(), s.total_items());
            assert_eq!(back.thread(1, 8), s.thread(1, 8));
        }
        assert_eq!(get_opt_cycle(&mut r).unwrap(), Some(Cycle(41)));
        assert_eq!(get_opt_u32(&mut r).unwrap(), None);
        r.finish().unwrap();
    }
}
