//! Differential mutational fuzzing of the JSONL line parser.
//!
//! The reference oracle is the tree-building parser the scanner
//! replaced: parse the line into a `serde::Value` tree, then pull the
//! fields out of it. Recorded traces (the committed golden move records,
//! a bf(8) Busch trace with snapshot checkpoints, and a streaming
//! Poisson trace with drops) are mutated deterministically from a
//! ChaCha8 stream: byte deletions, insertions and flips, key reorders,
//! added whitespace, escaped key and string characters, leading zeros,
//! negatives, u32 and u64 overflow, floats, duplicate, unknown and
//! missing keys, and truncation. On every
//! mutated line `parse_line` must agree with the oracle on Ok/Err and
//! on every Ok value, must report the oracle's error wherever the line
//! is well-formed JSON without duplicate keys, and must never panic.
//! Whole-trace mutations must give the same first error at every
//! `parse_jsonl_parallel` job count.

mod common;

use hotpotato_sim::{
    jsonl, route_streaming_observed, AdmissionControl, ExitKind, JsonlTraceObserver,
    StreamPriority, StreamingConfig,
};
use hotpotato_trace::{
    parse_jsonl_parallel, parse_line, schema, Meta, ParseError, Snapshot, StatsLine, Trace,
    TraceEvent, SCHEMA_VERSION,
};
use leveled_net::{Direction, EdgeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing_core::spec::parse_run_spec;
use serde::Value;

/// The reference parser: a full JSON tree, then strict field extraction.
mod oracle {
    use super::*;

    fn err(msg: impl Into<String>) -> ParseError {
        ParseError {
            line: 0,
            msg: msg.into(),
        }
    }

    struct Fields<'a> {
        pairs: &'a [(String, Value)],
        used: Vec<bool>,
    }

    impl<'a> Fields<'a> {
        fn new(v: &'a Value) -> Result<Self, ParseError> {
            let pairs = v.as_object().ok_or_else(|| err("not a JSON object"))?;
            Ok(Fields {
                pairs,
                used: vec![false; pairs.len()],
            })
        }

        fn take(&mut self, key: &str) -> Result<&'a Value, ParseError> {
            for (i, (k, v)) in self.pairs.iter().enumerate() {
                if k == key {
                    self.used[i] = true;
                    return Ok(v);
                }
            }
            Err(err(format!("missing field '{key}'")))
        }

        fn u64(&mut self, key: &str) -> Result<u64, ParseError> {
            self.take(key)?
                .as_u64()
                .ok_or_else(|| err(format!("field '{key}' is not an unsigned integer")))
        }

        fn u32(&mut self, key: &str) -> Result<u32, ParseError> {
            u32::try_from(self.u64(key)?).map_err(|_| err(format!("field '{key}' overflows u32")))
        }

        fn i64(&mut self, key: &str) -> Result<i64, ParseError> {
            self.take(key)?
                .as_i64()
                .ok_or_else(|| err(format!("field '{key}' is not an integer")))
        }

        fn str(&mut self, key: &str) -> Result<&'a str, ParseError> {
            self.take(key)?
                .as_str()
                .ok_or_else(|| err(format!("field '{key}' is not a string")))
        }

        fn u32_array(&mut self, key: &str) -> Result<Vec<u32>, ParseError> {
            let arr = self
                .take(key)?
                .as_array()
                .ok_or_else(|| err(format!("field '{key}' is not an array")))?;
            arr.iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| err(format!("field '{key}' has a non-u32 element")))
                })
                .collect()
        }

        fn opt_u64_array(&mut self, key: &str) -> Result<Vec<Option<u64>>, ParseError> {
            let arr = self
                .take(key)?
                .as_array()
                .ok_or_else(|| err(format!("field '{key}' is not an array")))?;
            arr.iter()
                .map(|v| {
                    if v.is_null() {
                        Ok(None)
                    } else {
                        v.as_u64()
                            .map(Some)
                            .ok_or_else(|| err(format!("field '{key}' has a non-u64 element")))
                    }
                })
                .collect()
        }

        fn finish(self) -> Result<(), ParseError> {
            for (i, (k, _)) in self.pairs.iter().enumerate() {
                if !self.used[i] {
                    return Err(err(format!("unknown field '{k}'")));
                }
            }
            Ok(())
        }
    }

    fn parse_kind(s: &str) -> Result<ExitKind, ParseError> {
        Ok(match s {
            "adv" => ExitKind::Advance,
            "def-safe" => ExitKind::Deflect { safe: true },
            "def-free" => ExitKind::Deflect { safe: false },
            "osc" => ExitKind::Oscillate,
            "inj" => ExitKind::Inject,
            other => return Err(err(format!("unknown move kind '{other}'"))),
        })
    }

    pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
        let value = serde_json::from_str(line).map_err(|e| err(e.to_string()))?;
        let mut f = Fields::new(&value)?;
        let ev = f.str("ev")?.to_string();
        let event = match ev.as_str() {
            "meta" => {
                let schema = f.u64("schema")?;
                if schema != SCHEMA_VERSION {
                    return Err(err(format!(
                        "unsupported trace schema {schema} (this build reads {SCHEMA_VERSION})"
                    )));
                }
                TraceEvent::Meta(Meta {
                    schema,
                    topo: f.str("topo")?.to_string(),
                    workload: f.str("workload")?.to_string(),
                    algo: f.str("algo")?.to_string(),
                    seed: f.u64("seed")?,
                    arrival: f.str("arrival")?.to_string(),
                    packets: f.u64("packets")?,
                    levels: f.u64("levels")?,
                    congestion: f.u64("congestion")?,
                    dilation: f.u64("dilation")?,
                })
            }
            "move" => TraceEvent::Move {
                t: f.u64("t")?,
                pkt: f.u32("pkt")?,
                edge: EdgeId(f.u32("edge")?),
                dir: match f.str("dir")? {
                    "F" => Direction::Forward,
                    "B" => Direction::Backward,
                    other => return Err(err(format!("unknown direction '{other}'"))),
                },
                kind: parse_kind(f.str("kind")?)?,
            },
            "trivial" => TraceEvent::Trivial {
                t: f.u64("t")?,
                pkt: f.u32("pkt")?,
            },
            "deliver" => TraceEvent::Deliver {
                t: f.u64("t")?,
                pkt: f.u32("pkt")?,
            },
            "arrival" => TraceEvent::Arrival {
                t: f.u64("t")?,
                pkt: f.u32("pkt")?,
            },
            "drop" => TraceEvent::Drop {
                t: f.u64("t")?,
                pkt: f.u32("pkt")?,
            },
            "step" => TraceEvent::Step {
                t: f.u64("t")?,
                moved: f.u64("moved")?,
                absorbed: f.u64("absorbed")?,
                injected: f.u64("injected")?,
                deflections: f.u64("deflections")?,
                fallback: f.u64("fallback")?,
                oscillations: f.u64("oscillations")?,
                active: f.u64("active")?,
            },
            "sets" => TraceEvent::Sets {
                num_sets: f.u32("num_sets")?,
                sets: f.u32_array("sets")?,
            },
            "phase_start" => TraceEvent::PhaseStart {
                phase: f.u64("phase")?,
                t: f.u64("t")?,
            },
            "phase_end" => TraceEvent::PhaseEnd {
                phase: f.u64("phase")?,
                t: f.u64("t")?,
            },
            "frontier" => TraceEvent::Frontier {
                phase: f.u64("phase")?,
                set: f.u32("set")?,
                frontier: f.i64("frontier")?,
            },
            "congestion" => TraceEvent::Congestion {
                phase: f.u64("phase")?,
                set: f.u32("set")?,
                congestion: f.u32("congestion")?,
                initial: f.u32("initial")?,
            },
            "section" => TraceEvent::Section {
                section: f.str("section")?.to_string(),
                nanos: f.u64("nanos")?,
            },
            "snapshot" => TraceEvent::Snapshot(Snapshot {
                phase: f.u64("phase")?,
                t: f.u64("t")?,
                state: f.u32_array("state")?,
                nodes: f.u32_array("nodes")?,
                prev_forward: f.u32_array("prev_forward")?,
                moves: f.u64("moves")?,
                forward: f.u64("forward")?,
                backward: f.u64("backward")?,
                deflections: f.u64("deflections")?,
                oscillations: f.u64("oscillations")?,
                trivial: f.u64("trivial")?,
                num_sets: f.u32("num_sets")?,
            }),
            "stats" => TraceEvent::Stats(StatsLine {
                steps: f.u64("steps")?,
                injected_at: f.opt_u64_array("injected_at")?,
                delivered_at: f.opt_u64_array("delivered_at")?,
                deflections: f.u32_array("deflections")?,
            }),
            other => return Err(err(format!("unknown event '{other}'"))),
        };
        f.finish()?;
        Ok(event)
    }
}

/// The committed golden run records, rewritten as JSONL `move` lines.
fn golden_lines() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("goldens directory")
        .map(|e| e.expect("dir entry").path())
        .collect();
    names.sort();
    let mut lines = Vec::new();
    for path in names {
        let text = std::fs::read_to_string(&path).expect("golden record");
        for rec in text.lines().filter(|l| l.starts_with("move ")) {
            let field = |k: &str| {
                rec.split(' ')
                    .find_map(|kv| kv.strip_prefix(k)?.strip_prefix('='))
                    .unwrap_or_else(|| panic!("{rec}: no {k}"))
            };
            let num = |k: &str| field(k).parse::<u64>().expect("numeric field");
            let dir = match field("dir") {
                "F" => Direction::Forward,
                _ => Direction::Backward,
            };
            let kind = match field("kind") {
                "adv" => ExitKind::Advance,
                "def-safe" => ExitKind::Deflect { safe: true },
                "def-free" => ExitKind::Deflect { safe: false },
                "osc" => ExitKind::Oscillate,
                _ => ExitKind::Inject,
            };
            let mut out = Vec::new();
            jsonl::move_line(
                &mut out,
                num("t"),
                num("pkt") as u32,
                num("edge") as u32,
                dir,
                kind,
            );
            lines.push(String::from_utf8(out).unwrap());
        }
    }
    assert!(lines.len() > 1000, "golden corpus too small");
    lines
}

/// A streaming Poisson trace with tight admission, so it carries
/// `arrival` and `drop` events besides snapshots.
fn streaming_trace() -> String {
    const SPEC: &str = "bf:6/pairs:160/greedy/5/poisson:40";
    let run = parse_run_spec(SPEC).expect("spec parses");
    let (topo, problem, mut rng) = run.instantiate().expect("spec instantiates");
    let process = run.arrival_process().unwrap().expect("arrival segment");
    let schedule = process.schedule(problem.num_packets(), &mut rng);
    let cfg = StreamingConfig {
        priority: StreamPriority::for_algo(&run.algo).unwrap(),
        admission: AdmissionControl {
            max_in_flight: 8,
            max_deferred: 4,
        },
        ..StreamingConfig::default()
    };
    let meta = Meta {
        schema: SCHEMA_VERSION,
        topo: run.topo.clone(),
        workload: run.workload.clone(),
        algo: run.algo.clone(),
        seed: run.seed,
        arrival: run.arrival.clone().unwrap_or_default(),
        packets: problem.num_packets() as u64,
        levels: topo.net.num_levels() as u64,
        congestion: u64::from(problem.congestion()),
        dilation: u64::from(problem.dilation()),
    };
    let mut obs = JsonlTraceObserver::with_snapshots(Vec::new(), &problem);
    let out = route_streaming_observed(&problem, &schedule, &cfg, &mut rng, &mut obs);
    assert!(out.dropped > 0, "the corpus should hold drop events");
    let body = String::from_utf8(obs.finish().unwrap()).unwrap();
    format!(
        "{}\n{body}{}\n",
        schema::meta_line(&meta),
        schema::stats_line(&out.stats)
    )
}

/// The bf(8) Busch bit-reversal trace with snapshot checkpoints.
fn busch_trace() -> String {
    common::record_busch_snapshots("bf:8", "bitrev", 7).0
}

/// Re-renders a JSON object's members with `sep`/`colon` separators.
fn render(members: &[(String, String)], sep: &str, colon: &str) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{k}{colon}{v}"))
        .collect();
    format!("{{{}}}", body.join(sep))
}

/// The line's top-level members as (quoted key, compact value) text.
fn members_of(line: &str) -> Option<Vec<(String, String)>> {
    let value = serde_json::from_str(line).ok()?;
    let pairs = value.as_object()?;
    Some(
        pairs
            .iter()
            .map(|(k, v)| {
                (
                    Value::String(k.clone()).to_compact_string(),
                    v.to_compact_string(),
                )
            })
            .collect(),
    )
}

/// Byte spans of the unsigned digit runs that are whole number tokens.
fn number_spans(line: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && i > 0 && matches!(b[i - 1], b':' | b',' | b'[') {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Characters that steer mutations toward the grammar's edges.
const ALPHABET: &[u8] = b"{}[]\",:0123456789-+.eE \t\\ufnulltrsF";

const NUMBER_SWAPS: &[&str] = &[
    "0",
    "00",
    "-0",
    "-1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "99999999999999999999999",
    "1.0",
    "1e3",
    "1E-2",
    "2.5",
    "1-2",
    "-",
];

/// One deterministic mutation of `line`.
fn mutate(line: &str, rng: &mut ChaCha8Rng) -> String {
    let bytes = line.as_bytes();
    let pick = |rng: &mut ChaCha8Rng, n: usize| rng.gen_range(0..n.max(1));
    let lossy = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    match rng.gen_range(0..12u32) {
        0 => {
            let mut b = bytes.to_vec();
            if !b.is_empty() {
                b.remove(pick(rng, b.len()));
            }
            lossy(b)
        }
        1 => {
            let mut b = bytes.to_vec();
            let at = pick(rng, b.len() + 1).min(b.len());
            b.insert(at, ALPHABET[pick(rng, ALPHABET.len())]);
            lossy(b)
        }
        2 => {
            let mut b = bytes.to_vec();
            if !b.is_empty() {
                let at = pick(rng, b.len());
                b[at] = if rng.gen_bool(0.5) {
                    ALPHABET[pick(rng, ALPHABET.len())]
                } else {
                    b[at] ^ (1 << rng.gen_range(0..7u32))
                };
            }
            lossy(b)
        }
        3 => {
            // Key reorder.
            let Some(mut m) = members_of(line) else {
                return line.to_string();
            };
            for i in (1..m.len()).rev() {
                m.swap(i, pick(rng, i + 1));
            }
            render(&m, ",", ":")
        }
        4 => {
            // Whitespace between tokens, or anywhere.
            if let (true, Some(m)) = (rng.gen_bool(0.5), members_of(line)) {
                let ws = [" ", "\t", "  ", "\r", " \n "][pick(rng, 5)];
                format!(
                    "{ws}{}{ws}",
                    render(&m, &format!("{ws},{ws}"), &format!("{ws}:{ws}"))
                )
            } else {
                let mut b = bytes.to_vec();
                b.insert(pick(rng, b.len() + 1).min(b.len()), b' ');
                lossy(b)
            }
        }
        5 => {
            // An escaped character in a key or a string value.
            let Some(mut m) = members_of(line) else {
                return line.to_string();
            };
            let i = pick(rng, m.len());
            let in_key = rng.gen_bool(0.5) || !m[i].1.starts_with('"');
            let text = if in_key { &m[i].0 } else { &m[i].1 };
            let inner: Vec<char> = text[1..text.len() - 1].chars().collect();
            if inner.is_empty() || inner.contains(&'\\') {
                return line.to_string();
            }
            let at = pick(rng, inner.len());
            let esc = match rng.gen_range(0..3u32) {
                0 => format!("\\u{:04x}", inner[at] as u32),
                1 => format!("\\u{:04X}", inner[at] as u32),
                _ if inner[at] == '/' => "\\/".to_string(),
                _ => format!("\\u{:04x}", inner[at] as u32),
            };
            let mut escaped = String::from("\"");
            for (j, c) in inner.iter().enumerate() {
                if j == at {
                    escaped.push_str(&esc);
                } else {
                    escaped.push(*c);
                }
            }
            escaped.push('"');
            if in_key {
                m[i].0 = escaped;
            } else {
                m[i].1 = escaped;
            }
            render(&m, ",", ":")
        }
        6 | 7 => {
            // Number spellings: leading zeros, signs, overflow, floats.
            let spans = number_spans(line);
            if spans.is_empty() {
                return line.to_string();
            }
            let (s, e) = spans[pick(rng, spans.len())];
            let digits = &line[s..e];
            let swap = match rng.gen_range(0..4u32) {
                0 => format!("0{digits}"),
                1 => format!("-{digits}"),
                2 => format!("{digits}.0"),
                _ => NUMBER_SWAPS[pick(rng, NUMBER_SWAPS.len())].to_string(),
            };
            format!("{}{swap}{}", &line[..s], &line[e..])
        }
        8 => {
            // Duplicate key, same or other value.
            let Some(mut m) = members_of(line) else {
                return line.to_string();
            };
            let (k, v) = m[pick(rng, m.len())].clone();
            let v = if rng.gen_bool(0.5) {
                v
            } else {
                "7".to_string()
            };
            let at = pick(rng, m.len() + 1).min(m.len());
            m.insert(at, (k, v));
            render(&m, ",", ":")
        }
        9 => {
            // Truncation.
            let cut = pick(rng, bytes.len());
            lossy(bytes[..cut].to_vec())
        }
        10 => {
            // An unknown or renamed field.
            let Some(mut m) = members_of(line) else {
                return line.to_string();
            };
            if rng.gen_bool(0.5) {
                m.push(("\"zz\"".into(), "0".into()));
            } else {
                let i = pick(rng, m.len());
                m[i].0 = format!("\"{}_x\"", &m[i].0[1..m[i].0.len() - 1]);
            }
            render(&m, ",", ":")
        }
        _ => {
            // A removed field.
            let Some(mut m) = members_of(line) else {
                return line.to_string();
            };
            m.remove(pick(rng, m.len()));
            render(&m, ",", ":")
        }
    }
}

/// Whether `line` is one well-formed JSON object without repeated keys:
/// then the parser must report exactly the oracle's error.
fn plain_object(line: &str) -> bool {
    let Ok(value) = serde_json::from_str(line) else {
        return false;
    };
    let Some(pairs) = value.as_object() else {
        return true;
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2).all(|w| w[0] != w[1])
}

/// Parses `line` both ways and requires agreement.
fn check(line: &str) {
    let want = oracle::parse_line(line);
    let got = parse_line(line);
    match (&want, &got) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "values differ on {line:?}"),
        (Err(a), Err(b)) => {
            if plain_object(line) {
                assert_eq!(a, b, "errors differ on {line:?}");
            }
        }
        _ => panic!("Ok/Err disagree on {line:?}: oracle {want:?}, parser {got:?}"),
    }
}

/// Lines of the events the recorded runs do not emit (or emit only
/// with non-negative values), written by the recorder's own writer.
fn written_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = |write: &dyn Fn(&mut Vec<u8>)| {
        let mut out = Vec::new();
        write(&mut out);
        lines.push(String::from_utf8(out).unwrap());
    };
    for section in hotpotato_sim::Section::ALL {
        line(&|o| jsonl::section_line(o, section.name(), 1234));
    }
    line(&|o| jsonl::frontier_line(o, 3, 1, -2));
    line(&|o| jsonl::frontier_line(o, 0, 7, i64::MIN + 1));
    line(&|o| jsonl::trivial_line(o, 0, 5));
    lines
}

/// Every corpus line, grouped by event kind.
fn corpus() -> Vec<Vec<String>> {
    let mut lines = golden_lines();
    lines.extend(written_lines());
    for text in [busch_trace(), streaming_trace()] {
        lines.extend(text.lines().map(String::from));
    }
    let mut groups: std::collections::BTreeMap<&str, Vec<String>> = Default::default();
    for line in lines {
        groups
            .entry(parse_line(&line).expect("recorded line").ev())
            .or_default()
            .push(line);
    }
    groups.into_values().collect()
}

#[test]
fn recorded_lines_parse_identically() {
    let groups = corpus();
    for line in groups.iter().flatten() {
        check(line);
    }
    // Every event kind the schema knows is in the corpus.
    assert_eq!(groups.len(), 15, "corpus lacks some event kinds");
}

#[test]
fn mutated_lines_agree_with_the_oracle() {
    let groups = corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(FUZZ_SEED);
    let (mut ok, mut errs) = (0u32, 0u32);
    for _ in 0..40_000 {
        // Every event kind equally often, however rare in a recording.
        let group = &groups[rng.gen_range(0..groups.len())];
        let mut line = group[rng.gen_range(0..group.len())].clone();
        for _ in 0..rng.gen_range(1..=3) {
            line = mutate(&line, &mut rng);
        }
        check(&line);
        match parse_line(&line) {
            Ok(_) => ok += 1,
            Err(_) => errs += 1,
        }
    }
    // The mix must exercise both outcomes in bulk.
    assert!(ok > 5_000 && errs > 5_000, "ok {ok}, err {errs}");
}

/// The fixed fuzz seed.
const FUZZ_SEED: u64 = 0x5eed_0012;

#[test]
fn parallel_parse_reports_the_same_first_error() {
    let text = busch_trace();
    assert!(text.len() > 1 << 20, "must exceed the parallel split size");
    let lines: Vec<&str> = text.lines().collect();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for round in 0..4 {
        let mut mutated: Vec<String> = lines.iter().map(|&l| String::from(l)).collect();
        for _ in 0..=round {
            let at = rng.gen_range(0..mutated.len());
            mutated[at] = mutate(&mutated[at], &mut rng).replace(['\n', '\r'], " ");
        }
        let joined = mutated.join("\n") + "\n";
        let want = mutated
            .iter()
            .position(|l| oracle::parse_line(l).is_err() || l.trim().is_empty());
        let seq = Trace::parse(&joined);
        match (&seq, want) {
            (Ok(_), None) => {}
            (Err(e), Some(i)) => assert_eq!(e.line, i + 1, "round {round}: {e}"),
            _ => panic!("round {round}: sequential {seq:?} vs oracle line {want:?}"),
        }
        for jobs in [1, 2, 4] {
            let par = parse_jsonl_parallel(&joined, jobs);
            match (&seq, &par) {
                (Ok(a), Ok(b)) => assert_eq!(a.events, b.events, "round {round} jobs {jobs}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "round {round} jobs {jobs}"),
                _ => panic!("round {round} jobs {jobs}: Ok/Err differ"),
            }
        }
    }
}
