//! The JSONL trace line writer: the one place the trace's byte format
//! is defined.
//!
//! [`JsonlTraceObserver`](crate::JsonlTraceObserver) records with these
//! functions, and the trace crate re-renders parsed events and writes
//! the `meta`/`stats` envelope lines with them, so a recorded trace and
//! a re-rendered one (`trace convert` from `.hpt`) agree to the byte.
//!
//! Every function appends one line to a `Vec<u8>`, without the trailing
//! newline. The format is compact JSON with the keys in a fixed
//! (canonical) order: `ev` first, then the event's fields in the order
//! the functions below write them. The trace crate's line scanner reads
//! exactly this shape on its fast path. Integers are formatted by hand
//! (no `fmt` machinery), and strings are escaped the way the vendored
//! `serde_json` compact printer escapes them.

use crate::engine::ExitKind;
use crate::stats::Time;
use leveled_net::Direction;

/// Appends the decimal digits of `v`.
// lint: hot-path
#[inline]
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let mut n = v;
    let mut len = 0;
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
        if n == 0 {
            break;
        }
    }
    let (_, used) = digits.split_at(digits.len() - len);
    out.extend_from_slice(used);
}

/// Appends `v` in decimal, with a leading `-` when negative.
// lint: hot-path
pub fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends `s` as a quoted JSON string. `"`, `\`, newline, carriage
/// return and tab get their short escapes; other control characters are
/// written as `\u00xx`; everything else is copied verbatim.
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0..=0x1f => {
                out.extend_from_slice(b"\\u00");
                for nibble in [b >> 4, b & 0xf] {
                    out.push(if nibble < 10 {
                        b'0' + nibble
                    } else {
                        b'a' + nibble - 10
                    });
                }
            }
            _ => out.push(b),
        }
    }
    out.push(b'"');
}

/// Appends `[a,b,...]`.
// lint: hot-path
pub fn push_u32s<I: IntoIterator<Item = u32>>(out: &mut Vec<u8>, items: I) {
    out.push(b'[');
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, u64::from(v));
    }
    out.push(b']');
}

/// Appends `[a,null,...]`: `None` is written as `null`.
pub fn push_opt_u64s<'a, I: IntoIterator<Item = &'a Option<u64>>>(out: &mut Vec<u8>, items: I) {
    out.push(b'[');
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        match v {
            Some(v) => push_u64(out, *v),
            None => out.extend_from_slice(b"null"),
        }
    }
    out.push(b']');
}

/// Opens a line: `{"ev":"<ev>"`. Follow with [`key`]/value pairs and
/// close with `}`.
pub fn open(out: &mut Vec<u8>, ev: &str) {
    out.extend_from_slice(b"{\"ev\":");
    push_str(out, ev);
}

/// Appends the separator and key of the next field: `,"<key>":`.
pub fn key(out: &mut Vec<u8>, key: &str) {
    out.push(b',');
    push_str(out, key);
    out.push(b':');
}

/// Stable name of an [`ExitKind`] (the `kind` field of `move` lines).
pub fn kind_name(kind: ExitKind) -> &'static str {
    match kind {
        ExitKind::Advance => "adv",
        ExitKind::Deflect { safe: true } => "def-safe",
        ExitKind::Deflect { safe: false } => "def-free",
        ExitKind::Oscillate => "osc",
        ExitKind::Inject => "inj",
    }
}

/// `move`: a packet crossed `edge` in direction `dir` at step `t`.
// lint: hot-path
pub fn move_line(out: &mut Vec<u8>, t: Time, pkt: u32, edge: u32, dir: Direction, kind: ExitKind) {
    out.extend_from_slice(b"{\"ev\":\"move\",\"t\":");
    push_u64(out, t);
    out.extend_from_slice(b",\"pkt\":");
    push_u64(out, u64::from(pkt));
    out.extend_from_slice(b",\"edge\":");
    push_u64(out, u64::from(edge));
    out.extend_from_slice(match dir {
        Direction::Forward => b",\"dir\":\"F\",\"kind\":\"",
        Direction::Backward => b",\"dir\":\"B\",\"kind\":\"",
    });
    out.extend_from_slice(kind_name(kind).as_bytes());
    out.extend_from_slice(b"\"}");
}

/// The shared shape of the per-packet events: `<head><t>,"pkt":<pkt>}`.
// lint: hot-path
fn packet_line(out: &mut Vec<u8>, head: &[u8], t: Time, pkt: u32) {
    out.extend_from_slice(head);
    push_u64(out, t);
    out.extend_from_slice(b",\"pkt\":");
    push_u64(out, u64::from(pkt));
    out.push(b'}');
}

/// `trivial`: a source == destination delivery.
// lint: hot-path
pub fn trivial_line(out: &mut Vec<u8>, t: Time, pkt: u32) {
    packet_line(out, b"{\"ev\":\"trivial\",\"t\":", t, pkt);
}

/// `deliver`: an absorption at the destination.
// lint: hot-path
pub fn deliver_line(out: &mut Vec<u8>, t: Time, pkt: u32) {
    packet_line(out, b"{\"ev\":\"deliver\",\"t\":", t, pkt);
}

/// `arrival`: a streaming packet became available for injection.
// lint: hot-path
pub fn arrival_line(out: &mut Vec<u8>, t: Time, pkt: u32) {
    packet_line(out, b"{\"ev\":\"arrival\",\"t\":", t, pkt);
}

/// `drop`: admission control dropped a streaming packet.
// lint: hot-path
pub fn drop_line(out: &mut Vec<u8>, t: Time, pkt: u32) {
    packet_line(out, b"{\"ev\":\"drop\",\"t\":", t, pkt);
}

/// The keys of a `step` line after `t`, in line order.
const STEP_KEYS: [&str; 7] = [
    "moved",
    "absorbed",
    "injected",
    "deflections",
    "fallback",
    "oscillations",
    "active",
];

/// `step`: a step completed. `counts` holds, in order, the `moved`,
/// `absorbed`, `injected`, `deflections`, `fallback`, `oscillations`
/// and `active` values.
// lint: hot-path
pub fn step_line(out: &mut Vec<u8>, t: Time, counts: [u64; 7]) {
    out.extend_from_slice(b"{\"ev\":\"step\",\"t\":");
    push_u64(out, t);
    for (k, v) in STEP_KEYS.iter().zip(counts) {
        out.extend_from_slice(b",\"");
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b"\":");
        push_u64(out, v);
    }
    out.push(b'}');
}

/// `sets`: the frontier-set assignment of every packet.
pub fn sets_line(out: &mut Vec<u8>, num_sets: u32, sets: &[u32]) {
    out.extend_from_slice(b"{\"ev\":\"sets\",\"num_sets\":");
    push_u64(out, u64::from(num_sets));
    out.extend_from_slice(b",\"sets\":");
    push_u32s(out, sets.iter().copied());
    out.push(b'}');
}

/// The shared shape of the phase events: `<head><phase>,"t":<t>}`.
// lint: hot-path
fn phase_line(out: &mut Vec<u8>, head: &[u8], phase: u64, t: Time) {
    out.extend_from_slice(head);
    push_u64(out, phase);
    out.extend_from_slice(b",\"t\":");
    push_u64(out, t);
    out.push(b'}');
}

/// `phase_start`: phase `phase` begins at step `t`.
// lint: hot-path
pub fn phase_start_line(out: &mut Vec<u8>, phase: u64, t: Time) {
    phase_line(out, b"{\"ev\":\"phase_start\",\"phase\":", phase, t);
}

/// `phase_end`: phase `phase` ends; `t` is the first step after it.
// lint: hot-path
pub fn phase_end_line(out: &mut Vec<u8>, phase: u64, t: Time) {
    phase_line(out, b"{\"ev\":\"phase_end\",\"phase\":", phase, t);
}

/// `frontier`: the theoretical frontier of `set` in `phase`.
// lint: hot-path
pub fn frontier_line(out: &mut Vec<u8>, phase: u64, set: u32, frontier: i64) {
    out.extend_from_slice(b"{\"ev\":\"frontier\",\"phase\":");
    push_u64(out, phase);
    out.extend_from_slice(b",\"set\":");
    push_u64(out, u64::from(set));
    out.extend_from_slice(b",\"frontier\":");
    push_i64(out, frontier);
    out.push(b'}');
}

/// `congestion`: the phase-end congestion audit of `set`.
// lint: hot-path
pub fn congestion_line(out: &mut Vec<u8>, phase: u64, set: u32, congestion: u32, initial: u32) {
    out.extend_from_slice(b"{\"ev\":\"congestion\",\"phase\":");
    push_u64(out, phase);
    out.extend_from_slice(b",\"set\":");
    push_u64(out, u64::from(set));
    out.extend_from_slice(b",\"congestion\":");
    push_u64(out, u64::from(congestion));
    out.extend_from_slice(b",\"initial\":");
    push_u64(out, u64::from(initial));
    out.push(b'}');
}

/// `section`: `nanos` of wall time spent in router section `name`.
pub fn section_line(out: &mut Vec<u8>, name: &str, nanos: u64) {
    out.extend_from_slice(b"{\"ev\":\"section\",\"section\":");
    push_str(out, name);
    out.extend_from_slice(b",\"nanos\":");
    push_u64(out, nanos);
    out.push(b'}');
}

/// The cumulative counters a `snapshot` line carries after its arrays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotTotals {
    /// Cumulative move count.
    pub moves: u64,
    /// Cumulative forward crossings.
    pub forward: u64,
    /// Cumulative backward crossings.
    pub backward: u64,
    /// Cumulative deflections.
    pub deflections: u64,
    /// Cumulative oscillation moves.
    pub oscillations: u64,
    /// Cumulative trivial deliveries.
    pub trivial: u64,
    /// Frontier-set count (0 = not assigned yet).
    pub num_sets: u32,
}

/// `snapshot`: the phase-entry checkpoint. `state` holds every packet's
/// lifecycle code, `nodes` the current node of each in-flight packet in
/// packet order, and `prev_forward` the edges crossed forward in the
/// step before the boundary.
pub fn snapshot_line<S, N>(
    out: &mut Vec<u8>,
    phase: u64,
    t: Time,
    state: S,
    nodes: N,
    prev_forward: &[u32],
    totals: &SnapshotTotals,
) where
    S: IntoIterator<Item = u32>,
    N: IntoIterator<Item = u32>,
{
    out.extend_from_slice(b"{\"ev\":\"snapshot\",\"phase\":");
    push_u64(out, phase);
    out.extend_from_slice(b",\"t\":");
    push_u64(out, t);
    out.extend_from_slice(b",\"state\":");
    push_u32s(out, state);
    out.extend_from_slice(b",\"nodes\":");
    push_u32s(out, nodes);
    out.extend_from_slice(b",\"prev_forward\":");
    push_u32s(out, prev_forward.iter().copied());
    for (k, v) in [
        ("moves", totals.moves),
        ("forward", totals.forward),
        ("backward", totals.backward),
        ("deflections", totals.deflections),
        ("oscillations", totals.oscillations),
        ("trivial", totals.trivial),
        ("num_sets", u64::from(totals.num_sets)),
    ] {
        key(out, k);
        push_u64(out, v);
    }
    out.push(b'}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(f: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        f(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn integers_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 4_294_967_295, 1 << 40, u64::MAX] {
            assert_eq!(text(|o| push_u64(o, v)), v.to_string());
        }
        for v in [0, -1, 7, -4096, i64::MIN, i64::MAX] {
            assert_eq!(text(|o| push_i64(o, v)), v.to_string());
        }
    }

    #[test]
    fn strings_escape_like_the_json_printer() {
        for s in ["", "bf:8", "a\"b\\c\nd\re\tf", "\u{1}\u{1f}", "ünï"] {
            let want = serde::Value::String(s.to_string()).to_compact_string();
            assert_eq!(text(|o| push_str(o, s)), want, "{s:?}");
        }
    }

    #[test]
    fn lines_have_the_canonical_shape() {
        assert_eq!(
            text(|o| move_line(
                o,
                4,
                2,
                9,
                Direction::Backward,
                ExitKind::Deflect { safe: true }
            )),
            r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"B","kind":"def-safe"}"#
        );
        assert_eq!(
            text(|o| step_line(o, 4, [3, 1, 0, 1, 0, 1, 2])),
            r#"{"ev":"step","t":4,"moved":3,"absorbed":1,"injected":0,"deflections":1,"fallback":0,"oscillations":1,"active":2}"#
        );
        assert_eq!(
            text(|o| frontier_line(o, 3, 1, -2)),
            r#"{"ev":"frontier","phase":3,"set":1,"frontier":-2}"#
        );
        assert_eq!(
            text(|o| {
                open(o, "stats");
                key(o, "injected_at");
                push_opt_u64s(o, &[Some(0), None]);
                o.push(b'}');
            }),
            r#"{"ev":"stats","injected_at":[0,null]}"#
        );
    }
}
