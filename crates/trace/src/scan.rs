//! Strict JSONL line scanning over borrowed bytes.
//!
//! Two readers share one contract: a line yields the same event, or
//! fails, exactly as a full JSON parse followed by the strict field
//! checks of [`crate::schema`] would.
//!
//! * [`canonical`] / [`canonical_owned`] — the fast path. They read the
//!   byte shape [`hotpotato_sim::jsonl`] writes (compact, keys in
//!   canonical order, plain decimal integers without leading zeros,
//!   strings without escapes) straight into a [`TraceEvent`].
//!   [`canonical`] covers the fixed-shape events and allocates nothing;
//!   [`canonical_owned`] covers the events that carry strings or arrays.
//!   Any deviation from the canonical shape returns `None`, never an
//!   error, and the line goes to the fallback.
//! * [`Object`] — the fallback. It validates the whole line as JSON
//!   without building a tree, then looks fields up by key in the
//!   borrowed text, so any key order, whitespace, string escape or
//!   number spelling the JSON grammar allows is read. It reports
//!   missing, duplicate, unknown and mistyped fields.

use crate::schema::{err, Meta, ParseError, Snapshot, StatsLine, TraceEvent, SCHEMA_VERSION};
use hotpotato_sim::ExitKind;
use leveled_net::{Direction, EdgeId};
use std::borrow::Cow;

/// The `ExitKind` named by a `move` line's `kind` field.
// lint: hot-path
pub(crate) fn kind_of(name: &str) -> Option<ExitKind> {
    Some(match name {
        "adv" => ExitKind::Advance,
        "def-safe" => ExitKind::Deflect { safe: true },
        "def-free" => ExitKind::Deflect { safe: false },
        "osc" => ExitKind::Oscillate,
        "inj" => ExitKind::Inject,
        _ => return None,
    })
}

/// The `Direction` named by a `move` line's `dir` field.
// lint: hot-path
pub(crate) fn dir_of(name: &str) -> Option<Direction> {
    match name {
        "F" => Some(Direction::Forward),
        "B" => Some(Direction::Backward),
        _ => None,
    }
}

/// Cursor over a line that only accepts the canonical byte shape.
struct Canon<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Canon<'a> {
    /// Consumes `lit` if the line continues with it.
    // lint: hot-path
    #[inline]
    fn eat(&mut self, lit: &[u8]) -> Option<()> {
        let rest = self.text.as_bytes().get(self.pos..)?;
        if rest.starts_with(lit) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    /// Reads a canonical unsigned integer: digits, no leading zero
    /// unless the number is `0`, no overflow.
    // lint: hot-path
    #[inline]
    fn num(&mut self) -> Option<u64> {
        let rest = self.text.as_bytes().get(self.pos..)?;
        let mut v: u64 = 0;
        let mut len = 0;
        for &b in rest {
            if !b.is_ascii_digit() {
                break;
            }
            v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            len += 1;
        }
        if len == 0 || (len > 1 && rest.first() == Some(&b'0')) {
            return None;
        }
        self.pos += len;
        Some(v)
    }

    /// `lit` followed by a canonical `u64`.
    // lint: hot-path
    #[inline]
    fn u64_at(&mut self, lit: &[u8]) -> Option<u64> {
        self.eat(lit)?;
        self.num()
    }

    /// `lit` followed by a canonical `u32`.
    // lint: hot-path
    #[inline]
    fn u32_at(&mut self, lit: &[u8]) -> Option<u32> {
        u32::try_from(self.u64_at(lit)?).ok()
    }

    /// `lit` followed by a canonical `i64` (`-` only before a non-zero
    /// magnitude).
    // lint: hot-path
    fn i64_at(&mut self, lit: &[u8]) -> Option<i64> {
        self.eat(lit)?;
        if self.eat(b"-").is_some() {
            let magnitude = i64::try_from(self.num()?).ok()?;
            (magnitude != 0).then_some(-magnitude)
        } else {
            i64::try_from(self.num()?).ok()
        }
    }

    /// A quoted string without escapes; returns its contents.
    // lint: hot-path
    #[inline]
    fn plain_str(&mut self) -> Option<&'a str> {
        self.eat(b"\"")?;
        let start = self.pos;
        let rest = self.text.as_bytes().get(start..)?;
        let len = rest.iter().position(|&b| b == b'"' || b == b'\\')?;
        if rest.get(len) != Some(&b'"') {
            return None;
        }
        self.pos = start + len + 1;
        self.text.get(start..start + len)
    }

    /// `lit` followed by a plain string.
    // lint: hot-path
    #[inline]
    fn str_at(&mut self, lit: &[u8]) -> Option<&'a str> {
        self.eat(lit)?;
        self.plain_str()
    }

    /// The closing brace, which must end the line.
    // lint: hot-path
    #[inline]
    fn close(&mut self) -> Option<()> {
        self.eat(b"}")?;
        (self.pos == self.text.len()).then_some(())
    }

    /// `lit` followed by `[n,n,...]` of canonical `u32`s.
    fn u32s_at(&mut self, lit: &[u8]) -> Option<Vec<u32>> {
        self.eat(lit)?;
        self.eat(b"[")?;
        let mut out = Vec::new();
        if self.eat(b"]").is_some() {
            return Some(out);
        }
        loop {
            out.push(u32::try_from(self.num()?).ok()?);
            if self.eat(b",").is_none() {
                self.eat(b"]")?;
                return Some(out);
            }
        }
    }

    /// `lit` followed by `[n,null,...]` of canonical `u64`s or `null`.
    fn opt_u64s_at(&mut self, lit: &[u8]) -> Option<Vec<Option<u64>>> {
        self.eat(lit)?;
        self.eat(b"[")?;
        let mut out = Vec::new();
        if self.eat(b"]").is_some() {
            return Some(out);
        }
        loop {
            if self.eat(b"null").is_some() {
                out.push(None);
            } else {
                out.push(Some(self.num()?));
            }
            if self.eat(b",").is_none() {
                self.eat(b"]")?;
                return Some(out);
            }
        }
    }
}

/// Reads a canonical fixed-shape line (`move`, the per-packet events,
/// `step`, the phase events, `frontier`, `congestion`) without
/// allocating; `None` for any other line.
// lint: hot-path
pub(crate) fn canonical(line: &str) -> Option<TraceEvent> {
    let mut c = Canon { text: line, pos: 0 };
    let ev = c.str_at(b"{\"ev\":")?;
    let event = match ev {
        "move" => TraceEvent::Move {
            t: c.u64_at(b",\"t\":")?,
            pkt: c.u32_at(b",\"pkt\":")?,
            edge: EdgeId(c.u32_at(b",\"edge\":")?),
            dir: dir_of(c.str_at(b",\"dir\":")?)?,
            kind: kind_of(c.str_at(b",\"kind\":")?)?,
        },
        "trivial" | "deliver" | "arrival" | "drop" => {
            let t = c.u64_at(b",\"t\":")?;
            let pkt = c.u32_at(b",\"pkt\":")?;
            match ev {
                "trivial" => TraceEvent::Trivial { t, pkt },
                "deliver" => TraceEvent::Deliver { t, pkt },
                "arrival" => TraceEvent::Arrival { t, pkt },
                _ => TraceEvent::Drop { t, pkt },
            }
        }
        "step" => TraceEvent::Step {
            t: c.u64_at(b",\"t\":")?,
            moved: c.u64_at(b",\"moved\":")?,
            absorbed: c.u64_at(b",\"absorbed\":")?,
            injected: c.u64_at(b",\"injected\":")?,
            deflections: c.u64_at(b",\"deflections\":")?,
            fallback: c.u64_at(b",\"fallback\":")?,
            oscillations: c.u64_at(b",\"oscillations\":")?,
            active: c.u64_at(b",\"active\":")?,
        },
        "phase_start" => TraceEvent::PhaseStart {
            phase: c.u64_at(b",\"phase\":")?,
            t: c.u64_at(b",\"t\":")?,
        },
        "phase_end" => TraceEvent::PhaseEnd {
            phase: c.u64_at(b",\"phase\":")?,
            t: c.u64_at(b",\"t\":")?,
        },
        "frontier" => TraceEvent::Frontier {
            phase: c.u64_at(b",\"phase\":")?,
            set: c.u32_at(b",\"set\":")?,
            frontier: c.i64_at(b",\"frontier\":")?,
        },
        "congestion" => TraceEvent::Congestion {
            phase: c.u64_at(b",\"phase\":")?,
            set: c.u32_at(b",\"set\":")?,
            congestion: c.u32_at(b",\"congestion\":")?,
            initial: c.u32_at(b",\"initial\":")?,
        },
        _ => return None,
    };
    c.close()?;
    Some(event)
}

/// Reads a canonical line of an event that owns strings or arrays
/// (`meta`, `section`, `sets`, `snapshot`, `stats`); `None` for any
/// other line. A `meta` line of another schema version is left to the
/// fallback, which reports it.
pub(crate) fn canonical_owned(line: &str) -> Option<TraceEvent> {
    let mut c = Canon { text: line, pos: 0 };
    let event = match c.str_at(b"{\"ev\":")? {
        "meta" => {
            let schema = c.u64_at(b",\"schema\":")?;
            if schema != SCHEMA_VERSION {
                return None;
            }
            TraceEvent::Meta(Meta {
                schema,
                topo: c.str_at(b",\"topo\":")?.to_string(),
                workload: c.str_at(b",\"workload\":")?.to_string(),
                algo: c.str_at(b",\"algo\":")?.to_string(),
                seed: c.u64_at(b",\"seed\":")?,
                arrival: c.str_at(b",\"arrival\":")?.to_string(),
                packets: c.u64_at(b",\"packets\":")?,
                levels: c.u64_at(b",\"levels\":")?,
                congestion: c.u64_at(b",\"congestion\":")?,
                dilation: c.u64_at(b",\"dilation\":")?,
            })
        }
        "section" => TraceEvent::Section {
            section: c.str_at(b",\"section\":")?.to_string(),
            nanos: c.u64_at(b",\"nanos\":")?,
        },
        "sets" => TraceEvent::Sets {
            num_sets: c.u32_at(b",\"num_sets\":")?,
            sets: c.u32s_at(b",\"sets\":")?,
        },
        "snapshot" => TraceEvent::Snapshot(Snapshot {
            phase: c.u64_at(b",\"phase\":")?,
            t: c.u64_at(b",\"t\":")?,
            state: c.u32s_at(b",\"state\":")?,
            nodes: c.u32s_at(b",\"nodes\":")?,
            prev_forward: c.u32s_at(b",\"prev_forward\":")?,
            moves: c.u64_at(b",\"moves\":")?,
            forward: c.u64_at(b",\"forward\":")?,
            backward: c.u64_at(b",\"backward\":")?,
            deflections: c.u64_at(b",\"deflections\":")?,
            oscillations: c.u64_at(b",\"oscillations\":")?,
            trivial: c.u64_at(b",\"trivial\":")?,
            num_sets: c.u32_at(b",\"num_sets\":")?,
        }),
        "stats" => TraceEvent::Stats(StatsLine {
            steps: c.u64_at(b",\"steps\":")?,
            injected_at: c.opt_u64s_at(b",\"injected_at\":")?,
            delivered_at: c.opt_u64s_at(b",\"delivered_at\":")?,
            deflections: c.u32s_at(b",\"deflections\":")?,
        }),
        _ => return None,
    };
    c.close()?;
    Some(event)
}

/// Nesting depth beyond which a document is rejected rather than
/// descended into, so hostile input cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

/// A JSON syntax error, worded like the vendored `serde_json`'s.
fn json_err(msg: impl std::fmt::Display) -> ParseError {
    err(format!("JSON error: {msg}"))
}

/// A validated JSON value, borrowed from the line.
#[derive(Clone, Copy)]
enum Raw<'a> {
    Null,
    Bool(bool),
    /// A number token, exactly as written.
    Num(&'a str),
    /// A string's contents between the quotes, still escaped.
    Str(&'a str),
    /// An array, brackets included.
    Arr(&'a str),
    /// An object, braces included.
    Obj(&'a str),
}

/// A JSON number, classified the way the vendored `serde_json` does:
/// unsigned if it fits `u64`, else signed if it fits `i64`, else a
/// float.
#[derive(Clone, Copy)]
enum Num {
    U(u64),
    I(i64),
    F,
}

impl Num {
    /// Classifies a number token; `None` if it is not a number.
    fn of(text: &str) -> Option<Num> {
        let body = text.strip_prefix('-').unwrap_or(text);
        if body.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(u) = text.parse::<u64>() {
                return Some(Num::U(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Some(Num::I(i));
            }
        }
        text.parse::<f64>().ok().map(|_| Num::F)
    }

    fn as_u64(self) -> Option<u64> {
        match self {
            Num::U(v) => Some(v),
            Num::I(v) => u64::try_from(v).ok(),
            Num::F => None,
        }
    }

    fn as_i64(self) -> Option<i64> {
        match self {
            Num::U(v) => i64::try_from(v).ok(),
            Num::I(v) => Some(v),
            Num::F => None,
        }
    }
}

impl<'a> Raw<'a> {
    fn as_u64(self) -> Option<u64> {
        match self {
            Raw::Num(text) => Num::of(text)?.as_u64(),
            _ => None,
        }
    }

    fn as_i64(self) -> Option<i64> {
        match self {
            Raw::Num(text) => Num::of(text)?.as_i64(),
            _ => None,
        }
    }
}

/// The character a `\u` escape names: the four bytes at `at`, read as
/// hexadecimal.
fn hex_char(bytes: &[u8], at: usize) -> Result<char, ParseError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| json_err("truncated \\u escape"))?;
    let code = std::str::from_utf8(hex)
        .ok()
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| json_err("invalid \\u escape"))?;
    char::from_u32(code).ok_or_else(|| json_err("invalid \\u code point"))
}

/// The characters of a validated string's escaped contents.
struct Unescape<'a> {
    rest: &'a str,
}

impl Iterator for Unescape<'_> {
    type Item = char;

    fn next(&mut self) -> Option<char> {
        let mut chars = self.rest.chars();
        let c = chars.next()?;
        if c != '\\' {
            self.rest = chars.as_str();
            return Some(c);
        }
        let c = match chars.next()? {
            '"' => '"',
            '\\' => '\\',
            '/' => '/',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => {
                let hex = chars.as_str();
                let c = hex_char(hex.as_bytes(), 0).ok()?;
                self.rest = hex.get(4..)?;
                return Some(c);
            }
            _ => return None,
        };
        self.rest = chars.as_str();
        Some(c)
    }
}

/// A validated string's value: borrowed unless it holds escapes.
fn unescape(raw: &str) -> Cow<'_, str> {
    if raw.contains('\\') {
        Cow::Owned(Unescape { rest: raw }.collect())
    } else {
        Cow::Borrowed(raw)
    }
}

/// Whether a validated key's value is `want`, without allocating.
fn key_is(raw: &str, want: &str) -> bool {
    if raw.contains('\\') {
        Unescape { rest: raw }.eq(want.chars())
    } else {
        raw == want
    }
}

/// A JSON reader over borrowed text: validates values and returns
/// their spans.
struct Json<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Json<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(json_err(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            )))
        }
    }

    /// The text from `start` to the cursor.
    fn since(&self, start: usize) -> &'a str {
        self.text.get(start..self.pos).unwrap_or_default()
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Reads one value, skipping leading whitespace.
    fn value(&mut self) -> Result<Raw<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Raw::Null),
            Some(b't') if self.eat_literal("true") => Ok(Raw::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Raw::Bool(false)),
            Some(b'"') => self.quoted().map(Raw::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(json_err(format!(
                "unexpected '{}' at offset {}",
                b as char, self.pos
            ))),
            None => Err(json_err("unexpected end of input")),
        }
    }

    /// Reads a string; returns its escaped contents.
    fn quoted(&mut self) -> Result<&'a str, ParseError> {
        self.require(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let contents = self.since(start);
                    self.pos += 1;
                    return Ok(contents);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f') => {}
                        Some(b'u') => {
                            hex_char(self.text.as_bytes(), self.pos + 1)?;
                            self.pos += 4;
                        }
                        _ => return Err(json_err("invalid escape")),
                    }
                    self.pos += 1;
                }
                // Multi-byte UTF-8 sequences never contain `"` or `\`,
                // so stepping bytewise through them is exact.
                Some(_) => self.pos += 1,
                None => return Err(json_err("unterminated string")),
            }
        }
    }

    /// Reads a number token: an optional `-`, then the run of digits
    /// and `.eE+-` characters, which must classify as a number.
    fn number(&mut self) -> Result<Raw<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self.since(start);
        match Num::of(text) {
            Some(_) => Ok(Raw::Num(text)),
            None => Err(json_err(format!("invalid number '{text}'"))),
        }
    }

    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(json_err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Raw<'a>, ParseError> {
        let start = self.pos;
        self.descend()?;
        self.require(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                self.value()?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(json_err(format!("expected ',' or ']' at {}", self.pos))),
                }
            }
        }
        self.depth -= 1;
        Ok(Raw::Arr(self.since(start)))
    }

    fn object(&mut self) -> Result<Raw<'a>, ParseError> {
        self.object_with(&mut |_| {})
    }

    /// Reads an object, handing each member to `each` in order.
    fn object_with(&mut self, each: &mut dyn FnMut(Member<'a>)) -> Result<Raw<'a>, ParseError> {
        let start = self.pos;
        self.descend()?;
        self.require(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                each(self.member()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(json_err(format!("expected ',' or '}}' at {}", self.pos))),
                }
            }
        }
        self.depth -= 1;
        Ok(Raw::Obj(self.since(start)))
    }

    /// Reads `"key": value`.
    fn member(&mut self) -> Result<Member<'a>, ParseError> {
        self.skip_ws();
        let key = self.quoted()?;
        self.skip_ws();
        self.require(b':')?;
        self.skip_ws();
        let start = self.pos;
        let value = self.value()?;
        Ok(Member {
            key,
            value,
            text: self.since(start),
        })
    }
}

/// One object member.
#[derive(Clone, Copy)]
struct Member<'a> {
    /// The key, still escaped.
    key: &'a str,
    value: Raw<'a>,
    /// The value's text.
    text: &'a str,
}

/// The items of a validated array, or the members of a validated
/// object, in order. Reading already-validated text cannot fail; the
/// iteration simply ends if it ever did.
struct Items<'a> {
    json: Json<'a>,
    done: bool,
}

impl<'a> Items<'a> {
    /// Iterates the array or object whose text (brackets included) is
    /// `text`.
    fn of(text: &'a str) -> Self {
        let mut json = Json {
            text,
            pos: 1,
            depth: 0,
        };
        json.skip_ws();
        let done = matches!(json.peek(), Some(b']' | b'}'));
        Items { json, done }
    }

    /// Steps past the separator after an item or member.
    fn advance<T>(&mut self, item: Result<T, ParseError>) -> Option<T> {
        self.json.skip_ws();
        match self.json.peek() {
            Some(b',') if item.is_ok() => self.json.pos += 1,
            _ => self.done = true,
        }
        item.ok()
    }

    /// The next object member.
    fn next_member(&mut self) -> Option<Member<'a>> {
        if self.done {
            return None;
        }
        let member = self.json.member();
        self.advance(member)
    }
}

impl<'a> Iterator for Items<'a> {
    type Item = Raw<'a>;

    fn next(&mut self) -> Option<Raw<'a>> {
        if self.done {
            return None;
        }
        let item = self.json.value();
        self.advance(item)
    }
}

/// Most fields any strict document has (`snapshot`: `ev` plus twelve).
const MAX_FIELDS: usize = 16;

/// Strict field access over one validated JSON object. Validation
/// records the members in a fixed table (an object with more members
/// than any event has is re-read from the text past the table); keys
/// are looked up in the table, each taken key is recorded, and
/// [`Object::finish`] rejects any member that was not taken or that
/// repeats a taken key.
pub(crate) struct Object<'a> {
    text: &'a str,
    fields: [Member<'a>; MAX_FIELDS],
    /// Members in the object (may exceed the table).
    len: usize,
    taken: [&'static str; MAX_FIELDS],
    n_taken: usize,
}

impl<'a> Object<'a> {
    /// Validates `text` as one JSON document, which must be an object.
    pub(crate) fn parse(text: &'a str) -> Result<Self, ParseError> {
        let mut json = Json {
            text,
            pos: 0,
            depth: 0,
        };
        let empty = Member {
            key: "",
            value: Raw::Null,
            text: "",
        };
        let mut fields = [empty; MAX_FIELDS];
        let mut len = 0;
        json.skip_ws();
        let value = if json.peek() == Some(b'{') {
            json.object_with(&mut |member| {
                if let Some(slot) = fields.get_mut(len) {
                    *slot = member;
                }
                len += 1;
            })?
        } else {
            json.value()?
        };
        json.skip_ws();
        if json.pos != text.len() {
            return Err(json_err(format!(
                "trailing characters at offset {}",
                json.pos
            )));
        }
        match value {
            Raw::Obj(text) => Ok(Object {
                text,
                fields,
                len,
                taken: [""; MAX_FIELDS],
                n_taken: 0,
            }),
            _ => Err(err("not a JSON object")),
        }
    }

    /// Every member, in order.
    fn members(&self) -> impl Iterator<Item = Member<'a>> + '_ {
        let stored = self.fields.get(..self.len).unwrap_or(&self.fields);
        let spilled = (self.len > MAX_FIELDS).then(|| {
            let mut items = Items::of(self.text);
            std::iter::from_fn(move || items.next_member()).skip(MAX_FIELDS)
        });
        stored.iter().copied().chain(spilled.into_iter().flatten())
    }

    /// The first member named `key` (its value and text), recorded as
    /// taken.
    fn take(&mut self, key: &'static str) -> Result<(Raw<'a>, &'a str), ParseError> {
        let found = self
            .members()
            .find(|m| key_is(m.key, key))
            .map(|m| (m.value, m.text))
            .ok_or_else(|| err(format!("missing field '{key}'")))?;
        if let Some(slot) = self.taken.get_mut(self.n_taken) {
            *slot = key;
            self.n_taken += 1;
        }
        Ok(found)
    }

    pub(crate) fn u64(&mut self, key: &'static str) -> Result<u64, ParseError> {
        self.take(key)?
            .0
            .as_u64()
            .ok_or_else(|| err(format!("field '{key}' is not an unsigned integer")))
    }

    pub(crate) fn u32(&mut self, key: &'static str) -> Result<u32, ParseError> {
        u32::try_from(self.u64(key)?).map_err(|_| err(format!("field '{key}' overflows u32")))
    }

    pub(crate) fn i64(&mut self, key: &'static str) -> Result<i64, ParseError> {
        self.take(key)?
            .0
            .as_i64()
            .ok_or_else(|| err(format!("field '{key}' is not an integer")))
    }

    pub(crate) fn str(&mut self, key: &'static str) -> Result<Cow<'a, str>, ParseError> {
        match self.take(key)?.0 {
            Raw::Str(raw) => Ok(unescape(raw)),
            _ => Err(err(format!("field '{key}' is not a string"))),
        }
    }

    pub(crate) fn bool(&mut self, key: &'static str) -> Result<bool, ParseError> {
        match self.take(key)?.0 {
            Raw::Bool(b) => Ok(b),
            _ => Err(err(format!("field '{key}' is not a boolean"))),
        }
    }

    /// The field's value as a JSON tree (for opaque payloads).
    pub(crate) fn value(&mut self, key: &'static str) -> Result<serde::Value, ParseError> {
        let (_, text) = self.take(key)?;
        serde_json::from_str(text).map_err(|e| err(e.to_string()))
    }

    fn array(&mut self, key: &'static str) -> Result<Items<'a>, ParseError> {
        match self.take(key)?.0 {
            Raw::Arr(text) => Ok(Items::of(text)),
            _ => Err(err(format!("field '{key}' is not an array"))),
        }
    }

    pub(crate) fn u32_array(&mut self, key: &'static str) -> Result<Vec<u32>, ParseError> {
        self.array(key)?
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| err(format!("field '{key}' has a non-u32 element")))
            })
            .collect()
    }

    pub(crate) fn opt_u64_array(
        &mut self,
        key: &'static str,
    ) -> Result<Vec<Option<u64>>, ParseError> {
        self.array(key)?
            .map(|v| match v {
                Raw::Null => Ok(None),
                v => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| err(format!("field '{key}' has a non-u64 element"))),
            })
            .collect()
    }

    /// Rejects, in line order, the first member that was never taken
    /// (an unknown field) or that repeats a taken key (a duplicate).
    pub(crate) fn finish(self) -> Result<(), ParseError> {
        let taken = self.taken.get(..self.n_taken).unwrap_or_default();
        let mut seen = [false; MAX_FIELDS];
        for Member { key: k, .. } in self.members() {
            let slot = taken
                .iter()
                .position(|t| key_is(k, t))
                .and_then(|i| seen.get_mut(i));
            match slot {
                Some(seen) if !*seen => *seen = true,
                Some(_) => return Err(err(format!("duplicate field '{}'", unescape(k)))),
                None => return Err(err(format!("unknown field '{}'", unescape(k)))),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_numbers_reject_what_the_fallback_must_read() {
        let num = |s: &str| Canon { text: s, pos: 0 }.num();
        assert_eq!(num("0,"), Some(0));
        assert_eq!(num("18446744073709551615}"), Some(u64::MAX));
        assert_eq!(num("18446744073709551616"), None);
        assert_eq!(num("07"), None);
        assert_eq!(num("-1"), None);
        assert_eq!(num(""), None);
        let int = |s: &str| Canon { text: s, pos: 0 }.i64_at(b"");
        assert_eq!(int("-2"), Some(-2));
        assert_eq!(int("-0"), None);
    }

    #[test]
    fn numbers_classify_like_the_json_tree() {
        assert_eq!(Num::of("-0").and_then(Num::as_u64), Some(0));
        assert_eq!(Num::of("007").and_then(Num::as_u64), Some(7));
        assert_eq!(Num::of("-5").and_then(Num::as_i64), Some(-5));
        assert!(Num::of("1.0").is_some_and(|n| n.as_u64().is_none()));
        assert!(Num::of("1e3").is_some_and(|n| n.as_i64().is_none()));
        assert!(Num::of("18446744073709551616").is_some_and(|n| n.as_u64().is_none()));
        assert!(Num::of("-").is_none());
        assert!(Num::of("1-2").is_none());
    }

    #[test]
    fn escaped_keys_match_without_allocating() {
        assert!(key_is("p\\u006bt", "pkt"));
        assert!(key_is("pkt", "pkt"));
        assert!(!key_is("p\\u006bt", "pkx"));
        assert_eq!(unescape("a\\n\\\"b"), "a\n\"b");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("{{\"x\":{}{}}}", "[".repeat(100_000), "]".repeat(100_000));
        let e = Object::parse(&deep).err().expect("too deep");
        assert!(e.msg.contains("nesting deeper"), "{e}");
    }
}
