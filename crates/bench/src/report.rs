//! Structured experiment reports.
//!
//! Every experiment produces an [`ExperimentReport`]: the rendered prose, a
//! machine-readable `metrics` value, the simulated-cycle count behind it,
//! and the verdicts of its claims ([`crate::claims`]). A report is exactly
//! what gets committed under `results/`, so it holds nothing read from the
//! host clock: every byte of [`ExperimentReport::artifacts`] is identical
//! run to run, for any `--jobs` and under either simulated clock. Host time
//! is the harness's business ([`crate::harness::SuiteRun::wall_ms`]) and
//! `benchmark/`'s.
//!
//! The workspace builds offline (no serde), so [`Json`] is a minimal
//! order-preserving JSON value with a deterministic renderer. A result
//! table is a list of [`Row`]s: each line is written once, and both its
//! JSON object and its text cells come from that one write.

use crate::claims::{self, Verdict};
use core::fmt::{Display, Write};

/// A JSON value. Object keys keep insertion order so rendered output is
/// stable across runs and job counts.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::set`] chaining.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key`, preserving first-insertion order.
    /// Panics if `self` is not an object — that is a programming error.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        let Json::Obj(entries) = self else {
            panic!("Json::put on a non-object");
        };
        let key = key.into();
        let value = value.into();
        if let Some(e) = entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            entries.push((key, value));
        }
    }

    /// Builder-style [`Json::put`].
    pub fn set(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        self.put(key, value);
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at `key`; panics naming the key when it is missing.
    pub fn field(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("no key \"{key}\" in {}", self.render()))
    }

    /// The unsigned integer at `key`. Panics, naming the key, when it is
    /// missing or holds another type.
    pub fn u64(&self, key: &str) -> u64 {
        match self.field(key) {
            Json::U64(n) => *n,
            v => panic!("\"{key}\" is {}, not a u64", v.render()),
        }
    }

    /// The float at `key`. Panics, naming the key, when it is missing or
    /// holds another type.
    pub fn f64(&self, key: &str) -> f64 {
        match self.field(key) {
            Json::F64(x) => *x,
            v => panic!("\"{key}\" is {}, not an f64", v.render()),
        }
    }

    /// The number at `key` as an `f64`, whatever its JSON type; a boolean
    /// reads 1 or 0. Panics, naming the key, when it is missing or not a
    /// number.
    pub fn num(&self, key: &str) -> f64 {
        match self.field(key) {
            Json::U64(n) => *n as f64,
            Json::I64(n) => *n as f64,
            Json::F64(x) => *x,
            Json::Bool(b) => f64::from(u8::from(*b)),
            v => panic!("\"{key}\" is {}, not a number", v.render()),
        }
    }

    /// The boolean at `key`. Panics, naming the key, when it is missing or
    /// holds another type.
    pub fn bool(&self, key: &str) -> bool {
        match self.field(key) {
            Json::Bool(b) => *b,
            v => panic!("\"{key}\" is {}, not a bool", v.render()),
        }
    }

    /// The array at `key`. Panics, naming the key, when it is missing or
    /// holds another type.
    pub fn arr(&self, key: &str) -> &[Json] {
        match self.field(key) {
            Json::Arr(items) => items,
            v => panic!("\"{key}\" is {}, not an array", v.render()),
        }
    }

    /// Renders compactly (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Renders with two-space indentation, deterministically.
    pub fn render_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn write(&self, s: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(s, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(s, "{n}");
            }
            Json::F64(x) => write_f64(s, *x),
            Json::Str(v) => write_escaped(s, v),
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    newline_indent(s, indent, depth + 1);
                    item.write(s, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(s, indent, depth);
                }
                s.push(']');
            }
            Json::Obj(entries) => {
                s.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    newline_indent(s, indent, depth + 1);
                    write_escaped(s, k);
                    s.push(':');
                    if indent.is_some() {
                        s.push(' ');
                    }
                    v.write(s, indent, depth + 1);
                }
                if !entries.is_empty() {
                    newline_indent(s, indent, depth);
                }
                s.push('}');
            }
        }
    }
}

fn newline_indent(s: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        s.push('\n');
        for _ in 0..w * depth {
            s.push(' ');
        }
    }
}

/// JSON has no NaN/Inf; map them to null. Finite floats use Rust's
/// shortest-round-trip `Display`, which is deterministic.
fn write_f64(s: &mut String, x: f64) {
    if !x.is_finite() {
        s.push_str("null");
        return;
    }
    let start = s.len();
    let _ = write!(s, "{x}");
    // `1.0` renders as `1`; keep it a JSON number either way (fine), but
    // make integral floats unambiguous for round-tripping tools.
    if !s[start..].contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
}

fn write_escaped(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// One experiment's structured result.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Short identifier, `"E1"` .. `"E19"`.
    pub id: &'static str,
    /// One-line human title.
    pub title: &'static str,
    /// Total simulated cycles driven by the experiment (0 when the
    /// experiment is analytic and drives no clock).
    pub sim_cycles: u64,
    /// Headline metrics, machine-readable.
    pub metrics: Json,
    /// Every claim of this experiment, evaluated on `metrics`.
    pub claims: Vec<Verdict>,
    /// The human-readable report, ending with its `Claims:` block.
    pub rendered: String,
}

impl ExperimentReport {
    /// A report from its five parts. Evaluates the experiment's claims on
    /// `metrics` and appends their `Claims:` block to the text (none when
    /// the experiment has no claim).
    pub fn new(
        id: &'static str,
        title: &'static str,
        sim_cycles: u64,
        metrics: Json,
        mut rendered: String,
    ) -> ExperimentReport {
        let claims = claims::evaluate_all(id, &metrics);
        if !claims.is_empty() {
            rendered = format!("{}\n\n{}", rendered.trim_end(), claims::block(&claims));
        }
        ExperimentReport {
            id,
            title,
            sim_cycles,
            metrics,
            claims,
            rendered,
        }
    }

    /// Per-experiment result file contents (`results/<slug>.json`).
    pub fn to_json(&self) -> String {
        Json::obj()
            .set("experiment", self.id)
            .set("title", self.title)
            .set("sim_cycles", self.sim_cycles)
            .set("metrics", self.metrics.clone())
            .set(
                "claims",
                Json::Arr(self.claims.iter().map(Verdict::to_json).collect()),
            )
            .render_pretty()
    }

    /// The two files a full run commits as `results/<slug>.<ext>`, as
    /// (extension, contents). The det-checks and the `results/` test
    /// compare these very bytes.
    pub fn artifacts(&self) -> [(&'static str, String); 2] {
        [("json", self.to_json()), ("txt", self.rendered.clone())]
    }
}

/// One line of a result table, written once where its values are
/// measured: the JSON object `results/<slug>.json` commits for it and the
/// cells of its line in the `.txt` table.
///
/// Every cell is a value of the record: each writer that adds a cell puts
/// its value under a key in the same call, and a formatted cell is printed
/// from the measured value, not from the rounded one the JSON keeps.
/// [`Row::both`] writes a value both files show the same way, [`Row::fixed`]
/// a number to a fixed count of decimals, [`Row::times`] a factor,
/// [`Row::pct`] a ratio as a percent, [`Row::pair`] two values in one cell,
/// [`Row::cell`] a value with a cell of its own form, and [`Row::json`] a
/// value only the JSON holds.
/// JSON keys and table columns each keep call order.
///
/// # Examples
///
/// ```
/// use apiary_bench::report::{rows_json, table, Row};
///
/// let rows = [Row::new()
///     .both("boards", "boards", 8u64)
///     .pct("retention", "retention", 0.97314)];
/// assert_eq!(rows_json(&rows).render(), r#"[{"boards":8,"retention":0.9731}]"#);
/// assert!(table(&rows).contains("| 8      | 97.3%     |"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    record: Json,
    headers: Vec<&'static str>,
    cells: Vec<String>,
}

impl Default for Row {
    fn default() -> Row {
        Row::new()
    }
}

impl Row {
    /// A row with no values yet.
    pub fn new() -> Row {
        Row {
            record: Json::obj(),
            headers: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Writes `v` under `key` in the JSON and, displayed, under `header`
    /// in the table: a label, a count, a flag.
    pub fn both(self, key: &str, header: &'static str, v: impl Into<Json> + Display) -> Row {
        let cell = v.to_string();
        self.cell(key, header, v, cell)
    }

    /// Writes `v` rounded to `places` decimals under `key`, and printed
    /// with as many under `header`.
    pub fn fixed(self, key: &str, header: &'static str, v: f64, places: usize) -> Row {
        self.cell(key, header, round(v, places), format!("{v:.places$}"))
    }

    /// Writes a factor rounded to 2 decimals under `key`, and as `1.23x`
    /// under `header`.
    pub fn times(self, key: &str, header: &'static str, v: f64) -> Row {
        self.cell(key, header, round(v, 2), format!("{v:.2}x"))
    }

    /// Writes a ratio rounded to 4 decimals under `key` (how retentions are
    /// recorded), and as a percent with one decimal under `header`.
    pub fn pct(self, key: &str, header: &'static str, ratio: f64) -> Row {
        let cell = format!("{:.1}%", ratio * 100.0);
        self.cell(key, header, round4(ratio), cell)
    }

    /// Writes `a` and `b` under their keys, and `a/b` under `header`.
    pub fn pair(self, [ka, kb]: [&str; 2], header: &'static str, [a, b]: [u64; 2]) -> Row {
        self.json(ka, a).cell(kb, header, b, format!("{a}/{b}"))
    }

    /// Writes `v` under `key` in the JSON and `cell`, a form of it no other
    /// writer prints (`3,780,000`, `+2`, `16 KiB`), under `header`.
    pub fn cell(
        mut self,
        key: &str,
        header: &'static str,
        v: impl Into<Json>,
        cell: impl Display,
    ) -> Row {
        self.headers.push(header);
        self.cells.push(cell.to_string());
        self.json(key, v)
    }

    /// Writes `v` under `key` in the JSON only.
    pub fn json(mut self, key: &str, v: impl Into<Json>) -> Row {
        self.record.put(key, v);
        self
    }

    /// The JSON object this row commits: what tests read back.
    pub fn record(&self) -> &Json {
        &self.record
    }
}

/// Renders rows as an aligned text table headed by the first row's
/// headers, each column as wide as its widest cell.
///
/// # Panics
///
/// Panics on no rows, and on a row whose headers differ from the first
/// row's, naming the first header that differs.
pub fn table<'a>(rows: impl IntoIterator<Item = &'a Row>) -> String {
    let rows: Vec<&Row> = rows.into_iter().collect();
    let headers = &rows.first().expect("a table has at least one row").headers;
    for row in &rows {
        if row.headers != *headers {
            let i = (0..)
                .find(|&i| row.headers.get(i) != headers.get(i))
                .expect("the headers differ somewhere");
            let column = |h: &[&'static str]| h.get(i).copied().unwrap_or("<none>");
            panic!(
                "column {i} of a row is headed \"{}\", the table's \"{}\"",
                column(&row.headers),
                column(headers)
            );
        }
    }
    let width: Vec<usize> = (0..headers.len())
        .map(|i| {
            rows.iter()
                .map(|r| r.cells[i].len())
                .fold(headers[i].len(), usize::max)
        })
        .collect();
    let mut out = line(headers, &width);
    for w in &width {
        let _ = write!(out, "|{:-<1$}", "", w + 2);
    }
    out.push_str("|\n");
    for row in &rows {
        out.push_str(&line(&row.cells, &width));
    }
    out
}

/// One line of a table: each cell padded to its column's width.
fn line(cells: &[impl AsRef<str>], width: &[usize]) -> String {
    let mut s = String::new();
    for (c, w) in cells.iter().zip(width) {
        let _ = write!(s, "| {:<w$} ", c.as_ref());
    }
    s + "|\n"
}

/// The rows' JSON objects as one array, in order.
pub fn rows_json<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Json {
    Json::Arr(rows.into_iter().map(|r| r.record.clone()).collect())
}

/// Where two artifacts first differ, ready to print: the 1-based line
/// number, then `a`'s line and `b`'s (`<end>` past a side's last line).
/// `None` when they are byte-identical.
pub fn first_difference(a: &str, b: &str) -> Option<String> {
    let (mut a, mut b) = (a.split('\n'), b.split('\n'));
    (1..).find_map(|n| match (a.next(), b.next()) {
        (None, None) => Some(None),
        (x, y) if x == y => None,
        (x, y) => {
            let (x, y) = (x.unwrap_or("<end>"), y.unwrap_or("<end>"));
            Some(Some(format!("line {n}:\n  - {x}\n  + {y}")))
        }
    })?
}

/// Rounds to `places` decimals, as a cell printed with that many shows it.
pub fn round(x: f64, places: usize) -> f64 {
    let scale = 10f64.powi(places as i32);
    (x * scale).round() / scale
}

/// Rounds to 4 decimals: how goodput retentions are recorded.
pub fn round4(x: f64) -> f64 {
    round(x, 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(42u64).render(), "42");
        assert_eq!(Json::from(-7i64).render(), "-7");
        assert_eq!(Json::from(1.5).render(), "1.5");
        assert_eq!(Json::from(2.0).render(), "2.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::from("a\"b\nc").render(), "\"a\\\"b\\nc\"");
    }

    #[test]
    fn object_preserves_insertion_order_and_replaces() {
        let mut o = Json::obj().set("b", 1u64).set("a", 2u64);
        o.put("b", 3u64);
        assert_eq!(o.render(), "{\"b\":3,\"a\":2}");
        assert_eq!(o.get("a"), Some(&Json::U64(2)));
    }

    #[test]
    fn arrays_and_nesting() {
        let v = Json::obj()
            .set("xs", vec![1u64, 2, 3])
            .set("inner", Json::obj().set("ok", true));
        assert_eq!(v.render(), "{\"xs\":[1,2,3],\"inner\":{\"ok\":true}}");
        let pretty = v.render_pretty();
        assert!(pretty.contains("  \"xs\": [\n    1,"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn report_json_is_the_five_deterministic_fields() {
        let r = ExperimentReport::new(
            "E0",
            "test",
            1000,
            Json::obj().set("k", 1u64),
            "body".into(),
        );
        let j = r.to_json();
        assert_eq!(
            j,
            "{\n  \"experiment\": \"E0\",\n  \"title\": \"test\",\n  \
             \"sim_cycles\": 1000,\n  \"metrics\": {\n    \"k\": 1\n  },\n  \
             \"claims\": []\n}\n"
        );
        assert_eq!(r.artifacts(), [("json", j), ("txt", "body".to_string())]);
    }

    #[test]
    fn table_pads_each_column_to_its_widest_cell() {
        let rows = [
            Row::new()
                .both("n", "nodes", 4u64)
                .fixed("util", "util", 0.5, 3),
            Row::new()
                .both("n", "nodes", 64u64)
                .fixed("util", "util", 0.125, 3),
        ];
        assert_eq!(
            table(&rows),
            "| nodes | util  |\n\
             |-------|-------|\n\
             | 4     | 0.500 |\n\
             | 64    | 0.125 |\n"
        );
    }

    #[test]
    fn a_formatted_cell_is_printed_from_the_measured_value() {
        // E16's no-recovery retention: the JSON keeps 0.2655, which would
        // print as 26.6%; the cell prints the measurement, 26.5%.
        let row = Row::new().pct("retention", "retention", 0.26549);
        assert_eq!(row.record().render(), r#"{"retention":0.2655}"#);
        assert_eq!(row.cells, ["26.5%"]);
        let row = Row::new()
            .fixed("goodput", "goodput", 2.25049, 3)
            .times("speedup", "speedup", 1.99501);
        assert_eq!(row.record().render(), r#"{"goodput":2.25,"speedup":2.0}"#);
        assert_eq!(row.cells, ["2.250", "2.00x"]);
    }

    #[test]
    fn keys_and_columns_keep_call_order_and_both_writes_one_of_each() {
        let row = Row::new()
            .json("z", 1u64)
            .both("policy", "policy", "supervisor")
            .pct("a", "retention", 0.972)
            .pair(["ok", "sent"], "ok/sent", [3, 4])
            .cell("kib", "waste", 2048u64, "2 KiB");
        assert_eq!(
            row.record().render(),
            r#"{"z":1,"policy":"supervisor","a":0.972,"ok":3,"sent":4,"kib":2048}"#
        );
        assert_eq!(row.headers, ["policy", "retention", "ok/sent", "waste"]);
        assert_eq!(row.cells, ["supervisor", "97.2%", "3/4", "2 KiB"]);
        assert_eq!(rows_json([&row]), Json::Arr(vec![row.record().clone()]));
    }

    #[test]
    #[should_panic(expected = "column 1 of a row is headed \"p99\", the table's \"p50\"")]
    fn a_row_with_other_headers_panics_naming_the_header() {
        let rows = [
            Row::new().both("n", "n", 1u64).both("p50", "p50", 2u64),
            Row::new().both("n", "n", 1u64).both("p99", "p99", 2u64),
        ];
        table(&rows);
    }

    #[test]
    #[should_panic(expected = "no key \"kills\"")]
    fn a_missing_key_panics_naming_it() {
        Json::obj().set("incidents", 3u64).u64("kills");
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_difference("a\nb\nc", "a\nB\nc").as_deref(),
            Some("line 2:\n  - b\n  + B")
        );
        // A missing final newline is a difference too.
        assert_eq!(
            first_difference("a\n", "a").as_deref(),
            Some("line 2:\n  - \n  + <end>")
        );
        assert_eq!(
            first_difference("", "x").as_deref(),
            Some("line 1:\n  - \n  + x")
        );
    }
}
