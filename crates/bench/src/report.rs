//! Structured experiment reports.
//!
//! Every experiment produces an [`ExperimentReport`]: the rendered prose, a
//! machine-readable `metrics` value, and the simulated-cycle count behind
//! it. A report is exactly what gets committed under `results/`, so it
//! holds nothing read from the host clock: every byte of
//! [`ExperimentReport::artifacts`] is identical run to run, for any
//! `--jobs` and under either simulated clock. Host time is the harness's
//! business ([`crate::harness::SuiteRun::wall_ms`]) and `benchmark/`'s.
//!
//! The workspace builds offline (no serde), so [`Json`] is a minimal
//! order-preserving JSON value with a deterministic renderer.

use core::fmt::Write;

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
    /// The human-readable report.
    pub rendered: String,
}

impl ExperimentReport {
    /// A report from its five parts.
    pub fn new(
        id: &'static str,
        title: &'static str,
        sim_cycles: u64,
        metrics: Json,
        rendered: String,
    ) -> ExperimentReport {
        ExperimentReport {
            id,
            title,
            sim_cycles,
            metrics,
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
            .render_pretty()
    }

    /// The two files a full run commits as `results/<slug>.<ext>`, as
    /// (extension, contents). The det-checks and the `results/` test
    /// compare these very bytes.
    pub fn artifacts(&self) -> [(&'static str, String); 2] {
        [("json", self.to_json()), ("txt", self.rendered.clone())]
    }
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

/// Rounds to 3 decimals so a derived ratio doesn't print 17 digits.
pub fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
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
    fn report_json_is_the_four_deterministic_fields() {
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
             \"sim_cycles\": 1000,\n  \"metrics\": {\n    \"k\": 1\n  }\n}\n"
        );
        assert_eq!(r.artifacts(), [("json", j), ("txt", "body".to_string())]);
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
