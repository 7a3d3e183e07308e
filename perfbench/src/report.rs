//! Hand-rolled JSON output (the workspace carries no serializer).

use std::fmt::Write as _;

/// A JSON object under construction, keys in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: every digit Rust's shortest round-trip form keeps;
/// non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Json {
    pub fn obj() -> Self {
        Json::default()
    }

    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, number(v))
    }

    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, escape(v))
    }

    pub fn bool(self, key: &str, v: bool) -> Self {
        self.raw(key, v.to_string())
    }

    pub fn obj_field(self, key: &str, v: Json) -> Self {
        self.raw(key, v.render())
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", escape(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// The result object: the last line a run prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut m = Json::obj();
    for x in metrics {
        m = m.obj_field(
            &x.name,
            Json::obj().num("value", x.value).str("unit", x.unit),
        );
    }
    Json::obj()
        .bool("correct", correct)
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .obj_field("metrics", m)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("latency_ms", "ms", 1.25),
                Metric::new("x", "s", f64::NAN),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"x\":{\"value\":null,\"unit\":\"s\"}}}"
        );
        assert_eq!(
            Json::obj().str("k", "a\"b\n").render(),
            "{\"k\":\"a\\\"b\\u000a\"}"
        );
    }
}
