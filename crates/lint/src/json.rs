//! The one JSON writer: a value tree and its pretty-printer.
//!
//! The build environment has no serde. Every JSON document this workspace
//! prints (lint reports, `cjq-check --json`) is built as a [`Json`] value and
//! rendered here, so escaping, nesting, comma and indent placement exist once.

use std::fmt::Write as _;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (every number this workspace reports).
    Int(u128),
    /// A string, escaped on rendering.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered `(key, value)` pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from anything convertible to values.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// Pretty-prints the value with two-space indentation and no trailing
    /// newline. Objects and arrays holding an object or array take one line
    /// per member; arrays of scalars stay on one line (`["a", "b"]`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Array(_) | Json::Object(_))
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                out.push('"');
                esc_into(out, s);
                out.push('"');
            }
            Json::Array(items) if items.iter().all(Json::is_scalar) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, depth);
                }
                out.push(']');
            }
            Json::Array(items) => {
                write_members(out, depth, ('[', ']'), items, |out, item| {
                    item.write(out, depth + 1);
                });
            }
            Json::Object(pairs) => {
                write_members(out, depth, ('{', '}'), pairs, |out, (key, value)| {
                    out.push('"');
                    esc_into(out, key);
                    out.push_str("\": ");
                    value.write(out, depth + 1);
                });
            }
        }
    }
}

/// One member per line between `brackets`, indented one level below `depth`.
fn write_members<T>(
    out: &mut String,
    depth: usize,
    brackets: (char, char),
    members: &[T],
    mut write: impl FnMut(&mut String, &T),
) {
    out.push(brackets.0);
    for (i, member) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        write(out, member);
    }
    if !members.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets.1);
}

/// Appends `s` escaped for a JSON string literal (quotes not included).
fn esc_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(u128::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u128)
    }
}

impl From<u128> for Json {
    fn from(n: u128) -> Json {
        Json::Int(n)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(Json::from("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::from("x").render(), "\"x\"");
    }

    #[test]
    fn scalar_arrays_stay_on_one_line() {
        assert_eq!(Json::array(["a", "b\""]).render(), "[\"a\", \"b\\\"\"]");
        assert_eq!(Json::array([1u64, 2]).render(), "[1, 2]");
        assert_eq!(Json::Array(Vec::new()).render(), "[]");
    }

    #[test]
    fn nesting_indents_and_places_commas() {
        let doc = Json::object([
            ("safe", Json::from(true)),
            ("budget", Json::from(None::<u64>)),
            (
                "items",
                Json::Array(vec![Json::object([("n", Json::from(1u64))])]),
            ),
            ("empty", Json::object::<&str>([])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"safe\": true,\n  \"budget\": null,\n  \"items\": [\n    {\n      \
             \"n\": 1\n    }\n  ],\n  \"empty\": {}\n}"
        );
    }
}
