//! Text and JSON rendering of [`LintReport`]s.
//!
//! Text follows the familiar `severity[CODE]: message` compiler-diagnostic
//! shape with indented `= `-prefixed detail lines; JSON is a small fixed
//! schema built as a [`Json`] value (see [`crate::json`]).

use std::fmt::Write as _;

use crate::json::Json;
use crate::{LintReport, Severity};

pub(crate) fn text(report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(
            out,
            "{}[{}]: {} ({})",
            d.severity().as_str(),
            d.code.as_str(),
            d.message,
            d.code.name(),
        );
        for note in &d.notes {
            let _ = writeln!(out, "  = note: {note}");
        }
        if let Some(s) = &d.suggestion {
            let _ = writeln!(out, "  = fix: {}", s.summary);
            for line in &s.add {
                let _ = writeln!(out, "  = add: {line}");
            }
            for line in &s.remove {
                let _ = writeln!(out, "  = remove: {line}");
            }
        }
    }
    let _ = writeln!(
        out,
        "lint: {} — {} error(s), {} warning(s), {} suggestion(s), {} info(s)",
        if report.safe { "SAFE" } else { "UNSAFE" },
        report.error_count(),
        report.warning_count(),
        report.by_severity(Severity::Suggestion),
        report.info_count(),
    );
    out
}

pub(crate) fn json(report: &LintReport) -> Json {
    let diagnostics = report.diagnostics.iter().map(|d| {
        let mut fields = vec![
            ("code", Json::from(d.code.as_str())),
            ("name", Json::from(d.code.name())),
            ("severity", Json::from(d.severity().as_str())),
            ("message", Json::from(&d.message)),
            ("notes", Json::array(&d.notes)),
        ];
        if let Some(s) = &d.suggestion {
            let suggestion = Json::object([
                ("summary", Json::from(&s.summary)),
                ("add", Json::array(&s.add)),
                ("remove", Json::array(&s.remove)),
            ]);
            fields.push(("suggestion", suggestion));
        }
        Json::object(fields)
    });
    Json::object([
        ("safe", Json::from(report.safe)),
        ("errors", Json::from(report.error_count())),
        ("warnings", Json::from(report.warning_count())),
        ("infos", Json::from(report.info_count())),
        ("diagnostics", Json::Array(diagnostics.collect())),
    ])
}
