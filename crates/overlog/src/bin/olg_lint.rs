//! `olg_lint` — command-line front end for the OverLog validator and
//! whole-program analyzer.
//!
//! ```text
//! olg_lint [--json] [--deny-warnings] [--expect-fixtures] FILE.olg...
//! ```
//!
//! Each file is parsed, validated ([`p2_overlog::validate()`]), and — when
//! it validates — analyzed ([`p2_overlog::analyze()`]). Diagnostics print as
//! `file:line:col: severity[code]: message`, or as a JSON array with
//! `--json` for tooling.
//!
//! Exit status is non-zero when any file has an error; `--deny-warnings`
//! also rejects warnings (notes never reject), which is how CI gates the
//! shipped overlay programs.
//!
//! `--expect-fixtures` flips the polarity for the bad-program corpus: each
//! file must carry `expect-error:`/`expect-warning:` markers in comments,
//! and the lint passes only if every marker matches a produced diagnostic
//! of (at least) that severity. A fixture that comes up clean, or whose
//! markers go unmatched, fails the gate — so the corpus proves the
//! analyzer still rejects what it is supposed to reject.

use std::fmt::Write as _;
use std::process::ExitCode;

use p2_overlog::analyze::{analyze, Severity};
use p2_overlog::{parse_program, validate};

/// One rendered finding, normalized across parser/validator/analyzer.
struct Finding {
    severity: Severity,
    code: String,
    rule: Option<String>,
    line: usize,
    column: usize,
    message: String,
}

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut expect_fixtures = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--expect-fixtures" => expect_fixtures = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: olg_lint [--json] [--deny-warnings] [--expect-fixtures] FILE.olg..."
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("olg_lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("olg_lint: no input files");
        return ExitCode::from(2);
    }

    let mut failed = false;
    let mut json_entries: Vec<String> = Vec::new();
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("olg_lint: {file}: {e}");
                failed = true;
                continue;
            }
        };
        let findings = lint(&source);
        if expect_fixtures {
            match check_expectations(&source, &findings) {
                Ok(matched) => {
                    println!("olg_lint: {file}: rejected as expected ({matched} expectation(s))");
                }
                Err(msg) => {
                    eprintln!("olg_lint: {file}: FIXTURE FAILED: {msg}");
                    for f in &findings {
                        eprintln!("  produced: {}", render(file, f));
                    }
                    failed = true;
                }
            }
            continue;
        }

        let reject = findings.iter().any(|f| {
            f.severity == Severity::Error || (deny_warnings && f.severity == Severity::Warning)
        });
        failed |= reject;
        if json {
            for f in &findings {
                json_entries.push(render_json(file, f));
            }
        } else {
            for f in &findings {
                println!("{}", render(file, f));
            }
            if findings.is_empty() {
                println!("olg_lint: {file}: clean");
            }
        }
    }
    if json && !expect_fixtures {
        println!("[{}]", json_entries.join(","));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parse + validate + analyze one source, normalizing everything to
/// [`Finding`]s. Analyzer runs only on programs that validate: its results
/// assume a well-formed AST, and double-reporting (e.g. duplicate rule ids,
/// checked by both passes) would be noise.
fn lint(source: &str) -> Vec<Finding> {
    let program = match parse_program(source) {
        Ok(p) => p,
        Err(e) => {
            return vec![Finding {
                severity: Severity::Error,
                code: "parse".to_string(),
                rule: None,
                line: 0,
                column: 0,
                message: e.to_string(),
            }];
        }
    };
    if let Err(e) = validate(&program) {
        return e
            .issues
            .into_iter()
            .map(|i| Finding {
                severity: Severity::Error,
                code: "validate".to_string(),
                rule: i.rule.clone(),
                line: i.span.line,
                column: i.span.column,
                message: i.message,
            })
            .collect();
    }
    analyze(&program)
        .diagnostics
        .into_iter()
        .map(|d| Finding {
            severity: d.severity,
            code: d.code.to_string(),
            rule: d.rule,
            line: d.span.line,
            column: d.span.column,
            message: d.message,
        })
        .collect()
}

/// Scans fixture comments for `expect-error:`/`expect-warning:` markers and
/// checks each names a substring of some produced diagnostic of at least
/// that severity. Returns the number of matched expectations.
fn check_expectations(source: &str, findings: &[Finding]) -> Result<usize, String> {
    let mut expectations: Vec<(Severity, String)> = Vec::new();
    for line in source.lines() {
        for (marker, severity) in [
            ("expect-error:", Severity::Error),
            ("expect-warning:", Severity::Warning),
        ] {
            if let Some(pos) = line.find(marker) {
                let rest = line[pos + marker.len()..].trim();
                let needle = rest.strip_suffix("*/").unwrap_or(rest).trim().to_string();
                if !needle.is_empty() {
                    expectations.push((severity, needle));
                }
            }
        }
    }
    if expectations.is_empty() {
        return Err("fixture has no expect-error/expect-warning markers".to_string());
    }
    for (severity, needle) in &expectations {
        let matched = findings.iter().any(|f| {
            f.severity >= *severity
                && (f.message.contains(needle.as_str()) || f.code.contains(needle.as_str()))
        });
        if !matched {
            return Err(format!(
                "no {severity} diagnostic matching `{needle}` was produced"
            ));
        }
    }
    Ok(expectations.len())
}

fn render(file: &str, f: &Finding) -> String {
    let mut out = String::new();
    if f.line > 0 {
        let _ = write!(out, "{file}:{}:{}: ", f.line, f.column);
    } else {
        let _ = write!(out, "{file}: ");
    }
    let _ = write!(out, "{}[{}]: ", f.severity, f.code);
    if let Some(r) = &f.rule {
        let _ = write!(out, "rule {r}: ");
    }
    let _ = write!(out, "{}", f.message);
    out
}

fn render_json(file: &str, f: &Finding) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"file\":\"{}\"", escape(file));
    let _ = write!(out, ",\"severity\":\"{}\"", f.severity);
    let _ = write!(out, ",\"code\":\"{}\"", escape(&f.code));
    match &f.rule {
        Some(r) => {
            let _ = write!(out, ",\"rule\":\"{}\"", escape(r));
        }
        None => out.push_str(",\"rule\":null"),
    }
    let _ = write!(out, ",\"line\":{},\"column\":{}", f.line, f.column);
    let _ = write!(out, ",\"message\":\"{}\"", escape(&f.message));
    out.push('}');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
