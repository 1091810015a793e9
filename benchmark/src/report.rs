//! One workload's result: the metrics by name, the output checks, the
//! operation counts, where it came from — printed for people, written as
//! JSON for the parent process and for later comparison.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Json;

use crate::json::{self, object};
use crate::stats::{quartiles, Quartiles};

/// Where result files go: `benchmark/out/` of the checkout this binary was
/// built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Quartiles over windows, for wall-clock metrics taken per window.
    pub over_windows: Option<Quartiles>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            over_windows: None,
        }
    }

    /// A wall-clock time per window: the value is the lower quartile,
    /// because interference only ever adds time.
    pub fn lower_quartile(name: &str, samples: &[f64], unit: &str) -> Metric {
        let q = quartiles(samples);
        Metric {
            over_windows: Some(q),
            ..Metric::new(name, q.lo, unit)
        }
    }

    /// A wall-clock rate per window: the upper quartile, for the same
    /// reason.
    pub fn upper_quartile(name: &str, samples: &[f64], unit: &str) -> Metric {
        let q = quartiles(samples);
        Metric {
            over_windows: Some(q),
            ..Metric::new(name, q.hi, unit)
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::Float(self.value)),
            ("unit".to_string(), Json::Str(self.unit.clone())),
        ];
        if let Some(q) = self.over_windows {
            fields.push(("lower_quartile".to_string(), Json::Float(q.lo)));
            fields.push(("median".to_string(), Json::Float(q.med)));
            fields.push(("upper_quartile".to_string(), Json::Float(q.hi)));
            fields.push(("samples".to_string(), Json::UInt(q.n as u64)));
        }
        Json::Object(fields)
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Detail {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub nodes: usize,
    pub windows: usize,
    /// How many times set-up ran; `setup_s` is their median.
    pub setups: usize,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
}

impl Detail {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn to_json(&self) -> Json {
        object([
            ("provenance", provenance(self)),
            ("workload", Json::Str(self.workload.clone())),
            ("traced", Json::Bool(self.traced)),
            ("nodes", Json::UInt(self.nodes as u64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "checks",
                Json::Array(
                    self.checks
                        .iter()
                        .map(|c| {
                            object([
                                ("name", Json::Str(c.name.clone())),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and the `(name, unit)` metrics in `wanted`, each with value and unit.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> String {
        let metrics = wanted
            .iter()
            .map(|(name, unit)| {
                let value = self.metric(name).map_or(0.0, |m| m.value);
                (
                    name.to_string(),
                    object([
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("the vendored writer cannot fail")
    }

    /// Every metric by name with its unit, then the checks.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} nodes, {} windows{}{})",
            self.workload,
            self.seed,
            self.nodes,
            self.windows,
            if self.traced { ", traced" } else { "" },
            if self.smoke { ", smoke" } else { "" },
        );
        for m in &self.metrics {
            match m.over_windows {
                Some(q) => println!(
                    "  {:<32} {:>14.4} {:<6} (quartiles {:.4} / {:.4} / {:.4} over {} samples)",
                    m.name, m.value, m.unit, q.lo, q.med, q.hi, q.n
                ),
                None => println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
        println!(
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for c in &self.checks {
            println!(
                "  check {:<28} {} ({})",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
    }

    pub fn file_name(workload: &str, traced: bool) -> String {
        format!(
            "{workload}.{}.json",
            if traced { "traced" } else { "untraced" }
        )
    }

    pub fn write(&self) -> std::io::Result<()> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let text = serde_json::to_string_pretty(&self.to_json()).expect("writer cannot fail");
        std::fs::write(
            dir.join(Detail::file_name(&self.workload, self.traced)),
            text,
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where a result came from. A checkout without git history (a source
/// archive) records the revision as unknown.
fn provenance(detail: &Detail) -> Json {
    let dir = env!("CARGO_MANIFEST_DIR");
    let revision = command_line("git", &["-C", dir, "rev-parse", "HEAD"]);
    let dirty = command_line("git", &["-C", dir, "status", "--porcelain"]).map(|s| !s.is_empty());
    object([
        (
            "git_revision",
            Json::Str(revision.unwrap_or_else(|| "unknown".to_string())),
        ),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "rustc",
            Json::Str(
                command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("seed", Json::UInt(detail.seed)),
        ("smoke", Json::Bool(detail.smoke)),
        ("windows", Json::UInt(detail.windows as u64)),
        ("setups", Json::UInt(detail.setups as u64)),
    ])
}

/// Reads a result file back: `(correct, attempted, failed, name → value)`.
pub struct Loaded {
    pub doc: Json,
    pub correct: bool,
    pub values: Vec<(String, f64)>,
}

pub fn load(workload: &str, traced: bool) -> Result<Loaded, String> {
    let path = out_dir().join(Detail::file_name(workload, traced));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let correct = matches!(json::get(&doc, "correct"), Some(Json::Bool(true)));
    let values = match json::get(&doc, "metrics") {
        Some(Json::Object(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), json::as_f64(json::get(m, "value")?)?)))
            .collect(),
        _ => return Err(format!("{}: no metrics", path.display())),
    };
    Ok(Loaded {
        doc,
        correct,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut d = Detail {
            workload: "w".to_string(),
            seed: 1,
            traced: false,
            smoke: true,
            nodes: 4,
            windows: 5,
            setups: 1,
            attempted: 10,
            failed: 0,
            checks: Vec::new(),
            metrics: vec![Metric::lower_quartile(
                "us_per_event",
                &[3.0, 1.0, 2.0],
                "us",
            )],
        };
        d.check("ring", true, "one cycle".to_string());
        let line = d.result_line(&[("us_per_event", "us"), ("absent", "s")]);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let Json::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = json::get(json::get(&doc, "metrics").unwrap(), "us_per_event").unwrap();
        assert_eq!(json::as_f64(json::get(m, "value").unwrap()), Some(1.5));
        assert_eq!(json::as_str(json::get(m, "unit").unwrap()), Some("us"));
        assert!(json::get(&d.to_json(), "provenance").is_some());
    }
}
