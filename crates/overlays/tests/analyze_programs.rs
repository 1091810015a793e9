//! End-to-end front-end coverage for every shipped overlay program:
//! parse → validate → analyze, pinning each program's per-rule
//! [`RuleClass`] so a change in the delta-safety classification (which
//! buckets the profiler's wasted-poke report) shows up as a reviewable
//! diff, not a silent change.

use p2_overlog::analyze::{analyze, Analysis, Severity};
use p2_overlog::parse_program;

const CHORD: &str = include_str!("../programs/chord.olg");
const CHORD_JOIN_SEED: &str = include_str!("../programs/chord_join_seed.olg");
const NARADA: &str = include_str!("../programs/narada_mesh.olg");
const GOSSIP: &str = include_str!("../programs/gossip.olg");
const MONITOR: &str = include_str!("../programs/latency_monitor.olg");

/// Parses, validates, and analyzes one shipped program.
fn front_end(name: &str, source: &str) -> Analysis {
    let program = parse_program(source).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
    p2_overlog::validate(&program).unwrap_or_else(|e| panic!("{name}: validate: {e}"));
    let analysis = analyze(&program);
    // Shipped programs must be deployable: no analyzer errors, no warnings.
    for d in &analysis.diagnostics {
        assert!(
            d.severity < Severity::Warning,
            "{name}: unexpected {}: {d}",
            d.severity
        );
    }
    analysis
}

/// One line per rule: `id: class`.
fn class_summary(name: &str, source: &str) -> Vec<String> {
    let program = parse_program(source).unwrap();
    let analysis = front_end(name, source);
    program
        .rules
        .iter()
        .zip(&analysis.rule_classes)
        .map(|(r, c)| format!("{}: {}", r.id, c))
        .collect()
}

#[track_caller]
fn assert_classes(name: &str, source: &str, expected: &[&str]) {
    let got = class_summary(name, source);
    assert_eq!(
        got,
        expected,
        "{name}: RuleClass summary drifted:\n{}",
        got.join("\n")
    );
}

#[test]
fn chord_notes_are_pinned() {
    let analysis = front_end("chord", CHORD);
    // Exactly two informational findings, both known-benign recursion:
    // the S1..S4 successor-eviction loop through the count aggregate
    // (bounded by the materialized succ/succCount tables) and F6's
    // guarded eagerFinger self-step.
    let notes: Vec<String> = analysis
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}", d.code, d.rule.as_deref().unwrap_or("?")))
        .collect();
    assert_eq!(
        notes,
        ["strat-guarded-recursion:F6", "strat-agg-soft-state:S1"],
        "{notes:?}"
    );
}

#[test]
fn fragment_has_no_actionable_findings() {
    // chord_join_seed.olg has no materialize statements: it is a fragment
    // merged into chord.olg, so undeclared-predicate findings demote to
    // notes and nothing may reach warning severity.
    front_end("chord_join_seed", CHORD_JOIN_SEED);
}

#[test]
fn narada_gossip_monitor_are_clean() {
    for (name, src) in [
        ("narada_mesh", NARADA),
        ("gossip", GOSSIP),
        ("latency_monitor", MONITOR),
    ] {
        let analysis = front_end(name, src);
        assert!(
            analysis.diagnostics.is_empty(),
            "{name}: {:?}",
            analysis.diagnostics
        );
    }
}

#[test]
fn chord_rule_classes() {
    assert_classes(
        "chord",
        CHORD,
        &[
            "L1: pure+monotone+refresh-transparent",
            "L2: pure",
            "L3: pure",
            "SU0: pure+monotone+refresh-transparent",
            "SU1: pure+refresh-transparent",
            "SU2: pure+monotone",
            "SU3: pure+monotone+refresh-transparent",
            "S1: pure+refresh-transparent",
            "S2: pure+monotone+refresh-transparent",
            "S3: pure+refresh-transparent",
            "S4: pure",
            "J2: pure+monotone+refresh-transparent",
            "J3: pure+monotone+refresh-transparent",
            "J4: pure+monotone+refresh-transparent",
            "J5: pure+monotone+refresh-transparent",
            "SB1: pure+monotone+refresh-transparent",
            "SB2: pure+monotone+refresh-transparent",
            "SB3: pure+monotone+refresh-transparent",
            "SB4: pure+monotone+refresh-transparent",
            "SB5: pure+monotone",
            "SB6: pure+monotone",
            "SB7: pure+monotone+refresh-transparent",
            "SB8: pure+monotone+refresh-transparent",
            "SB9: pure+monotone+refresh-transparent",
            "F1: pure+monotone+refresh-transparent",
            "F2: pure+monotone",
            "F3: pure+monotone+refresh-transparent",
            "F4: pure+monotone",
            "F5: pure+monotone+refresh-transparent",
            "F6: pure+monotone+refresh-transparent",
            "F7: pure",
            "F8: pure+monotone+refresh-transparent",
            "F9: pure+monotone+refresh-transparent",
            "CM1: pure+monotone+refresh-transparent",
            "CM2: pure+monotone",
            "CM3: pure+monotone+refresh-transparent",
            "CM4: deterministic+time-dependent+monotone",
            "CM5: pure+monotone+refresh-transparent",
            "CM6: deterministic+time-dependent+monotone",
            "CM7: pure+refresh-transparent",
            "CM8: pure+monotone",
            "CM9: pure+monotone+refresh-transparent",
            "FD2: deterministic+time-dependent+monotone",
            "FD3: pure",
            "FD4: pure+monotone+refresh-transparent",
        ],
    );
}

#[test]
fn chord_join_seed_rule_classes() {
    assert_classes(
        "chord_join_seed",
        CHORD_JOIN_SEED,
        &[
            "JS1: pure+monotone+refresh-transparent",
            "JS2: pure+monotone+refresh-transparent",
        ],
    );
}

#[test]
fn narada_rule_classes() {
    assert_classes(
        "narada_mesh",
        NARADA,
        &[
            "E1: pure+monotone+refresh-transparent",
            "M0: deterministic+time-dependent+monotone",
            "M1: deterministic+time-dependent+monotone",
            "R1: pure+monotone+refresh-transparent",
            "R2: pure+monotone+refresh-transparent",
            "R3: pure+monotone+refresh-transparent",
            "R4: pure+monotone",
            "R5: pure+refresh-transparent",
            "R6: deterministic+time-dependent+monotone",
            "R7: deterministic+time-dependent+monotone",
            "R8: pure+monotone+refresh-transparent",
            "R9: deterministic+time-dependent+monotone",
            "L1: pure+monotone+refresh-transparent",
            "L2: deterministic+time-dependent+monotone",
            "L3: pure+refresh-transparent",
            "L4: deterministic+time-dependent+monotone",
        ],
    );
}

#[test]
fn gossip_rule_classes() {
    assert_classes(
        "gossip",
        GOSSIP,
        &[
            "G1: pure+monotone+refresh-transparent",
            "G2: nondeterministic",
            "G3: pure+monotone",
        ],
    );
}

#[test]
fn monitor_rule_classes() {
    assert_classes(
        "latency_monitor",
        MONITOR,
        &[
            "P0: nondeterministic",
            "P1: deterministic+time-dependent+monotone",
            "P2: pure+monotone+refresh-transparent",
            "P3: deterministic+time-dependent+monotone",
        ],
    );
}

#[test]
fn shipped_rule_census() {
    // The acceptance bar for this analyzer: all 68 shipped rules flow
    // through it (Chord 45, Narada 16, monitor 4, gossip 3).
    let count = |src: &str| parse_program(src).unwrap().rules.len();
    assert_eq!(count(CHORD), 45);
    assert_eq!(count(NARADA), 16);
    assert_eq!(count(MONITOR), 4);
    assert_eq!(count(GOSSIP), 3);
}
