//! The full Chord DHT overlay (Appendix B of the paper).

use std::sync::{Arc, OnceLock};

use p2_core::{P2Node, PlanConfig, PlanError, PlannedProgram};
use p2_overlog::{compile_checked, Program};
use p2_value::{Tuple, TupleBuilder, Uint160, Value};

use crate::host::P2Host;

/// The OverLog source text of the Chord specification.
pub const CHORD_OLG: &str = include_str!("../programs/chord.olg");

/// The optional join-time successor-seeding extension (rule JS1): a joiner
/// immediately requests its new successor's successor list through the
/// SB5/SB6 machinery instead of waiting for the first stabilization period.
pub const CHORD_JOIN_SEED_OLG: &str = include_str!("../programs/chord_join_seed.olg");

/// Parses and validates the Chord program (cached after the first call).
pub fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        compile_checked(CHORD_OLG).expect("the shipped Chord program must parse and validate")
    })
}

/// The Chord program extended with join-time successor-list seeding
/// ([`CHORD_JOIN_SEED_OLG`]). Kept separate from [`program`] so the base
/// specification stays at the paper's 45 rules and the golden determinism
/// pins stay valid; rings built with seeding opt in explicitly.
pub fn program_with_join_seed() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        compile_checked(&format!("{CHORD_OLG}\n{CHORD_JOIN_SEED_OLG}"))
            .expect("the join-seeded Chord program must parse and validate")
    })
}

/// Plan-variant selection for a Chord node: periodic jitter and the JS1
/// join-seeding program extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChordOpts {
    /// Whether periodic sources start at a random phase.
    pub jitter: bool,
    /// Whether the JS1/JS2 join-time successor-seeding rules are included.
    pub join_seed: bool,
}

impl Default for ChordOpts {
    fn default() -> ChordOpts {
        ChordOpts {
            jitter: true,
            join_seed: false,
        }
    }
}

impl ChordOpts {
    /// Number of boolean flags; the plan cache has one cell per combination.
    const FLAGS: usize = 2;

    fn cache_index(self) -> usize {
        let flags: [bool; Self::FLAGS] = [self.jitter, self.join_seed];
        flags
            .iter()
            .fold(0, |index, &flag| (index << 1) | usize::from(flag))
    }
}

/// The shared, node-independent plan of the Chord program with the standard
/// harness watches (`lookupResults`, `lookup`), compiled once per process
/// and per jitter mode. A thousand-node ring instantiates its engines from
/// this instead of re-planning the 45 rules per node.
pub fn shared_plan(jitter: bool) -> &'static PlannedProgram {
    shared_plan_opts(jitter, false)
}

/// Like [`shared_plan`], additionally selecting the join-seeded program
/// variant.
pub fn shared_plan_opts(jitter: bool, join_seed: bool) -> &'static PlannedProgram {
    shared_plan_for(ChordOpts { jitter, join_seed })
}

/// The fully variant-selected shared plan: one cached compilation per
/// (jitter, join_seed) combination.
pub fn shared_plan_for(opts: ChordOpts) -> &'static PlannedProgram {
    #[allow(clippy::declare_interior_mutable_const)]
    const PLAN_CELL: OnceLock<PlannedProgram> = OnceLock::new();
    static PLANS: [OnceLock<PlannedProgram>; 1 << ChordOpts::FLAGS] =
        [PLAN_CELL; 1 << ChordOpts::FLAGS];
    let cell = &PLANS[opts.cache_index()];
    cell.get_or_init(|| {
        let mut config = PlanConfig::new().watch("lookupResults").watch("lookup");
        if !opts.jitter {
            config = config.without_jitter();
        }
        let program = if opts.join_seed {
            program_with_join_seed()
        } else {
            program()
        };
        PlannedProgram::compile(program, &config).expect("the shipped Chord program must plan")
    })
}

/// Number of rules in the Chord specification (the paper's compactness
/// metric counts rules plus the two base-tuple clauses as "47 rules").
pub fn rule_count() -> usize {
    program().rule_count()
}

/// Number of base-fact clauses in the specification.
pub fn fact_count() -> usize {
    program().facts.len()
}

/// The 160-bit Chord identifier of a node address.
pub fn node_id(addr: &str) -> Uint160 {
    Uint160::hash_of(addr.as_bytes())
}

/// The 160-bit Chord identifier of an application key.
pub fn key_id(key: &str) -> Uint160 {
    Uint160::hash_of(key.as_bytes())
}

/// The per-node base facts: `node(NI, N)` and `landmark(NI, LI)`.
///
/// Pass `None` as the landmark for the bootstrap node (the specification's
/// `"-"` landmark), which then forms a one-node ring on joining.
pub fn base_facts(addr: &str, landmark: Option<&str>) -> Vec<Tuple> {
    vec![
        TupleBuilder::new("node")
            .push(addr)
            .push(Value::Id(node_id(addr)))
            .build(),
        TupleBuilder::new("landmark")
            .push(addr)
            .push(landmark.unwrap_or("-"))
            .build(),
    ]
}

/// The application event that makes a node join the ring.
pub fn join_tuple(addr: &str, event_id: i64) -> Tuple {
    TupleBuilder::new("join").push(addr).push(event_id).build()
}

/// A lookup request for `key`, issued at `at`, with results reported to
/// `requester`.
pub fn lookup_tuple(at: &str, key: Uint160, requester: &str, event_id: i64) -> Tuple {
    TupleBuilder::new("lookup")
        .push(at)
        .push(Value::Id(key))
        .push(requester)
        .push(event_id)
        .build()
}

/// The converged routing state of a Chord ring over `addrs`, computed from
/// the sorted identifier space: the tuples the specification's own rules
/// leave in each node's tables once the ring has stabilized. `emit`
/// receives them as `(address, tuple)` pairs, node by node in identifier
/// order. For the node at identifier `N` on an `n`-node ring:
///
/// * `succ(NI, S, SI)` for the `min(4, n)` nodes that follow `N` clockwise:
///   S2 evicts the farthest above four, and on a ring of four or fewer the
///   node closes its own list, as SB5–SB7 hand it back;
/// * `pred(NI, P, PI)` for the node that precedes `N`;
/// * `finger(NI, I, B, BI)` for every `I` in `0..160` whose F3 target
///   `N + 2^I` another node owns, plus the first `I` the node owns itself:
///   F4/F5 store that answer before F8 restarts the fix-finger cycle;
/// * `nextFingerFix(NI, I)` at one fix-finger group start (`I` = 0, or an
///   `I` whose owner differs from `I − 1`'s: where F9 resumes), drawn from
///   `seed` and the address so that nodes fix different groups in the same
///   F1 period.
///
/// `bestSucc`, `succCount` and `pingNode` are not emitted: SU0–SU2, S1
/// and CM2/CM3 derive them from the rows above. Every row shares one
/// `Value::Str` per address and one name per relation.
pub fn converged_ring(addrs: &[String], seed: u64, mut emit: impl FnMut(&str, Tuple)) {
    let n = addrs.len();
    let mut ring: Vec<(Uint160, usize)> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (node_id(a), i))
        .collect();
    ring.sort_unstable();
    let strs: Vec<Value> = addrs.iter().map(Value::str).collect();
    let [succ, pred, finger, next_fix]: [Arc<str>; 4] =
        ["succ", "pred", "finger", "nextFingerFix"].map(Arc::from);
    // The ring position that owns `key`: its clockwise successor.
    let owner = |key: Uint160| ring.partition_point(|&(id, _)| id < key) % n;
    // A row whose last two fields name the node at ring position `to`.
    let peer_row = |name: &Arc<str>, head: &[Value], to: usize| {
        let mut values = Vec::with_capacity(head.len() + 2);
        values.extend_from_slice(head);
        values.push(Value::Id(ring[to].0));
        values.push(strs[ring[to].1].clone());
        Tuple::new(name.clone(), values)
    };
    for (pos, &(id, i)) in ring.iter().enumerate() {
        let (addr, ni) = (addrs[i].as_str(), &strs[i]);
        let at_node = std::slice::from_ref(ni);
        for k in 1..=n.min(4) {
            emit(addr, peer_row(&succ, at_node, (pos + k) % n));
        }
        emit(addr, peer_row(&pred, at_node, (pos + n - 1) % n));
        let mut group_starts = Vec::new();
        let mut last_owner = None;
        for bit in 0..Uint160::BITS {
            let to = owner(Uint160::ONE.shl(bit).wrapping_add(id));
            if last_owner != Some(to) {
                group_starts.push(bit);
                last_owner = Some(to);
            }
            emit(
                addr,
                peer_row(&finger, &[ni.clone(), Value::Int(bit.into())], to),
            );
            if to == pos {
                break;
            }
        }
        let draw = Uint160::hash_of(format!("{seed}/{addr}").as_bytes()).low_u64();
        let start = group_starts[(draw % group_starts.len() as u64) as usize];
        let values = vec![ni.clone(), Value::Int(start.into())];
        emit(addr, Tuple::new(next_fix.clone(), values));
    }
}

/// Builds a ready-to-run Chord node wrapped for the network simulator.
///
/// The node watches `lookupResults` so the harness can observe completed
/// lookups arriving back at the requester. Nodes are stamped out from the
/// process-wide [`shared_plan`], so building the N-th node costs
/// instantiation only, never re-planning.
pub fn build_node(
    addr: &str,
    landmark: Option<&str>,
    seed: u64,
    jitter: bool,
) -> Result<P2Host, PlanError> {
    build_node_opts(addr, landmark, seed, jitter, false)
}

/// Like [`build_node`], additionally selecting join-time successor-list
/// seeding (the JS1 rule).
pub fn build_node_opts(
    addr: &str,
    landmark: Option<&str>,
    seed: u64,
    jitter: bool,
    join_seed: bool,
) -> Result<P2Host, PlanError> {
    build_node_for(addr, landmark, seed, ChordOpts { jitter, join_seed })
}

/// Builds a Chord node from the fully variant-selected shared plan.
pub fn build_node_for(
    addr: &str,
    landmark: Option<&str>,
    seed: u64,
    opts: ChordOpts,
) -> Result<P2Host, PlanError> {
    let node = P2Node::from_plan(
        shared_plan_for(opts),
        addr,
        seed,
        base_facts(addr, landmark),
    );
    Ok(P2Host::new(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn program_parses_and_validates() {
        let p = program();
        assert!(p.is_materialized("succ"));
        assert!(p.is_materialized("finger"));
        assert!(!p.is_materialized("lookup"));
        assert!(p.rule("L1").is_some());
        assert!(p.rule("CM9").is_some());
    }

    #[test]
    fn rule_count_matches_the_paper() {
        // The paper counts 47 OverLog "rules" for full Chord; two of those
        // are the base-tuple clauses F0 and SB0, which our parser classifies
        // as facts.
        assert_eq!(rule_count(), 45);
        assert_eq!(fact_count(), 2);
        assert_eq!(rule_count() + fact_count(), 47);
    }

    #[test]
    fn node_plans_successfully() {
        let host = build_node("n0:10000", None, 1, false).unwrap();
        let desc = host.node().graph_description();
        // L1 (a two-table join) and L2 (an aggregation over `finger`)
        // each compile to one strand.
        assert!(desc.contains("L1:strand"));
        assert!(desc.contains("L2:strand"));
        assert!(desc.contains("S1:tableagg:succ"));
        assert!(desc.contains("F1:periodic"));
        assert!(host.node().table("node").unwrap().len() == 1);
        assert!(host.node().table("landmark").unwrap().len() == 1);
        assert!(host.node().table("nextFingerFix").unwrap().len() == 1);
        assert!(host.node().table("pred").unwrap().len() == 1);
    }

    #[test]
    fn join_seed_variant_plans_and_keeps_the_base_program_intact() {
        // The seeded program carries exactly two extra rules; the base
        // program (and the paper's compactness count) is untouched.
        let seeded = program_with_join_seed();
        assert_eq!(seeded.rule_count(), rule_count() + 2);
        assert!(seeded.rule("JS1").is_some());
        assert!(seeded.rule("JS2").is_some());
        assert!(program().rule("JS1").is_none());

        let host = build_node_opts("n0:10000", None, 1, false, true).unwrap();
        let desc = host.node().graph_description();
        // JS1 is a rule like any other: one strand.
        assert!(desc.contains("JS1:strand"), "{desc}");
        // The two variants plan to distinct shared plans, cached per mode.
        assert!(!std::ptr::eq(
            shared_plan_opts(false, false),
            shared_plan_opts(false, true)
        ));
        assert!(std::ptr::eq(
            shared_plan(false),
            shared_plan_opts(false, false)
        ));
    }

    /// Element kinds per rule: every rule body is strands only.
    fn rule_kinds(plan: &PlannedProgram) -> Vec<(String, Vec<&'static str>)> {
        let mut by_rule: Vec<(String, Vec<&'static str>)> = Vec::new();
        for elem in &plan.obs_meta().elems {
            let Some(rule) = elem.rule.as_deref() else {
                continue;
            };
            match by_rule.iter_mut().find(|(r, _)| r == rule) {
                Some((_, kinds)) => kinds.push(elem.kind.as_str()),
                None => by_rule.push((rule.to_string(), vec![elem.kind.as_str()])),
            }
        }
        by_rule
    }

    #[test]
    fn strand_fusion_covers_the_dominant_chord_shapes() {
        // Every one of the 45 rules lowers to strands: joins, aggregations
        // (L2/L3, SU1, S3), bare head projections and S1's head alike. The
        // only other rule elements are timers and S1's materialized
        // aggregate; heads, deletes included, route themselves.
        let plan = shared_plan(false);
        let rules = rule_kinds(plan);
        assert_eq!(rules.len(), 45);
        for (rule, kinds) in &rules {
            assert!(kinds.contains(&"strand"), "{rule}: {kinds:?}");
            for kind in kinds {
                assert!(
                    ["strand", "periodic", "table_agg"].contains(kind),
                    "{rule}: {kinds:?}"
                );
            }
        }
        let desc = plan.instantiate("n1", 1).engine.describe();
        for rule in ["L2", "L3", "SU1", "S3", "CM8", "SB5", "S1"] {
            assert!(desc.contains(&format!("{rule}:strand")), "{rule}: {desc}");
        }
        // Two flags, four cached plans.
        assert!(!std::ptr::eq(plan, shared_plan(true)));
        assert!(std::ptr::eq(
            plan,
            shared_plan_for(ChordOpts {
                jitter: false,
                join_seed: false
            })
        ));
    }

    #[test]
    fn all_table_rules_lower_to_one_strand_per_trigger() {
        // The rules whose bodies are stored tables only re-derive per
        // trigger-table poke, one strand per body table (J2/J3 have
        // three), bare projections included.
        let plan = shared_plan(false);
        let desc = plan.instantiate("n1", 1).engine.describe();
        for rule in ["S2", "CM2", "CM3", "SU0", "SU3", "F2"] {
            assert!(desc.contains(&format!("{rule}:strand")), "{rule}: {desc}");
            assert!(!desc.contains(&format!("{rule}:head")), "{rule}: {desc}");
        }
        let strands = |plan: &PlannedProgram| {
            let meta = plan.obs_meta();
            let kinds = meta.elems.iter().map(|e| e.kind.as_str());
            kinds.filter(|k| *k == "strand").count()
        };
        assert_eq!(strands(plan), 49);
        // Rule and table elements plus the two harness watches; the
        // strands' output slots carry level delays and heads, not
        // elements.
        assert_eq!(plan.element_count(), 67);
        assert_eq!(strands(shared_plan_opts(false, true)), 51);
    }

    #[test]
    fn delta_scheduling_is_an_engine_flag_over_one_plan() {
        use p2_netsim::{NetworkConfig, Simulator};
        use p2_value::SimTime;

        // There is no scheduling flag: one plan per variant, and every poke
        // runs. A profiled three-node ring stabilizing for two minutes: each
        // node's handoffs are exactly its profiled element calls, and the
        // rules whose triggers mostly find nothing to do (F8, F9, CM9) show
        // those calls as wasted pokes rather than skipped ones.
        let opts = ChordOpts {
            jitter: false,
            ..ChordOpts::default()
        };
        let plan = shared_plan_for(opts);
        let addrs = ["n0:10000", "n1:10000", "n2:10000"];
        let mut sim = Simulator::new(NetworkConfig::emulab_default(1));
        for (i, addr) in addrs.iter().enumerate() {
            let landmark = (i > 0).then_some(addrs[0]);
            let mut host = build_node_for(addr, landmark, 1 + i as u64, opts).unwrap();
            host.node_mut().enable_obs(plan.obs_meta());
            sim.add_node(addr.to_string(), host);
        }
        for (i, addr) in addrs.iter().enumerate() {
            sim.start_node(addr);
            sim.inject(addr, join_tuple(addr, 1 + i as i64));
            sim.run_for(SimTime::from_secs(2));
        }
        sim.run_for(SimTime::from_secs(120));

        let mut wasted = [0u64; 3];
        for addr in addrs {
            let node = sim.node(addr).unwrap().node();
            let obs = node.obs().unwrap();
            let invocations: u64 = obs.counters().iter().map(|c| c.invocations).sum();
            assert_eq!(node.stats().handoffs, invocations, "{addr}");
            for (meta, c) in obs.meta().elems.iter().zip(obs.counters()) {
                let rule = meta.rule.as_deref();
                if let Some(i) = ["F8", "F9", "CM9"].iter().position(|r| Some(*r) == rule) {
                    wasted[i] += c.wasted_pokes;
                }
            }
        }
        assert!(wasted.iter().all(|&w| w > 0), "F8/F9/CM9 wasted {wasted:?}");
    }

    #[test]
    fn converged_ring_rows_share_their_strings() {
        let addrs: Vec<String> = (0..6).map(|i| format!("n{i}:10000")).collect();
        let mut rows: Vec<(String, Tuple)> = Vec::new();
        converged_ring(&addrs, 9, |addr, t| rows.push((addr.to_string(), t)));
        for addr in &addrs {
            let count = |name: &str| {
                let mine = rows.iter().filter(|(a, t)| a == addr && t.name() == name);
                mine.count()
            };
            assert_eq!(
                (count("succ"), count("pred"), count("nextFingerFix")),
                (4, 1, 1)
            );
            assert!((1..=160).contains(&count("finger")), "{addr}");
        }
        // One allocation per address and one per relation name, across rows.
        let mut first_seen: HashMap<String, *const u8> = HashMap::new();
        let mut shared =
            |s: &str| *first_seen.entry(s.to_string()).or_insert(s.as_ptr()) == s.as_ptr();
        for (_, t) in &rows {
            assert!(shared(t.name()), "{t}");
            for v in t.values() {
                if let Value::Str(s) = v {
                    assert!(shared(s), "{t}");
                }
            }
        }
    }

    #[test]
    fn identifiers_are_deterministic_and_spread() {
        assert_eq!(node_id("n1"), node_id("n1"));
        assert_ne!(node_id("n1"), node_id("n2"));
        assert_eq!(key_id("object-7"), Uint160::hash_of(b"object-7"));
    }

    #[test]
    fn helper_tuples_have_the_expected_shape() {
        let j = join_tuple("n3", 42);
        assert_eq!(j.name(), "join");
        assert_eq!(j.arity(), 2);
        let l = lookup_tuple("n3", Uint160::from_u64(9), "n5", 7);
        assert_eq!(l.name(), "lookup");
        assert_eq!(l.field(2), &Value::str("n5"));
        let facts = base_facts("n3", Some("n0"));
        assert_eq!(facts[0].field(1), &Value::Id(node_id("n3")));
        assert_eq!(facts[1].field(1), &Value::str("n0"));
        let facts = base_facts("n0", None);
        assert_eq!(facts[1].field(1), &Value::str("-"));
    }
}
