//! Planner coverage for every shipped overlay program: which strands'
//! aggregations read their table through a group index, so a change in the
//! access-path choice shows up as a reviewable diff, not a silent plan
//! change.

use p2_core::{PlanConfig, PlannedProgram};
use p2_overlays::{chord, gossip, monitor, narada};
use p2_overlog::Program;

/// Group-index aggregations as `(strand label, columns)`, and tables as
/// `(name, column lists of its group indices)`.
type Declared = (Vec<(String, Vec<usize>)>, Vec<(String, Vec<Vec<usize>>)>);

/// Plans `program`; returns its group probes and the group indices an
/// instantiated node's tables end up with (tables that have any).
fn group_indexes(program: &Program) -> Declared {
    let plan = PlannedProgram::compile(program, &PlanConfig::new().without_jitter()).unwrap();
    let probes = plan.group_probes();
    let probes = probes.iter().map(|(l, c)| (l.to_string(), c.to_vec()));
    let node = plan.instantiate("n1", 1);
    let mut tables: Vec<(String, Vec<Vec<usize>>)> = program
        .materializations
        .iter()
        .map(|m| {
            let table = node.catalog.get(&m.name).expect("materialized");
            let indexes = table.lock().group_indexes();
            (m.name.clone(), indexes)
        })
        .filter(|(_, indexes)| !indexes.is_empty())
        .collect();
    tables.sort();
    (probes.collect(), tables)
}

/// Chord's four keyless probes share only the location with their table:
/// finger(NI, I, B, BI) is read by `B` (L2) and by `(B, BI)` (L3),
/// succ(NI, S, SI) by `S` (SU1 and S3, one index), each with the location
/// column the residual filter checks.
#[test]
fn chord_lookup_and_successor_probes_read_through_group_indexes() {
    for program in [chord::program(), chord::program_with_join_seed()] {
        let (probes, tables) = group_indexes(program);
        assert_eq!(
            probes,
            [
                ("L2:strand".to_string(), vec![0, 2]),
                ("L3:strand".to_string(), vec![0, 2, 3]),
                ("SU1:strand".to_string(), vec![0, 1]),
                ("S3:strand".to_string(), vec![0, 1]),
            ]
        );
        assert_eq!(
            tables,
            [
                ("finger".to_string(), vec![vec![0, 2], vec![0, 2, 3]]),
                ("succ".to_string(), vec![vec![0, 1]]),
            ]
        );
    }
}

/// Gossip's G2 and the monitor's P0 pick a random row with `max<R>`, `R :=
/// f_rand()` — one draw per row, in scan order — and Narada's R5 is keyed
/// by `member`'s primary key: none of them may fold by group.
#[test]
fn rng_and_keyed_probes_declare_no_group_index() {
    for program in [gossip::program(), monitor::program(), narada::program()] {
        assert_eq!(group_indexes(program), (vec![], vec![]));
    }
}
