//! Property tests for the soft-state table invariants:
//! primary-key uniqueness, size bounds, lifetime expiry,
//! secondary-index/scan agreement, and a change counter that moves whenever
//! the live row set changes, under arbitrary operation sequences.

use p2_table::{Table, TableSpec};
use p2_value::{SimTime, Tuple, Value};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Action {
    Insert {
        key: i64,
        payload: i64,
        at_secs: u64,
    },
    Delete {
        key: i64,
    },
    Expire {
        at_secs: u64,
    },
}

fn arb_action() -> impl Strategy<Value = Action> {
    // The narrow payload range makes identical re-inserts (lazy refreshes)
    // and replacements both common.
    prop_oneof![
        (0i64..30, 0i64..5, 0u64..200).prop_map(|(key, payload, at_secs)| Action::Insert {
            key,
            payload,
            at_secs
        }),
        (0i64..30).prop_map(|key| Action::Delete { key }),
        (0u64..400).prop_map(|at_secs| Action::Expire { at_secs }),
    ]
}

fn row(key: i64, payload: i64) -> Tuple {
    Tuple::new(
        "t",
        vec![Value::str("n1"), Value::Int(key), Value::Int(payload)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_invariants_hold(actions in proptest::collection::vec(arb_action(), 1..120),
                             max_size in 1usize..12) {
        let spec = TableSpec::new("t", vec![1])
            .with_lifetime_secs(50)
            .with_max_size(max_size);
        let mut table = Table::new(spec);
        table.add_index(vec![2]);
        table.add_group_index(vec![2]);

        // The change counter: after every action, whatever mix of insert/
        // replace/refresh/delete/expiry/eviction it was, the version moved
        // if and only if the live row set changed, and never backwards.
        let live_rows = |table: &Table| {
            let mut rows: Vec<Vec<Value>> =
                table.scan().iter().map(|t| t.values().to_vec()).collect();
            rows.sort();
            rows
        };
        let mut seen_rows = live_rows(&table);
        let mut seen_version = table.version();

        for a in actions {
            let action_desc = format!("{a:?}");
            match a {
                Action::Insert { key, payload, at_secs } => {
                    table.insert(row(key, payload), SimTime::from_secs(at_secs)).unwrap();
                }
                Action::Delete { key } => {
                    table.delete_key(&[Value::Int(key)]);
                }
                Action::Expire { at_secs } => {
                    table.expire(SimTime::from_secs(at_secs));
                }
            }

            // Size bound always holds.
            prop_assert!(table.len() <= max_size);

            // The version moved exactly when the live rows did.
            let rows = live_rows(&table);
            let version = table.version();
            prop_assert!(version >= seen_version, "version stepped back after {}", action_desc);
            prop_assert_eq!(
                version != seen_version,
                rows != seen_rows,
                "version {} -> {} disagrees with the row set after {}",
                seen_version,
                version,
                action_desc
            );
            seen_rows = rows;
            seen_version = version;

            // The storage engine's internal cross-references (slab, free
            // list, primary/secondary indices, staleness queue) stay exact.
            if let Err(e) = table.check_consistency() {
                panic!("storage inconsistency after {action_desc}: {e}");
            }

            // Primary keys are unique.
            let scan = table.scan();
            let keys: HashSet<Value> = scan.iter().map(|t| t.field(1).clone()).collect();
            prop_assert_eq!(keys.len(), scan.len());

            // Every scan row is findable through the secondary index and
            // vice versa.
            for t in &scan {
                let hits = table.lookup(&[2], &[t.field(2).clone()]);
                prop_assert!(hits.iter().any(|h| h.values() == t.values()));
            }
            let mut indexed = 0usize;
            let payloads: HashSet<Value> = scan.iter().map(|t| t.field(2).clone()).collect();
            for p in &payloads {
                indexed += table.lookup(&[2], std::slice::from_ref(p)).len();
            }
            prop_assert_eq!(indexed, scan.len());
        }
    }

    #[test]
    fn expiry_is_exactly_lifetime_bounded(inserts in proptest::collection::vec((0i64..50, 0u64..100), 1..40)) {
        let spec = TableSpec::new("t", vec![1]).with_lifetime_secs(20);
        let mut table = Table::new(spec);
        // The table keeps the timestamp of the *last* insert for a key
        // (re-insertion refreshes soft state), so model exactly that.
        let mut last_insert: std::collections::HashMap<i64, u64> = Default::default();
        for (key, at) in &inserts {
            table.insert(row(*key, 0), SimTime::from_secs(*at)).unwrap();
            last_insert.insert(*key, *at);
        }
        let now = 110u64;
        table.expire(SimTime::from_secs(now));
        for t in table.scan() {
            let key = t.field(1).to_int().unwrap();
            let inserted = last_insert[&key];
            prop_assert!(now - inserted <= 20, "row {key} inserted at {inserted} survived to {now}");
        }
        for (key, at) in &last_insert {
            if now - at <= 20 {
                prop_assert!(table.get(&[Value::Int(*key)]).is_some());
            }
        }
    }
}
