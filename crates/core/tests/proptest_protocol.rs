//! Property tests for the versioned wire protocol: `Event → JSON → Event`
//! is the identity, and `Patch → JSON → parse` re-encodes byte-identically
//! (the canonical equality for patches, robust to value-storage coercion
//! inside columnar tables).

use pi2::{
    event_from_json, event_to_json, patch_from_json, patch_to_json, DataType, Event, Patch,
    PatchView, Table, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Scalars covering every [`Value`] variant, including integral floats
/// (exercising the `{"f":…}` tag) and strings that need escaping. NaN is
/// excluded: `Event` equality is `PartialEq` over `f64`.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1.0e9f64..1.0e9).prop_map(Value::Float),
        any::<i32>().prop_map(|i| Value::Float(i as f64)),
        "[a-zA-Z0-9 _'\"\\\\:,{}]{0,12}".prop_map(Value::Str),
        "[é☃日a-z\n\t]{0,6}".prop_map(Value::Str),
        (-100_000i64..100_000).prop_map(Value::Date),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    let ix = 0usize..64;
    prop_oneof![
        (ix.clone(), 0usize..10).prop_map(|(interaction, option)| Event::Select {
            interaction,
            option
        }),
        (ix.clone(), any::<bool>()).prop_map(|(interaction, on)| Event::Toggle { interaction, on }),
        (ix.clone(), prop::collection::vec(arb_value(), 0..6)).prop_map(|(interaction, values)| {
            Event::SetValues {
                interaction,
                values,
            }
        }),
        (ix.clone(), prop::collection::vec(arb_value(), 0..6)).prop_map(|(interaction, values)| {
            Event::SetSet {
                interaction,
                values,
            }
        }),
        (ix.clone(), prop::collection::vec(0usize..16, 0..6)).prop_map(|(interaction, options)| {
            Event::SelectMany {
                interaction,
                options,
            }
        }),
        ix.prop_map(|interaction| Event::Clear { interaction }),
    ]
}

fn arb_dtype() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Bool),
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Str),
        Just(DataType::Date),
    ]
}

/// A table whose cells may disagree with their column's declared type —
/// the `Mixed` escape hatch the tagged cell encoding exists for.
fn arb_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec(("[a-z]{1,6}", arb_dtype()), 1..4),
        0usize..5,
    )
        .prop_flat_map(|(cols, nrows)| {
            let ncols = cols.len();
            prop::collection::vec(
                prop::collection::vec(arb_value(), ncols..ncols + 1),
                nrows..nrows + 1,
            )
            .prop_map(move |rows| {
                let schema: Vec<(&str, DataType)> =
                    cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                Table::from_rows(schema, rows).expect("arity matches by construction")
            })
        })
}

fn arb_patch() -> impl Strategy<Value = Patch> {
    (
        0u64..10_000,
        prop::collection::vec((0usize..8, 0usize..8, "[ -~]{0,30}", arb_table()), 0..3),
    )
        .prop_map(|(seq, views)| Patch {
            seq,
            views: views
                .into_iter()
                .map(|(view, tree, sql, table)| PatchView {
                    view,
                    tree,
                    sql,
                    table: Arc::new(table),
                })
                .collect(),
        })
}

/// A string column built from a small alphabet (so the dictionary cutoff
/// triggers), returned in both representations over identical data.
fn arb_string_column() -> impl Strategy<Value = (pi2::ColumnData, pi2::ColumnData)> {
    prop::collection::vec(
        prop_oneof![
            Just(None),
            prop_oneof![
                Just("NY"),
                Just("LA"),
                Just("SF"),
                Just("a \"b\""),
                Just("é☃")
            ]
            .prop_map(Some)
        ],
        0..24,
    )
    .prop_map(|cells| {
        let mut plain = pi2::ColumnData::new_typed(DataType::Str);
        for c in &cells {
            plain.push(match c {
                None => Value::Null,
                Some(s) => Value::Str(s.to_string()),
            });
        }
        let dict = plain.clone().dict_encode();
        (plain, dict)
    })
}

proptest! {
    /// Dictionary wire form round-trips: encoding a dict column, decoding
    /// it, and re-encoding is byte-identical — and decodes to the same
    /// *values* as the plain `Utf8` encoding of identical data.
    #[test]
    fn dict_wire_form_round_trips((plain, dict) in arb_string_column()) {
        use pi2_data::{Column, Schema};
        let schema = Schema::new(vec![Column::new("s", DataType::Str)]);
        let plain_table = Table::from_columns(schema.clone(), vec![plain]).unwrap();
        let dict_table = Table::from_columns(schema, vec![dict]).unwrap();
        let plain_json = pi2_data::wire::table_to_json(&plain_table);
        let dict_json = pi2_data::wire::table_to_json(&dict_table);
        let decode = |j: &str| {
            let parsed = pi2::Json::parse(j).unwrap();
            pi2::protocol::table_from_json(&parsed)
                .unwrap_or_else(|e| panic!("decode of {j} failed: {e}"))
        };
        // Both forms decode to value-equal tables (Table::eq is
        // representation-agnostic).
        let from_plain = decode(&plain_json);
        let from_dict = decode(&dict_json);
        prop_assert_eq!(&from_plain, &from_dict);
        prop_assert_eq!(&from_plain, &plain_table);
        // Each form re-encodes byte-identically.
        prop_assert_eq!(pi2_data::wire::table_to_json(&from_plain), plain_json);
        prop_assert_eq!(pi2_data::wire::table_to_json(&from_dict), dict_json);
    }

    #[test]
    fn event_json_round_trip(event in arb_event()) {
        let json = event_to_json(&event);
        let back = event_from_json(&json)
            .unwrap_or_else(|e| panic!("decode of {json} failed: {e}"));
        prop_assert_eq!(event, back, "wire form: {}", json);
    }

    #[test]
    fn patch_json_round_trip(patch in arb_patch()) {
        let json = patch_to_json(&patch);
        let back = patch_from_json(&json)
            .unwrap_or_else(|e| panic!("decode of {json} failed: {e}"));
        prop_assert_eq!(back.seq, patch.seq);
        prop_assert_eq!(back.views.len(), patch.views.len());
        for (a, b) in patch.views.iter().zip(back.views.iter()) {
            prop_assert_eq!(a.view, b.view);
            prop_assert_eq!(a.tree, b.tree);
            prop_assert_eq!(&a.sql, &b.sql);
            prop_assert_eq!(a.table.num_rows(), b.table.num_rows());
        }
        // Re-encoding the decoded patch is byte-identical: the codec is a
        // bijection on its own output.
        prop_assert_eq!(patch_to_json(&back), json);
    }

    /// The v2 `append` request round-trips through the codec: the rows
    /// table survives value-exactly and the re-encoded request is
    /// byte-identical (same canonical-equality contract as patches).
    #[test]
    fn append_request_round_trips(
        workload in "[a-z]{1,8}",
        table in "[a-zA-Z_]{1,8}",
        rows in arb_table(),
    ) {
        let request = pi2::Request::Append { workload, table, rows };
        let json = pi2::request_to_json(&request);
        let back = pi2::request_from_json(&json)
            .unwrap_or_else(|e| panic!("decode of {json} failed: {e}"));
        prop_assert_eq!(&back, &request, "wire form: {}", &json);
        prop_assert_eq!(pi2::request_to_json(&back), json);
    }

    #[test]
    fn patch_decode_rejects_truncations(patch in arb_patch()) {
        let json = patch_to_json(&patch);
        // Chopping the document anywhere strictly inside must fail cleanly
        // (never panic, never mis-decode).
        let chars: Vec<char> = json.chars().collect();
        for cut in [chars.len() / 3, chars.len() / 2, chars.len() - 1] {
            if cut == 0 || cut >= chars.len() {
                continue;
            }
            let truncated: String = chars[..cut].iter().collect();
            prop_assert!(patch_from_json(&truncated).is_err());
        }
    }
}

/// The v2 `negotiate` answer is a compatibility contract: clients switch
/// on the structured `capabilities` object, so its shape is pinned
/// byte-exactly. `ws_push` reflects the connection (none here); the legacy
/// top-level `push` flag stays for v2 clients that predate capabilities.
#[test]
fn negotiate_capabilities_shape_is_pinned() {
    let service = pi2::Pi2Service::new();
    let answer = service.handle_json("{\"v\":2,\"type\":\"negotiate\"}");
    assert_eq!(
        answer,
        "{\"v\":2,\"type\":\"protocols\",\"versions\":[1,2],\"push\":false,\
         \"capabilities\":{\"versions\":[1,2],\"ws_push\":false,\
         \"live\":{\"append\":true,\"ivm\":[\"filter\",\"group\",\"aggregate\",\"project\"]}}}"
    );
    // The object stays machine-readable through the parser too.
    let caps = pi2::Json::parse(&answer)
        .unwrap()
        .get("capabilities")
        .cloned()
        .expect("capabilities present");
    assert_eq!(
        caps.get("ws_push").and_then(pi2::Json::as_bool),
        Some(false)
    );
    let versions: Vec<i64> = caps
        .get("versions")
        .and_then(|v| v.as_arr())
        .expect("versions array")
        .iter()
        .filter_map(pi2::Json::as_i64)
        .collect();
    assert_eq!(versions, [1, 2]);
    let live = caps.get("live").expect("live capability present");
    assert_eq!(live.get("append").and_then(pi2::Json::as_bool), Some(true));
    let ivm: Vec<&str> = live
        .get("ivm")
        .and_then(|v| v.as_arr())
        .expect("ivm shape list")
        .iter()
        .filter_map(pi2::Json::as_str)
        .collect();
    assert_eq!(ivm, ["filter", "group", "aggregate", "project"]);
}
