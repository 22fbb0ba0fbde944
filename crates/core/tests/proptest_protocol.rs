//! Property tests for the versioned wire protocol: `Event → JSON → Event`
//! is the identity, `Patch → JSON → parse` re-encodes byte-identically
//! (the canonical equality for patches, robust to value-storage coercion
//! inside columnar tables), and byte-mutated `append` requests and tables
//! either decode to well-typed tables or fail as pinned `protocol` errors.

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

/// One cell of a `dtype` column: NULL, or a value of that type — ints in
/// float columns (which the column widens), integral floats, the
/// non-finite floats behind the `{"f":…}` tags, and strings that need
/// escaping.
fn arb_cell(dtype: DataType) -> BoxedStrategy<Value> {
    let typed = match dtype {
        DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        DataType::Int => any::<i64>().prop_map(Value::Int).boxed(),
        DataType::Float => prop_oneof![
            (-1.0e9f64..1.0e9).prop_map(Value::Float),
            any::<i32>().prop_map(|i| Value::Float(i as f64)),
            any::<i32>().prop_map(|i| Value::Int(i as i64)),
            prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
                .prop_map(Value::Float),
        ]
        .boxed(),
        DataType::Str => prop_oneof![
            "[a-zA-Z0-9 _'\"\\\\:,{}]{0,12}".prop_map(Value::Str),
            "[é☃日a-z\n\t]{0,6}".prop_map(Value::Str),
        ]
        .boxed(),
        DataType::Date => (-100_000i64..100_000).prop_map(Value::Date).boxed(),
    };
    prop_oneof![1 => Just(Value::Null), 4 => typed].boxed()
}

/// A named column of `rows` cells of one type.
fn arb_column(rows: usize) -> impl Strategy<Value = (String, DataType, Vec<Value>)> {
    ("[a-z]{1,6}", arb_dtype()).prop_flat_map(move |(name, dtype)| {
        prop::collection::vec(arb_cell(dtype), rows..rows + 1)
            .prop_map(move |cells| (name.clone(), dtype, cells))
    })
}

/// A table of one to three columns of every type, each cell of its
/// column's type or NULL.
fn arb_table() -> impl Strategy<Value = Table> {
    (0usize..5)
        .prop_flat_map(|rows| {
            (
                arb_column(rows),
                arb_column(rows),
                arb_column(rows),
                1usize..4,
            )
        })
        .prop_map(|(a, b, c, ncols)| {
            let cols = &[a, b, c][..ncols];
            let schema: Vec<(&str, DataType)> =
                cols.iter().map(|(n, t, _)| (n.as_str(), *t)).collect();
            let rows = (0..cols[0].2.len())
                .map(|r| cols.iter().map(|(_, _, cells)| cells[r].clone()).collect())
                .collect();
            Table::from_rows(schema, rows).expect("every cell fits its column")
        })
}

/// `bytes` with each `(kind, at, byte)` edit applied in turn: replace,
/// insert before, or delete the byte at `at` (modulo the length).
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = at % bytes.len();
        match kind {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ => {
                bytes.remove(at);
            }
        }
    }
    bytes
}

/// Edits biased toward the bytes JSON structure and the cell codec turn
/// on, plus arbitrary ones (invalid UTF-8 included).
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    let byte = prop_oneof![
        prop_oneof![
            Just(b'"'),
            Just(b'{'),
            Just(b'}'),
            Just(b'['),
            Just(b']'),
            Just(b','),
            Just(b':'),
            Just(b'-'),
            Just(b'.'),
            Just(b'e'),
            Just(b'0'),
            Just(b'9'),
            Just(b'n'),
            Just(b'\\'),
        ],
        any::<u8>(),
    ];
    prop::collection::vec((0u8..3, any::<usize>(), byte), 1..4)
}

/// Every decode rejection is a `protocol` error under HTTP 400.
fn assert_protocol_rejection(err: &pi2::Pi2Error, text: &str) {
    assert!(
        matches!(err, pi2::Pi2Error::Protocol(_)),
        "{err:?} for {text:?}"
    );
    assert_eq!(
        (err.code(), err.http_status()),
        ("protocol", 400),
        "{text:?}"
    );
}

/// A decoded table keeps the invariant the codec exists to keep: every
/// column's storage has its declared type.
fn assert_typed(t: &Table) {
    for (i, c) in t.schema.columns.iter().enumerate() {
        assert_eq!(t.col(i).dtype(), c.dtype, "column {}", c.name);
    }
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
            plain
                .push(match c {
                    None => Value::Null,
                    Some(s) => Value::Str(s.to_string()),
                })
                .unwrap();
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

proptest! {
    // Few random edits yield well-formed JSON with a mistyped cell, so
    // these run more cases than the default.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Hostile `append` payloads: a valid request with a few bytes
    /// replaced, inserted or deleted never panics the decoder. It either
    /// decodes (an append's rows then hold only cells of their columns'
    /// types) or fails as a `protocol` error under HTTP 400.
    #[test]
    fn mutated_append_requests_decode_or_reject_cleanly(
        rows in arb_table(),
        edits in arb_edits(),
    ) {
        let request = pi2::Request::Append {
            workload: "live".into(),
            table: "T".into(),
            rows,
        };
        let bytes = mutate(pi2::request_to_json(&request).into_bytes(), &edits);
        let text = String::from_utf8_lossy(&bytes);
        match pi2::request_from_json(&text) {
            Ok(pi2::Request::Append { rows, .. }) => assert_typed(&rows),
            Ok(_) => {}
            Err(e) => assert_protocol_rejection(&e, &text),
        }
    }

    /// The same for the table codec alone, below the request envelope.
    #[test]
    fn mutated_tables_decode_or_reject_cleanly(table in arb_table(), edits in arb_edits()) {
        let bytes = mutate(pi2_data::wire::table_to_json(&table).into_bytes(), &edits);
        let text = String::from_utf8_lossy(&bytes);
        match pi2::Json::parse(&text).and_then(|j| pi2::protocol::table_from_json(&j)) {
            Ok(t) => assert_typed(&t),
            Err(e) => assert_protocol_rejection(&e, &text),
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
