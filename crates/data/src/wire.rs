//! Columnar JSON wire encoding for result tables.
//!
//! The session service ships result tables to front-ends column-by-column
//! (one `values` array per schema column) rather than row-by-row: the
//! encoder walks each typed column once, the payload carries the column
//! name and declared type, and decoders can rebuild typed columns without
//! sniffing cell-by-cell. Emission lives here, next to the storage layer;
//! the matching parser lives in `pi2-core`'s `protocol` module, which owns
//! the dependency-free JSON reader.
//!
//! ## Cell encoding
//!
//! Every non-NULL cell has its column's declared [`DataType`] (a column
//! has one type; see [`crate::column`]), so each uses the natural JSON
//! scalar: `int` → number, `float` → number, `str` → string, `bool` →
//! bool, `date` → ISO-8601 string, SQL NULL → `null`. The one exception is
//! a float JSON cannot carry as a number: NaN and the infinities are
//! tagged `{"f":"nan"}`, `{"f":"inf"}` and `{"f":"-inf"}`.

use crate::date::format_iso_date;
use crate::table::Table;
use crate::types::DataType;
use crate::value::Value;
use std::fmt::Write;

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// The wire name of a column type.
pub fn dtype_name(t: DataType) -> &'static str {
    match t {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Str => "str",
        DataType::Date => "date",
    }
}

/// The column type named on the wire, if recognised.
pub fn dtype_from_name(name: &str) -> Option<DataType> {
    Some(match name {
        "bool" => DataType::Bool,
        "int" => DataType::Int,
        "float" => DataType::Float,
        "str" => DataType::Str,
        "date" => DataType::Date,
        _ => return None,
    })
}

/// Append a float as a JSON number (Rust's shortest round-trip `Display`),
/// or a tagged string for the non-finite values JSON cannot carry.
fn push_float(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Append one cell (see module docs).
fn push_cell(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("{\"f\":");
                push_float(out, *x);
                out.push('}');
            }
        }
        Value::Str(s) => {
            let _ = write!(out, "\"{}\"", json_escape(s));
        }
        Value::Date(d) => {
            let _ = write!(out, "\"{}\"", format_iso_date(*d));
        }
    }
}

/// Serialise a table to the columnar wire shape:
/// `{"rows":N,"columns":[{"name":…,"type":…,"values":[…]},…]}`.
///
/// Dictionary-encoded string columns keep their encoding on the wire:
/// instead of `"values"`, the column carries `"dict":[…]` (the shared
/// string dictionary) and `"codes":[…]` (one index per row, `null` for SQL
/// NULL), so repeated strings are shipped once. Decoders accept both
/// forms; see `pi2_core::protocol::table_from_json`.
pub fn table_to_json(t: &Table) -> String {
    let mut out = String::with_capacity(64 + t.num_rows() * t.num_columns() * 8);
    let _ = write!(out, "{{\"rows\":{},\"columns\":[", t.num_rows());
    for idx in 0..t.num_columns() {
        if idx > 0 {
            out.push(',');
        }
        let col = t.schema.column(idx).expect("schema column");
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"type\":\"{}\",",
            json_escape(&col.name),
            dtype_name(col.dtype)
        );
        if let Some((codes, dict, nulls)) = t.col(idx).dict_parts() {
            out.push_str("\"dict\":[");
            for (k, s) in dict.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            out.push_str("],\"codes\":[");
            for (row, c) in codes.iter().enumerate() {
                if row > 0 {
                    out.push(',');
                }
                if nulls.is_null(row) {
                    out.push_str("null");
                } else {
                    let _ = write!(out, "{c}");
                }
            }
            out.push(']');
        } else {
            out.push_str("\"values\":[");
            for (row, v) in t.column_values(idx).enumerate() {
                if row > 0 {
                    out.push(',');
                }
                push_cell(&mut out, &v);
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_columns_use_plain_scalars() {
        let t = Table::from_rows(
            vec![("a", DataType::Int), ("s", DataType::Str)],
            vec![
                vec![Value::Int(1), Value::Str("x \"q\"".into())],
                vec![Value::Null, Value::Str("y".into())],
            ],
        )
        .unwrap();
        let j = table_to_json(&t);
        assert!(j.starts_with("{\"rows\":2,"), "{j}");
        assert!(j.contains("\"values\":[1,null]"), "{j}");
        assert!(j.contains("x \\\"q\\\""), "{j}");
    }

    #[test]
    fn nonfinite_floats_are_tagged() {
        let t = Table::from_rows(
            vec![("f", DataType::Float)],
            [2.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                .map(|x| vec![Value::Float(x)])
                .to_vec(),
        )
        .unwrap();
        let j = table_to_json(&t);
        assert!(
            j.contains("\"values\":[2.5,{\"f\":\"nan\"},{\"f\":\"inf\"},{\"f\":\"-inf\"}]"),
            "{j}"
        );
    }

    #[test]
    fn dates_and_floats_round_trip_textually() {
        let t = Table::from_rows(
            vec![("d", DataType::Date), ("f", DataType::Float)],
            vec![vec![Value::Date(0), Value::Float(2.5)]],
        )
        .unwrap();
        let j = table_to_json(&t);
        assert!(j.contains("\"1970-01-01\""), "{j}");
        assert!(j.contains("2.5"), "{j}");
    }

    #[test]
    fn dict_columns_ship_dict_and_codes() {
        use crate::column::ColumnData;
        use crate::table::{Column, Schema};
        let mut col =
            ColumnData::strs_dict(vec!["NY".into(), "LA".into(), "NY".into(), "LA".into()]);
        col.push(Value::Null).unwrap();
        let t = Table::from_columns(
            Schema::new(vec![Column::new("city", DataType::Str)]),
            vec![col],
        )
        .unwrap();
        let j = table_to_json(&t);
        assert_eq!(
            j,
            "{\"rows\":5,\"columns\":[{\"name\":\"city\",\"type\":\"str\",\
             \"dict\":[\"LA\",\"NY\"],\"codes\":[1,0,1,0,null]}]}"
        );
    }

    #[test]
    fn dtype_names_round_trip() {
        for t in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Date,
        ] {
            assert_eq!(dtype_from_name(dtype_name(t)), Some(t));
        }
    }
}
