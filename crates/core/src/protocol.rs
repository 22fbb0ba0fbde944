//! The versioned two-way JSON wire protocol over the session service.
//!
//! Any HTTP/WebSocket front-end can drive the system through
//! [`Pi2Service::handle_json`]: requests decode into [`Event`]s and
//! service operations, responses encode [`Patch`]es (result tables
//! columnar-encoded via `pi2_data::wire`), interface specs
//! ([`crate::json::interface_to_json`]), errors (stable codes from
//! [`Pi2Error::code`]), and metrics. Every message carries the protocol
//! version in `"v"`; see README.md for the full spec with a worked
//! request/response example.
//!
//! The codec is *two-way* end to end — `Event → JSON → Event` and
//! `Patch → JSON → Patch` both round-trip exactly (pinned by the proptests
//! in `crates/core/tests/proptest_protocol.rs`), so the same module serves
//! the backend and a Rust client.

use crate::error::Pi2Error;
use crate::json::{escape, fmt_f64, interface_to_json, Json};
use crate::runtime::Event;
use crate::service::{Patch, PatchView, Pi2Service, ServiceMetrics, Session};
use pi2_data::date::{format_iso_date, parse_iso_date};
use pi2_data::wire::{dtype_from_name, table_to_json};
use pi2_data::{DataType, Table, Value};
use pi2_interface::Interface;
use pi2_server::PushLink;
use std::fmt::Write;
use std::sync::Arc;

/// The wire-protocol version of the core request/response message set
/// (`open`, `describe`, `event`, `close`, `metrics`, and their
/// responses).
pub const PROTOCOL_VERSION: i64 = 1;

/// The protocol version of the streaming extension: `subscribe` /
/// `unsubscribe` / `negotiate` requests and server-initiated pushed
/// patches. Each message *type* belongs to exactly one version — a v1
/// type sent with `"v":2` is a protocol error, and vice versa — so a v1
/// client can never observe v2 behaviour by accident.
pub const PROTOCOL_VERSION_V2: i64 = 2;

fn proto_err(msg: impl Into<String>) -> Pi2Error {
    Pi2Error::Protocol(msg.into())
}

/// Check a message's `"v"` field against [`PROTOCOL_VERSION`].
fn check_version(j: &Json) -> Result<(), Pi2Error> {
    match j.get("v") {
        None => Err(proto_err("missing protocol version field 'v'")),
        Some(v) if v.as_i64() == Some(PROTOCOL_VERSION) => Ok(()),
        Some(v) => Err(proto_err(format!(
            "unsupported protocol version {v} (this backend speaks {PROTOCOL_VERSION})"
        ))),
    }
}

/// Check a request's `"v"` field against the one version its type
/// belongs to.
fn check_request_version(j: &Json, ty: &str, want: i64) -> Result<(), Pi2Error> {
    match j.get("v").map(Json::as_i64) {
        None => Err(proto_err("missing protocol version field 'v'")),
        Some(Some(got)) if got == want => Ok(()),
        Some(Some(got)) if got == PROTOCOL_VERSION || got == PROTOCOL_VERSION_V2 => Err(proto_err(
            format!("message type {ty:?} is a protocol v{want} message (got v={got})"),
        )),
        Some(_) => Err(proto_err(format!(
            "unsupported protocol version {} (this backend speaks \
             {PROTOCOL_VERSION} and {PROTOCOL_VERSION_V2})",
            j.get("v").expect("checked above")
        ))),
    }
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, Pi2Error> {
    j.get(key)
        .ok_or_else(|| proto_err(format!("missing field '{key}'")))
}

fn usize_field(j: &Json, key: &str) -> Result<usize, Pi2Error> {
    field(j, key)?
        .as_usize()
        .ok_or_else(|| proto_err(format!("field '{key}' must be a non-negative integer")))
}

// ---------------------------------------------------------------------------
// Scalar values (event payloads)
// ---------------------------------------------------------------------------

/// Encode one event-payload scalar. Integers, strings, booleans, and null
/// use the natural JSON scalar; floats and dates are tagged (`{"f":…}`,
/// `{"d":"YYYY-MM-DD"}`) so decoding never guesses a type.
fn push_value(out: &mut String, v: &Value) {
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
                let _ = write!(out, "{{\"f\":{x}}}");
            } else if x.is_nan() {
                out.push_str("{\"f\":\"nan\"}");
            } else if *x > 0.0 {
                out.push_str("{\"f\":\"inf\"}");
            } else {
                out.push_str("{\"f\":\"-inf\"}");
            }
        }
        Value::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Value::Date(d) => {
            let _ = write!(out, "{{\"d\":\"{}\"}}", format_iso_date(*d));
        }
    }
}

fn tagged_float(j: &Json) -> Result<f64, Pi2Error> {
    match j {
        Json::Str(s) => match s.as_str() {
            "nan" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            _ => Err(proto_err(format!("bad float tag value {s:?}"))),
        },
        _ => j.as_f64().ok_or_else(|| proto_err("bad float tag value")),
    }
}

/// Decode one event-payload scalar (inverse of [`push_value`]).
fn value_from_json(j: &Json) -> Result<Value, Pi2Error> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(x) => Ok(Value::Float(*x)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::Obj(_) => {
            if let Some(f) = j.get("f") {
                Ok(Value::Float(tagged_float(f)?))
            } else if let Some(d) = j.get("d") {
                let s = d
                    .as_str()
                    .ok_or_else(|| proto_err("'d' must be a string"))?;
                parse_iso_date(s)
                    .map(Value::Date)
                    .ok_or_else(|| proto_err(format!("bad date {s:?}")))
            } else if let Some(i) = j.get("i") {
                i.as_i64()
                    .map(Value::Int)
                    .ok_or_else(|| proto_err("'i' must be an integer"))
            } else if let Some(s) = j.get("s") {
                s.as_str()
                    .map(|s| Value::Str(s.to_string()))
                    .ok_or_else(|| proto_err("'s' must be a string"))
            } else if let Some(b) = j.get("b") {
                b.as_bool()
                    .map(Value::Bool)
                    .ok_or_else(|| proto_err("'b' must be a boolean"))
            } else {
                Err(proto_err("unknown value tag"))
            }
        }
        Json::Arr(_) => Err(proto_err("a scalar value cannot be an array")),
    }
}

fn push_values(out: &mut String, values: &[Value]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_value(out, v);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Encode an event as a versioned `event` message (no session id — the
/// request envelope adds one; see [`request_to_json`]).
pub fn event_to_json(event: &Event) -> String {
    let mut out = format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"event\"");
    let _ = write!(out, ",\"interaction\":{}", event.interaction());
    match event {
        Event::Select { option, .. } => {
            let _ = write!(out, ",\"kind\":\"select\",\"option\":{option}");
        }
        Event::Toggle { on, .. } => {
            let _ = write!(out, ",\"kind\":\"toggle\",\"on\":{on}");
        }
        Event::SetValues { values, .. } => {
            out.push_str(",\"kind\":\"set_values\",\"values\":");
            push_values(&mut out, values);
        }
        Event::SetSet { values, .. } => {
            out.push_str(",\"kind\":\"set_set\",\"values\":");
            push_values(&mut out, values);
        }
        Event::SelectMany { options, .. } => {
            let opts: Vec<String> = options.iter().map(|o| o.to_string()).collect();
            let _ = write!(
                out,
                ",\"kind\":\"select_many\",\"options\":[{}]",
                opts.join(",")
            );
        }
        Event::Clear { .. } => {
            out.push_str(",\"kind\":\"clear\"");
        }
    }
    out.push('}');
    out
}

/// Decode an event from a parsed message body (the envelope's `v`/`type`
/// are the caller's concern).
fn event_from_value(j: &Json) -> Result<Event, Pi2Error> {
    let interaction = usize_field(j, "interaction")?;
    let kind = field(j, "kind")?
        .as_str()
        .ok_or_else(|| proto_err("field 'kind' must be a string"))?;
    let values_of = |key: &str| -> Result<Vec<Value>, Pi2Error> {
        field(j, key)?
            .as_arr()
            .ok_or_else(|| proto_err(format!("field '{key}' must be an array")))?
            .iter()
            .map(value_from_json)
            .collect()
    };
    match kind {
        "select" => Ok(Event::Select {
            interaction,
            option: usize_field(j, "option")?,
        }),
        "toggle" => Ok(Event::Toggle {
            interaction,
            on: field(j, "on")?
                .as_bool()
                .ok_or_else(|| proto_err("field 'on' must be a boolean"))?,
        }),
        "set_values" => Ok(Event::SetValues {
            interaction,
            values: values_of("values")?,
        }),
        "set_set" => Ok(Event::SetSet {
            interaction,
            values: values_of("values")?,
        }),
        "select_many" => {
            let options = field(j, "options")?
                .as_arr()
                .ok_or_else(|| proto_err("field 'options' must be an array"))?
                .iter()
                .map(|o| {
                    o.as_usize()
                        .ok_or_else(|| proto_err("options must be non-negative integers"))
                })
                .collect::<Result<Vec<usize>, _>>()?;
            Ok(Event::SelectMany {
                interaction,
                options,
            })
        }
        "clear" => Ok(Event::Clear { interaction }),
        other => Err(proto_err(format!("unknown event kind {other:?}"))),
    }
}

/// Decode a versioned `event` message.
pub fn event_from_json(text: &str) -> Result<Event, Pi2Error> {
    let j = Json::parse(text)?;
    check_version(&j)?;
    match j.get("type").and_then(Json::as_str) {
        Some("event") => event_from_value(&j),
        other => Err(proto_err(format!("expected type \"event\", got {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Patches and tables
// ---------------------------------------------------------------------------

fn push_patch_body(out: &mut String, patch: &Patch) {
    let _ = write!(out, "\"seq\":{},\"views\":[", patch.seq);
    for (i, pv) in patch.views.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"view\":{},\"tree\":{},\"sql\":\"{}\",\"table\":{}}}",
            pv.view,
            pv.tree,
            escape(&pv.sql),
            table_to_json(&pv.table)
        );
    }
    out.push(']');
}

/// Encode a patch as a versioned `patch` message.
pub fn patch_to_json(patch: &Patch) -> String {
    let mut out = format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"patch\",");
    push_patch_body(&mut out, patch);
    out.push('}');
    out
}

/// Decode a columnar-encoded table (the inverse of
/// `pi2_data::wire::table_to_json`). Each column carries either the plain
/// `"values"` array or the dictionary form `"dict"` + `"codes"`; the
/// latter rebuilds a dictionary-encoded column, so encode → decode →
/// encode is byte-identical for both forms.
pub fn table_from_json(j: &Json) -> Result<Table, Pi2Error> {
    use pi2_data::{Column, ColumnData, Schema};
    let rows = usize_field(j, "rows")?;
    let columns = field(j, "columns")?
        .as_arr()
        .ok_or_else(|| proto_err("field 'columns' must be an array"))?;
    let mut schema: Vec<Column> = Vec::with_capacity(columns.len());
    let mut data: Vec<ColumnData> = Vec::with_capacity(columns.len());
    for col in columns {
        let name = field(col, "name")?
            .as_str()
            .ok_or_else(|| proto_err("column 'name' must be a string"))?
            .to_string();
        let tname = field(col, "type")?
            .as_str()
            .ok_or_else(|| proto_err("column 'type' must be a string"))?;
        let dtype = dtype_from_name(tname)
            .ok_or_else(|| proto_err(format!("unknown column type {tname:?}")))?;
        let decoded = if let Some(dict) = col.get("dict") {
            if dtype != DataType::Str {
                return Err(proto_err(format!(
                    "column '{name}': dictionary encoding requires type \"str\", got {tname:?}"
                )));
            }
            let dict = dict
                .as_arr()
                .ok_or_else(|| proto_err("column 'dict' must be an array"))?
                .iter()
                .map(|d| {
                    d.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| proto_err("'dict' entries must be strings"))
                })
                .collect::<Result<Vec<String>, _>>()?;
            let codes = field(col, "codes")?
                .as_arr()
                .ok_or_else(|| proto_err("column 'codes' must be an array"))?;
            if codes.len() != rows {
                return Err(proto_err(format!(
                    "column '{name}' has {} codes, table declares {rows} rows",
                    codes.len()
                )));
            }
            let codes = codes
                .iter()
                .map(|c| match c {
                    Json::Null => Ok(None),
                    _ => c
                        .as_usize()
                        .and_then(|c| u32::try_from(c).ok())
                        .map(Some)
                        .ok_or_else(|| proto_err("'codes' entries must be u32 indices or null")),
                })
                .collect::<Result<Vec<Option<u32>>, _>>()?;
            ColumnData::dict_from_parts(dict, codes).ok_or_else(|| {
                proto_err(format!(
                    "column '{name}': bad dictionary (code out of range or duplicate entry)"
                ))
            })?
        } else {
            let values = field(col, "values")?
                .as_arr()
                .ok_or_else(|| proto_err("column 'values' must be an array"))?;
            if values.len() != rows {
                return Err(proto_err(format!(
                    "column '{name}' has {} values, table declares {rows} rows",
                    values.len()
                )));
            }
            // Each cell by `Table::push_row`'s rule: a cell whose type
            // differs from the declared one is rejected.
            let mut out = ColumnData::new_typed(dtype);
            for v in values {
                out.push(cell_from_json(v, dtype)?)
                    .map_err(|e| proto_err(format!("column '{name}': {e}")))?;
            }
            out
        };
        schema.push(Column::new(name, dtype));
        data.push(decoded);
    }
    if schema.is_empty() {
        // A zero-column table still declares a row count.
        let mut t = Table::new(Schema::default());
        for _ in 0..rows {
            t.push_row(Vec::new())
                .map_err(|e| proto_err(format!("bad table: {e}")))?;
        }
        return Ok(t);
    }
    Table::from_columns(Schema::new(schema), data).map_err(|e| proto_err(format!("bad table: {e}")))
}

/// Decode one table cell under its column's declared type (the inverse of
/// the cell encoding in `pi2_data::wire`).
fn cell_from_json(j: &Json, dtype: DataType) -> Result<Value, Pi2Error> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        // An integral float arrives as an integer; the column widens it.
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(x) => Ok(Value::Float(*x)),
        Json::Str(s) => {
            if dtype == DataType::Date {
                parse_iso_date(s)
                    .map(Value::Date)
                    .ok_or_else(|| proto_err(format!("bad date cell {s:?}")))
            } else {
                Ok(Value::Str(s.clone()))
            }
        }
        Json::Obj(_) => value_from_json(j),
        Json::Arr(_) => Err(proto_err("a table cell cannot be an array")),
    }
}

/// Decode a patch from a parsed message body.
fn patch_from_value(j: &Json) -> Result<Patch, Pi2Error> {
    let seq = field(j, "seq")?
        .as_i64()
        .filter(|s| *s >= 0)
        .ok_or_else(|| proto_err("field 'seq' must be a non-negative integer"))?
        as u64;
    let views = field(j, "views")?
        .as_arr()
        .ok_or_else(|| proto_err("field 'views' must be an array"))?
        .iter()
        .map(|pv| {
            Ok(PatchView {
                view: usize_field(pv, "view")?,
                tree: usize_field(pv, "tree")?,
                sql: field(pv, "sql")?
                    .as_str()
                    .ok_or_else(|| proto_err("field 'sql' must be a string"))?
                    .to_string(),
                table: Arc::new(table_from_json(field(pv, "table")?)?),
            })
        })
        .collect::<Result<Vec<PatchView>, Pi2Error>>()?;
    Ok(Patch { seq, views })
}

/// Decode a versioned `patch` message.
pub fn patch_from_json(text: &str) -> Result<Patch, Pi2Error> {
    let j = Json::parse(text)?;
    check_version(&j)?;
    match j.get("type").and_then(Json::as_str) {
        Some("patch") => patch_from_value(&j),
        other => Err(proto_err(format!("expected type \"patch\", got {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A decoded protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a wire session over a registered workload.
    Open {
        /// Registration name.
        workload: String,
    },
    /// Fetch the interface spec of a registered workload.
    Describe {
        /// Registration name.
        workload: String,
    },
    /// Dispatch an event on an open wire session.
    Event {
        /// Wire-session id from an `opened` response.
        session: u64,
        /// The event.
        event: Event,
    },
    /// Close a wire session.
    Close {
        /// Wire-session id.
        session: u64,
    },
    /// Fetch service metrics.
    Metrics,
    /// Subscribe a session's patch stream to the requesting connection
    /// (protocol v2; requires a push-capable transport — WebSocket).
    /// Events dispatched by *other* sessions sharing the workload channel
    /// replay on this session, and each resulting patch is pushed.
    Subscribe {
        /// Wire-session id to subscribe.
        session: u64,
    },
    /// Drop a subscription previously made over this connection
    /// (protocol v2).
    Unsubscribe {
        /// Wire-session id to unsubscribe.
        session: u64,
    },
    /// Ask which protocol versions and streaming features this backend
    /// (and this connection) supports (protocol v2).
    Negotiate,
    /// Append rows to a registered workload's live table (protocol v2).
    /// The rows travel in the same columnar table encoding patches use.
    /// On success the catalogue epoch advances and every subscriber of
    /// the workload channel is pushed a data patch covering the views the
    /// append affected.
    Append {
        /// Registration name.
        workload: String,
        /// Target table (case-insensitive, as registered).
        table: String,
        /// The rows to append, columnar-encoded.
        rows: Table,
    },
}

/// Encode a request (the client half of the two-way protocol).
pub fn request_to_json(request: &Request) -> String {
    match request {
        Request::Open { workload } => format!(
            "{{\"v\":{PROTOCOL_VERSION},\"type\":\"open\",\"workload\":\"{}\"}}",
            escape(workload)
        ),
        Request::Describe { workload } => format!(
            "{{\"v\":{PROTOCOL_VERSION},\"type\":\"describe\",\"workload\":\"{}\"}}",
            escape(workload)
        ),
        Request::Event { session, event } => {
            // Splice the session id into the event message's envelope.
            let body = event_to_json(event);
            let rest = body
                .strip_prefix(&format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"event\""))
                .expect("event_to_json envelope");
            format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"event\",\"session\":{session}{rest}")
        }
        Request::Close { session } => {
            format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"close\",\"session\":{session}}}")
        }
        Request::Metrics => format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"metrics\"}}"),
        Request::Subscribe { session } => {
            format!("{{\"v\":{PROTOCOL_VERSION_V2},\"type\":\"subscribe\",\"session\":{session}}}")
        }
        Request::Unsubscribe { session } => format!(
            "{{\"v\":{PROTOCOL_VERSION_V2},\"type\":\"unsubscribe\",\"session\":{session}}}"
        ),
        Request::Negotiate => format!("{{\"v\":{PROTOCOL_VERSION_V2},\"type\":\"negotiate\"}}"),
        Request::Append {
            workload,
            table,
            rows,
        } => format!(
            "{{\"v\":{PROTOCOL_VERSION_V2},\"type\":\"append\",\"workload\":\"{}\",\
             \"table\":\"{}\",\"rows\":{}}}",
            escape(workload),
            escape(table),
            table_to_json(rows)
        ),
    }
}

/// Decode a request (the backend half; [`Pi2Service::handle_json`] calls
/// this).
pub fn request_from_json(text: &str) -> Result<Request, Pi2Error> {
    let j = Json::parse(text)?;
    let workload_of = |j: &Json| -> Result<String, Pi2Error> {
        Ok(field(j, "workload")?
            .as_str()
            .ok_or_else(|| proto_err("field 'workload' must be a string"))?
            .to_string())
    };
    let session_of = |j: &Json| -> Result<u64, Pi2Error> {
        field(j, "session")?
            .as_i64()
            .filter(|s| *s >= 0)
            .map(|s| s as u64)
            .ok_or_else(|| proto_err("field 'session' must be a non-negative integer"))
    };
    // The version check is per *type*: every message type belongs to
    // exactly one protocol version (see [`PROTOCOL_VERSION_V2`]).
    let ty = field(&j, "type")?.as_str();
    let v1 = |ty: &str| check_request_version(&j, ty, PROTOCOL_VERSION);
    let v2 = |ty: &str| check_request_version(&j, ty, PROTOCOL_VERSION_V2);
    match ty {
        Some("open") => {
            v1("open")?;
            Ok(Request::Open {
                workload: workload_of(&j)?,
            })
        }
        Some("describe") => {
            v1("describe")?;
            Ok(Request::Describe {
                workload: workload_of(&j)?,
            })
        }
        Some("event") => {
            v1("event")?;
            Ok(Request::Event {
                session: session_of(&j)?,
                event: event_from_value(&j)?,
            })
        }
        Some("close") => {
            v1("close")?;
            Ok(Request::Close {
                session: session_of(&j)?,
            })
        }
        Some("metrics") => {
            v1("metrics")?;
            Ok(Request::Metrics)
        }
        Some("subscribe") => {
            v2("subscribe")?;
            Ok(Request::Subscribe {
                session: session_of(&j)?,
            })
        }
        Some("unsubscribe") => {
            v2("unsubscribe")?;
            Ok(Request::Unsubscribe {
                session: session_of(&j)?,
            })
        }
        Some("negotiate") => {
            v2("negotiate")?;
            Ok(Request::Negotiate)
        }
        Some("append") => {
            v2("append")?;
            Ok(Request::Append {
                workload: workload_of(&j)?,
                table: field(&j, "table")?
                    .as_str()
                    .ok_or_else(|| proto_err("field 'table' must be a string"))?
                    .to_string(),
                rows: table_from_json(field(&j, "rows")?)?,
            })
        }
        other => Err(proto_err(format!("unknown request type {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encode an error as a versioned `error` response with its stable code.
pub fn error_to_json(error: &Pi2Error) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"type\":\"error\",\"code\":\"{}\",\"message\":\"{}\"}}",
        error.code(),
        escape(&error.to_string())
    )
}

fn interface_response(workload: &str, interface: &Interface) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"type\":\"interface\",\"workload\":\"{}\",\"spec\":{}}}",
        escape(workload),
        interface_to_json(interface)
    )
}

fn opened_response(id: u64, workload: &str, session: &Session, patch: &Patch) -> String {
    let mut out = format!(
        "{{\"v\":{PROTOCOL_VERSION},\"type\":\"opened\",\"session\":{id},\
         \"workload\":\"{}\",\"spec\":{},\"patch\":{{",
        escape(workload),
        interface_to_json(session.interface())
    );
    push_patch_body(&mut out, patch);
    out.push_str("}}");
    out
}

pub(crate) fn metrics_response(m: &ServiceMetrics) -> String {
    let mut out = format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"metrics\",\"workloads\":[");
    for (i, w) in m.workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"views\":{},\"interactions\":{},\"cost\":{},\
             \"searchIterations\":{},\"searchMillis\":{},\"warmedQueries\":{}}}",
            escape(&w.name),
            w.views,
            w.interactions,
            fmt_f64(w.cost),
            w.search.iterations,
            w.search.duration.as_millis(),
            w.warmed_queries,
        );
    }
    let _ = write!(
        out,
        "],\"sessionsOpened\":{},\"openWireSessions\":{},\
         \"resultCache\":{{\"hits\":{},\"misses\":{}}},\
         \"rewardTableEntries\":{},\"actionTableEntries\":{},\
         \"push\":{{\"subscriptions\":{},\"delivered\":{},\"evicted\":{}}}",
        m.sessions_opened,
        m.open_wire_sessions,
        m.result_cache.hits,
        m.result_cache.misses,
        m.reward_table_entries,
        m.action_table_entries,
        m.push.subscriptions,
        m.push.delivered,
        m.push.evicted,
    );
    let _ = write!(
        out,
        ",\"live\":{{\"appendRows\":{},\"epochBumps\":{},\"ivmHits\":{},\
         \"ivmFallbacks\":{},\"invalidatedViews\":{}}}",
        m.live.append_rows,
        m.live.epoch_bumps,
        m.live.ivm_hits,
        m.live.ivm_fallbacks,
        m.live.invalidated_views,
    );
    out.push('}');
    out
}

impl Pi2Service {
    /// Serve one JSON request (the wire entry point an HTTP/WebSocket
    /// front-end calls per message). Never panics on malformed input —
    /// every failure encodes as a versioned `error` response with a stable
    /// code.
    pub fn handle_json(&self, request: &str) -> String {
        match request_from_json(request).and_then(|r| self.handle_request(r)) {
            Ok(response) => response,
            Err(e) => error_to_json(&e),
        }
    }

    /// Serve one already-decoded request, returning the JSON response body
    /// or the structured error. This is the transport-agnostic core of
    /// [`Pi2Service::handle_json`]; the HTTP server (`pi2::server`) decodes
    /// on a worker and dispatches here — responses are byte-identical
    /// across both entry points by construction. Equivalent to
    /// [`Pi2Service::handle_request_link`] with no transport context, so
    /// v2 `subscribe` requests report the push-capability error.
    pub fn handle_request(&self, request: Request) -> Result<String, Pi2Error> {
        self.handle_request_link(request, None)
    }

    /// [`Pi2Service::handle_request`] with the transport context of the
    /// connection the request arrived on: `Some` for push-capable
    /// (WebSocket) connections, `None` for HTTP and in-process callers.
    /// The context gates the v2 subscription requests and tells
    /// `negotiate` whether pushes can actually be delivered.
    pub fn handle_request_link(
        &self,
        request: Request,
        link: Option<&PushLink>,
    ) -> Result<String, Pi2Error> {
        match request {
            Request::Open { workload } => {
                let (id, slot) = self.open_wire(&workload)?;
                let session = slot.lock();
                let patch = session.refresh()?;
                Ok(opened_response(id, &workload, &session, &patch))
            }
            Request::Describe { workload } => {
                let generation = self
                    .generation(&workload)
                    .ok_or_else(|| Pi2Error::UnknownWorkload(workload.clone()))?;
                Ok(interface_response(&workload, &generation.interface))
            }
            Request::Event { session, event } => {
                let slot = self
                    .wire_session(session)
                    .ok_or(Pi2Error::UnknownSession(session))?;
                let patch = slot.lock().dispatch(&event)?;
                // The originating dispatch succeeded: replay the event on
                // subscribed peers sharing the workload channel and push
                // each peer its own patch (their lock is released before
                // this; fan-out never nests session locks).
                self.fanout_event(session, &event);
                Ok(patch_to_json(&patch))
            }
            Request::Close { session } => {
                if self.close_wire(session) {
                    Ok(format!(
                        "{{\"v\":{PROTOCOL_VERSION},\"type\":\"closed\",\"session\":{session}}}"
                    ))
                } else {
                    Err(Pi2Error::UnknownSession(session))
                }
            }
            Request::Metrics => Ok(metrics_response(&self.metrics())),
            Request::Subscribe { session } => {
                let link = link.ok_or_else(|| {
                    proto_err("subscribe requires a push-capable (WebSocket) connection")
                })?;
                let slot = self
                    .wire_session(session)
                    .ok_or(Pi2Error::UnknownSession(session))?;
                // Snapshot the seq under the session lock so the client
                // knows exactly which state its push stream starts after.
                let seq = slot.lock().seq();
                if !self
                    .push_hub()
                    .subscribe(session, link.conn, Arc::clone(&link.sender))
                {
                    return Err(Pi2Error::UnknownSession(session));
                }
                Ok(format!(
                    "{{\"v\":{PROTOCOL_VERSION_V2},\"type\":\"subscribed\",\
                     \"session\":{session},\"seq\":{seq}}}"
                ))
            }
            Request::Unsubscribe { session } => {
                let link = link.ok_or_else(|| {
                    proto_err("unsubscribe requires a push-capable (WebSocket) connection")
                })?;
                if self.wire_session(session).is_none() {
                    return Err(Pi2Error::UnknownSession(session));
                }
                // Idempotent: unsubscribing a session that was never
                // subscribed (or subscribed elsewhere) is not an error.
                let dropped = self.push_hub().unsubscribe(session, link.conn);
                Ok(format!(
                    "{{\"v\":{PROTOCOL_VERSION_V2},\"type\":\"unsubscribed\",\
                     \"session\":{session},\"dropped\":{dropped}}}"
                ))
            }
            Request::Negotiate => {
                // The structured capability object replaces endpoint
                // probing: `versions` lists every protocol version this
                // server speaks, `ws_push` reports whether *this
                // connection* can deliver pushes, and `live` the append
                // endpoint plus the query shapes served incrementally.
                // The legacy top-level `push` flag is kept for v2 clients
                // that predate capabilities.
                Ok(format!(
                    "{{\"v\":{PROTOCOL_VERSION_V2},\"type\":\"protocols\",\
                     \"versions\":[{PROTOCOL_VERSION},{PROTOCOL_VERSION_V2}],\"push\":{push},\
                     \"capabilities\":{{\"versions\":[{PROTOCOL_VERSION},{PROTOCOL_VERSION_V2}],\
                     \"ws_push\":{push},\
                     \"live\":{{\"append\":true,\
                     \"ivm\":[\"filter\",\"group\",\"aggregate\",\"project\"]}}}}}}",
                    push = link.is_some(),
                ))
            }
            Request::Append {
                workload,
                table,
                rows,
            } => {
                let outcome = self.append(&workload, &table, rows)?;
                // The append is committed: push every subscriber of the
                // workload channel its own data patch (the views whose
                // query references the appended table — untouched views
                // produce no entry).
                self.fanout_append(&workload, &outcome.table);
                Ok(format!(
                    "{{\"v\":{PROTOCOL_VERSION_V2},\"type\":\"appended\",\
                     \"workload\":\"{}\",\"table\":\"{}\",\"epoch\":{},\
                     \"rows\":{},\"totalRows\":{}}}",
                    escape(&workload),
                    escape(&outcome.table),
                    outcome.epoch,
                    outcome.rows,
                    outcome.total_rows,
                ))
            }
        }
    }

    /// Replay `event` on every subscribed peer of `origin`'s workload
    /// channel and push each peer its own resulting patch (or error) —
    /// exactly the bytes that peer's `handle_json` would return for the
    /// same event. The send happens under the peer's session lock, so
    /// push order matches that peer's sequence numbers.
    fn fanout_event(&self, origin: u64, event: &Event) {
        for (session, conn, sender) in self.push_hub().peers_of(origin) {
            let Some(slot) = self.wire_session(session) else {
                // Closed since the snapshot; drop the stale subscription.
                self.push_hub().drop_session(session);
                continue;
            };
            let mut peer = slot.lock();
            let body = match peer.dispatch(event) {
                Ok(patch) => patch_to_json(&patch),
                Err(e) => error_to_json(&e),
            };
            if sender(conn, body) {
                self.push_hub().note_delivered();
            } else {
                self.push_hub().evict(session, conn);
            }
        }
    }

    /// Push every subscriber of `workload`'s channel the data patch a
    /// committed append produced for *its own* session — exactly the bytes
    /// that session's next refresh would carry for the affected views.
    /// Sessions whose current queries don't reference the appended table
    /// get nothing (their patch would be empty).
    fn fanout_append(&self, workload: &str, table: &str) {
        for (session, conn, sender) in self.push_hub().subscribers_of(workload) {
            let Some(slot) = self.wire_session(session) else {
                self.push_hub().drop_session(session);
                continue;
            };
            let peer = slot.lock();
            let body = match peer.data_patch(table) {
                Ok(patch) if patch.is_empty() => continue,
                Ok(patch) => patch_to_json(&patch),
                Err(e) => error_to_json(&e),
            };
            if sender(conn, body) {
                self.push_hub().note_delivered();
            } else {
                self.push_hub().evict(session, conn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_codec_round_trips_every_kind() {
        let events = [
            Event::Select {
                interaction: 3,
                option: 1,
            },
            Event::Toggle {
                interaction: 0,
                on: true,
            },
            Event::SetValues {
                interaction: 2,
                values: vec![
                    Value::Int(7),
                    Value::Float(2.5),
                    Value::Str("CA".into()),
                    Value::Date(0),
                    Value::Bool(false),
                    Value::Null,
                ],
            },
            Event::SetSet {
                interaction: 1,
                values: vec![Value::Int(5), Value::Int(6)],
            },
            Event::SelectMany {
                interaction: 4,
                options: vec![0, 2, 3],
            },
            Event::Clear { interaction: 9 },
        ];
        for e in events {
            let json = event_to_json(&e);
            let back = event_from_json(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
            assert_eq!(e, back, "{json}");
        }
    }

    #[test]
    fn version_mismatches_are_rejected() {
        assert!(
            event_from_json("{\"type\":\"event\",\"kind\":\"clear\",\"interaction\":0}")
                .unwrap_err()
                .to_string()
                .contains("version")
        );
        let wrong = "{\"v\":2,\"type\":\"event\",\"kind\":\"clear\",\"interaction\":0}";
        assert!(matches!(event_from_json(wrong), Err(Pi2Error::Protocol(_))));
    }

    #[test]
    fn request_codec_round_trips() {
        let requests = [
            Request::Open {
                workload: "covid".into(),
            },
            Request::Describe {
                workload: "a \"b\"".into(),
            },
            Request::Event {
                session: 12,
                event: Event::Select {
                    interaction: 0,
                    option: 2,
                },
            },
            Request::Close { session: 12 },
            Request::Metrics,
        ];
        for r in requests {
            let json = request_to_json(&r);
            let back = request_from_json(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
            assert_eq!(r, back, "{json}");
        }
    }

    #[test]
    fn patch_codec_round_trips_tables() {
        let table = Table::from_rows(
            vec![
                ("a", DataType::Int),
                ("f", DataType::Float),
                ("s", DataType::Str),
                ("d", DataType::Date),
            ],
            vec![
                vec![
                    Value::Int(1),
                    Value::Float(0.5),
                    Value::Str("x".into()),
                    Value::Date(19000),
                ],
                // An int widens into the float column.
                vec![Value::Null, Value::Int(2), Value::Null, Value::Null],
                vec![
                    Value::Int(-4),
                    Value::Float(f64::INFINITY),
                    Value::Str("é".into()),
                    Value::Date(0),
                ],
            ],
        )
        .unwrap();
        let patch = Patch {
            seq: 5,
            views: vec![PatchView {
                view: 0,
                tree: 0,
                sql: "SELECT \"a\" FROM T".into(),
                table: Arc::new(table),
            }],
        };
        let json = patch_to_json(&patch);
        let back = patch_from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(back.seq, 5);
        assert_eq!(back.views.len(), 1);
        assert_eq!(back.views[0].sql, patch.views[0].sql);
        // Byte-identical re-encoding is the canonical equality check.
        assert_eq!(patch_to_json(&back), json);
    }

    #[test]
    fn malformed_requests_become_error_responses() {
        let service = Pi2Service::new();
        let resp = service.handle_json("not json at all");
        assert!(resp.contains("\"type\":\"error\""), "{resp}");
        assert!(resp.contains("\"code\":\"protocol\""), "{resp}");
        let resp = service.handle_json("{\"v\":1,\"type\":\"open\",\"workload\":\"nope\"}");
        assert!(resp.contains("\"code\":\"unknown_workload\""), "{resp}");
        let resp = service.handle_json("{\"v\":1,\"type\":\"close\",\"session\":99}");
        assert!(resp.contains("\"code\":\"unknown_session\""), "{resp}");
    }
}
