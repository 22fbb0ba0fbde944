//! Visualization types, schemas, and mapping (§4.1, Table 1).
//!
//! | Vis   | Schema                                         | FDs                        | Interactions |
//! |-------|------------------------------------------------|----------------------------|--------------|
//! | Table | any schema                                     | —                          | Click |
//! | Point | `<x:Q|C, y:Q, shape:C?, size:C?, color:C?>`    | —                          | Click, Multi-click, Brush-x/y/xy, Pan, Zoom |
//! | Bar   | `<x:C, y:Q, color:C?>`                         | `(x, color) → y`           | Click, Multi-click, Brush-x |
//! | Line  | `<x:Q|C, y:Q, shape:C?, size:C?, color:C?>`    | `(x, shape, size, color) → y` | Click, Pan, Zoom |

use crate::interaction::InteractionKind;
use pi2_difftree::ResultSchema;
use std::fmt;

/// Visualization types supported by the prototype (Table 1). The registry is
/// extensible in the same way the paper describes: adding a variant plus its
/// schema/interaction entries is all that is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VisKind {
    /// A plain result table (accepts any schema).
    Table,
    /// A scatterplot.
    Point,
    /// A bar chart.
    Bar,
    /// A line chart.
    Line,
}

impl VisKind {
    /// ALL.
    pub const ALL: [VisKind; 4] = [VisKind::Table, VisKind::Point, VisKind::Bar, VisKind::Line];

    /// Interactions each visualization type supports (Table 1, right
    /// column).
    pub fn supported_interactions(self) -> &'static [InteractionKind] {
        use InteractionKind::*;
        match self {
            VisKind::Table => &[Click],
            VisKind::Point => &[Click, MultiClick, BrushX, BrushY, BrushXY, Pan, Zoom],
            VisKind::Bar => &[Click, MultiClick, BrushX],
            VisKind::Line => &[Click, Pan, Zoom],
        }
    }

    /// The visual variables of this visualization's schema, with their type
    /// constraints.
    pub fn schema(self) -> &'static [VisVarSpec] {
        use VisVar::*;
        match self {
            VisKind::Table => &[],
            VisKind::Point | VisKind::Line => &[
                VisVarSpec {
                    var: X,
                    quantitative: true,
                    categorical: true,
                    optional: false,
                },
                VisVarSpec {
                    var: Y,
                    quantitative: true,
                    categorical: false,
                    optional: false,
                },
                VisVarSpec {
                    var: Shape,
                    quantitative: false,
                    categorical: true,
                    optional: true,
                },
                VisVarSpec {
                    var: Size,
                    quantitative: false,
                    categorical: true,
                    optional: true,
                },
                VisVarSpec {
                    var: Color,
                    quantitative: false,
                    categorical: true,
                    optional: true,
                },
            ],
            VisKind::Bar => &[
                VisVarSpec {
                    var: X,
                    quantitative: false,
                    categorical: true,
                    optional: false,
                },
                VisVarSpec {
                    var: Y,
                    quantitative: true,
                    categorical: false,
                    optional: false,
                },
                VisVarSpec {
                    var: Color,
                    quantitative: false,
                    categorical: true,
                    optional: true,
                },
            ],
        }
    }

    /// FD determinants (Table 1 middle column): the visual variables that
    /// must functionally determine y.
    pub fn fd_determinants(self) -> &'static [VisVar] {
        match self {
            VisKind::Bar => &[VisVar::X, VisVar::Color],
            VisKind::Line => &[VisVar::X, VisVar::Shape, VisVar::Size, VisVar::Color],
            _ => &[],
        }
    }
}

impl fmt::Display for VisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VisKind::Table => "table",
            VisKind::Point => "scatterplot",
            VisKind::Bar => "bar chart",
            VisKind::Line => "line chart",
        };
        write!(f, "{s}")
    }
}

/// Visual variables (Bertin's retinal/positional channels used by Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VisVar {
    /// Horizontal position.
    X,
    /// Vertical position.
    Y,
    /// Mark shape.
    Shape,
    /// Mark size.
    Size,
    /// Mark color.
    Color,
}

impl fmt::Display for VisVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VisVar::X => "x",
            VisVar::Y => "y",
            VisVar::Shape => "shape",
            VisVar::Size => "size",
            VisVar::Color => "color",
        };
        write!(f, "{s}")
    }
}

/// One visual variable of a visualization schema with its type and
/// optionality constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisVarSpec {
    /// The visual variable.
    pub var: VisVar,
    /// Accepts quantitative (numeric) columns.
    pub quantitative: bool,
    /// Accepts categorical (str / low-cardinality) columns.
    pub categorical: bool,
    /// The optional.
    pub optional: bool,
}

/// A valid mapping from a Difftree result schema to a visualization.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VisMapping {
    /// The visualization type.
    pub kind: VisKind,
    /// `assignments[i] = (col index, visual variable)`.
    pub assignments: Vec<(usize, VisVar)>,
}

impl VisMapping {
    /// The result column mapped to a visual variable, if any.
    pub fn column_for(&self, var: VisVar) -> Option<usize> {
        self.assignments
            .iter()
            .find(|(_, v)| *v == var)
            .map(|(c, _)| *c)
    }

    /// The visual variable a result column is mapped to.
    pub fn var_for(&self, col: usize) -> Option<VisVar> {
        self.assignments
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, v)| *v)
    }
}

impl fmt::Display for VisMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.assignments.is_empty() {
            let parts: Vec<String> = self
                .assignments
                .iter()
                .map(|(c, v)| format!("col{c}→{v}"))
                .collect();
            write!(f, "({})", parts.join(", "))?;
        }
        Ok(())
    }
}

/// Generate all valid visualization mappings for a result schema (§4.1
/// "Candidate Generation"): iterate visualization types and enumerate
/// permutations of the result schema onto the visualization schema, keeping
/// mappings that satisfy:
///
/// 1. every data attribute is mapped to a visual attribute (unique
///    key/id columns may stay unmapped — the paper's Connect case study
///    notes "id is a primary key so is not rendered by default"),
/// 2. each visual attribute is mapped at most once,
/// 3. every non-optional visual variable is mapped,
/// 4. column types are compatible with the visual variable types,
/// 5. the visualization's FD constraints hold — checked statically from the
///    query structure (group-by keys, unique columns), with an empirical
///    fallback over executed result `samples` (e.g. a per-state Covid time
///    series is a function of date even though the base column is not
///    unique).
pub fn vis_mapping_candidates(
    schema: &ResultSchema,
    samples: &[&pi2_data::Table],
) -> Vec<VisMapping> {
    let mut out = Vec::new();
    // Table accepts anything.
    out.push(VisMapping {
        kind: VisKind::Table,
        assignments: vec![],
    });

    // Columns that may be skipped: hidden record ids.
    let skippable: Vec<bool> = schema
        .cols
        .iter()
        .map(|c| c.unique && !c.is_group_key)
        .collect();

    for kind in [VisKind::Bar, VisKind::Line, VisKind::Point] {
        let spec = kind.schema();
        let mut assignment: Vec<(usize, VisVar)> = Vec::new();
        enumerate(
            kind,
            spec,
            schema,
            samples,
            &skippable,
            0,
            &mut assignment,
            &mut out,
        );
    }
    // Preference order for cost ties (candidates are tried in order by the
    // mapping search): bar charts for aggregates, line charts for time
    // series (Date on x), then scatterplots, then other line charts, tables
    // last.
    out.sort_by_key(|m| match m.kind {
        VisKind::Bar => 0,
        VisKind::Line => {
            let date_x = m
                .column_for(VisVar::X)
                .and_then(|c| schema.cols.get(c))
                .is_some_and(|c| c.dtype == pi2_data::DataType::Date);
            if date_x {
                1
            } else {
                3
            }
        }
        VisKind::Point => 2,
        VisKind::Table => 4,
    });
    out
}

/// Does the functional dependency `det_cols → (all other columns)` hold in
/// every sample result table?
fn fd_holds_empirically(samples: &[&pi2_data::Table], det_cols: &[usize]) -> bool {
    if samples.is_empty() {
        return false;
    }
    // Hash the determinant columns batch-wise and compare rows through the
    // column storage — no per-row `Value` clones.
    samples.iter().all(|t| {
        let det: Vec<_> = det_cols
            .iter()
            .filter(|&&c| c < t.num_columns())
            .map(|&c| t.col(c))
            .collect();
        let all: Vec<_> = (0..t.num_columns()).map(|c| t.col(c)).collect();
        // An equal-key row that differs anywhere breaks the FD.
        let mut interner = pi2_data::column::RowInterner::new(det);
        for i in 0..t.num_rows() as u32 {
            if let Some(j) = interner.intern(i) {
                if !all.iter().all(|c| c.eq_at(i as usize, c, j as usize)) {
                    return false;
                }
            }
        }
        true
    })
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    kind: VisKind,
    spec: &[VisVarSpec],
    schema: &ResultSchema,
    samples: &[&pi2_data::Table],
    skippable: &[bool],
    col: usize,
    assignment: &mut Vec<(usize, VisVar)>,
    out: &mut Vec<VisMapping>,
) {
    if col == schema.cols.len() {
        // All columns placed: check required visual variables and FDs.
        let all_required = spec
            .iter()
            .filter(|s| !s.optional)
            .all(|s| assignment.iter().any(|(_, v)| *v == s.var));
        if !all_required {
            return;
        }
        let determinant_cols: Vec<usize> = kind
            .fd_determinants()
            .iter()
            .filter_map(|v| assignment.iter().find(|(_, av)| av == v).map(|(c, _)| *c))
            .collect();
        if !kind.fd_determinants().is_empty() {
            // The mapped determinants must determine y; unmapped optional
            // determinants (e.g. no color) are simply absent.
            let y_col = assignment
                .iter()
                .find(|(_, v)| *v == VisVar::Y)
                .map(|(c, _)| *c);
            if y_col.is_some()
                && !schema.functionally_determines(&determinant_cols)
                && !fd_holds_empirically(samples, &determinant_cols)
            {
                return;
            }
        }
        out.push(VisMapping {
            kind,
            assignments: assignment.clone(),
        });
        return;
    }
    let c = &schema.cols[col];
    // Option 1: map this column to a free compatible visual variable.
    for s in spec {
        if assignment.iter().any(|(_, v)| *v == s.var) {
            continue;
        }
        let compatible =
            (s.quantitative && c.is_quantitative()) || (s.categorical && c.is_categorical());
        if compatible {
            assignment.push((col, s.var));
            enumerate(
                kind,
                spec,
                schema,
                samples,
                skippable,
                col + 1,
                assignment,
                out,
            );
            assignment.pop();
        }
    }
    // Option 2: skip a hidden id column.
    if skippable[col] {
        enumerate(
            kind,
            spec,
            schema,
            samples,
            skippable,
            col + 1,
            assignment,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::DataType;
    use pi2_difftree::ResultCol;

    fn col(name: &str, dtype: DataType, card: Option<usize>, unique: bool, gk: bool) -> ResultCol {
        ResultCol {
            names: vec![name.to_string()],
            dtype,
            attrs: Vec::new(),
            is_group_key: gk,
            unique,
            cardinality: card,
        }
    }

    fn group_by_schema() -> ResultSchema {
        // SELECT p, count(*) GROUP BY p — p has 10 distinct values.
        ResultSchema {
            cols: vec![
                col("p", DataType::Int, Some(10), true, true),
                col("count", DataType::Int, None, false, false),
            ],
            is_aggregate: true,
            group_key_indices: vec![0],
        }
    }

    #[test]
    fn group_by_query_maps_to_bar_chart() {
        let cands = vis_mapping_candidates(&group_by_schema(), &[]);
        let bar = cands
            .iter()
            .find(|m| m.kind == VisKind::Bar)
            .expect("bar chart candidate");
        assert_eq!(bar.column_for(VisVar::X), Some(0));
        assert_eq!(bar.column_for(VisVar::Y), Some(1));
    }

    #[test]
    fn table_is_always_a_candidate() {
        let cands = vis_mapping_candidates(&group_by_schema(), &[]);
        assert!(cands.iter().any(|m| m.kind == VisKind::Table));
    }

    #[test]
    fn bar_chart_requires_fd() {
        // Non-aggregate, non-unique x: (x) does not determine y.
        let schema = ResultSchema {
            cols: vec![
                col("a", DataType::Int, Some(5), false, false),
                col("b", DataType::Int, None, false, false),
            ],
            is_aggregate: false,
            group_key_indices: vec![],
        };
        let cands = vis_mapping_candidates(&schema, &[]);
        assert!(
            !cands.iter().any(|m| m.kind == VisKind::Bar),
            "bar chart must not map without the (x, color) → y FD"
        );
        // Scatterplots don't need the FD.
        assert!(cands.iter().any(|m| m.kind == VisKind::Point));
    }

    #[test]
    fn high_cardinality_x_cannot_be_categorical() {
        let schema = ResultSchema {
            cols: vec![
                col("id", DataType::Int, Some(1000), true, false),
                col("v", DataType::Float, None, false, false),
            ],
            is_aggregate: false,
            group_key_indices: vec![],
        };
        let cands = vis_mapping_candidates(&schema, &[]);
        // Bar needs categorical x; 1000 distinct > 20 → no bar.
        assert!(!cands.iter().any(|m| m.kind == VisKind::Bar));
        // Point accepts quantitative x.
        assert!(cands
            .iter()
            .any(|m| m.kind == VisKind::Point && m.column_for(VisVar::X).is_some()));
    }

    #[test]
    fn string_column_must_map_to_categorical_variable() {
        // (hp, mpg, origin): origin is a low-cardinality string → color.
        let schema = ResultSchema {
            cols: vec![
                col("hp", DataType::Int, Some(100), false, false),
                col("mpg", DataType::Float, Some(200), false, false),
                col("origin", DataType::Str, Some(3), false, false),
            ],
            is_aggregate: false,
            group_key_indices: vec![],
        };
        let cands = vis_mapping_candidates(&schema, &[]);
        let point = cands
            .iter()
            .find(|m| {
                m.kind == VisKind::Point
                    && m.column_for(VisVar::X) == Some(0)
                    && m.column_for(VisVar::Y) == Some(1)
            })
            .expect("hp→x, mpg→y scatterplot");
        assert!(matches!(
            point.var_for(2),
            Some(VisVar::Color) | Some(VisVar::Shape) | Some(VisVar::Size)
        ));
    }

    #[test]
    fn unique_id_columns_may_be_skipped() {
        // (hp, disp, id): id is a unique key; a scatterplot of hp/disp
        // should exist with id unmapped (Connect case study).
        let schema = ResultSchema {
            cols: vec![
                col("hp", DataType::Int, Some(100), false, false),
                col("disp", DataType::Float, Some(150), false, false),
                col("id", DataType::Int, Some(400), true, false),
            ],
            is_aggregate: false,
            group_key_indices: vec![],
        };
        let cands = vis_mapping_candidates(&schema, &[]);
        assert!(cands.iter().any(|m| {
            m.kind == VisKind::Point && m.assignments.len() == 2 && m.var_for(2).is_none()
        }));
    }

    #[test]
    fn too_many_columns_fall_back_to_table() {
        // 9 columns (SDSS): only the table can render them.
        let cols: Vec<ResultCol> = (0..9)
            .map(|i| col(&format!("c{i}"), DataType::Float, None, false, false))
            .collect();
        let schema = ResultSchema {
            cols,
            is_aggregate: false,
            group_key_indices: vec![],
        };
        let cands = vis_mapping_candidates(&schema, &[]);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].kind, VisKind::Table);
    }

    #[test]
    fn table1_interaction_registry() {
        assert_eq!(
            VisKind::Table.supported_interactions(),
            &[InteractionKind::Click]
        );
        assert!(VisKind::Point
            .supported_interactions()
            .contains(&InteractionKind::BrushXY));
        assert!(!VisKind::Bar
            .supported_interactions()
            .contains(&InteractionKind::Pan));
        assert!(VisKind::Line
            .supported_interactions()
            .contains(&InteractionKind::Pan));
        assert!(!VisKind::Line
            .supported_interactions()
            .contains(&InteractionKind::MultiClick));
    }

    #[test]
    fn fd_determinants_match_table1() {
        assert_eq!(VisKind::Bar.fd_determinants(), &[VisVar::X, VisVar::Color]);
        assert_eq!(
            VisKind::Line.fd_determinants(),
            &[VisVar::X, VisVar::Shape, VisVar::Size, VisVar::Color]
        );
        assert!(VisKind::Point.fd_determinants().is_empty());
    }

    #[test]
    fn line_chart_for_date_series() {
        // (date, price): quantitative x (dates are numeric) + quantitative y.
        let mut date_col = col("date", DataType::Date, Some(1000), true, false);
        date_col.unique = true;
        let schema = ResultSchema {
            cols: vec![date_col, col("price", DataType::Float, None, false, false)],
            is_aggregate: false,
            group_key_indices: vec![],
        };
        let cands = vis_mapping_candidates(&schema, &[]);
        assert!(cands
            .iter()
            .any(|m| m.kind == VisKind::Line && m.column_for(VisVar::X) == Some(0)));
    }
}
