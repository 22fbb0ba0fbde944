//! The backtracking binder before its insertion trail, kept as the
//! reference for `pi2_difftree::bind_query`: every backtracking point
//! copies the bound keys, and rolling back retains only those. The trail
//! must return exactly what this returns.

use pi2_difftree::{Binding, BindingMap, DNode, NodeKind, SyntaxKind};

/// Match a concrete (choice-free) query GST against a Difftree, returning
/// the binding that expresses it, or `None` when the Difftree cannot.
pub(crate) fn bind_query(difftree: &DNode, concrete: &DNode) -> Option<BindingMap> {
    let mut map = BindingMap::new();
    if match_node(difftree, concrete, &mut map) {
        Some(map)
    } else {
        None
    }
}

/// Match one Difftree node against one concrete node.
fn match_node(delta: &DNode, conc: &DNode, out: &mut BindingMap) -> bool {
    match &delta.kind {
        NodeKind::Syntax(k) => {
            let NodeKind::Syntax(ck) = &conc.kind else {
                return false;
            };
            if k != ck {
                return false;
            }
            match_seq(&delta.children, &conc.children, out)
        }
        NodeKind::Any => {
            for (i, alt) in delta.children.iter().enumerate() {
                // Childless CoOpt group markers are metadata, not
                // alternatives.
                if matches!(alt.kind, NodeKind::CoOpt { .. }) && alt.children.is_empty() {
                    continue;
                }
                if alt.is_empty_node() {
                    if conc.is_empty_node() {
                        out.insert(delta.id, Binding::Index(i));
                        return true;
                    }
                    continue;
                }
                let mark = snapshot(out);
                if match_node(alt, conc, out) {
                    out.insert(delta.id, Binding::Index(i));
                    return true;
                }
                rollback(out, mark);
            }
            false
        }
        NodeKind::Val => {
            if let NodeKind::Syntax(SyntaxKind::Lit(lit)) = &conc.kind {
                out.insert(delta.id, Binding::Value(lit.0.clone()));
                true
            } else {
                false
            }
        }
        // MULTI/SUBSET only make sense inside child lists; as a direct
        // single-node match they must express exactly one element.
        NodeKind::Multi => {
            let Some(template) = delta.children.first() else {
                return false;
            };
            let mut sub = BindingMap::new();
            if match_node(template, conc, &mut sub) {
                out.insert(delta.id, Binding::List(vec![sub]));
                true
            } else {
                false
            }
        }
        NodeKind::Subset => {
            for (i, child) in delta.children.iter().enumerate() {
                let mark = snapshot(out);
                if match_node(child, conc, out) {
                    out.insert(delta.id, Binding::Indices(vec![i]));
                    return true;
                }
                rollback(out, mark);
            }
            false
        }
        NodeKind::CoOpt { .. } => {
            // Present: match the wrapped subtree (childless group markers
            // never match a concrete node).
            let Some(child) = delta.children.first() else {
                return false;
            };
            if match_node(child, conc, out) {
                out.insert(delta.id, Binding::Index(1));
                return true;
            }
            false
        }
    }
}

/// Ordered sequence matching with backtracking: `OPT` children may consume
/// zero or one concrete element, `MULTI` any number, `SUBSET` an ordered
/// subset, everything else exactly one.
fn match_seq(ds: &[DNode], cs: &[DNode], out: &mut BindingMap) -> bool {
    let Some((d, rest_d)) = ds.split_first() else {
        return cs.is_empty();
    };
    match &d.kind {
        NodeKind::Any => {
            for (i, alt) in d.children.iter().enumerate() {
                if matches!(alt.kind, NodeKind::CoOpt { .. }) && alt.children.is_empty() {
                    continue;
                }
                let mark = snapshot(out);
                if alt.is_empty_node() {
                    // Consume nothing.
                    if match_seq(rest_d, cs, out) {
                        out.insert(d.id, Binding::Index(i));
                        return true;
                    }
                } else if let Some((c0, rest_c)) = cs.split_first() {
                    if match_node(alt, c0, out) && match_seq(rest_d, rest_c, out) {
                        out.insert(d.id, Binding::Index(i));
                        return true;
                    }
                }
                rollback(out, mark);
            }
            false
        }
        NodeKind::Val => {
            let Some((c0, rest_c)) = cs.split_first() else {
                return false;
            };
            let NodeKind::Syntax(SyntaxKind::Lit(lit)) = &c0.kind else {
                return false;
            };
            if match_seq(rest_d, rest_c, out) {
                out.insert(d.id, Binding::Value(lit.0.clone()));
                true
            } else {
                false
            }
        }
        NodeKind::Multi => {
            let template = &d.children[0];
            // Greedy: consume as many elements as possible, backtracking down
            // to zero.
            let mut max_k = 0;
            let mut params: Vec<BindingMap> = Vec::new();
            for c in cs {
                let mut sub = BindingMap::new();
                if match_node(template, c, &mut sub) {
                    params.push(sub);
                    max_k += 1;
                } else {
                    break;
                }
            }
            for k in (0..=max_k).rev() {
                let mark = snapshot(out);
                if match_seq(rest_d, &cs[k..], out) {
                    out.insert(d.id, Binding::List(params[..k].to_vec()));
                    return true;
                }
                rollback(out, mark);
            }
            false
        }
        NodeKind::Subset => {
            // Try each ordered subset of d.children against a prefix of cs,
            // then continue with rest_d.
            fn try_subset(
                children: &[DNode],
                ci: usize,
                cs: &[DNode],
                rest_d: &[DNode],
                chosen: &mut Vec<usize>,
                subset_id: u32,
                out: &mut BindingMap,
            ) -> bool {
                // Option A: stop choosing; the rest of the sequence matches
                // the remaining concrete elements.
                {
                    let mark = snapshot(out);
                    if match_seq(rest_d, cs, out) {
                        out.insert(subset_id, Binding::Indices(chosen.clone()));
                        return true;
                    }
                    rollback(out, mark);
                }
                // Option B: choose a further child matching the next element.
                if let Some((c0, rest_c)) = cs.split_first() {
                    for j in ci..children.len() {
                        let mark = snapshot(out);
                        if match_node(&children[j], c0, out) {
                            chosen.push(j);
                            if try_subset(children, j + 1, rest_c, rest_d, chosen, subset_id, out) {
                                return true;
                            }
                            chosen.pop();
                        }
                        rollback(out, mark);
                    }
                }
                false
            }
            let mut chosen = Vec::new();
            try_subset(&d.children, 0, cs, rest_d, &mut chosen, d.id, out)
        }
        NodeKind::CoOpt { group } => {
            let Some(child) = d.children.first() else {
                // A bare marker consumes nothing.
                return match_seq(rest_d, cs, out);
            };
            // Present: consume one element.
            if let Some((c0, rest_c)) = cs.split_first() {
                let mark = snapshot(out);
                if match_node(child, c0, out) && match_seq(rest_d, rest_c, out) {
                    out.insert(d.id, Binding::Index(1));
                    return true;
                }
                rollback(out, mark);
            }
            // Absent: consume nothing, and record the linked OPTs inside the
            // subtree as "off" so their query bindings reflect this query.
            let mark = snapshot(out);
            if match_seq(rest_d, cs, out) {
                out.insert(d.id, Binding::Index(0));
                bind_linked_opts_absent(child, *group, out);
                return true;
            }
            rollback(out, mark);
            false
        }
        NodeKind::Syntax(_) => {
            let Some((c0, rest_c)) = cs.split_first() else {
                return false;
            };
            let mark = snapshot(out);
            if match_node(d, c0, out) && match_seq(rest_d, rest_c, out) {
                true
            } else {
                rollback(out, mark);
                false
            }
        }
    }
}

/// When a `CO-OPT` subtree is matched absent, bind each linked OPT inside it
/// (ANY nodes carrying the same group marker) to its `Empty` alternative so
/// downstream widgets see the toggle's "off" state.
fn bind_linked_opts_absent(node: &DNode, group: u32, out: &mut BindingMap) {
    if let NodeKind::Any = node.kind {
        if opt_group(node) == Some(group) {
            if let Some(empty_idx) = node.children.iter().position(|c| c.is_empty_node()) {
                out.entry(node.id).or_insert(Binding::Index(empty_idx));
            }
        }
    }
    for c in &node.children {
        bind_linked_opts_absent(c, group, out);
    }
}

/// Cheap rollback for the backtracking matcher: remember the key set size
/// and inserted keys. Because ids are unique per node and each node inserts
/// at most once, removing keys inserted after the snapshot is sufficient.
fn snapshot(map: &BindingMap) -> Vec<u32> {
    map.keys().copied().collect()
}

fn rollback(map: &mut BindingMap, keys_before: Vec<u32>) {
    let keep: std::collections::BTreeSet<u32> = keys_before.into_iter().collect();
    map.retain(|k, _| keep.contains(k));
}

fn opt_group(node: &DNode) -> Option<u32> {
    node.children.iter().find_map(|c| match c.kind {
        NodeKind::CoOpt { group } if c.children.is_empty() => Some(group),
        _ => None,
    })
}
