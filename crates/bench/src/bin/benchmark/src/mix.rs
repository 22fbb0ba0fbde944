//! The benchmark's own traffic builder. Every mix is probed against a
//! scratch session before timing: a workload whose interface no longer
//! offers the interactions it relies on aborts with a named error instead
//! of timing an empty loop.

use crate::stats::Rng;
use pi2::{DataType, Event, Generation, InteractionChoice, Session, Table, Value, WidgetKind};
use pi2_interface::WidgetDomain;
use std::collections::HashSet;

/// A cyclic event mix over the option widgets of an interface. Replayed
/// from its second lap on, every event changes some view's query (so
/// every patch is non-empty) and the state sequence repeats exactly.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub events: Vec<Event>,
    /// Per position: the (view, SQL) pairs the patch must carry.
    pub expected: Vec<Vec<(usize, String)>>,
    /// Interactions the cycle drives.
    pub interactions: usize,
    /// Distinct interface states the cycle visits.
    pub states: usize,
}

/// The payloads an interaction can be driven through, as events.
fn payloads(ix: usize, choice: &InteractionChoice) -> Vec<Event> {
    match choice {
        InteractionChoice::Widget {
            kind: WidgetKind::Toggle,
            ..
        } => vec![
            Event::Toggle {
                interaction: ix,
                on: false,
            },
            Event::Toggle {
                interaction: ix,
                on: true,
            },
        ],
        InteractionChoice::Widget {
            domain: WidgetDomain::Options(options),
            ..
        } if options.len() >= 2 => (0..options.len())
            .map(|option| Event::Select {
                interaction: ix,
                option,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn state_of(session: &Session) -> Vec<String> {
    (0..)
        .map_while(|t| session.sql_for_tree(t).map(str::to_string))
        .collect()
}

/// Build a cycle of about `len` events over every drivable interaction.
/// How many distinct states it reaches depends on the interface and is
/// recorded in `Cycle::states`.
pub fn build_cycle(g: &Generation, seed: u64, len: usize) -> Result<Cycle, String> {
    let mut rng = Rng::fork(seed, 0xc7c1e);
    let mut drivable: Vec<Vec<Event>> = Vec::new();
    {
        // Keep only interactions whose payloads dispatch on a scratch session.
        let mut probe = g.session().map_err(|e| format!("probe session: {e}"))?;
        for (ix, inst) in g.interface.interactions.iter().enumerate() {
            let options: Vec<Event> = payloads(ix, &inst.choice)
                .into_iter()
                .filter(|e| probe.dispatch(e).is_ok())
                .collect();
            if options.len() >= 2 {
                drivable.push(options);
            }
        }
    }
    if drivable.is_empty() {
        return Err("hollow mix: the interface has no drivable option widget or toggle".into());
    }
    // Seeded walk: pick an interaction, then a payload other than the one
    // it was last given.
    let mut picks: Vec<(usize, usize)> = Vec::with_capacity(len + drivable.len());
    let mut last: Vec<Option<usize>> = vec![None; drivable.len()];
    for step in 0..len {
        // The first pass over the interactions touches each once, so the
        // state is a function of the cycle alone from the second lap on.
        let d = if step < drivable.len() {
            step
        } else {
            rng.below(drivable.len())
        };
        let n = drivable[d].len();
        let mut p = rng.below(n);
        if Some(p) == last[d] {
            p = (p + 1 + rng.below(n - 1)) % n;
        }
        last[d] = Some(p);
        picks.push((d, p));
    }
    // Close the cycle: an interaction's last payload must differ from its
    // first, or the first event of the next lap would change nothing.
    for d in 0..drivable.len() {
        let first = picks.iter().find(|(pd, _)| *pd == d).map(|(_, p)| *p);
        if first == last[d] {
            let n = drivable[d].len();
            let p = (0..n)
                .find(|p| Some(*p) != first)
                .expect("at least two payloads");
            picks.push((d, p));
        }
    }
    let events: Vec<Event> = picks.iter().map(|&(d, p)| drivable[d][p].clone()).collect();

    // Probe: lap 1 reaches the periodic regime, laps 2 and 3 must agree
    // event by event and never produce an empty patch.
    let mut probe = g.session().map_err(|e| format!("probe session: {e}"))?;
    let lap = |probe: &mut Session| -> Result<Vec<Vec<(usize, String)>>, String> {
        events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let patch = probe
                    .dispatch(e)
                    .map_err(|err| format!("hollow mix: event {i} {e:?} fails: {err}"))?;
                Ok(patch
                    .views
                    .iter()
                    .map(|v| (v.view, v.sql.clone()))
                    .collect())
            })
            .collect()
    };
    lap(&mut probe)?;
    let expected = lap(&mut probe)?;
    let mut states = HashSet::new();
    let mut again = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let patch = probe
            .dispatch(e)
            .map_err(|err| format!("hollow mix: event {i} {e:?} fails: {err}"))?;
        again.push(
            patch
                .views
                .iter()
                .map(|v| (v.view, v.sql.clone()))
                .collect::<Vec<_>>(),
        );
        states.insert(state_of(&probe));
    }
    if again != expected {
        return Err("hollow mix: the event cycle is not periodic".into());
    }
    if let Some(i) = expected.iter().position(Vec::is_empty) {
        return Err(format!(
            "hollow mix: event {i} {:?} does not change any view",
            events[i]
        ));
    }
    if states.len() < 2 {
        return Err("hollow mix: the cycle does not alternate between states".into());
    }
    Ok(Cycle {
        events,
        expected,
        interactions: drivable.len(),
        states: states.len(),
    })
}

/// A single-value slider the mapper mined from a literal.
#[derive(Debug, Clone, PartialEq)]
pub struct Slider {
    pub label: String,
    pub interaction: usize,
    pub min: i64,
    pub max: i64,
}

impl Slider {
    pub fn event(&self, threshold: f64) -> Event {
        let value = if threshold.fract() == 0.0 {
            Value::Int(threshold as i64)
        } else {
            Value::Float(threshold)
        };
        Event::SetValues {
            interaction: self.interaction,
            values: vec![value],
        }
    }

    /// How resolved SQL spells a threshold of this slider.
    pub fn literal(&self, threshold: f64) -> String {
        format!("{} > {threshold} ", self.label)
    }

    /// Every threshold of the slider's domain exactly once, in seeded
    /// order: the integers first, then the half-integers between them, so
    /// no payload ever repeats (each resolves to SQL never seen before).
    pub fn thresholds(&self, rng: &mut Rng) -> Vec<f64> {
        let mut ints: Vec<f64> = (self.min..=self.max).map(|v| v as f64).collect();
        let mut halves: Vec<f64> = (self.min..self.max).map(|v| v as f64 + 0.5).collect();
        rng.shuffle(&mut ints);
        rng.shuffle(&mut halves);
        ints.extend(halves);
        ints
    }
}

/// Find the slider labelled `label` and prove on a scratch session that
/// it alternates: two thresholds give two non-empty patches of one view
/// with different SQL.
pub fn find_slider(g: &Generation, label: &str) -> Result<Slider, String> {
    let missing = || format!("hollow mix: no VAL slider for {label}");
    let (interaction, min, max) = g
        .interface
        .interactions
        .iter()
        .enumerate()
        .find_map(|(ix, inst)| match &inst.choice {
            InteractionChoice::Widget {
                kind: WidgetKind::Slider,
                domain: WidgetDomain::Range { min, max },
                label: l,
            } if l == label => Some((ix, *min, *max)),
            _ => None,
        })
        .ok_or_else(missing)?;
    let (min, max) = (min.ceil() as i64, max.floor() as i64);
    if max - min < 64 {
        return Err(format!(
            "hollow mix: slider {label} spans only {min}..{max}"
        ));
    }
    let slider = Slider {
        label: label.to_string(),
        interaction,
        min,
        max,
    };
    let mut probe = g.session().map_err(|e| format!("probe session: {e}"))?;
    let mid = (min + max) / 2;
    let mut sqls = Vec::new();
    for t in [mid as f64, mid as f64 + 1.0, mid as f64 + 0.5] {
        let patch = probe
            .dispatch(&slider.event(t))
            .map_err(|e| format!("hollow mix: slider {label} rejects {t}: {e}"))?;
        let [view] = &patch.views[..] else {
            return Err(format!(
                "hollow mix: slider {label} at {t} changed {} views, expected 1",
                patch.views.len()
            ));
        };
        sqls.push(view.sql.clone());
    }
    sqls.sort();
    sqls.dedup();
    if sqls.len() != 3 {
        return Err(format!(
            "hollow mix: slider {label} does not resolve thresholds to distinct SQL"
        ));
    }
    Ok(slider)
}

/// States that exist in `covid_big`'s dictionary.
const APPEND_STATES: [&str; 4] = ["CA", "NY", "TX", "WA"];

pub const APPEND_ROWS: usize = 500;

/// The rows of append number `k` into `covid_big`, drawn from the same
/// distribution the table was built from.
pub fn append_rows(seed: u64, k: u64) -> Vec<Vec<Value>> {
    let mut rng = Rng::fork(seed, 0xa99e0d ^ (k << 24));
    (0..APPEND_ROWS)
        .map(|_| {
            let cases = rng.below(60_000) as i64;
            vec![
                Value::Str(APPEND_STATES[rng.below(APPEND_STATES.len())].to_string()),
                Value::Str(format!("county_{:03}", rng.below(240))),
                Value::Date(18_809 - rng.below(200) as i64),
                Value::Int(cases),
                Value::Int(cases / 50 + rng.below(20) as i64),
            ]
        })
        .collect()
}

pub fn covid_big_rows(rows: Vec<Vec<Value>>) -> Table {
    Table::from_rows(
        vec![
            ("state", DataType::Str),
            ("county", DataType::Str),
            ("date", DataType::Date),
            ("cases", DataType::Int),
            ("deaths", DataType::Int),
        ],
        rows,
    )
    .expect("rows match the covid_big schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate, serving_config, Tier};

    #[test]
    fn covid_cycle_is_periodic_and_never_hollow() {
        let g = generate(
            Tier::Covid.catalog(),
            &Tier::Covid.queries(),
            &serving_config(),
        )
        .unwrap();
        let a = build_cycle(&g, 1, 128).unwrap();
        let b = build_cycle(&g, 1, 128).unwrap();
        let c = build_cycle(&g, 2, 128).unwrap();
        assert_eq!(a.events, b.events, "same seed, same mix");
        assert_ne!(a.events, c.events, "another seed, another mix");
        assert!(a.events.len() >= 128);
        assert!(a.states >= 8 && a.interactions >= 2, "{a:?}");
        assert!(a.expected.iter().all(|views| !views.is_empty()));
        // Replaying on a fresh session reproduces the expected SQL from lap 2.
        let mut s = g.session().unwrap();
        for e in &a.events {
            s.dispatch(e).unwrap();
        }
        for (e, want) in a.events.iter().zip(&a.expected) {
            let patch = s.dispatch(e).unwrap();
            let got: Vec<(usize, String)> = patch
                .views
                .iter()
                .map(|v| (v.view, v.sql.clone()))
                .collect();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn a_missing_slider_is_a_named_error() {
        let g = generate(
            Tier::Covid.catalog(),
            &Tier::Covid.queries(),
            &serving_config(),
        )
        .unwrap();
        let err = find_slider(&g, "deaths").unwrap_err();
        assert!(err.contains("no VAL slider for deaths"), "{err}");
    }

    #[test]
    fn thresholds_never_repeat() {
        let s = Slider {
            label: "deaths".into(),
            interaction: 0,
            min: 0,
            max: 99,
        };
        let t = s.thresholds(&mut Rng::fork(5, 0));
        assert_eq!(t.len(), 199);
        let mut keys: Vec<u64> = t.iter().map(|v| (v * 2.0) as u64).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 199);
        assert!(t[..100].iter().all(|v| v.fract() == 0.0));
        assert_eq!(s.literal(3.0), "deaths > 3 ");
        assert_eq!(s.literal(3.5), "deaths > 3.5 ");
        assert_eq!(
            s.event(3.0),
            Event::SetValues {
                interaction: 0,
                values: vec![Value::Int(3)]
            }
        );
        assert_eq!(
            s.event(3.5),
            Event::SetValues {
                interaction: 0,
                values: vec![Value::Float(3.5)]
            }
        );
    }

    #[test]
    fn append_rows_are_seeded() {
        assert_eq!(append_rows(1, 0), append_rows(1, 0));
        assert_ne!(append_rows(1, 0), append_rows(1, 1));
        assert_ne!(append_rows(1, 0), append_rows(2, 0));
        assert_eq!(covid_big_rows(append_rows(1, 0)).num_rows(), APPEND_ROWS);
    }
}
