//! Elimination of redundant activate/deactivate instructions.
//!
//! The naive region-marking pass brackets *every* region header with a
//! marker (Figure 2(b) of the paper). This pass removes every marker that
//! provably re-establishes the state already in force on all paths reaching
//! it, producing the structure of Figure 2(c). The analysis is a small
//! abstract interpretation over the assist flag: `Some(true)`/`Some(false)`
//! when the flag is known, `None` at merge points where it is not.

use selcache_ir::{Item, Loop, Marker, Program, Trip};

/// Net effect of executing a sequence of items on the assist flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    /// Flag unchanged (exit state = entry state).
    Transparent,
    /// Flag definitely set to the given value on exit.
    Sets(bool),
    /// Exit state unknown.
    Unknown,
}

fn definitely_executes(trip: Trip) -> bool {
    match trip {
        Trip::Const(n) => n > 0,
        // A tile-tail loop runs `min(tile, total)` iterations on the first
        // controller iteration; conservatively unknown.
        Trip::TileTail { .. } => false,
    }
}

fn seq_effect(items: &[Item]) -> Effect {
    let mut eff = Effect::Transparent;
    for item in items {
        match item {
            Item::Marker(m) => eff = Effect::Sets(*m == Marker::On),
            Item::Block(_) => {}
            Item::Loop(l) => {
                let body = seq_effect(&l.body);
                match body {
                    Effect::Transparent => {}
                    Effect::Sets(s) => {
                        if definitely_executes(l.trip) {
                            eff = Effect::Sets(s);
                        } else {
                            // The loop may not run: exit is `s` or the prior
                            // state.
                            eff = match eff {
                                Effect::Sets(prev) if prev == s => Effect::Sets(s),
                                _ => Effect::Unknown,
                            };
                        }
                    }
                    Effect::Unknown => eff = Effect::Unknown,
                }
            }
        }
    }
    eff
}

fn eliminate_items(items: &[Item], mut state: Option<bool>) -> (Vec<Item>, Option<bool>) {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Item::Marker(m) => {
                let v = *m == Marker::On;
                if state == Some(v) {
                    // Redundant: the flag already has this value.
                } else {
                    out.push(Item::Marker(*m));
                    state = Some(v);
                }
            }
            Item::Block(stmts) => out.push(Item::Block(stmts.clone())),
            Item::Loop(l) => {
                let eff = seq_effect(&l.body);
                // Entry state of the body must hold on the first iteration
                // (`state`) and on every back edge (body exit).
                let entry = match eff {
                    Effect::Transparent => state,
                    Effect::Sets(s) if state == Some(s) => state,
                    _ => None,
                };
                let (body, _) = eliminate_items(&l.body, entry);
                out.push(Item::Loop(Loop { id: l.id, var: l.var, trip: l.trip, body }));
                state = match eff {
                    Effect::Transparent => state,
                    Effect::Sets(s) => {
                        if definitely_executes(l.trip) || state == Some(s) {
                            Some(s)
                        } else {
                            None
                        }
                    }
                    Effect::Unknown => None,
                };
            }
        }
    }
    (out, state)
}

/// Removes provably redundant ON/OFF markers. The assist flag is assumed
/// **off** on entry (the selective scheme starts as if the whole program
/// were software-optimized).
pub fn eliminate_redundant_markers(program: &Program) -> Program {
    let (items, _) = eliminate_items(&program.items, Some(false));
    Program { items, ..program.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{ProgramBuilder, Subscript};

    fn count_markers(items: &[Item]) -> usize {
        items
            .iter()
            .map(|i| match i {
                Item::Loop(l) => count_markers(&l.body),
                Item::Marker(_) => 1,
                Item::Block(_) => 0,
            })
            .sum()
    }

    #[test]
    fn leading_off_is_redundant() {
        let mut b = ProgramBuilder::new("t");
        b.marker(Marker::Off);
        b.stmt(|s| {
            s.int(1);
        });
        b.marker(Marker::On);
        let p = b.finish().unwrap();
        let e = eliminate_redundant_markers(&p);
        assert_eq!(count_markers(&e.items), 1);
        assert!(matches!(e.items[0], Item::Block(_)));
    }

    #[test]
    fn consecutive_duplicates_collapse() {
        let mut b = ProgramBuilder::new("t");
        b.marker(Marker::On);
        b.stmt(|s| {
            s.int(1);
        });
        b.marker(Marker::On);
        b.stmt(|s| {
            s.int(1);
        });
        b.marker(Marker::Off);
        let p = b.finish().unwrap();
        let e = eliminate_redundant_markers(&p);
        assert_eq!(count_markers(&e.items), 2); // On ... Off
    }

    #[test]
    fn loop_body_marker_survives_when_state_cycles() {
        // for t { ON hw-ish; OFF sw-ish }  — entry state of the body is Off
        // on iteration 1 but... the body ends Off, so ON must stay and the
        // trailing OFF must stay.
        let mut b = ProgramBuilder::new("t");
        b.loop_(4, |b, _| {
            b.marker(Marker::On);
            b.stmt(|s| {
                s.int(1);
            });
            b.marker(Marker::Off);
            b.stmt(|s| {
                s.int(1);
            });
        });
        let p = b.finish().unwrap();
        let e = eliminate_redundant_markers(&p);
        assert_eq!(count_markers(&e.items), 2);
    }

    #[test]
    fn loop_leading_marker_dropped_when_body_reestablishes_it() {
        // Program state on entry is Off; body is [OFF stmt] -> exit Off on
        // every path, so the leading OFF inside the loop is redundant.
        let mut b = ProgramBuilder::new("t");
        b.loop_(4, |b, _| {
            b.marker(Marker::Off);
            b.stmt(|s| {
                s.int(1);
            });
        });
        let p = b.finish().unwrap();
        let e = eliminate_redundant_markers(&p);
        assert_eq!(count_markers(&e.items), 0);
    }

    #[test]
    fn figure2_shape_keeps_three_markers_in_loop() {
        // for t { ON n1; OFF n2; ON n3 } with entry Off: iteration 2 enters
        // with On (from n3), so the leading ON is *not* removable... entry
        // merge = None -> all three markers stay, matching Figure 2(c).
        let mut b = ProgramBuilder::new("t");
        b.loop_(4, |b, _| {
            b.marker(Marker::On);
            b.stmt(|s| {
                s.int(1);
            });
            b.marker(Marker::Off);
            b.stmt(|s| {
                s.int(1);
            });
            b.marker(Marker::On);
            b.stmt(|s| {
                s.int(1);
            });
        });
        let p = b.finish().unwrap();
        let e = eliminate_redundant_markers(&p);
        assert_eq!(count_markers(&e.items), 3);
    }

    #[test]
    fn marker_after_definitely_executing_loop_uses_loop_exit_state() {
        // for t>0 { ... ON } ; ON  -> trailing ON redundant.
        let mut b = ProgramBuilder::new("t");
        b.loop_(4, |b, _| {
            b.stmt(|s| {
                s.int(1);
            });
            b.marker(Marker::On);
        });
        b.marker(Marker::On);
        let p = b.finish().unwrap();
        let e = eliminate_redundant_markers(&p);
        // Loop keeps one On (entry may be Off on iter 1... entry = merge(Off, On) = None,
        // so the in-loop On stays); the trailing On is dropped.
        assert_eq!(count_markers(&e.items), 1);
        assert!(matches!(e.items.last(), Some(Item::Loop(_))));
    }

    #[test]
    fn zero_trip_loop_does_not_define_state() {
        let mut b = ProgramBuilder::new("t");
        b.loop_(0, |b, _| {
            b.marker(Marker::On);
            b.stmt(|s| {
                s.int(1);
            });
        });
        b.marker(Marker::Off); // must survive: state after loop is unknown
        let p = b.finish().unwrap();
        let e = eliminate_redundant_markers(&p);
        assert_eq!(count_markers(&e.items), 2);
    }

    #[test]
    fn end_to_end_with_region_detection() {
        use crate::region::{detect_and_mark, AssistPolicy};
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[64], 8);
        // Two consecutive software nests: the second OFF is redundant and
        // the first is too (initial state Off).
        for _ in 0..2 {
            b.loop_(64, |b, i| {
                b.stmt(|s| {
                    s.read(a, vec![Subscript::var(i)]);
                });
            });
        }
        let p = b.finish().unwrap();
        let marked = detect_and_mark(&p, 0.5, AssistPolicy::IrregularRegions);
        assert_eq!(marked.marker_count(), 2);
        let e = eliminate_redundant_markers(&marked);
        assert_eq!(count_markers(&e.items), 0);
    }
}
