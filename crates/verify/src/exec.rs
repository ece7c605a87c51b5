//! Symbolic exploration of pipeline IR.
//!
//! [`verify`] runs the IR walker ([`netdebug_p4::walk`]) over [`Sym`]
//! values once per feasible path: parser select edges, `if` branches and,
//! following p4v's "for all control planes" model, every action a table
//! could run plus its miss, with each action's arguments as fresh atoms. A
//! walk replays a decision prefix without calling the solver. Past the
//! prefix, each branch point takes its first feasible alternative and
//! queues the others as longer prefixes, so the search is depth-first in
//! program order (execution-generated testing, as in EXE and KLEE).

use crate::solver::{solve, Sat};
use crate::sym::{arms_condition, AtomInfo, Sym};
use crate::{Finding, FindingKind, VerifyReport};
use netdebug_p4::ir::{ActionId, Program, SelectArm, StateId, StdField, TableId, TransTarget};
use netdebug_p4::walk::{walk, Domain, End, Event, Place};
use std::collections::{BTreeMap, BTreeSet};

/// Paths explored before the verifier reports saturation.
const MAX_PATHS: usize = 20_000;

/// Verify a program.
pub fn verify(program: &Program) -> VerifyReport {
    let ingress_port = AtomInfo {
        name: "standard_metadata.ingress_port".to_string(),
        width: 9,
    };
    let mut x = Explorer {
        program,
        findings: Vec::new(),
        seen: BTreeSet::new(),
        prefix: Vec::new(),
        queued: Vec::new(),
        depth: 0,
        dead: false,
        atoms: vec![ingress_port],
        pc: Vec::new(),
        desc: Vec::new(),
        valid: vec![false; program.headers.len()],
        vals: BTreeMap::new(),
        args: Vec::new(),
        keys: Vec::new(),
    };
    let (mut paths_explored, mut reject_paths) = (0, 0);
    loop {
        match walk(program, &mut x) {
            _ if x.dead => {}
            End::Rejected | End::TooShort => reject_paths += 1,
            End::Done {
                dropped: false,
                egress_written: false,
            } => x.report(
                FindingKind::NoVerdict,
                "path ends with neither mark_to_drop nor an egress_spec write".to_string(),
            ),
            End::Done { .. } => {}
        }
        paths_explored += usize::from(!x.dead);
        let Some((depth, choice)) = x.queued.pop() else {
            break;
        };
        if paths_explored >= MAX_PATHS {
            x.findings.push(Finding {
                kind: FindingKind::PathBudgetExhausted,
                detail: format!("exploration stopped at {MAX_PATHS} paths"),
                path: String::new(),
                witness: Vec::new(),
            });
            break;
        }
        x.restart(depth, choice);
    }
    VerifyReport {
        program: program.name.clone(),
        paths_explored,
        findings: x.findings,
        reject_paths,
        // In IR semantics a reject transition terminates the packet: there
        // is no continuation to explore, so the property holds on every
        // explored path by construction. We still count paths so reports
        // can show how many drop paths the spec promises.
        spec_reject_drops: true,
    }
}

/// The symbolic domain, one path per walk. The findings and the search
/// frontier outlive a walk; the rest is the current path's state.
struct Explorer<'p> {
    program: &'p Program,
    findings: Vec<Finding>,
    seen: BTreeSet<(FindingKind, String)>,
    /// The decisions (alternative indexes) taken so far: replayed up to the
    /// queued sibling this walk started from, then appended as they are made.
    prefix: Vec<u32>,
    /// Queued siblings: `(depth, alternative)` extends `prefix[..depth]`.
    queued: Vec<(usize, u32)>,
    /// Decisions this walk has reached.
    depth: usize,
    /// No alternative of some decision was feasible: the walk runs to its
    /// end, but it is no path and reports nothing.
    dead: bool,
    /// This path's atoms in creation order; atom 0 is the ingress port.
    atoms: Vec<AtomInfo>,
    pc: Vec<Sym>,
    desc: Vec<Step>,
    valid: Vec<bool>,
    /// Places written or read so far; any other place holds 0.
    vals: BTreeMap<Place, Sym>,
    args: Vec<Sym>,
    keys: Vec<Sym>,
}

/// One step of a path after `start`, named only when a finding prints it.
#[derive(Clone, Copy)]
enum Step {
    Goto(StateId),
    Select(TransTarget),
    If(bool),
    /// A table apply: the action on a hit, `None` on a miss.
    Apply(TableId, Option<ActionId>),
    Exit,
}

impl Explorer<'_> {
    /// The path so far, as a finding names it.
    fn path(&self) -> String {
        let prog = self.program;
        let state = |s: StateId| prog.parser.states[s].name.clone();
        let steps = self.desc.iter().map(|step| match *step {
            Step::Goto(s) => state(s),
            Step::Select(TransTarget::Accept) => "select[accept]".to_string(),
            Step::Select(TransTarget::Reject) => "select[reject]".to_string(),
            Step::Select(TransTarget::State(s)) => format!("select[{}]", state(s)),
            Step::If(then) => (if then { "if-then" } else { "if-else" }).to_string(),
            Step::Apply(t, hit) => {
                let table = &prog.tables[t];
                let (outcome, a) = match hit {
                    Some(a) => ("hit", a),
                    None => ("miss", table.default_action.action),
                };
                format!("{}:{outcome}({})", table.name, prog.actions[a].name)
            }
            Step::Exit => "exit".to_string(),
        });
        let path: Vec<String> = std::iter::once("start".to_string()).chain(steps).collect();
        path.join(" -> ")
    }

    /// Start the next walk: the prefix up to `depth`, then `choice`.
    fn restart(&mut self, depth: usize, choice: u32) {
        self.prefix.truncate(depth);
        self.prefix.push(choice);
        self.depth = 0;
        self.dead = false;
        self.atoms.truncate(1);
        self.pc.clear();
        self.desc.clear();
        self.valid.fill(false);
        self.vals.clear();
        self.args.clear();
    }

    fn atom(&mut self, name: String, width: u16) -> Sym {
        self.atoms.push(AtomInfo { name, width });
        let id = self.atoms.len() - 1;
        Sym::Atom { id, width }
    }

    /// Fresh atoms for the fields of header `h`.
    fn fresh_fields(&mut self, h: usize, suffix: &str) {
        let layout = &self.program.headers[h];
        for (f, field) in layout.fields.iter().enumerate() {
            let name = format!("{}.{}{suffix}", layout.name, field.name);
            let v = self.atom(name, field.width_bits);
            self.vals.insert(Place::Field(h, f), v);
        }
    }

    fn report(&mut self, kind: FindingKind, detail: String) {
        if self.dead || !self.seen.insert((kind, detail.clone())) {
            return;
        }
        let model = match solve(&self.pc, &self.atoms) {
            Sat::Sat(model) => model,
            _ => Vec::new(),
        };
        let witness = model
            .into_iter()
            .map(|(id, v)| (self.atoms[id].name.clone(), v))
            .collect();
        let path = self.path();
        self.findings.push(Finding {
            kind,
            detail,
            path,
            witness,
        });
    }

    /// Take the next decision among `n` alternatives; `alt(i)` is
    /// alternative `i`'s constraints and path label. A replayed decision
    /// calls no solver. A new one checks every alternative, takes the
    /// first feasible one and queues the later feasible ones.
    fn decide(&mut self, n: usize, alt: impl Fn(usize) -> (Vec<Sym>, Step)) -> usize {
        let depth = self.depth;
        self.depth += 1;
        if self.dead {
            return 0;
        }
        let choice = match self.prefix.get(depth) {
            Some(&replayed) => replayed,
            None => {
                let (pc, atoms) = (&mut self.pc, &self.atoms);
                let mut feasible = (0..n as u32).filter(|&i| {
                    let base = pc.len();
                    pc.extend(alt(i as usize).0);
                    let possible = pc.len() == base || solve(pc, atoms).possible();
                    pc.truncate(base);
                    possible
                });
                let Some(first) = feasible.next() else {
                    self.dead = true;
                    return 0;
                };
                let later: Vec<u32> = feasible.collect();
                self.queued
                    .extend(later.into_iter().rev().map(|i| (depth, i)));
                self.prefix.push(first);
                first
            }
        };
        let (conds, label) = alt(choice as usize);
        self.pc.extend(conds);
        self.desc.push(label);
        choice as usize
    }
}

impl Domain for Explorer<'_> {
    type Val = Sym;

    fn valid(&self, h: usize) -> bool {
        self.valid[h]
    }

    fn set_valid(&mut self, h: usize, valid: bool) {
        self.valid[h] = valid;
        // A newly validated header's fields are unspecified.
        if valid {
            self.fresh_fields(h, "!");
        }
    }

    fn load(&mut self, place: Place) -> Sym {
        if let Some(v) = self.vals.get(&place) {
            return v.clone();
        }
        let v = match place {
            Place::Std(StdField::IngressPort) => Sym::Atom { id: 0, width: 9 },
            Place::Std(StdField::PacketLength) => self.atom("packet_length".to_string(), 32),
            Place::Std(StdField::IngressTimestamp) => self.atom("timestamp".to_string(), 48),
            _ => return Sym::konst(0, place.width(self.program)),
        };
        self.vals.insert(place, v.clone());
        v
    }

    fn store(&mut self, place: Place, v: Sym) {
        self.vals.insert(place, v);
    }

    fn param(&mut self, index: usize, width: u16) -> Sym {
        let arg = self.args.get(index).cloned();
        arg.unwrap_or_else(|| Sym::konst(0, width))
    }

    fn invalid_access(&mut self, h: usize, f: usize, write: bool) {
        let layout = &self.program.headers[h];
        let (header, field) = (&layout.name, &layout.fields[f].name);
        let (kind, access) = match write {
            true => (FindingKind::WriteInvalidHeader, "write to"),
            false => (FindingKind::ReadInvalidHeader, "read of"),
        };
        let detail = format!("{access} {header}.{field} while `{header}` is not valid");
        self.report(kind, detail);
    }

    fn key_buf(&mut self) -> &mut Vec<Sym> {
        &mut self.keys
    }

    fn event(&mut self, event: Event) {
        match event {
            Event::Goto(s) => self.desc.push(Step::Goto(s)),
            Event::Exit => self.desc.push(Step::Exit),
            _ => {}
        }
    }

    fn extract(&mut self, h: usize) -> bool {
        self.valid[h] = true;
        self.fresh_fields(h, "");
        true
    }

    fn select(&mut self, keys: &[Sym], arms: &[SelectArm], default: TransTarget) -> TransTarget {
        let conds: Vec<Sym> = arms
            .iter()
            .map(|arm| arms_condition(keys, &arm.patterns))
            .collect();
        let target = |i: usize| arms.get(i).map_or(default, |arm| arm.target);
        // Arm i fires iff its patterns match and no earlier arm matched.
        let i = self.decide(arms.len() + 1, |i| {
            let mut c: Vec<Sym> = conds[..i].iter().cloned().map(Sym::negate).collect();
            c.extend(conds.get(i).cloned());
            (c, Step::Select(target(i)))
        });
        target(i)
    }

    fn branch(&mut self, cond: Sym) -> bool {
        let then = cond.truthy();
        self.decide(2, |i| match i {
            0 => (vec![then.clone()], Step::If(true)),
            _ => (vec![then.clone().negate()], Step::If(false)),
        }) == 0
    }

    fn apply(&mut self, t: usize, _keys: &[Sym]) -> (usize, bool) {
        let prog = self.program;
        let (table, actions) = (&prog.tables[t], &prog.actions);
        let default = &table.default_action;
        let i = self.decide(table.actions.len() + 1, |i| {
            (Vec::new(), Step::Apply(t, table.actions.get(i).copied()))
        });
        let Some(&aid) = table.actions.get(i) else {
            let widths = actions[default.action].params.iter().map(|(_, w)| *w);
            let args = default.args.iter().zip(widths);
            self.args = args.map(|(v, w)| Sym::konst(*v, w)).collect();
            return (default.action, false);
        };
        let action = &actions[aid];
        self.args = action
            .params
            .iter()
            .map(|(name, w)| self.atom(format!("{}::{name}", action.name), *w))
            .collect();
        (aid, true)
    }

    fn count(&mut self, _: usize, _: Sym) {}

    fn register_read(&mut self, id: usize, _: Sym) -> Sym {
        let ext = &self.program.externs[id];
        self.atom(format!("register::{}", ext.name), ext.width)
    }

    fn register_write(&mut self, _: usize, _: Sym, _: Sym) {}

    fn meter(&mut self, id: usize, _: Sym) -> Sym {
        let ext = &self.program.externs[id];
        self.atom(format!("meter::{}", ext.name), 2)
    }
}
