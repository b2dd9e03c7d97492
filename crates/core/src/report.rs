//! Machine-readable coverage reports (JSON).
//!
//! [`CoverageRun::render`](crate::CoverageRun::render) prints the
//! human-facing report; this module serializes the same information as
//! JSON so the tool can sit inside a validation flow (regression
//! dashboards, CI gates on coverage verdicts). The writer is self-contained
//! — the schema is small and stable enough that a serializer dependency
//! would cost more than these hundred lines.
//!
//! # Schema
//!
//! ```json
//! {
//!   "num_rtl_properties": 6,
//!   "backend": "explicit",
//!   "bdd_gc": null,
//!   "jobs": {"requested": 4, "primary": 1, "gap_workers": 4, "gap_fixpoints": 4},
//!   "timings": {"primary_s": 0.01, "tm_build_s": 0.002, "gap_find_s": 1.9},
//!   "tm_size": 124,
//!   "all_covered": false,
//!   "incomplete": null,
//!   "properties": [{
//!     "name": "A",
//!     "formula": "G(!wait & r1 & ...)",
//!     "covered": false,
//!     "unknown": null,
//!     "witness": {"loop_start": 2, "states": ["r1 & !hit & ...", "..."]},
//!     "uncovered_terms": ["r1 & X r2 & X X !hit"],
//!     "gap_properties": [{
//!       "formula": "G(...)", "position": "ε.0.0.0.2.0.1",
//!       "literal": "!hit", "offset": 1
//!     }],
//!     "unknown_gaps": [{"formula": "G(...)", "diagnostic": "node limit ..."}],
//!     "exact_hole": "...",
//!     "timings": {"primary_s": 0.01, "tm_build_s": 0.0, "gap_find_s": 1.9}
//!   }]
//! }
//! ```

use crate::pipeline::{CoverageRun, PhaseTimings, PropertyReport};
use dic_logic::{SignalTable, Valuation};
use dic_ltl::LassoWord;
use std::fmt::Write as _;

impl CoverageRun {
    /// Serializes the run as a JSON document (see the [module docs](self)).
    pub fn to_json(&self, table: &SignalTable) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_u64("num_rtl_properties", self.num_rtl_properties as u64);
        // One engine runs both phases; both keys name it.
        let backend = self.backend.to_string();
        w.field_str("backend", &backend);
        w.field_str("gap_backend", &backend);
        w.key("bdd_gc");
        match &self.bdd_gc {
            None => w.null(),
            Some(r) => {
                w.open_object();
                // Collection figures: how many rebuilds ran and how many
                // nodes they dropped, plus the true node-count high-water
                // mark (which includes garbage collected since).
                w.field_u64("gc_collections", r.gc_collections as u64);
                w.field_u64("gc_freed", r.gc_freed as u64);
                w.field_u64("peak_nodes", r.peak_nodes as u64);
                w.close_object();
            }
        }
        w.key("jobs");
        w.open_object();
        w.field_u64("requested", self.jobs.requested as u64);
        w.field_u64("primary", self.jobs.primary as u64);
        w.field_u64("gap_workers", self.jobs.gap_workers as u64);
        w.field_u64("gap_fixpoints", self.jobs.gap_fixpoints as u64);
        w.close_object();
        w.key("timings");
        timings_json(&mut w, &self.timings);
        w.field_u64("tm_size", self.tm.size() as u64);
        w.field_bool("all_covered", self.all_covered());
        w.key("incomplete");
        match &self.incomplete {
            None => w.null(),
            Some(reason) => w.string(reason),
        }
        w.key("properties");
        w.open_array();
        for p in &self.properties {
            property_json(&mut w, p, table);
        }
        w.close_array();
        w.close_object();
        w.finish()
    }
}

fn property_json(w: &mut JsonWriter, p: &PropertyReport, table: &SignalTable) {
    w.open_object();
    w.field_str("name", &p.name);
    w.field_str("formula", &p.formula.display(table).to_string());
    w.field_bool("covered", p.covered);
    w.key("unknown");
    match &p.unknown {
        None => w.null(),
        Some(reason) => w.string(reason),
    }
    w.key("witness");
    match &p.witness {
        None => w.null(),
        Some(word) => witness_json(w, word, table),
    }
    w.key("uncovered_terms");
    w.open_array();
    for term in &p.uncovered_terms {
        w.string(&term.display(table).to_string());
    }
    w.close_array();
    w.key("gap_properties");
    w.open_array();
    for g in &p.gap_properties {
        w.open_object();
        w.field_str("formula", &g.formula.display(table).to_string());
        w.field_str("position", &g.position.to_string());
        w.field_str("literal", &g.literal.display(table).to_string());
        w.field_u64("offset", g.offset as u64);
        w.field_str("term", &g.term.display(table).to_string());
        w.key("witness");
        witness_json(w, &g.witness, table);
        w.close_object();
    }
    w.close_array();
    w.key("unknown_gaps");
    w.open_array();
    for u in &p.unknown_gaps {
        w.open_object();
        w.field_str("formula", &u.formula.display(table).to_string());
        w.field_str("diagnostic", &u.diagnostic);
        w.close_object();
    }
    w.close_array();
    w.field_str("exact_hole", &p.exact_hole.display(table).to_string());
    w.key("timings");
    timings_json(w, &p.timings);
    w.close_object();
}

fn witness_json(w: &mut JsonWriter, word: &LassoWord, table: &SignalTable) {
    w.open_object();
    w.field_u64("loop_start", word.loop_start() as u64);
    w.key("states");
    w.open_array();
    for st in word.states() {
        w.string(&state_display(st, table));
    }
    w.close_array();
    w.close_object();
}

fn state_display(v: &Valuation, table: &SignalTable) -> String {
    v.display(table).to_string()
}

fn timings_json(w: &mut JsonWriter, t: &PhaseTimings) {
    w.open_object();
    w.field_f64("primary_s", t.primary.as_secs_f64());
    w.field_f64("tm_build_s", t.tm_build.as_secs_f64());
    w.field_f64("gap_find_s", t.gap_find.as_secs_f64());
    w.close_object();
}

/// A minimal streaming JSON writer: tracks whether a comma is needed at
/// each nesting level and escapes strings per RFC 8259.
struct JsonWriter {
    out: String,
    /// One flag per open container: whether a value was already emitted.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::new(),
            needs_comma: Vec::new(),
        }
    }

    fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unbalanced containers");
        self.out
    }

    fn pre_value(&mut self) {
        if let Some(flag) = self.needs_comma.last_mut() {
            if *flag {
                self.out.push(',');
            }
            *flag = true;
        }
    }

    fn open_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    fn close_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    fn open_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    fn close_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    /// Emits an object key; the next emitted value becomes its value.
    fn key(&mut self, name: &str) {
        self.pre_value();
        self.escaped(name);
        self.out.push(':');
        // The value that follows must not get a comma.
        if let Some(flag) = self.needs_comma.last_mut() {
            *flag = false;
        }
    }

    fn string(&mut self, s: &str) {
        self.pre_value();
        self.escaped(s);
    }

    fn null(&mut self) {
        self.pre_value();
        self.out.push_str("null");
    }

    fn field_str(&mut self, name: &str, value: &str) {
        self.key(name);
        self.string(value);
    }

    fn field_bool(&mut self, name: &str, value: bool) {
        self.key(name);
        self.pre_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    fn field_u64(&mut self, name: &str, value: u64) {
        self.key(name);
        self.pre_value();
        let _ = write!(self.out, "{value}");
    }

    fn field_f64(&mut self, name: &str, value: f64) {
        self.key(name);
        self.pre_value();
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
    }

    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ArchSpec, RtlSpec};
    use crate::weaken::GapConfig;
    use crate::SpecMatcher;
    use dic_ltl::Ltl;
    use dic_netlist::ModuleBuilder;

    fn run(gap: bool) -> (SignalTable, CoverageRun) {
        let mut t = SignalTable::new();
        let a_prop = Ltl::parse("G(req -> X X q)", &mut t).unwrap();
        let r_src = if gap {
            "G(req & en -> X a)"
        } else {
            "G(req -> X a)"
        };
        let r_prop = Ltl::parse(r_src, &mut t).unwrap();
        let mut b = ModuleBuilder::new("glue", &mut t);
        let ain = b.input("a");
        if gap {
            b.input("en");
        }
        let q = b.latch_from("q", ain, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        let arch = ArchSpec::new([("A1", a_prop)]);
        let rtl = RtlSpec::new([("R1", r_prop)], [m]);
        let run = SpecMatcher::new(GapConfig::default())
            .check(&arch, &rtl, &t)
            .expect("runs");
        (t, run)
    }

    #[test]
    fn covered_run_serializes() {
        let (t, run) = run(false);
        let json = run.to_json(&t);
        assert!(json.contains("\"all_covered\":true"));
        assert!(json.contains("\"witness\":null"));
        assert!(json.contains("\"name\":\"A1\""));
        assert_balanced(&json);
    }

    #[test]
    fn gapped_run_serializes_witness_and_gaps() {
        let (t, run) = run(true);
        let json = run.to_json(&t);
        assert!(json.contains("\"all_covered\":false"));
        assert!(json.contains("\"loop_start\""));
        assert!(json.contains("\"gap_properties\":[{"));
        assert!(json.contains("\"offset\""));
        assert_balanced(&json);
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_str("k", "a\"b\\c\nd\te\u{1}");
        w.close_object();
        assert_eq!(w.finish(), r#"{"k":"a\"b\\c\nd\te\u0001"}"#);
    }

    /// Structural sanity: balanced braces/brackets outside strings, no
    /// `,,`/`,}`/`,]` sequences.
    fn assert_balanced(json: &str) {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escape = false;
        let mut prev = ' ';
        for c in json.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    assert_ne!(prev, ',', "dangling comma before {c}");
                    depth -= 1;
                }
                ',' => assert_ne!(prev, ',', "double comma"),
                _ => {}
            }
            if !c.is_whitespace() {
                prev = c;
            }
        }
        assert_eq!(depth, 0, "unbalanced containers");
        assert!(!in_str, "unterminated string");
    }
}
