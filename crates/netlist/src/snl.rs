//! SNL — a tiny structural netlist text format.
//!
//! The paper's tool accepts "the RTL of the remaining modules"; SNL is the
//! equivalent input format here, small enough to write by hand and regular
//! enough to machine-generate:
//!
//! ```text
//! # Memory arbitration glue (Fig. 2 'M1')
//! module M1
//!   input n1 n2 wait
//!   output g1 g2
//!   assign g1 = n1 & !wait
//!   assign g2 = n2 & !wait
//! endmodule
//!
//! module L
//!   input d
//!   output q
//!   latch q = d init 0
//! endmodule
//! ```
//!
//! * `assign <name> = <boolexpr>` defines a combinational wire,
//! * `latch <name> = <boolexpr> init <0|1>` defines a D-latch with reset
//!   value,
//! * `#` and `//` start comments,
//! * every referenced signal must be an `input` or driven in the module.

use crate::error::NetlistError;
use crate::module::{Module, ModuleBuilder};
use dic_logic::{BoolExpr, SignalTable};

/// Parses SNL text into modules, interning signals in `table`.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a 1-based line number for syntax
/// errors, and the corresponding validation errors for semantic problems
/// (double drivers, combinational loops, undriven outputs).
///
/// # Example
///
/// ```
/// use dic_logic::SignalTable;
/// use dic_netlist::parse_snl;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut t = SignalTable::new();
/// let modules = parse_snl(
///     "module inv\n  input a\n  output y\n  assign y = !a\nendmodule\n",
///     &mut t,
/// )?;
/// assert_eq!(modules.len(), 1);
/// assert_eq!(modules[0].name(), "inv");
/// # Ok(())
/// # }
/// ```
pub fn parse_snl(src: &str, table: &mut SignalTable) -> Result<Vec<Module>, NetlistError> {
    let mut modules = Vec::new();
    let mut pending: Option<Pending> = None;

    for (lineno, raw) in src.lines().enumerate() {
        let line = raw
            .split('#')
            .next()
            .unwrap_or("")
            .split("//")
            .next()
            .unwrap_or("")
            .trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("non-empty line");
        match keyword {
            "module" => {
                if pending.is_some() {
                    return Err(NetlistError::Parse {
                        line: lineno,
                        message: "nested module".into(),
                    });
                }
                let name = words.next().ok_or(NetlistError::Parse {
                    line: lineno,
                    message: "module needs a name".into(),
                })?;
                pending = Some(Pending {
                    name: name.to_owned(),
                    inputs: Vec::new(),
                    outputs: Vec::new(),
                    assigns: Vec::new(),
                    latches: Vec::new(),
                });
            }
            "endmodule" => {
                let p = pending.take().ok_or(NetlistError::Parse {
                    line: lineno,
                    message: "endmodule outside module".into(),
                })?;
                modules.push(build(p, table)?);
            }
            "input" | "output" => {
                let p = pending.as_mut().ok_or(NetlistError::Parse {
                    line: lineno,
                    message: format!("{keyword} outside module"),
                })?;
                let target = if keyword == "input" {
                    &mut p.inputs
                } else {
                    &mut p.outputs
                };
                for w in words {
                    target.push(w.to_owned());
                }
            }
            "assign" => {
                let p = pending.as_mut().ok_or(NetlistError::Parse {
                    line: lineno,
                    message: "assign outside module".into(),
                })?;
                let rest = line["assign".len()..].trim();
                let (name, expr) = rest.split_once('=').ok_or(NetlistError::Parse {
                    line: lineno,
                    message: "assign needs '='".into(),
                })?;
                p.assigns
                    .push((name.trim().to_owned(), expr.trim().to_owned(), lineno));
            }
            "latch" => {
                let p = pending.as_mut().ok_or(NetlistError::Parse {
                    line: lineno,
                    message: "latch outside module".into(),
                })?;
                let rest = line["latch".len()..].trim();
                let (name, rhs) = rest.split_once('=').ok_or(NetlistError::Parse {
                    line: lineno,
                    message: "latch needs '='".into(),
                })?;
                let (expr, init) = match rhs.rsplit_once(" init ") {
                    Some((e, i)) => {
                        let init = match i.trim() {
                            "0" => false,
                            "1" => true,
                            other => {
                                return Err(NetlistError::Parse {
                                    line: lineno,
                                    message: format!("bad init value {other:?}"),
                                })
                            }
                        };
                        (e, init)
                    }
                    None => (rhs, false),
                };
                p.latches
                    .push((name.trim().to_owned(), expr.trim().to_owned(), init, lineno));
            }
            other => {
                return Err(NetlistError::Parse {
                    line: lineno,
                    message: format!("unknown keyword {other:?}"),
                })
            }
        }
    }
    if pending.is_some() {
        return Err(NetlistError::Parse {
            line: src.lines().count(),
            message: "missing endmodule".into(),
        });
    }
    Ok(modules)
}

/// Statements of one module collected before building (the builder holds a
/// mutable borrow of the signal table, so parsing and building are split).
struct Pending {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    assigns: Vec<(String, String, usize)>,
    latches: Vec<(String, String, bool, usize)>,
}

fn build(p: Pending, table: &mut SignalTable) -> Result<Module, NetlistError> {
    let mut b = ModuleBuilder::new(&p.name, table);
    for i in &p.inputs {
        b.input(i);
    }
    for (wire_name, expr_src, line) in &p.assigns {
        let expr = parse_expr(expr_src, b.table(), *line)?;
        b.wire(wire_name, expr);
    }
    for (latch_name, expr_src, init, line) in &p.latches {
        let expr = parse_expr(expr_src, b.table(), *line)?;
        b.latch(latch_name, expr, *init);
    }
    for o in &p.outputs {
        let id = b.table().intern(o);
        b.mark_output(id);
    }
    b.finish()
}

/// Bytes of an offending expression a parse error quotes; a longer one is
/// cut there and its length given instead.
const ECHO_BYTES: usize = 64;

fn parse_expr(src: &str, table: &mut SignalTable, line: usize) -> Result<BoolExpr, NetlistError> {
    BoolExpr::parse(src, table).map_err(|e| NetlistError::Parse {
        line,
        message: format!("in expression {}: {e}", echo(src)),
    })
}

/// `src` quoted, or its first [`ECHO_BYTES`] bytes (to a character
/// boundary) quoted, then `…` and its length.
fn echo(src: &str) -> String {
    if src.len() <= ECHO_BYTES {
        return format!("{src:?}");
    }
    let mut cut = ECHO_BYTES;
    while !src.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{:?}… ({} bytes)", &src[..cut], src.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn parses_simple_module() {
        let mut t = SignalTable::new();
        let src = "
# arbiter glue
module M1
  input n1 n2 wait
  output g1 g2
  assign g1 = n1 & !wait
  assign g2 = n2 & !wait
endmodule
";
        let ms = parse_snl(src, &mut t).expect("parse");
        assert_eq!(ms.len(), 1);
        let m = &ms[0];
        assert_eq!(m.name(), "M1");
        assert_eq!(m.inputs().len(), 3);
        assert_eq!(m.outputs().len(), 2);
        assert_eq!(m.wires().len(), 2);
    }

    #[test]
    fn parses_latches_and_simulates() {
        let mut t = SignalTable::new();
        let src = "
module toggler
  input en
  output q
  latch q = q ^ en init 0
endmodule
";
        let ms = parse_snl(src, &mut t).expect("parse");
        let q = t.lookup("q").unwrap();
        let en = t.lookup("en").unwrap();
        let mut sim = Simulator::new(&ms[0], &t).expect("sim");
        assert!(!sim.state().get(q));
        sim.step(&[(en, true)]);
        assert!(sim.state().get(q));
        sim.step(&[(en, true)]);
        assert!(!sim.state().get(q));
    }

    #[test]
    fn multiple_modules_share_signals() {
        let mut t = SignalTable::new();
        let src = "
module a
  input x
  output y
  assign y = !x
endmodule
module b
  input y
  output z
  assign z = !y
endmodule
";
        let ms = parse_snl(src, &mut t).expect("parse");
        assert_eq!(ms.len(), 2);
        // Both modules see the *same* y.
        assert_eq!(ms[0].outputs()[0], ms[1].inputs()[0]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut t = SignalTable::new();
        let src = "
// leading comment
module m   # trailing comment
  input a

  output y  // another
  assign y = a
endmodule
";
        assert_eq!(parse_snl(src, &mut t).expect("parse").len(), 1);
    }

    #[test]
    fn error_line_numbers() {
        let mut t = SignalTable::new();
        let src = "module m\n  input a\n  bogus y = a\nendmodule\n";
        match parse_snl(src, &mut t) {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_endmodule_rejected() {
        let mut t = SignalTable::new();
        assert!(parse_snl("module m\n  input a\n", &mut t).is_err());
    }

    #[test]
    fn default_init_is_zero() {
        let mut t = SignalTable::new();
        let ms = parse_snl(
            "module m\n input d\n output q\n latch q = d\nendmodule\n",
            &mut t,
        )
        .expect("parse");
        assert!(!ms[0].latches()[0].init());
    }

    #[test]
    fn round_trip_through_to_snl() {
        let mut t = SignalTable::new();
        let src = "
module rt
  input a b
  output q y
  assign y = a & !b | b & !a
  latch q = y | q init 1
endmodule
";
        let ms = parse_snl(src, &mut t).expect("parse");
        let printed = ms[0].to_snl(&t);
        let ms2 = parse_snl(&printed, &mut t).expect("reparse");
        assert_eq!(ms2[0].name(), "rt");
        assert_eq!(ms2[0].wires().len(), ms[0].wires().len());
        assert!(ms2[0].latches()[0].init());
        // Same structure: identical SNL after a second round trip.
        assert_eq!(printed, ms2[0].to_snl(&t));
    }

    #[test]
    fn long_expressions_are_echoed_cut() {
        assert_eq!(echo("a & b"), "\"a & b\"");
        // The cut backs off to a character boundary.
        let long = format!("{}é{}", "a".repeat(ECHO_BYTES - 1), "b".repeat(100));
        let shown = echo(&long);
        assert_eq!(
            shown,
            format!("{:?}… ({} bytes)", "a".repeat(ECHO_BYTES - 1), long.len())
        );
        let mut t = SignalTable::new();
        let deep = format!("{}x{}", "!(".repeat(1000), ")".repeat(1000));
        let src = format!("module m\n input x\n output y\n assign y = {deep}\nendmodule\n");
        match parse_snl(&src, &mut t) {
            Err(e @ NetlistError::Parse { line: 4, .. }) => {
                assert!(e.to_string().len() < 200, "{e}");
            }
            other => panic!("expected a parse error on line 4, got {other:?}"),
        }
    }
}
