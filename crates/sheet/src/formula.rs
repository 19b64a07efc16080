//! Cell formulas: values, the `CellExp` reference production, arithmetic
//! and range aggregation.

use crate::addr::Addr;
use std::fmt;
use std::sync::Arc;

/// The result of evaluating a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellValue {
    /// A number.
    Num(i64),
    /// An evaluation error (division by zero, reference out of bounds);
    /// propagates through dependent formulas like `#ERROR` in a real
    /// spreadsheet.
    Error,
}

impl CellValue {
    /// The number, or `None` on error.
    pub fn num(self) -> Option<i64> {
        match self {
            CellValue::Num(v) => Some(v),
            CellValue::Error => None,
        }
    }
}

impl fmt::Display for CellValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellValue::Num(v) => write!(f, "{v}"),
            CellValue::Error => write!(f, "#ERROR"),
        }
    }
}

/// A parsed cell formula.
///
/// The paper extends its attribute-grammar expression trees with a
/// `CellExp` production that "uses two integer valued terminal fields to
/// select another cell in the array and return the result of its value
/// method" — that is [`Formula::Ref`]. `Sum` aggregates a rectangular
/// range, the workload that makes dependency fan-in interesting.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// A literal number (also the parse of a plain `42` entry).
    Num(i64),
    /// Reference to another cell (the paper's `CellExp`).
    Ref(Addr),
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: Op,
        /// Left operand.
        lhs: Arc<Formula>,
        /// Right operand.
        rhs: Arc<Formula>,
    },
    /// Negation.
    Neg(Arc<Formula>),
    /// `SUM(A1:B5)` over an inclusive rectangle.
    Sum {
        /// Top-left corner.
        from: Addr,
        /// Bottom-right corner.
        to: Addr,
    },
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division; by zero yields [`CellValue::Error`])
    Div,
}

impl Formula {
    /// All cell addresses this formula references directly, collected from
    /// [`Formula::for_each_ref`].
    pub fn references(&self) -> Vec<Addr> {
        let mut out = Vec::new();
        self.for_each_ref(&mut |a| out.push(a));
        out
    }

    /// Calls `visit` on every cell address this formula references
    /// directly, in source order, enumerating `SUM` ranges in place — the
    /// allocation-free feed for static cycle rejection.
    pub fn for_each_ref(&self, visit: &mut impl FnMut(Addr)) {
        match self {
            Formula::Num(_) => {}
            Formula::Ref(a) => visit(*a),
            Formula::Bin { lhs, rhs, .. } => {
                lhs.for_each_ref(visit);
                rhs.for_each_ref(visit);
            }
            Formula::Neg(e) => e.for_each_ref(visit),
            Formula::Sum { from, to } => {
                for col in from.col..=to.col {
                    for row in from.row..=to.row {
                        visit(Addr::new(col, row));
                    }
                }
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Num(v) => write!(f, "{v}"),
            Formula::Ref(a) => write!(f, "{a}"),
            Formula::Bin { op, lhs, rhs } => {
                let op = match op {
                    Op::Add => "+",
                    Op::Sub => "-",
                    Op::Mul => "*",
                    Op::Div => "/",
                };
                write!(f, "({lhs}{op}{rhs})")
            }
            Formula::Neg(e) => write!(f, "(-{e})"),
            Formula::Sum { from, to } => write!(f, "SUM({from}:{to})"),
        }
    }
}

/// Parses a cell entry: either a plain number or `=formula` with `+ - * /`,
/// parentheses, cell references and `SUM(range)`.
///
/// # Errors
///
/// Returns a description of the first syntax error.
///
/// # Example
///
/// ```
/// use alphonse_sheet::parse_formula;
/// let f = parse_formula("=A1 + 2 * SUM(B1:B3)").unwrap();
/// assert_eq!(f.references().len(), 4);
/// assert!(parse_formula("=1 +").is_err());
/// ```
pub fn parse_formula(src: &str) -> Result<Formula, String> {
    let src = src.trim();
    if let Some(body) = src.strip_prefix('=') {
        let mut p = FormulaParser {
            chars: body.chars().collect(),
            pos: 0,
        };
        let f = p.expr()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing input after formula at {}", p.pos));
        }
        Ok(f)
    } else {
        src.parse::<i64>()
            .map(Formula::Num)
            .map_err(|_| format!("not a number or =formula: {src:?}"))
    }
}

struct FormulaParser {
    chars: Vec<char>,
    pos: usize,
}

impl FormulaParser {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<Formula, String> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some('+') => {
                    self.pos += 1;
                    let rhs = self.term()?;
                    lhs = bin(Op::Add, lhs, rhs);
                }
                Some('-') => {
                    self.pos += 1;
                    let rhs = self.term()?;
                    lhs = bin(Op::Sub, lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> Result<Formula, String> {
        let mut lhs = self.factor()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    let rhs = self.factor()?;
                    lhs = bin(Op::Mul, lhs, rhs);
                }
                Some('/') => {
                    self.pos += 1;
                    let rhs = self.factor()?;
                    lhs = bin(Op::Div, lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn factor(&mut self) -> Result<Formula, String> {
        match self.peek() {
            Some('-') => {
                self.pos += 1;
                Ok(Formula::Neg(Arc::new(self.factor()?)))
            }
            Some('(') => {
                self.pos += 1;
                let e = self.expr()?;
                if self.peek() != Some(')') {
                    return Err("expected )".to_string());
                }
                self.pos += 1;
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.pos;
                while self.pos < self.chars.len() && self.chars[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let text: String = self.chars[start..self.pos].iter().collect();
                text.parse()
                    .map(Formula::Num)
                    .map_err(|_| format!("integer overflow: {text}"))
            }
            Some(c) if c.is_ascii_alphabetic() => {
                let word = self.word();
                if word.eq_ignore_ascii_case("SUM") {
                    if self.peek() != Some('(') {
                        return Err("expected ( after SUM".to_string());
                    }
                    self.pos += 1;
                    let from = self.addr()?;
                    if self.peek() != Some(':') {
                        return Err("expected : in range".to_string());
                    }
                    self.pos += 1;
                    let to = self.addr()?;
                    if self.peek() != Some(')') {
                        return Err("expected ) after range".to_string());
                    }
                    self.pos += 1;
                    if from.col > to.col || from.row > to.row {
                        return Err(format!("inverted range {from}:{to}"));
                    }
                    Ok(Formula::Sum { from, to })
                } else {
                    word.parse::<Addr>()
                        .map(Formula::Ref)
                        .map_err(|e| e.to_string())
                }
            }
            other => Err(format!("expected a formula factor, found {other:?}")),
        }
    }

    fn word(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.chars.len() && self.chars[self.pos].is_ascii_alphanumeric() {
            self.pos += 1;
        }
        self.chars[start..self.pos].iter().collect()
    }

    fn addr(&mut self) -> Result<Addr, String> {
        self.word().parse::<Addr>().map_err(|e| e.to_string())
    }
}

fn bin(op: Op, lhs: Formula, rhs: Formula) -> Formula {
    Formula::Bin {
        op,
        lhs: Arc::new(lhs),
        rhs: Arc::new(rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_numbers_and_refs() {
        assert_eq!(parse_formula("42").unwrap(), Formula::Num(42));
        assert_eq!(parse_formula(" -7 ").unwrap(), Formula::Num(-7));
        assert_eq!(parse_formula("=B2").unwrap(), Formula::Ref(Addr::new(1, 1)));
    }

    #[test]
    fn precedence_and_parens() {
        let f = parse_formula("=1+2*3").unwrap();
        match f {
            Formula::Bin {
                op: Op::Add, rhs, ..
            } => {
                assert!(matches!(&*rhs, Formula::Bin { op: Op::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let f = parse_formula("=(1+2)*3").unwrap();
        assert!(matches!(f, Formula::Bin { op: Op::Mul, .. }));
    }

    #[test]
    fn sum_ranges_expand_references() {
        let f = parse_formula("=SUM(A1:B3)").unwrap();
        assert_eq!(f.references().len(), 6);
        assert!(parse_formula("=SUM(B3:A1)").is_err(), "inverted range");
    }

    #[test]
    fn display_round_trips_through_parser() {
        for src in ["=A1+B2*3", "=SUM(A1:C4)-5", "=-(A1)/2", "=1-2-3"] {
            let f = parse_formula(src).unwrap();
            let printed = format!("={f}");
            let f2 = parse_formula(&printed).unwrap();
            assert_eq!(f, f2, "{src} -> {printed}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "=", "=1+", "=(1", "=SUM(A1)", "=A1:", "=1A", "abc"] {
            assert!(parse_formula(bad).is_err(), "{bad:?} should fail");
        }
    }
}
