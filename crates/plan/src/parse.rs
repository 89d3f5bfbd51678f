//! Parser for the human-writable plan format.
//!
//! The paper's engine "accepts plans which are specified in an XML-based
//! query plan language which is human-writable" (§5) — the experiments of
//! §6.2–§6.3 used hand-coded plans. This module provides that capability
//! for the reproduction: a compact s-expression format covering scans,
//! joins (all physical kinds and overflow methods), selections,
//! projections, unions, exchanges, collectors, fragments, dependencies and
//! ECA rules. [`crate::text::print_plan`] emits the same grammar, so plans
//! round-trip (parse → print → parse is a fixpoint).
//!
//! Grammar (whitespace-insensitive; `;` comments to end of line):
//!
//! ```text
//! plan      := (fragment | after | rule)* "(output" IDENT ")"
//! fragment  := "(fragment" IDENT ["contingent"] node rule* ")"
//! node      := scan | wrapper | join | depjoin | select | project | union
//!            | exchange | collector
//! scan      := "(scan" IDENT ")"                       ; local table
//! wrapper   := "(wrapper" IDENT [timeout] [":prefetch" INT] ")"
//! timeout   := ":timeout" INT                          ; milliseconds
//! join      := "(join" KIND key "=" key [":mem" INT] [":overflow" METHOD]
//!              node node ")"
//! KIND      := "dpj" | "hybrid" | "grace"
//! METHOD    := "left" | "symmetric" | "flushall" | "fail"
//! depjoin   := "(depjoin" IDENT column "=" column node ")"
//!              ; sugar for a build-first join over `(wrapper IDENT)`:
//!              ; (join hybrid column = column node (wrapper IDENT))
//! select    := "(select" (column OP literal | pred) node ")"
//! pred      := "true" | "(lit" column OP literal ")" | "(cols" column OP column ")"
//!            | "(and" pred+ ")" | "(or" pred+ ")" | "(not" pred ")"
//! project   := "(project" "[" column ("," column)* "]" node ")"
//! union     := "(union" node node+ ")"
//! exchange  := "(exchange" INT node ")"
//! collector := "(collector" [":quota" INT] [":timeout" INT]
//!              ("(child" IDENT ["standby"] ")")+ ")"
//! after     := "(after" IDENT IDENT ")"                ; frag1 before frag2
//! rule      := "(rule" NAME ":owner" SUBJ ":when" EVENT SUBJ [INT]
//!              [":if" cond] [":do" action*] ")"
//! EVENT     := "opened" | "closed" | "error" | "timeout" | "oom" | "threshold"
//! SUBJ      := "op" INT | IDENT        ; `opN` wins over a fragment named opN
//! cond      := "true" | "false" | "(state" SUBJ STATE ")"
//!            | "(cmp" qty OP qty ")" | "(and" cond+ ")" | "(or" cond+ ")"
//!            | "(not" cond ")"
//! STATE     := "notstarted" | "open" | "closed" | "failed" | "deactivated"
//! qty       := NUMBER | "(card" SUBJ ")" | "(est" SUBJ ")" | "(wait" SUBJ ")"
//!            | "(mem" SUBJ ")" | "(budget" SUBJ ")" | "(scale" NUMBER qty ")"
//! action    := "replan" | "reschedule" | "(activate" SUBJ ")"
//!            | "(deactivate" SUBJ ")" | "(error" STRING ")"
//!            | "(set-overflow" "op" INT METHOD ")"
//!            | "(alter-memory" "op" INT INT ")"
//! ```
//!
//! Rule subjects may reference fragments by name (forward references are
//! fine — resolution happens after the whole input is read) and operators
//! as `opN` using the ids the parser assigns: operators number from 0 in
//! post-order within each fragment, fragments in order of appearance.
//!
//! Example:
//!
//! ```
//! use tukwila_plan::parse::parse_plan;
//! let plan = parse_plan(r#"
//!     (fragment f0 (join dpj l_suppkey = s_suppkey :mem 65536
//!         (wrapper lineitem)
//!         (wrapper supplier)))
//!     (output f0)
//! "#).unwrap();
//! assert_eq!(plan.fragments.len(), 1);
//! ```

use tukwila_common::{Result, TukwilaError, Value};

use crate::builder::PlanBuilder;
use crate::ids::{FragmentId, OpId};
use crate::ops::{JoinKind, OperatorNode, OverflowMethod};
use crate::plan::QueryPlan;
use crate::predicate::{CmpOp, Predicate};
use crate::rules::{
    Action, Condition, EventKind, EventPattern, OpState, Quantity, Rule, SubjectRef,
};

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open,
    Close,
    OpenBracket,
    CloseBracket,
    Comma,
    Eq,
    Word(String),
}

fn err(msg: impl Into<String>) -> TukwilaError {
    TukwilaError::Plan(format!("plan parse error: {}", msg.into()))
}

fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ';' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(Token::Open);
            }
            ')' => {
                chars.next();
                out.push(Token::Close);
            }
            '[' => {
                chars.next();
                out.push(Token::OpenBracket);
            }
            ']' => {
                chars.next();
                out.push(Token::CloseBracket);
            }
            ',' => {
                chars.next();
                out.push(Token::Comma);
            }
            '=' => {
                chars.next();
                out.push(Token::Eq);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(c) => s.push(c),
                        None => return Err(err("unterminated string literal")),
                    }
                }
                out.push(Token::Word(format!("\"{s}")));
            }
            _ => {
                let mut w = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || "()[],=;\"".contains(c) {
                        break;
                    }
                    w.push(c);
                    chars.next();
                }
                out.push(Token::Word(w));
            }
        }
    }
    Ok(out)
}

// ---- rule clause AST (subjects are unresolved words until the whole ----
// ---- input is read, so forward fragment references work)            ----

#[derive(Debug)]
struct RuleAst {
    name: String,
    owner: String,
    kind: EventKind,
    subject: String,
    value: Option<u64>,
    condition: CondAst,
    actions: Vec<ActionAst>,
}

#[derive(Debug)]
enum CondAst {
    True,
    False,
    State(String, OpState),
    Cmp(QtyAst, CmpOp, QtyAst),
    And(Vec<CondAst>),
    Or(Vec<CondAst>),
    Not(Box<CondAst>),
}

#[derive(Debug)]
enum QtyAst {
    Const(f64),
    Card(String),
    Est(String),
    Wait(String),
    Mem(String),
    Budget(String),
    Scale(f64, Box<QtyAst>),
}

#[derive(Debug)]
enum ActionAst {
    Replan,
    Reschedule,
    Activate(String),
    Deactivate(String),
    Error(String),
    SetOverflow(String, OverflowMethod),
    AlterMemory(String, usize),
}

/// Deepest parenthesis nesting a plan text may have. Every level of node,
/// predicate, condition or quantity nesting opens a parenthesis, and the
/// parser recurses once per level, so checking the token stream first
/// keeps a hostile plan text — a worker parses the coordinator's
/// `Dispatch` — from overflowing the parsing thread's stack; the
/// analyzer, the printer and `Drop` then never see a deeper tree.
pub const MAX_PLAN_NESTING: usize = 256;

/// A `Plan` error if `tokens` nest parentheses deeper than
/// [`MAX_PLAN_NESTING`]; checked without recursing.
fn check_nesting(tokens: &[Token]) -> Result<()> {
    let mut depth = 0usize;
    for t in tokens {
        match t {
            Token::Open if depth == MAX_PLAN_NESTING => {
                return Err(err(format!(
                    "plan nests deeper than {MAX_PLAN_NESTING} levels"
                )))
            }
            Token::Open => depth += 1,
            Token::Close => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    Ok(())
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    builder: PlanBuilder,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<&Token> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        let got = self.next()?;
        if *got == t {
            Ok(())
        } else {
            Err(err(format!("expected {t:?}, got {got:?}")))
        }
    }

    fn word(&mut self) -> Result<String> {
        match self.next()? {
            Token::Word(w) => Ok(w.clone()),
            other => Err(err(format!("expected word, got {other:?}"))),
        }
    }

    /// A word with an optional surrounding-quote marker stripped.
    fn name_word(&mut self) -> Result<String> {
        let w = self.word()?;
        Ok(w.strip_prefix('"').map(str::to_string).unwrap_or(w))
    }

    fn int(&mut self) -> Result<u64> {
        let w = self.word()?;
        w.parse()
            .map_err(|_| err(format!("expected integer, got `{w}`")))
    }

    fn number(&mut self) -> Result<f64> {
        let w = self.word()?;
        w.parse()
            .map_err(|_| err(format!("expected number, got `{w}`")))
    }

    /// Optional `:key value` option; returns true if consumed.
    fn try_option(&mut self, key: &str) -> bool {
        if let Some(Token::Word(w)) = self.peek() {
            if w == key {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, key: &str) -> Result<()> {
        if self.try_option(key) {
            Ok(())
        } else {
            Err(err(format!("expected `{key}`, got {:?}", self.peek())))
        }
    }

    /// Comparator: `=` is its own token, so `<=` / `>=` arrive as a word
    /// followed by an Eq token.
    fn comparator(&mut self) -> Result<CmpOp> {
        match self.next()?.clone() {
            Token::Eq => Ok(CmpOp::Eq),
            Token::Word(w) => match w.as_str() {
                "<" | ">" => {
                    let gt = w == ">";
                    if self.peek() == Some(&Token::Eq) {
                        self.pos += 1;
                        Ok(if gt { CmpOp::Ge } else { CmpOp::Le })
                    } else if gt {
                        Ok(CmpOp::Gt)
                    } else {
                        Ok(CmpOp::Lt)
                    }
                }
                "<>" => Ok(CmpOp::Ne),
                other => Err(err(format!("unknown comparator `{other}`"))),
            },
            other => Err(err(format!("expected comparator, got {other:?}"))),
        }
    }

    fn literal(&mut self) -> Result<Value> {
        let w = self.word()?;
        Ok(if let Some(stripped) = w.strip_prefix('"') {
            Value::str(stripped)
        } else if w == "null" {
            Value::Null
        } else if let Some(d) = w.strip_prefix("date:") {
            Value::Date(
                d.parse()
                    .map_err(|_| err(format!("bad date literal `{w}`")))?,
            )
        } else if let Ok(i) = w.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(f) = w.parse::<f64>() {
            Value::Double(f)
        } else {
            Value::str(&w)
        })
    }

    fn overflow_method(&mut self) -> Result<OverflowMethod> {
        Ok(match self.word()?.as_str() {
            "left" => OverflowMethod::IncrementalLeftFlush,
            "symmetric" => OverflowMethod::IncrementalSymmetricFlush,
            "flushall" => OverflowMethod::FlushAllLeft,
            "fail" => OverflowMethod::Fail,
            other => return Err(err(format!("unknown overflow method `{other}`"))),
        })
    }

    /// Parenthesized predicate form (`(and …)`, `(lit …)`, `(cols …)`).
    fn pred_sexpr(&mut self) -> Result<Predicate> {
        self.expect(Token::Open)?;
        let head = self.word()?;
        let p = match head.as_str() {
            "lit" => {
                let col = self.word()?;
                let op = self.comparator()?;
                let value = self.literal()?;
                Predicate::ColLit { col, op, value }
            }
            "cols" => {
                let left = self.word()?;
                let op = self.comparator()?;
                let right = self.word()?;
                Predicate::ColCol { left, op, right }
            }
            "and" | "or" => {
                let mut ps = Vec::new();
                while self.peek() != Some(&Token::Close) {
                    ps.push(self.pred()?);
                }
                if head == "and" {
                    Predicate::And(ps)
                } else {
                    Predicate::Or(ps)
                }
            }
            "not" => Predicate::Not(Box::new(self.pred()?)),
            other => return Err(err(format!("unknown predicate form `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(p)
    }

    fn pred(&mut self) -> Result<Predicate> {
        if self.peek() == Some(&Token::Open) {
            self.pred_sexpr()
        } else {
            match self.word()?.as_str() {
                "true" => Ok(Predicate::True),
                other => Err(err(format!("unknown predicate `{other}`"))),
            }
        }
    }

    fn node(&mut self) -> Result<OperatorNode> {
        self.expect(Token::Open)?;
        let head = self.word()?;
        let node = match head.as_str() {
            "scan" => {
                let table = self.word()?;
                self.builder.table_scan(&table)
            }
            "wrapper" => {
                let source = self.word()?;
                let timeout = if self.try_option(":timeout") {
                    Some(self.int()?)
                } else {
                    None
                };
                let prefetch = if self.try_option(":prefetch") {
                    Some(self.int()? as usize)
                } else {
                    None
                };
                self.builder.wrapper_scan_opts(&source, timeout, prefetch)
            }
            "join" => {
                let kind = match self.word()?.as_str() {
                    "dpj" => JoinKind::DoublePipelined,
                    "hybrid" => JoinKind::HybridHash,
                    "grace" => JoinKind::GraceHash,
                    other => {
                        return Err(err(format!(
                            "unknown join kind `{other}` (expected dpj, hybrid or grace)"
                        )))
                    }
                };
                let lk = self.word()?;
                self.expect(Token::Eq)?;
                let rk = self.word()?;
                let mem = if self.try_option(":mem") {
                    Some(self.int()? as usize)
                } else {
                    None
                };
                let overflow = if self.try_option(":overflow") {
                    Some(self.overflow_method()?)
                } else {
                    None
                };
                let left = self.node()?;
                let right = self.node()?;
                let mut n = match overflow {
                    Some(m) if kind == JoinKind::DoublePipelined => {
                        self.builder.dpj(left, right, &lk, &rk, m)
                    }
                    _ => self.builder.join(kind, left, right, &lk, &rk),
                };
                if let Some(m) = mem {
                    n.memory_budget = Some(m);
                }
                n
            }
            "depjoin" => {
                let source = self.word()?;
                let bind = self.word()?;
                self.expect(Token::Eq)?;
                let probe = self.word()?;
                let left = self.node()?;
                self.builder.dependent_join(left, &source, &bind, &probe)
            }
            "select" => {
                // New-style parenthesized predicate, bare `true`, or the
                // legacy `column OP literal` shorthand.
                let predicate = if self.peek() == Some(&Token::Open) {
                    self.pred_sexpr()?
                } else {
                    let col = self.word()?;
                    if col == "true" && self.peek() == Some(&Token::Open) {
                        Predicate::True
                    } else {
                        let op = self.comparator()?;
                        let value = self.literal()?;
                        Predicate::ColLit { col, op, value }
                    }
                };
                let input = self.node()?;
                self.builder.select(input, predicate)
            }
            "project" => {
                self.expect(Token::OpenBracket)?;
                let mut cols = vec![self.word()?];
                while self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                    cols.push(self.word()?);
                }
                self.expect(Token::CloseBracket)?;
                let input = self.node()?;
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                self.builder.project(input, &refs)
            }
            "union" => {
                let mut inputs = Vec::new();
                while self.peek() == Some(&Token::Open) {
                    inputs.push(self.node()?);
                }
                if inputs.len() < 2 {
                    return Err(err("union needs at least two inputs"));
                }
                self.builder.union(inputs)
            }
            "exchange" => {
                let partitions = self.int()? as usize;
                if partitions == 0 {
                    return Err(err("exchange needs at least one partition"));
                }
                let input = self.node()?;
                self.builder.exchange(input, partitions)
            }
            "collector" => {
                let quota = if self.try_option(":quota") {
                    Some(self.int()? as usize)
                } else {
                    None
                };
                let timeout = if self.try_option(":timeout") {
                    Some(self.int()?)
                } else {
                    None
                };
                let mut children = Vec::new();
                while self.peek() == Some(&Token::Open) {
                    self.expect(Token::Open)?;
                    let kw = self.word()?;
                    if kw != "child" {
                        return Err(err(format!("expected (child …), got `{kw}`")));
                    }
                    let source = self.word()?;
                    let standby = if let Some(Token::Word(w)) = self.peek() {
                        if w == "standby" {
                            self.pos += 1;
                            true
                        } else {
                            false
                        }
                    } else {
                        false
                    };
                    self.expect(Token::Close)?;
                    children.push((source, !standby));
                }
                if children.is_empty() {
                    return Err(err("collector needs at least one child"));
                }
                let specs: Vec<(&str, bool)> =
                    children.iter().map(|(s, a)| (s.as_str(), *a)).collect();
                let (node, _) = self.builder.collector_with_timeout(&specs, quota, timeout);
                node
            }
            other => return Err(err(format!("unknown operator `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(node)
    }

    // ---- rule clauses ----

    /// Body of a `(rule …)` form; the opening paren and `rule` head are
    /// already consumed, the closing paren is left for the caller.
    fn rule_body(&mut self) -> Result<RuleAst> {
        let name = self.name_word()?;
        self.expect_keyword(":owner")?;
        let owner = self.word()?;
        self.expect_keyword(":when")?;
        let kind = match self.word()?.as_str() {
            "opened" => EventKind::Opened,
            "closed" => EventKind::Closed,
            "error" => EventKind::Error,
            "timeout" => EventKind::Timeout,
            "oom" => EventKind::OutOfMemory,
            "threshold" => EventKind::Threshold,
            other => return Err(err(format!("unknown event kind `{other}`"))),
        };
        let subject = self.word()?;
        let value = match self.peek() {
            Some(Token::Word(w)) => w.parse::<u64>().ok(),
            _ => None,
        };
        if value.is_some() {
            self.pos += 1;
        }
        let condition = if self.try_option(":if") {
            self.cond()?
        } else {
            CondAst::True
        };
        let mut actions = Vec::new();
        if self.try_option(":do") {
            while self.peek() != Some(&Token::Close) {
                actions.push(self.action()?);
            }
        }
        Ok(RuleAst {
            name,
            owner,
            kind,
            subject,
            value,
            condition,
            actions,
        })
    }

    fn cond(&mut self) -> Result<CondAst> {
        if self.peek() != Some(&Token::Open) {
            return match self.word()?.as_str() {
                "true" => Ok(CondAst::True),
                "false" => Ok(CondAst::False),
                other => Err(err(format!("unknown condition `{other}`"))),
            };
        }
        self.expect(Token::Open)?;
        let head = self.word()?;
        let c = match head.as_str() {
            "state" => {
                let subj = self.word()?;
                let state = match self.word()?.as_str() {
                    "notstarted" => OpState::NotStarted,
                    "open" => OpState::Open,
                    "closed" => OpState::Closed,
                    "failed" => OpState::Failed,
                    "deactivated" => OpState::Deactivated,
                    other => return Err(err(format!("unknown state `{other}`"))),
                };
                CondAst::State(subj, state)
            }
            "cmp" => {
                let lhs = self.qty()?;
                let op = self.comparator()?;
                let rhs = self.qty()?;
                CondAst::Cmp(lhs, op, rhs)
            }
            "and" | "or" => {
                let mut cs = Vec::new();
                while self.peek() != Some(&Token::Close) {
                    cs.push(self.cond()?);
                }
                if head == "and" {
                    CondAst::And(cs)
                } else {
                    CondAst::Or(cs)
                }
            }
            "not" => CondAst::Not(Box::new(self.cond()?)),
            other => return Err(err(format!("unknown condition form `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(c)
    }

    fn qty(&mut self) -> Result<QtyAst> {
        if self.peek() != Some(&Token::Open) {
            return Ok(QtyAst::Const(self.number()?));
        }
        self.expect(Token::Open)?;
        let head = self.word()?;
        let q = match head.as_str() {
            "card" => QtyAst::Card(self.word()?),
            "est" => QtyAst::Est(self.word()?),
            "wait" => QtyAst::Wait(self.word()?),
            "mem" => QtyAst::Mem(self.word()?),
            "budget" => QtyAst::Budget(self.word()?),
            "scale" => {
                let f = self.number()?;
                QtyAst::Scale(f, Box::new(self.qty()?))
            }
            other => return Err(err(format!("unknown quantity form `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(q)
    }

    fn action(&mut self) -> Result<ActionAst> {
        if self.peek() != Some(&Token::Open) {
            return match self.word()?.as_str() {
                "replan" => Ok(ActionAst::Replan),
                "reschedule" => Ok(ActionAst::Reschedule),
                other => Err(err(format!("unknown action `{other}`"))),
            };
        }
        self.expect(Token::Open)?;
        let head = self.word()?;
        let a = match head.as_str() {
            "activate" => ActionAst::Activate(self.word()?),
            "deactivate" => ActionAst::Deactivate(self.word()?),
            "error" => ActionAst::Error(self.name_word()?),
            "set-overflow" => {
                let op = self.word()?;
                let method = self.overflow_method()?;
                ActionAst::SetOverflow(op, method)
            }
            "alter-memory" => {
                let op = self.word()?;
                let bytes = self.int()? as usize;
                ActionAst::AlterMemory(op, bytes)
            }
            other => return Err(err(format!("unknown action form `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(a)
    }
}

// ---- subject / rule resolution ----

fn resolve_subject(word: &str, names: &[(String, FragmentId)]) -> Result<SubjectRef> {
    if let Some(rest) = word.strip_prefix("op") {
        if let Ok(n) = rest.parse::<u32>() {
            return Ok(SubjectRef::Op(OpId(n)));
        }
    }
    names
        .iter()
        .find(|(n, _)| n == word)
        .map(|(_, id)| SubjectRef::Fragment(*id))
        .ok_or_else(|| err(format!("unknown rule subject `{word}`")))
}

fn resolve_op(word: &str) -> Result<OpId> {
    match resolve_subject(word, &[])? {
        SubjectRef::Op(id) => Ok(id),
        SubjectRef::Fragment(_) => unreachable!("empty name table"),
    }
}

fn resolve_qty(q: &QtyAst, names: &[(String, FragmentId)]) -> Result<Quantity> {
    Ok(match q {
        QtyAst::Const(c) => Quantity::Const(*c),
        QtyAst::Card(s) => Quantity::Card(resolve_subject(s, names)?),
        QtyAst::Est(s) => Quantity::EstCard(resolve_subject(s, names)?),
        QtyAst::Wait(s) => Quantity::TimeWaitingMs(resolve_subject(s, names)?),
        QtyAst::Mem(s) => Quantity::MemoryUsed(resolve_subject(s, names)?),
        QtyAst::Budget(s) => Quantity::MemoryBudget(resolve_subject(s, names)?),
        QtyAst::Scale(f, inner) => Quantity::Scaled(*f, Box::new(resolve_qty(inner, names)?)),
    })
}

fn resolve_cond(c: &CondAst, names: &[(String, FragmentId)]) -> Result<Condition> {
    Ok(match c {
        CondAst::True => Condition::True,
        CondAst::False => Condition::False,
        CondAst::State(s, state) => Condition::StateIs {
            subject: resolve_subject(s, names)?,
            state: *state,
        },
        CondAst::Cmp(lhs, op, rhs) => Condition::Cmp {
            lhs: resolve_qty(lhs, names)?,
            op: *op,
            rhs: resolve_qty(rhs, names)?,
        },
        CondAst::And(cs) => Condition::And(
            cs.iter()
                .map(|c| resolve_cond(c, names))
                .collect::<Result<_>>()?,
        ),
        CondAst::Or(cs) => Condition::Or(
            cs.iter()
                .map(|c| resolve_cond(c, names))
                .collect::<Result<_>>()?,
        ),
        CondAst::Not(inner) => Condition::Not(Box::new(resolve_cond(inner, names)?)),
    })
}

fn resolve_rule(ast: &RuleAst, names: &[(String, FragmentId)]) -> Result<Rule> {
    let owner = resolve_subject(&ast.owner, names)?;
    let subject = resolve_subject(&ast.subject, names)?;
    let event = match ast.value {
        Some(v) => EventPattern::with_value(ast.kind, subject, v),
        None => EventPattern::new(ast.kind, subject),
    };
    let condition = resolve_cond(&ast.condition, names)?;
    let actions = ast
        .actions
        .iter()
        .map(|a| {
            Ok(match a {
                ActionAst::Replan => Action::Replan,
                ActionAst::Reschedule => Action::Reschedule,
                ActionAst::Activate(s) => Action::Activate(resolve_subject(s, names)?),
                ActionAst::Deactivate(s) => Action::Deactivate(resolve_subject(s, names)?),
                ActionAst::Error(m) => Action::ReturnError(m.clone()),
                ActionAst::SetOverflow(op, method) => Action::SetOverflowMethod {
                    op: resolve_op(op)?,
                    method: *method,
                },
                ActionAst::AlterMemory(op, bytes) => Action::AlterMemory {
                    op: resolve_op(op)?,
                    bytes: *bytes,
                },
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Rule::new(&ast.name, owner, event, condition, actions))
}

fn parse_plan_impl(input: &str) -> Result<QueryPlan> {
    let tokens = tokenize(input)?;
    check_nesting(&tokens)?;
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
        builder: PlanBuilder::new(),
    };
    let mut names: Vec<(String, FragmentId)> = Vec::new();
    let mut contingent: Vec<FragmentId> = Vec::new();
    let mut deps: Vec<(String, String)> = Vec::new();
    let mut output: Option<String> = None;
    // (owning fragment, rule) — None = global rule
    let mut rules: Vec<(Option<FragmentId>, RuleAst)> = Vec::new();

    while p.peek().is_some() {
        p.expect(Token::Open)?;
        match p.word()?.as_str() {
            "fragment" => {
                let name = p.word()?;
                let is_contingent = if let Some(Token::Word(w)) = p.peek() {
                    if w == "contingent" {
                        p.pos += 1;
                        true
                    } else {
                        false
                    }
                } else {
                    false
                };
                let node = p.node()?;
                let mat_name = format!("mat_{name}");
                let id = p.builder.fragment(node, &mat_name);
                // trailing local rule clauses
                while p.peek() == Some(&Token::Open) {
                    p.expect(Token::Open)?;
                    let kw = p.word()?;
                    if kw != "rule" {
                        return Err(err(format!("expected (rule …) in fragment, got `{kw}`")));
                    }
                    let ast = p.rule_body()?;
                    p.expect(Token::Close)?;
                    rules.push((Some(id), ast));
                }
                if is_contingent {
                    contingent.push(id);
                }
                if names.iter().any(|(n, _)| n == &name) {
                    return Err(err(format!("duplicate fragment name `{name}`")));
                }
                names.push((name, id));
            }
            "after" => {
                let before = p.word()?;
                let after = p.word()?;
                deps.push((before, after));
            }
            "rule" => {
                let ast = p.rule_body()?;
                rules.push((None, ast));
            }
            "output" => {
                output = Some(p.word()?);
            }
            other => return Err(err(format!("unknown top-level form `{other}`"))),
        }
        p.expect(Token::Close)?;
    }

    let lookup = |name: &str, names: &[(String, FragmentId)]| {
        names
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
            .ok_or_else(|| err(format!("unknown fragment `{name}`")))
    };
    for (before, after) in &deps {
        let b = lookup(before, &names)?;
        let a = lookup(after, &names)?;
        p.builder.depends(b, a);
    }
    let output_name = output.ok_or_else(|| err("missing (output <fragment>)"))?;
    let out_id = lookup(&output_name, &names)?;
    let mut local_rules: Vec<(FragmentId, Rule)> = Vec::new();
    let mut global_rules: Vec<Rule> = Vec::new();
    for (frag, ast) in &rules {
        let rule = resolve_rule(ast, &names)?;
        match frag {
            Some(id) => local_rules.push((*id, rule)),
            None => global_rules.push(rule),
        }
    }
    for (id, rule) in local_rules {
        p.builder.add_local_rule(id, rule);
    }
    let mut plan = p.builder.build(out_id);
    plan.global_rules = global_rules;
    // rename the output fragment's materialization to the conventional name
    if let Some(f) = plan.fragments.iter_mut().find(|f| f.id == out_id) {
        f.materialize_as = "result".into();
    }
    for id in contingent {
        if let Some(f) = plan.fragments.iter_mut().find(|f| f.id == id) {
            f.initially_active = false;
        }
    }
    Ok(plan)
}

/// Parse a textual plan. Fragment names map to ids in order of appearance;
/// the `(output …)` clause selects the answer fragment. The parsed plan is
/// validated with [`crate::validate::validate_plan`].
pub fn parse_plan(input: &str) -> Result<QueryPlan> {
    let plan = parse_plan_impl(input)?;
    crate::validate::validate_plan(&plan)?;
    Ok(plan)
}

/// [`parse_plan`] without the validation step: returns structurally
/// parseable plans even when they are semantically malformed, so the static
/// analyzer (and the `plan-lint` tool) can report **all** problems instead
/// of the parser bailing on the first.
pub fn parse_plan_unchecked(input: &str) -> Result<QueryPlan> {
    parse_plan_impl(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OperatorSpec;

    #[test]
    fn parses_two_fragment_plan_with_dependency() {
        let plan = parse_plan(
            r#"
            ; fragment one: remote join with a memory budget
            (fragment f0 (join dpj k = k :mem 4096 :overflow symmetric
                (wrapper A :timeout 100)
                (wrapper B)))
            (fragment f1 (join hybrid a.k = c.k
                (scan mat_f0)
                (wrapper C)))
            (after f0 f1)
            (output f1)
            "#,
        )
        .unwrap();
        assert_eq!(plan.fragments.len(), 2);
        assert_eq!(plan.dependencies.len(), 1);
        assert_eq!(plan.fragment(plan.output).unwrap().materialize_as, "result");
        let f0 = &plan.fragments[0];
        assert_eq!(f0.materialize_as, "mat_f0");
        match &f0.root.spec {
            OperatorSpec::Join { kind, overflow, .. } => {
                assert_eq!(*kind, JoinKind::DoublePipelined);
                assert_eq!(*overflow, OverflowMethod::IncrementalSymmetricFlush);
            }
            other => panic!("expected join, got {other:?}"),
        }
        assert_eq!(f0.root.memory_budget, Some(4096));
    }

    #[test]
    fn parses_exchange_wrapped_join() {
        let plan = parse_plan(
            r#"
            (fragment f (exchange 4 (join dpj k = k
                (wrapper L)
                (wrapper R))))
            (output f)
            "#,
        )
        .unwrap();
        match &plan.fragments[0].root.spec {
            OperatorSpec::Exchange { input, partitions } => {
                assert_eq!(*partitions, 4);
                assert!(matches!(input.spec, OperatorSpec::Join { .. }));
            }
            other => panic!("expected exchange, got {other:?}"),
        }
        assert_eq!(plan.fragments[0].root.label(), "exchange(x4)");
    }

    #[test]
    fn parses_select_project_union() {
        let plan = parse_plan(
            r#"
            (fragment f (project [a, b]
                (select a >= 10
                    (union (wrapper X) (wrapper Y)))))
            (output f)
            "#,
        )
        .unwrap();
        let root = &plan.fragments[0].root;
        assert!(matches!(root.spec, OperatorSpec::Project { .. }));
    }

    #[test]
    fn parses_sexpr_predicates() {
        let plan = parse_plan(
            r#"
            (fragment f (select (and (lit a >= 10) (not (cols a = b)))
                (wrapper X)))
            (output f)
            "#,
        )
        .unwrap();
        match &plan.fragments[0].root.spec {
            OperatorSpec::Select { predicate, .. } => match predicate {
                Predicate::And(ps) => {
                    assert_eq!(ps.len(), 2);
                    assert!(matches!(ps[1], Predicate::Not(_)));
                }
                other => panic!("expected and, got {other:?}"),
            },
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_depjoin() {
        let plan = parse_plan(
            r#"
            (fragment f (depjoin books isbn = isbn (wrapper orders)))
            (output f)
            "#,
        )
        .unwrap();
        match &plan.fragments[0].root.spec {
            OperatorSpec::Join {
                left,
                right,
                left_key,
                right_key,
                kind,
                ..
            } => {
                assert_eq!(*kind, JoinKind::HybridHash);
                assert_eq!(left.label(), "wrapper(orders)");
                assert_eq!(right.label(), "wrapper(books)");
                assert_eq!(left_key, "isbn");
                assert_eq!(right_key, "isbn");
            }
            other => panic!("expected a join, got {other:?}"),
        }
    }

    #[test]
    fn parses_collector_with_policy_knobs() {
        let plan = parse_plan(
            r#"
            (fragment f (collector :quota 500 :timeout 80
                (child mirror1)
                (child mirror2 standby)))
            (output f)
            "#,
        )
        .unwrap();
        match &plan.fragments[0].root.spec {
            OperatorSpec::Collector {
                children,
                quota,
                child_timeout_ms,
            } => {
                assert_eq!(children.len(), 2);
                assert!(children[0].initially_active);
                assert!(!children[1].initially_active);
                assert_eq!(*quota, Some(500));
                assert_eq!(*child_timeout_ms, Some(80));
            }
            other => panic!("expected collector, got {other:?}"),
        }
    }

    #[test]
    fn contingent_fragments_parse() {
        let plan = parse_plan(
            r#"
            (fragment main (wrapper A))
            (fragment alt contingent (wrapper B))
            (after main alt)
            (rule failover :owner main :when error op0 :do (activate alt))
            (output main)
            "#,
        )
        .unwrap();
        assert!(!plan.fragments[1].initially_active);
    }

    #[test]
    fn parses_rule_clauses() {
        let plan = parse_plan(
            r#"
            (fragment f0
                (join dpj k = k :mem 4096
                    (wrapper A :timeout 50)
                    (wrapper B))
                (rule "scramble" :owner f0 :when timeout op0 :do reschedule))
            (rule "replan-big" :owner f0 :when closed f0
                :if (cmp (card op2) > (scale 2 (est op2)))
                :do replan)
            (output f0)
            "#,
        )
        .unwrap();
        assert_eq!(plan.fragments[0].local_rules.len(), 1);
        assert_eq!(plan.global_rules.len(), 1);
        let local = &plan.fragments[0].local_rules[0];
        assert_eq!(local.name, "scramble");
        assert_eq!(local.event.kind, EventKind::Timeout);
        assert_eq!(local.event.subject, SubjectRef::Op(OpId(0)));
        assert_eq!(local.actions, vec![Action::Reschedule]);
        let global = &plan.global_rules[0];
        assert_eq!(global.owner, SubjectRef::Fragment(FragmentId(0)));
        match &global.condition {
            Condition::Cmp { lhs, op, rhs } => {
                assert_eq!(lhs, &Quantity::Card(SubjectRef::Op(OpId(2))));
                assert_eq!(*op, CmpOp::Gt);
                assert!(matches!(rhs, Quantity::Scaled(f, _) if *f == 2.0));
            }
            other => panic!("expected cmp condition, got {other:?}"),
        }
        assert_eq!(global.actions, vec![Action::Replan]);
    }

    #[test]
    fn unchecked_parse_accepts_malformed_plans() {
        // rule owner op99 does not exist: strict parse rejects, unchecked
        // returns the plan for the analyzer to report on
        let text = r#"
            (fragment f (wrapper A))
            (rule bad :owner op99 :when closed f :do replan)
            (output f)
        "#;
        assert!(parse_plan(text).is_err());
        let plan = parse_plan_unchecked(text).unwrap();
        assert_eq!(plan.global_rules.len(), 1);
    }

    #[test]
    fn select_string_literal() {
        let plan =
            parse_plan(r#"(fragment f (select name = "FRANCE" (wrapper nation))) (output f)"#)
                .unwrap();
        match &plan.fragments[0].root.spec {
            OperatorSpec::Select { predicate, .. } => match predicate {
                Predicate::ColLit { value, .. } => {
                    assert_eq!(value, &Value::str("FRANCE"));
                }
                other => panic!("unexpected predicate {other:?}"),
            },
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn errors_are_descriptive() {
        for (input, needle) in [
            ("(fragment f (wrapper A))", "missing (output"),
            (
                "(fragment f (join bad k = k (wrapper A) (wrapper B))) (output f)",
                "join kind",
            ),
            // The blocking baselines are not in the plan language.
            (
                "(fragment f (join nlj k = k (wrapper A) (wrapper B))) (output f)",
                "unknown join kind `nlj` (expected dpj, hybrid or grace)",
            ),
            (
                "(fragment f (join smj k = k (wrapper A) (wrapper B))) (output f)",
                "unknown join kind `smj` (expected dpj, hybrid or grace)",
            ),
            ("(output ghost)", "unknown fragment"),
            (
                "(fragment f (union (wrapper A))) (output f)",
                "at least two",
            ),
            (
                "(fragment f (wrapper A)) (fragment f (wrapper B)) (output f)",
                "duplicate",
            ),
            (
                "(fragment f (wrapper A)) (rule r :owner ghost :when closed f) (output f)",
                "unknown rule subject",
            ),
        ] {
            let e = parse_plan(input).unwrap_err();
            assert_eq!(e.kind(), "plan", "input `{input}`: {e}");
            let e = e.to_string();
            assert!(e.contains(needle), "input `{input}`: {e}");
        }
    }

    /// 10 000 levels of nested `select`, of `(not …)` and of rule-condition
    /// nesting each parse to a `Plan` error on a thread with a 2 MiB stack
    /// (a worker's `net-serve` thread), where unbounded recursion would
    /// overflow it. The bound is on parenthesis depth: 256 levels pass the
    /// check, 257 do not, and a 64-level plan parses.
    #[test]
    fn deep_nesting_is_a_plan_error_not_a_stack_overflow() {
        let deep = 10_000;
        let nested = |open: &str, inner: &str, n: usize| {
            format!("{}{inner}{}", open.repeat(n), ")".repeat(n))
        };
        let selects = format!(
            "(fragment f {})\n(output f)",
            nested("(select true ", "(wrapper X)", deep)
        );
        let nots = format!(
            "(fragment f (select {} (wrapper X)))\n(output f)",
            nested("(not ", "(lit a = 1)", deep)
        );
        let conds = format!(
            "(fragment f (wrapper X))\n(rule \"r\" :owner f :when closed f :if {} :do replan)\n(output f)",
            nested("(not ", "true", deep)
        );
        let outcomes = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || [selects, nots, conds].map(|text| parse_plan_unchecked(&text)))
            .unwrap()
            .join()
            .unwrap();
        for out in outcomes {
            let e = out.unwrap_err();
            assert!(matches!(e, TukwilaError::Plan(_)), "{e:?}");
        }
        let depth = |n| tokenize(&nested("(select true ", "(wrapper X)", n)).unwrap();
        // n selects around a wrapper nest n + 1 parentheses deep.
        assert!(check_nesting(&depth(MAX_PLAN_NESTING - 1)).is_ok());
        assert!(check_nesting(&depth(MAX_PLAN_NESTING)).is_err());
        let plan = format!(
            "(fragment f {})\n(output f)",
            nested("(select true ", "(wrapper X)", 64)
        );
        assert!(parse_plan_unchecked(&plan).is_ok());
    }

    #[test]
    fn round_trip_with_renderer() {
        // parse → render → contains the key structure
        let plan = parse_plan(
            r#"
            (fragment f0 (join dpj k = k (wrapper A) (wrapper B)))
            (output f0)
            "#,
        )
        .unwrap();
        let text = crate::text::render_plan(&plan);
        assert!(text.contains("wrapper(A)"));
        assert!(text.contains("DoublePipelined"));
    }
}
