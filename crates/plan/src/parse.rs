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
//! Grammar (whitespace-insensitive; `;` comments to end of line; the
//! keyword sets are the `KEYWORDS` tables the printer reads too):
//!
//! ```text
//! plan      := (fragment | after | rule)* "(output" IDENT ")"
//! fragment  := "(fragment" IDENT ["contingent"] node rule* ")"
//! node      := scan | wrapper | join | depjoin | select | project | union
//!            | exchange | collector
//! scan      := "(scan" IDENT ")"                       ; local table
//! wrapper   := "(wrapper" IDENT [timeout] [":prefetch" INT] ")"
//! timeout   := ":timeout" INT                          ; milliseconds
//! join      := "(join" KIND key '=' key [":mem" INT] [":overflow" METHOD]
//!              node node ")"
//! KIND      := JoinKind::KEYWORDS                      ; dpj hybrid grace
//! METHOD    := OverflowMethod::KEYWORDS  ; left symmetric flushall fail
//! depjoin   := "(depjoin" IDENT column '=' column node ")"
//!              ; sugar for a build-first join over `(wrapper IDENT)`:
//!              ; (join hybrid column = column node (wrapper IDENT))
//! select    := "(select" pred node ")"
//! pred      := "true" | "(lit" column OP literal ")" | "(cols" column OP column ")"
//!            | "(and" pred+ ")" | "(or" pred+ ")" | "(not" pred ")"
//! OP        := CmpOp::KEYWORDS                   ; = <> < <= > >=
//! literal   := INT | NUMBER | STRING | "null" | "date:" INT
//! STRING    := '"' (char | '\"' | '\\')* '"'  ; a `\` before any other char is literal
//! project   := "(project" "[" column ("," column)* "]" node ")"
//! union     := "(union" node node+ ")"
//! exchange  := "(exchange" INT node ")"
//! collector := "(collector" [":quota" INT] [":timeout" INT]
//!              ("(child" IDENT ["standby"] ")")+ ")"
//! after     := "(after" IDENT IDENT ")"                ; frag1 before frag2
//! rule      := "(rule" NAME ":owner" SUBJ ":when" EVENT SUBJ [INT]
//!              [":if" cond] [":do" action*] ")"
//! NAME      := IDENT | STRING
//! EVENT     := EventKind::KEYWORDS ; opened closed error timeout oom threshold
//! SUBJ      := "op" INT | IDENT        ; `opN` wins over a fragment named opN
//! cond      := "true" | "false" | "(state" SUBJ STATE ")"
//!            | "(cmp" qty OP qty ")" | "(and" cond+ ")" | "(or" cond+ ")"
//!            | "(not" cond ")"
//! STATE     := OpState::KEYWORDS ; notstarted open closed failed deactivated
//! qty       := NUMBER | "(card" SUBJ ")" | "(est" SUBJ ")" | "(wait" SUBJ ")"
//!            | "(mem" SUBJ ")" | "(budget" SUBJ ")" | "(scale" NUMBER qty ")"
//! action    := "replan" | "reschedule" | "(activate" SUBJ ")"
//!            | "(deactivate" SUBJ ")" | "(error" STRING ")"
//!            | "(set-overflow" "op" INT METHOD ")"
//!            | "(alter-memory" "op" INT INT ")"
//! ```
//!
//! Rule subjects may reference fragments by name, forward references
//! included: one flat pass over the tokens collects the top-level fragment
//! names before parsing, and operators are written `opN` with the ids the
//! parser assigns: operators number from 0 in post-order within each
//! fragment, fragments in order of appearance.
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
    /// A quoted string, escapes resolved.
    Str(String),
}

fn err(msg: impl Into<String>) -> TukwilaError {
    TukwilaError::Plan(format!("plan parse error: {}", msg.into()))
}

fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        let single = match c {
            '(' => Some(Token::Open),
            ')' => Some(Token::Close),
            '[' => Some(Token::OpenBracket),
            ']' => Some(Token::CloseBracket),
            ',' => Some(Token::Comma),
            '=' => Some(Token::Eq),
            _ => None,
        };
        if let Some(t) = single {
            chars.next();
            out.push(t);
        } else if c == ';' {
            chars.by_ref().find(|&c| c == '\n');
        } else if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some('\\') if matches!(chars.peek(), Some('"' | '\\')) => {
                        s.extend(chars.next())
                    }
                    Some(c) => s.push(c),
                    None => return Err(err("unterminated string literal")),
                }
            }
            out.push(Token::Str(s));
        } else {
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
    Ok(out)
}

/// Deepest parenthesis nesting a plan text may have. Every level of node,
/// predicate, condition or quantity nesting opens a parenthesis, and the
/// parser recurses once per level, so checking the token stream first
/// keeps a hostile plan text — a worker parses the coordinator's
/// `Dispatch` — from overflowing the parsing thread's stack; the
/// analyzer, the printer and `Drop` then never see a deeper tree. Each
/// operator form parses in its own function, so a level costs a small
/// frame and the bound holds on a 2 MiB stack in a debug build too.
pub const MAX_PLAN_NESTING: usize = 256;

/// One flat pass over the tokens, before anything recurses: a `Plan`
/// error if they nest parentheses deeper than [`MAX_PLAN_NESTING`], else
/// the names of the top-level `(fragment NAME …)` forms in order of
/// appearance, so index `i` is the `FragmentId(i)` the builder assigns.
fn prescan(tokens: &[Token]) -> Result<Vec<String>> {
    let mut names: Vec<String> = Vec::new();
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        match t {
            Token::Open if depth == MAX_PLAN_NESTING => {
                return Err(err(format!(
                    "plan nests deeper than {MAX_PLAN_NESTING} levels"
                )))
            }
            Token::Open => {
                if let (0, [Token::Word(head), Token::Word(name), ..]) = (depth, &tokens[i + 1..]) {
                    if head == "fragment" {
                        if names.contains(name) {
                            return Err(err(format!("duplicate fragment name `{name}`")));
                        }
                        names.push(name.clone());
                    }
                }
                depth += 1;
            }
            Token::Close => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    Ok(names)
}

/// The entry of a keyword `table` named `word`; otherwise an error that
/// lists the table.
fn lookup<T: Copy>(table: &[(&str, T)], word: &str, what: &str) -> Result<T> {
    if let Some(&(_, v)) = table.iter().find(|(k, _)| *k == word) {
        return Ok(v);
    }
    let keywords: Vec<&str> = table.iter().map(|&(k, _)| k).collect();
    let (last, rest) = keywords.split_last().expect("keyword tables are not empty");
    Err(err(format!(
        "unknown {what} `{word}` (expected {} or {last})",
        rest.join(", ")
    )))
}

/// `opN` as an operator id.
fn op_ref(word: &str) -> Option<OpId> {
    word.strip_prefix("op")?.parse().ok().map(OpId)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    builder: PlanBuilder,
    /// Fragment names by id, from [`prescan`].
    names: Vec<String>,
}

impl Parser<'_> {
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

    /// A rule name or error message: a string or a bare word.
    fn name(&mut self) -> Result<String> {
        match self.next()? {
            Token::Word(w) | Token::Str(w) => Ok(w.clone()),
            other => Err(err(format!("expected a name, got {other:?}"))),
        }
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

    /// Optional `:key` (or flag) word; returns true if consumed.
    fn try_option(&mut self, key: &str) -> bool {
        if let Some(Token::Word(w)) = self.peek() {
            if w == key {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    /// Optional `:key INT` option.
    fn opt_int(&mut self, key: &str) -> Result<Option<u64>> {
        Ok(if self.try_option(key) {
            Some(self.int()?)
        } else {
            None
        })
    }

    fn expect_keyword(&mut self, key: &str) -> Result<()> {
        if self.try_option(key) {
            Ok(())
        } else {
            Err(err(format!("expected `{key}`, got {:?}", self.peek())))
        }
    }

    /// `item`s up to the next `)`, which is left for the caller.
    fn until_close<T>(&mut self, item: fn(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut items = Vec::new();
        while self.peek() != Some(&Token::Close) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// The next word, looked up in a keyword `table`.
    fn keyword<T: Copy>(&mut self, table: &[(&str, T)], what: &str) -> Result<T> {
        let w = self.word()?;
        lookup(table, &w, what)
    }

    /// Comparator: `=` is its own token, so `<=` / `>=` arrive as a word
    /// followed by an Eq token.
    fn comparator(&mut self) -> Result<CmpOp> {
        let mut sym = match self.peek() {
            Some(Token::Word(w)) => w.clone(),
            _ => String::new(),
        };
        if !sym.is_empty() {
            self.pos += 1;
        }
        let glued = format!("{sym}=");
        if self.peek() == Some(&Token::Eq) && CmpOp::KEYWORDS.iter().any(|(k, _)| *k == glued) {
            self.pos += 1;
            sym = glued;
        }
        lookup(CmpOp::KEYWORDS, &sym, "comparator")
    }

    fn literal(&mut self) -> Result<Value> {
        if let Some(Token::Str(s)) = self.peek() {
            let v = Value::str(s);
            self.pos += 1;
            return Ok(v);
        }
        let w = self.word()?;
        Ok(if w == "null" {
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

    /// The fragment named `name`; `what` names the reference in the error.
    fn fragment_named(&self, name: &str, what: &str) -> Result<FragmentId> {
        let i = self.names.iter().position(|n| n == name);
        i.map(|i| FragmentId(i as u32))
            .ok_or_else(|| err(format!("unknown {what} `{name}`")))
    }

    /// A fragment by name, for `after` and `output`.
    fn fragment_ref(&mut self) -> Result<FragmentId> {
        let w = self.word()?;
        self.fragment_named(&w, "fragment")
    }

    /// A fragment (by name) or an operator (`opN`, which wins).
    fn subject(&mut self) -> Result<SubjectRef> {
        let w = self.word()?;
        match op_ref(&w) {
            Some(op) => Ok(SubjectRef::Op(op)),
            None => self
                .fragment_named(&w, "rule subject")
                .map(SubjectRef::Fragment),
        }
    }

    /// An operator subject, `opN`.
    fn op(&mut self) -> Result<OpId> {
        let w = self.word()?;
        op_ref(&w).ok_or_else(|| err(format!("expected an operator `opN`, got `{w}`")))
    }

    fn pred(&mut self) -> Result<Predicate> {
        if self.peek() != Some(&Token::Open) {
            return match self.word()?.as_str() {
                "true" => Ok(Predicate::True),
                other => Err(err(format!("unknown predicate `{other}`"))),
            };
        }
        self.expect(Token::Open)?;
        let p = match self.word()?.as_str() {
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
            "and" => Predicate::And(self.until_close(Self::pred)?),
            "or" => Predicate::Or(self.until_close(Self::pred)?),
            "not" => Predicate::Not(Box::new(self.pred()?)),
            other => return Err(err(format!("unknown predicate form `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(p)
    }

    /// One operator form. Each form parses in a function of its own so a
    /// level of nesting costs only this dispatch and that form's frame.
    fn node(&mut self) -> Result<OperatorNode> {
        self.expect(Token::Open)?;
        let node = match self.word()?.as_str() {
            "scan" => self.scan(),
            "wrapper" => self.wrapper(),
            "join" => self.join(),
            "depjoin" => self.depjoin(),
            "select" => self.select(),
            "project" => self.project(),
            "union" => self.union(),
            "exchange" => self.exchange(),
            "collector" => self.collector(),
            other => Err(err(format!("unknown operator `{other}`"))),
        }?;
        self.expect(Token::Close)?;
        Ok(node)
    }

    fn scan(&mut self) -> Result<OperatorNode> {
        let table = self.word()?;
        Ok(self.builder.table_scan(&table))
    }

    fn wrapper(&mut self) -> Result<OperatorNode> {
        let source = self.word()?;
        let timeout = self.opt_int(":timeout")?;
        let prefetch = self.opt_int(":prefetch")?.map(|p| p as usize);
        Ok(self.builder.wrapper_scan_opts(&source, timeout, prefetch))
    }

    fn join(&mut self) -> Result<OperatorNode> {
        let kind = self.keyword(JoinKind::KEYWORDS, "join kind")?;
        let lk = self.word()?;
        self.expect(Token::Eq)?;
        let rk = self.word()?;
        let mem = self.opt_int(":mem")?;
        let overflow = if self.try_option(":overflow") {
            Some(self.keyword(OverflowMethod::KEYWORDS, "overflow method")?)
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
        n.memory_budget = mem.map(|m| m as usize);
        Ok(n)
    }

    fn depjoin(&mut self) -> Result<OperatorNode> {
        let source = self.word()?;
        let bind = self.word()?;
        self.expect(Token::Eq)?;
        let probe = self.word()?;
        let left = self.node()?;
        Ok(self.builder.dependent_join(left, &source, &bind, &probe))
    }

    fn select(&mut self) -> Result<OperatorNode> {
        let predicate = self.pred()?;
        let input = self.node()?;
        Ok(self.builder.select(input, predicate))
    }

    fn project(&mut self) -> Result<OperatorNode> {
        self.expect(Token::OpenBracket)?;
        let mut cols = vec![self.word()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            cols.push(self.word()?);
        }
        self.expect(Token::CloseBracket)?;
        let input = self.node()?;
        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        Ok(self.builder.project(input, &refs))
    }

    fn union(&mut self) -> Result<OperatorNode> {
        let mut inputs = Vec::new();
        while self.peek() == Some(&Token::Open) {
            inputs.push(self.node()?);
        }
        if inputs.len() < 2 {
            return Err(err("union needs at least two inputs"));
        }
        Ok(self.builder.union(inputs))
    }

    fn exchange(&mut self) -> Result<OperatorNode> {
        let partitions = self.int()? as usize;
        if partitions == 0 {
            return Err(err("exchange needs at least one partition"));
        }
        let input = self.node()?;
        Ok(self.builder.exchange(input, partitions))
    }

    fn collector(&mut self) -> Result<OperatorNode> {
        let quota = self.opt_int(":quota")?.map(|q| q as usize);
        let timeout = self.opt_int(":timeout")?;
        let mut children = Vec::new();
        while self.peek() == Some(&Token::Open) {
            self.expect(Token::Open)?;
            let kw = self.word()?;
            if kw != "child" {
                return Err(err(format!("expected (child …), got `{kw}`")));
            }
            let source = self.word()?;
            let active = !self.try_option("standby");
            self.expect(Token::Close)?;
            children.push((source, active));
        }
        if children.is_empty() {
            return Err(err("collector needs at least one child"));
        }
        let specs: Vec<(&str, bool)> = children.iter().map(|(s, a)| (s.as_str(), *a)).collect();
        Ok(self
            .builder
            .collector_with_timeout(&specs, quota, timeout)
            .0)
    }

    // ---- rule clauses ----

    /// Body of a `(rule …)` form; the opening paren and `rule` head are
    /// already consumed, the closing paren is left for the caller.
    fn rule(&mut self) -> Result<Rule> {
        let name = self.name()?;
        self.expect_keyword(":owner")?;
        let owner = self.subject()?;
        self.expect_keyword(":when")?;
        let kind = self.keyword(EventKind::KEYWORDS, "event kind")?;
        let subject = self.subject()?;
        let value = match self.peek() {
            Some(Token::Word(w)) => w.parse::<u64>().ok(),
            _ => None,
        };
        if value.is_some() {
            self.pos += 1;
        }
        let event = EventPattern {
            kind,
            subject,
            value,
        };
        let condition = if self.try_option(":if") {
            self.cond()?
        } else {
            Condition::True
        };
        let actions = if self.try_option(":do") {
            self.until_close(Self::action)?
        } else {
            Vec::new()
        };
        Ok(Rule::new(name, owner, event, condition, actions))
    }

    fn cond(&mut self) -> Result<Condition> {
        if self.peek() != Some(&Token::Open) {
            return match self.word()?.as_str() {
                "true" => Ok(Condition::True),
                "false" => Ok(Condition::False),
                other => Err(err(format!("unknown condition `{other}`"))),
            };
        }
        self.expect(Token::Open)?;
        let c = match self.word()?.as_str() {
            "state" => {
                let subject = self.subject()?;
                let state = self.keyword(OpState::KEYWORDS, "state")?;
                Condition::StateIs { subject, state }
            }
            "cmp" => {
                let lhs = self.qty()?;
                let op = self.comparator()?;
                let rhs = self.qty()?;
                Condition::Cmp { lhs, op, rhs }
            }
            "and" => Condition::And(self.until_close(Self::cond)?),
            "or" => Condition::Or(self.until_close(Self::cond)?),
            "not" => Condition::Not(Box::new(self.cond()?)),
            other => return Err(err(format!("unknown condition form `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(c)
    }

    fn qty(&mut self) -> Result<Quantity> {
        if self.peek() != Some(&Token::Open) {
            return Ok(Quantity::Const(self.number()?));
        }
        self.expect(Token::Open)?;
        let q = match self.word()?.as_str() {
            "card" => Quantity::Card(self.subject()?),
            "est" => Quantity::EstCard(self.subject()?),
            "wait" => Quantity::TimeWaitingMs(self.subject()?),
            "mem" => Quantity::MemoryUsed(self.subject()?),
            "budget" => Quantity::MemoryBudget(self.subject()?),
            "scale" => {
                let f = self.number()?;
                Quantity::Scaled(f, Box::new(self.qty()?))
            }
            other => return Err(err(format!("unknown quantity form `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(q)
    }

    fn action(&mut self) -> Result<Action> {
        if self.peek() != Some(&Token::Open) {
            return match self.word()?.as_str() {
                "replan" => Ok(Action::Replan),
                "reschedule" => Ok(Action::Reschedule),
                other => Err(err(format!("unknown action `{other}`"))),
            };
        }
        self.expect(Token::Open)?;
        let a = match self.word()?.as_str() {
            "activate" => Action::Activate(self.subject()?),
            "deactivate" => Action::Deactivate(self.subject()?),
            "error" => Action::ReturnError(self.name()?),
            "set-overflow" => Action::SetOverflowMethod {
                op: self.op()?,
                method: self.keyword(OverflowMethod::KEYWORDS, "overflow method")?,
            },
            "alter-memory" => Action::AlterMemory {
                op: self.op()?,
                bytes: self.int()? as usize,
            },
            other => return Err(err(format!("unknown action form `{other}`"))),
        };
        self.expect(Token::Close)?;
        Ok(a)
    }
}

fn parse_plan_impl(input: &str) -> Result<QueryPlan> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        names: prescan(&tokens)?,
        tokens: &tokens,
        pos: 0,
        builder: PlanBuilder::new(),
    };
    let mut output = None;
    let mut global_rules = Vec::new();
    while p.peek().is_some() {
        p.expect(Token::Open)?;
        match p.word()?.as_str() {
            "fragment" => {
                let name = p.word()?;
                let contingent = p.try_option("contingent");
                let node = p.node()?;
                let mat_name = format!("mat_{name}");
                let id = if contingent {
                    p.builder.contingent_fragment(node, &mat_name)
                } else {
                    p.builder.fragment(node, &mat_name)
                };
                while p.peek() == Some(&Token::Open) {
                    p.expect(Token::Open)?;
                    let kw = p.word()?;
                    if kw != "rule" {
                        return Err(err(format!("expected (rule …) in fragment, got `{kw}`")));
                    }
                    let rule = p.rule()?;
                    p.builder.add_local_rule(id, rule);
                    p.expect(Token::Close)?;
                }
            }
            "after" => {
                let before = p.fragment_ref()?;
                let after = p.fragment_ref()?;
                p.builder.depends(before, after);
            }
            "rule" => global_rules.push(p.rule()?),
            "output" => output = Some(p.fragment_ref()?),
            other => return Err(err(format!("unknown top-level form `{other}`"))),
        }
        p.expect(Token::Close)?;
    }
    let out_id = output.ok_or_else(|| err("missing (output <fragment>)"))?;
    let mut plan = p.builder.build(out_id);
    plan.global_rules = global_rules;
    // rename the output fragment's materialization to the conventional name
    if let Some(f) = plan.fragments.iter_mut().find(|f| f.id == out_id) {
        f.materialize_as = "result".into();
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
    use proptest::prelude::*;

    use super::*;
    use crate::ops::OperatorSpec;
    use crate::text::tests::ArbPlan;

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
                (select (lit a >= 10)
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
        let plan = parse_plan(
            r#"(fragment f (select (lit name = "FRANCE") (wrapper nation))) (output f)"#,
        )
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

    /// The three ways to nest: `levels` selects around a wrapper, `(not …)`
    /// predicates in a select, and `(not …)` rule conditions. Their texts
    /// nest `levels + 2`, `levels + 3` and `levels + 1` parentheses deep.
    fn nested_plans(selects: usize, nots: usize, conds: usize) -> [String; 3] {
        let nested = |open: &str, inner: &str, n: usize| {
            format!("{}{inner}{}", open.repeat(n), ")".repeat(n))
        };
        [
            format!(
                "(fragment f {})\n(output f)",
                nested("(select true ", "(wrapper X)", selects)
            ),
            format!(
                "(fragment f (select {} (wrapper X)))\n(output f)",
                nested("(not ", "(lit a = 1)", nots)
            ),
            format!(
                "(fragment f (wrapper X))\n(rule \"r\" :owner f :when closed f :if {} :do replan)\n(output f)",
                nested("(not ", "true", conds)
            ),
        ]
    }

    /// Parse, print and reparse each text on a thread with a 2 MiB stack (a
    /// worker's `net-serve` thread): the reparsed plan and its text must
    /// equal the first.
    fn round_trip_on_small_stack(texts: [String; 3]) -> [Result<()>; 3] {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                texts.map(|text| {
                    let plan = parse_plan(&text)?;
                    let printed = crate::text::print_plan(&plan);
                    let again = parse_plan(&printed)?;
                    assert_eq!(plan, again);
                    assert_eq!(printed, crate::text::print_plan(&again));
                    Ok(())
                })
            })
            .unwrap()
            .join()
            .unwrap()
    }

    /// The deepest texts the bound admits ([`MAX_PLAN_NESTING`] levels of
    /// nested selects, `(not …)` predicates and `(not …)` rule conditions)
    /// parse, print and reparse on a 2 MiB stack, in a debug build too; one
    /// level more, and 10 000 levels, are a `Plan` error, not a stack
    /// overflow.
    #[test]
    fn deep_nesting_is_a_plan_error_not_a_stack_overflow() {
        let max = MAX_PLAN_NESTING;
        let deepest = nested_plans(max - 2, max - 3, max - 1);
        for text in &deepest {
            assert!(prescan(&tokenize(text).unwrap()).is_ok());
        }
        for out in round_trip_on_small_stack(deepest) {
            out.unwrap();
        }
        for texts in [
            nested_plans(max - 1, max - 2, max),
            nested_plans(10_000, 10_000, 10_000),
        ] {
            for out in round_trip_on_small_stack(texts) {
                let e = out.unwrap_err();
                assert!(matches!(e, TukwilaError::Plan(_)), "{e:?}");
            }
        }
    }

    #[test]
    fn strings_read_two_escapes_and_keep_other_backslashes() {
        let plan = parse_plan(
            r#"(fragment f (select (lit a = "C:\temp \"x\" \\") (wrapper A))
               (rule "r\\1" :owner f :when error op0 :do (error "no \"A\"")))
               (output f)"#,
        )
        .unwrap();
        let f = &plan.fragments[0];
        match &f.root.spec {
            OperatorSpec::Select {
                predicate: Predicate::ColLit { value, .. },
                ..
            } => assert_eq!(value, &Value::str(r#"C:\temp "x" \"#)),
            other => panic!("expected a select, got {other:?}"),
        }
        assert_eq!(f.local_rules[0].name, r"r\1");
        assert_eq!(
            f.local_rules[0].actions,
            vec![Action::ReturnError(r#"no "A""#.into())]
        );
        assert!(parse_plan(
            r#"(fragment f (wrapper A)) (rule "r\" :owner f :when closed f) (output f)"#
        )
        .is_err());
    }

    /// A printed plan with one to three mutations: flipped or replaced
    /// bytes, a truncation, a deleted range, or a range spliced in from a
    /// second printed plan. Half start from a generated plan, half from a
    /// valid fixture. Invalid UTF-8 is replaced: the wire carries a `str`.
    #[derive(Debug, Clone, Copy)]
    struct Mutated;

    const FIXTURES: [&str; 3] = [
        include_str!("../../../plans/ok/collector_fallback.plan"),
        include_str!("../../../plans/ok/parallel.plan"),
        include_str!("../../../plans/ok/pipeline.plan"),
    ];

    impl Strategy for Mutated {
        type Value = String;

        fn sample(&self, gen: &mut Gen) -> String {
            let text = |gen: &mut Gen| match gen.next_u64() % 6 {
                n @ 0..=2 => FIXTURES[n as usize].as_bytes().to_vec(),
                _ => crate::text::print_plan(&ArbPlan.sample(gen)).into_bytes(),
            };
            let at = |gen: &mut Gen, len: usize| (gen.next_u64() % (len as u64 + 1)) as usize;
            let mut bytes = text(gen);
            for _ in 0..1 + gen.next_u64() % 3 {
                let len = bytes.len();
                match gen.next_u64() % 5 {
                    0 | 1 if len > 0 => {
                        let i = at(gen, len - 1);
                        let grammar = b"()[],=;\"\\ 0123456789-:";
                        bytes[i] = if gen.next_u64().is_multiple_of(2) {
                            bytes[i] ^ (1 << (gen.next_u64() % 8))
                        } else {
                            grammar[(gen.next_u64() % grammar.len() as u64) as usize]
                        };
                    }
                    2 => bytes.truncate(at(gen, len)),
                    3 => {
                        let (a, b) = (at(gen, len), at(gen, len));
                        bytes.drain(a.min(b)..a.max(b));
                    }
                    _ => {
                        let other = text(gen);
                        let (a, b) = (at(gen, other.len()), at(gen, other.len()));
                        let i = at(gen, len);
                        bytes.splice(i..i, other[a.min(b)..a.max(b)].iter().copied());
                    }
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }

    /// What a mutated text does: `None` if it does not parse, else whether
    /// it also validates, after checking that its printed form reparses and
    /// prints the same (NaN quantities compare by text).
    fn parse_mutated(text: &str) -> Option<bool> {
        let plan = parse_plan_unchecked(text).ok()?;
        let printed = crate::text::print_plan(&plan);
        let again = parse_plan_unchecked(&printed)
            .unwrap_or_else(|e| panic!("{e}: printed form of an accepted text\n{printed}"));
        assert_eq!(printed, crate::text::print_plan(&again));
        Some(parse_plan(text).is_ok())
    }

    /// A sample of mutated texts has all three outcomes.
    #[test]
    fn mutations_reach_every_outcome() {
        let outcomes: Vec<Option<bool>> = (0..256)
            .map(|case| parse_mutated(&Mutated.sample(&mut Gen::for_case(case))))
            .collect();
        for outcome in [None, Some(false), Some(true)] {
            assert!(
                outcomes.contains(&outcome),
                "no mutated text gives {outcome:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `parse_plan` of a mutated plan on a 2 MiB stack returns `Ok` or
        /// `Err`: it does not panic, overflow the stack or hang, and what
        /// it accepts prints to a fixpoint.
        #[test]
        fn prop_mutated_plans_parse_or_fail_cleanly(text in Mutated) {
            let (tx, rx) = std::sync::mpsc::channel();
            let input = text.clone();
            let parser = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || tx.send(parse_mutated(&input)))
                .unwrap();
            // A panic drops the sender; a hang times out.
            let outcome = rx.recv_timeout(std::time::Duration::from_secs(30));
            prop_assert!(outcome.is_ok(), "parse_plan panicked or hung: {:?}", outcome);
            prop_assert!(parser.join().is_ok());
        }
    }
}
