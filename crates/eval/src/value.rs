//! Runtime values: the universe `U` of the paper's concrete semantics.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use rowpoly_lang::{Expr, FieldName, Symbol};

/// Variable environments of the interpreter.
pub type Env = HashMap<Symbol, Value>;

/// A runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// String.
    Str(Rc<str>),
    /// List.
    List(Rc<Vec<Value>>),
    /// Record: field → value.
    Record(Rc<BTreeMap<FieldName, Value>>),
    /// User closure; `me` names the closure itself for recursion.
    Closure {
        /// Self-reference name for recursive bindings, if any.
        me: Option<Symbol>,
        /// Parameter.
        param: Symbol,
        /// Body.
        body: Rc<Expr>,
        /// Captured environment.
        env: Rc<Env>,
    },
    /// A built-in function, possibly partially applied.
    Prim(Prim, Vec<Value>),
}

/// Built-in functions (record operators and list primitives).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prim {
    /// `#N`
    Select(FieldName),
    /// `@{N = v}` with the value already evaluated (arity 1 remaining).
    Update(FieldName),
    /// `%N`
    Remove(FieldName),
    /// `^{M -> N}`
    Rename(FieldName, FieldName),
    /// `null`
    Null,
    /// `head`
    Head,
    /// `tail`
    Tail,
    /// `cons`
    Cons,
}

impl Prim {
    /// Total number of arguments the primitive consumes.
    pub fn arity(self) -> usize {
        match self {
            Prim::Select(_) | Prim::Remove(_) | Prim::Rename(_, _) => 1,
            Prim::Update(_) => 2,
            Prim::Null | Prim::Head | Prim::Tail => 1,
            Prim::Cons => 2,
        }
    }
}

impl Value {
    /// Shallow description for error messages.
    pub fn describe(&self) -> &'static str {
        match self {
            Value::Int(_) => "an integer",
            Value::Str(_) => "a string",
            Value::List(_) => "a list",
            Value::Record(_) => "a record",
            Value::Closure { .. } | Value::Prim(..) => "a function",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Record(fields) => {
                write!(f, "{{")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n} = {v}")?;
                }
                write!(f, "}}")
            }
            Value::Closure { .. } => write!(f, "<closure>"),
            Value::Prim(p, _) => write!(f, "<prim {p:?}>"),
        }
    }
}

/// The runtime error value `Ω`, distinguishing the field errors the type
/// system is meant to prevent from other stuck states.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// Access to a record field that does not exist — the error class the
    /// paper's inference detects (its `Ω` for Observation 1).
    MissingField(FieldName),
    /// A field was present in both operands of a symmetric concatenation.
    DuplicateField(FieldName),
    /// Renaming onto an already-present target field.
    RenameClash(FieldName),
    /// Dynamically ill-typed operation (applied a non-function, added a
    /// record to an integer, …).
    Stuck(String),
    /// Unbound variable.
    Unbound(Symbol),
    /// `head`/`tail` of an empty list (a partiality error, not a field
    /// error).
    EmptyList,
    /// Evaluation fuel exhausted (not an error value; the result is
    /// simply unknown).
    OutOfFuel,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::MissingField(n) => write!(f, "record has no field `{n}`"),
            RuntimeError::DuplicateField(n) => {
                write!(f, "field `{n}` present in both operands of `@@`")
            }
            RuntimeError::RenameClash(n) => {
                write!(f, "rename target `{n}` already present")
            }
            RuntimeError::Stuck(msg) => write!(f, "stuck: {msg}"),
            RuntimeError::Unbound(x) => write!(f, "unbound variable `{x}`"),
            RuntimeError::EmptyList => write!(f, "head/tail of empty list"),
            RuntimeError::OutOfFuel => write!(f, "out of fuel"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl RuntimeError {
    /// Whether this is the field-error class that the flow inference is
    /// designed to rule out (Observation 1's notion of going wrong).
    pub fn is_field_error(&self) -> bool {
        self.failing_field().is_some()
    }

    /// The field a field error failed on; `None` for other errors.
    pub fn failing_field(&self) -> Option<FieldName> {
        match self {
            RuntimeError::MissingField(n)
            | RuntimeError::DuplicateField(n)
            | RuntimeError::RenameClash(n) => Some(*n),
            _ => None,
        }
    }
}
