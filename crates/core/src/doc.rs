//! Strict reading of JSON documents.
//!
//! Every JSON document the workspace reads — `dts-trace` files,
//! `dts-cost-model` files, the corpus golden file, daemon requests and
//! the daemon replies `dts request` prints — is checked by this one helper set, so the rules are the same at every
//! door:
//!
//! * [`keyed`] splits an object into one slot per allowed key; a key
//!   outside the list and a key given twice are both errors naming the
//!   key, so a misspelled field fails loudly instead of being ignored;
//! * [`string`], [`boolean`], [`uint`], [`size`], [`number`], [`array()`]
//!   and [`object`] read one required slot, naming the JSON path of a
//!   missing or mistyped value (a non-negative integer gets separate
//!   messages for negative, non-integer and non-number values);
//! * an [`At`] is the location of a value: the path string is built only
//!   when an error is reported, so the success path never formats one;
//! * [`parse`] runs a reader on the JSON parser's own tree.
//!
//! Each door keeps its own typed error: the root [`At`] of a document
//! names the document and the error its messages are wrapped in.

use serde::Value;
use std::fmt;

/// Where in a document a value sits, and which error the document's door
/// reports. Rendered into a path (`tasks[3].mem_bytes`) only when an
/// error is built.
pub enum At<'p, E> {
    /// The document root: its name in messages (`"trace file"`) and the
    /// error constructor of its door.
    Root(&'static str, fn(String) -> E),
    /// The value under a key of the object at the parent location.
    Key(&'p At<'p, E>, &'p str),
    /// An element of the array at the parent location.
    Index(&'p At<'p, E>, usize),
}

impl<E> Clone for At<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for At<'_, E> {}

impl<'p, E> At<'p, E> {
    /// The location of `key` inside the object at `self`.
    pub fn key<'a>(&'a self, key: &'a str) -> At<'a, E> {
        At::Key(self, key)
    }

    /// The location of element `i` of the array at `self`.
    pub fn index(&self, i: usize) -> At<'_, E> {
        At::Index(self, i)
    }

    /// Wraps `msg` in the error of the document's door.
    #[cold]
    pub fn error(&self, msg: impl Into<String>) -> E {
        match self {
            At::Root(_, error) => error(msg.into()),
            At::Key(parent, _) | At::Index(parent, _) => parent.error(msg),
        }
    }
}

/// The document name at the root, the JSON path below it.
impl<E> fmt::Display for At<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            At::Root(name, _) => f.write_str(name),
            At::Key(At::Root(..), key) => f.write_str(key),
            At::Key(parent, key) => write!(f, "{parent}.{key}"),
            At::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// Parses JSON text and runs `read` on the parser's own tree (no copy of
/// the tree is made). Broken syntax becomes the door's error through its
/// `From<serde_json::Error>`.
pub fn parse<T, E: From<serde_json::Error>>(
    json: &str,
    read: impl FnOnce(&Value) -> Result<T, E>,
) -> Result<T, E> {
    let value: Value = serde_json::from_str(json)?;
    read(&value)
}

/// Splits an object into one slot per allowed key, in the order of
/// `keys`. Filling a slot twice is a repeated key; a key outside `keys`
/// is an unknown one. Neither allocates on the success path.
#[inline]
pub fn keyed<'v, E, const N: usize>(
    value: &'v Value,
    keys: &[&str; N],
    at: At<'_, E>,
) -> Result<[Option<&'v Value>; N], E> {
    let Value::Object(fields) = value else {
        return Err(at.error(format!("{at} must be an object, got {}", value.kind())));
    };
    let mut slots = [None; N];
    for (key, item) in fields {
        let Some(slot) = keys.iter().position(|k| k == key) else {
            let allowed = keys.join(", ");
            return Err(at.error(format!(
                "{at} has unknown key `{key}`; allowed keys are {allowed}"
            )));
        };
        if slots[slot].replace(item).is_some() {
            return Err(at.error(format!("{at} repeats key `{key}`")));
        }
    }
    Ok(slots)
}

/// A required string.
#[inline]
pub fn string<'v, E>(slot: Option<&'v Value>, key: &str, at: At<'_, E>) -> Result<&'v str, E> {
    match slot {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(mistyped(slot, key, at, "a string")),
    }
}

/// A required boolean.
pub fn boolean<E>(slot: Option<&Value>, key: &str, at: At<'_, E>) -> Result<bool, E> {
    match slot {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(mistyped(slot, key, at, "a boolean")),
    }
}

/// A required non-negative integer. Floats (the JSON parser yields
/// [`Value::Float`] for `1.5`, `1e30` etc.), negative integers and
/// non-numbers each get their own message naming the path.
#[inline]
pub fn uint<E>(slot: Option<&Value>, key: &str, at: At<'_, E>) -> Result<u64, E> {
    match slot {
        Some(Value::UInt(n)) => Ok(*n),
        _ => Err(mistyped(slot, key, at, UINT)),
    }
}

/// A required non-negative integer that must fit `usize` (a count or an
/// index).
pub fn size<E>(slot: Option<&Value>, key: &str, at: At<'_, E>) -> Result<usize, E> {
    let n = uint(slot, key, at)?;
    let at = at.key(key);
    usize::try_from(n).map_err(|_| at.error(format!("{at} {n} does not fit this platform's usize")))
}

/// A required number, integer or not.
pub fn number<E>(slot: Option<&Value>, key: &str, at: At<'_, E>) -> Result<f64, E> {
    match slot {
        Some(Value::UInt(n)) => Ok(*n as f64),
        Some(Value::Int(n)) => Ok(*n as f64),
        Some(Value::Float(x)) => Ok(*x),
        _ => Err(mistyped(slot, key, at, "a number")),
    }
}

/// A required array.
pub fn array<'v, E>(slot: Option<&'v Value>, key: &str, at: At<'_, E>) -> Result<&'v [Value], E> {
    match slot {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(mistyped(slot, key, at, "an array")),
    }
}

/// A required object with free-form keys, as its field list.
pub fn object<'v, E>(
    slot: Option<&'v Value>,
    key: &str,
    at: At<'_, E>,
) -> Result<&'v [(String, Value)], E> {
    match slot {
        Some(Value::Object(fields)) => Ok(fields),
        _ => Err(mistyped(slot, key, at, "an object")),
    }
}

const UINT: &str = "a non-negative integer";

/// The error for a missing value under `key`, or one that is not
/// `expected`; only [`uint`] gets past the generic message, with its own
/// for negative and non-integer numbers. Out of line, so the accessors'
/// success paths stay small enough to inline.
#[cold]
#[inline(never)]
fn mistyped<E>(slot: Option<&Value>, key: &str, at: At<'_, E>, expected: &str) -> E {
    let Some(value) = slot else {
        return at.error(format!("{at} is missing required key `{key}`"));
    };
    let at = at.key(key);
    at.error(match value {
        Value::Int(n) if expected == UINT => format!("{at} is negative ({n})"),
        Value::Float(x) if expected == UINT => {
            format!("{at} must be {UINT}, got non-integer number {x}")
        }
        other => format!("{at} must be {expected}, got {}", other.kind()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: At<'static, String> = At::Root("test file", |msg| msg);

    fn json(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn paths_render_only_below_the_root() {
        let list = DOC.key("items");
        let item = list.index(3);
        assert_eq!(DOC.to_string(), "test file");
        assert_eq!(list.to_string(), "items");
        assert_eq!(item.to_string(), "items[3]");
        assert_eq!(item.key("size").to_string(), "items[3].size");
        assert_eq!(item.error("boom"), "boom");
    }

    #[test]
    fn keyed_splits_slots_and_names_unknown_and_repeated_keys() {
        let value = json(r#"{"b": 2, "a": 1}"#);
        let [a, b, c] = keyed(&value, &["a", "b", "c"], DOC).unwrap();
        assert_eq!(
            (a, b, c),
            (Some(&Value::UInt(1)), Some(&Value::UInt(2)), None)
        );
        assert_eq!(
            keyed(&json(r#"{"a": 1, "z": 0}"#), &["a", "b"], DOC).unwrap_err(),
            "test file has unknown key `z`; allowed keys are a, b"
        );
        assert_eq!(
            keyed(&json(r#"{"a": 1, "a": 2}"#), &["a"], DOC).unwrap_err(),
            "test file repeats key `a`"
        );
        assert_eq!(
            keyed(&json("[]"), &["a"], DOC.key("inner")).unwrap_err(),
            "inner must be an object, got array"
        );
    }

    #[test]
    fn accessors_classify_every_wrong_shape() {
        let value = json(r#"{"n": 7, "neg": -2, "x": 1.5, "s": "hi", "l": [1], "o": {"k": 1}}"#);
        let [n, neg, x, s, l, o] = keyed(&value, &["n", "neg", "x", "s", "l", "o"], DOC).unwrap();
        let at = DOC.key("obj");
        assert_eq!(uint(n, "n", at), Ok(7));
        assert_eq!(size(n, "n", at), Ok(7));
        assert_eq!(
            size(neg, "neg", at).unwrap_err(),
            "obj.neg is negative (-2)"
        );
        assert_eq!(
            uint(neg, "neg", at).unwrap_err(),
            "obj.neg is negative (-2)"
        );
        assert_eq!(
            uint(x, "x", at).unwrap_err(),
            "obj.x must be a non-negative integer, got non-integer number 1.5"
        );
        assert_eq!(
            uint(s, "s", at).unwrap_err(),
            "obj.s must be a non-negative integer, got string"
        );
        assert_eq!(number(n, "n", at), Ok(7.0));
        assert_eq!(number(neg, "neg", at), Ok(-2.0));
        assert_eq!(number(x, "x", at), Ok(1.5));
        assert_eq!(
            number(l, "l", at).unwrap_err(),
            "obj.l must be a number, got array"
        );
        assert_eq!(string(s, "s", at), Ok("hi"));
        assert_eq!(
            string(n, "n", at).unwrap_err(),
            "obj.n must be a string, got integer"
        );
        assert_eq!(array(l, "l", at).map(<[Value]>::len), Ok(1));
        assert_eq!(
            array(o, "o", at).unwrap_err(),
            "obj.o must be an array, got object"
        );
        assert_eq!(object(o, "o", at).map(<[_]>::len), Ok(1));
        assert_eq!(
            object(s, "s", at).unwrap_err(),
            "obj.s must be an object, got string"
        );
        assert_eq!(
            string(None, "name", at).unwrap_err(),
            "obj is missing required key `name`"
        );
    }

    #[test]
    fn parse_separates_syntax_errors_from_reader_errors() {
        #[derive(Debug, PartialEq)]
        enum Failure {
            Syntax,
            Shape(String),
        }
        impl From<serde_json::Error> for Failure {
            fn from(_: serde_json::Error) -> Self {
                Failure::Syntax
            }
        }
        let root: At<'static, Failure> = At::Root("test file", Failure::Shape);
        let read = |value: &Value| string(keyed(value, &["s"], root)?[0], "s", root).map(str::len);
        assert_eq!(parse(r#"{"s": "four"}"#, read), Ok(4));
        assert_eq!(parse("{ nope", read), Err(Failure::Syntax));
        assert_eq!(
            parse("{}", read),
            Err(Failure::Shape(
                "test file is missing required key `s`".into()
            ))
        );
    }
}
