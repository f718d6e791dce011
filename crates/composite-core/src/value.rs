//! Dynamically typed values crossing component interfaces.
//!
//! COMPOSITE invocations pass register-sized words (plus shared buffers
//! for bulk data). The simulation mirrors that with a small dynamic value
//! type: integers for ids/offsets/flags, strings for paths, and byte
//! buffers standing in for zero-copy `cbuf` references.
//!
//! The fault-tolerance runtimes clone values constantly (tracking last
//! observed arguments, replaying them at recovery), so both payload
//! variants are cheap to clone: [`SmallStr`] stores short strings (paths
//! are almost always short) inline with no heap traffic and falls back to
//! a shared `Arc<str>`, and [`Bytes`] is a shared `Arc<[u8]>` — cloning
//! either is at worst a reference-count bump. This matches the substrate:
//! a `cbuf` *is* a shared buffer reference, not a copy.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A value passed to or returned from a component invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Value {
    /// Absence of a value (a `void` return).
    #[default]
    Unit,
    /// A register-sized integer.
    Int(i64),
    /// A string (file path etc.).
    Str(SmallStr),
    /// Bulk data (stands in for a zero-copy buffer reference).
    Bytes(Bytes),
}

impl Value {
    /// Integer payload.
    ///
    /// # Errors
    ///
    /// [`TypeMismatch`] when the value is not an [`Value::Int`].
    pub fn int(&self) -> Result<i64, TypeMismatch> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(TypeMismatch {
                expected: "int",
                found: other.kind(),
            }),
        }
    }

    /// String payload.
    ///
    /// # Errors
    ///
    /// [`TypeMismatch`] when the value is not a [`Value::Str`].
    pub fn str(&self) -> Result<&str, TypeMismatch> {
        self.small_str().map(SmallStr::as_str)
    }

    /// String payload as the [`SmallStr`] itself, for a callee that keeps
    /// it: cloning it copies an inline string or bumps a refcount.
    ///
    /// # Errors
    ///
    /// [`TypeMismatch`] when the value is not a [`Value::Str`].
    pub fn small_str(&self) -> Result<&SmallStr, TypeMismatch> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(TypeMismatch {
                expected: "str",
                found: other.kind(),
            }),
        }
    }

    /// Byte payload.
    ///
    /// # Errors
    ///
    /// [`TypeMismatch`] when the value is not a [`Value::Bytes`].
    pub fn bytes(&self) -> Result<&[u8], TypeMismatch> {
        self.shared_bytes().map(|b| &**b)
    }

    /// Byte payload as the shared [`Bytes`] buffer, for a callee that
    /// keeps it: cloning it bumps a refcount instead of copying.
    ///
    /// # Errors
    ///
    /// [`TypeMismatch`] when the value is not a [`Value::Bytes`].
    pub fn shared_bytes(&self) -> Result<&Bytes, TypeMismatch> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(TypeMismatch {
                expected: "bytes",
                found: other.kind(),
            }),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Int(_) => "int",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v.into())
    }
}

impl From<()> for Value {
    fn from((): ()) -> Self {
        Value::Unit
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{:?}", &**s),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

/// Longest string stored without a heap allocation. Chosen so `SmallStr`
/// is no larger than the `Arc` variant plus its niche.
const INLINE_CAP: usize = 22;

/// A string that is cheap to clone: short strings (interface names,
/// function names, file paths) live inline on the stack; longer ones
/// share an `Arc<str>` so cloning is a reference-count bump either way.
#[derive(Clone)]
pub struct SmallStr(StrRepr);

#[derive(Clone)]
enum StrRepr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Heap(Arc<str>),
}

impl SmallStr {
    /// The string contents.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            StrRepr::Inline { len, buf } => {
                // Inline bytes are copied verbatim from a valid &str.
                std::str::from_utf8(&buf[..usize::from(*len)]).expect("inline bytes are UTF-8")
            }
            StrRepr::Heap(s) => s,
        }
    }
}

impl From<&str> for SmallStr {
    fn from(v: &str) -> Self {
        if v.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..v.len()].copy_from_slice(v.as_bytes());
            SmallStr(StrRepr::Inline {
                len: v.len() as u8,
                buf,
            })
        } else {
            SmallStr(StrRepr::Heap(Arc::from(v)))
        }
    }
}

impl From<String> for SmallStr {
    fn from(v: String) -> Self {
        v.as_str().into()
    }
}

impl Deref for SmallStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for SmallStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SmallStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SmallStr {}

impl PartialOrd for SmallStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallStr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for SmallStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SmallStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared, immutable byte buffer. Cloning bumps a reference count —
/// the simulation's stand-in for passing a `cbuf` reference rather than
/// copying bulk data across a component boundary.
#[derive(Clone, PartialEq, Eq)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// Copy the contents out into an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes(Arc::from(v))
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like the Vec<u8> this used to be, so Debug output of
        // values (goldens, traces) is unchanged.
        fmt::Debug::fmt(&self.0, f)
    }
}

/// Maximum argument count stored without a heap allocation. The widest
/// shipped interface function takes 5 arguments.
const ARG_CAP: usize = 8;

/// A small-vector argument buffer: up to `ARG_CAP` values live on the
/// caller's stack, so building a translated/replayed argument list on the
/// invoke path allocates nothing. This is the "per-thread scratch" of the
/// hot path — it lives in the invoking thread's stack frame, which keeps
/// it reentrancy-safe when recovery recurses through nested upcalls.
#[derive(Clone)]
pub struct ArgVec(ArgRepr);

#[derive(Clone)]
enum ArgRepr {
    Inline { len: u8, buf: [Value; ARG_CAP] },
    Heap(Vec<Value>),
}

impl ArgVec {
    /// An empty argument buffer.
    #[must_use]
    pub fn new() -> Self {
        ArgVec(ArgRepr::Inline {
            len: 0,
            buf: Default::default(),
        })
    }

    /// Append a value, spilling to the heap past `ARG_CAP` entries.
    pub fn push(&mut self, value: Value) {
        match &mut self.0 {
            ArgRepr::Inline { len, buf } => {
                let i = usize::from(*len);
                if i < ARG_CAP {
                    buf[i] = value;
                    *len += 1;
                } else {
                    let mut v: Vec<Value> = buf.to_vec();
                    v.push(value);
                    self.0 = ArgRepr::Heap(v);
                }
            }
            ArgRepr::Heap(v) => v.push(value),
        }
    }

    /// The arguments as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            ArgRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            ArgRepr::Heap(v) => v,
        }
    }

    /// Copy the arguments into an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Value> {
        self.as_slice().to_vec()
    }
}

impl Default for ArgVec {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for ArgVec {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl DerefMut for ArgVec {
    fn deref_mut(&mut self) -> &mut [Value] {
        match &mut self.0 {
            ArgRepr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            ArgRepr::Heap(v) => v,
        }
    }
}

impl FromIterator<Value> for ArgVec {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut out = ArgVec::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl From<&[Value]> for ArgVec {
    fn from(vals: &[Value]) -> Self {
        vals.iter().cloned().collect()
    }
}

impl fmt::Debug for ArgVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// Error for a [`Value`] accessed at the wrong type — interface misuse
/// detected at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeMismatch {
    /// What the accessor wanted.
    pub expected: &'static str,
    /// What the value actually was.
    pub found: &'static str,
}

impl fmt::Display for TypeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expected a {} value, found {}",
            self.expected, self.found
        )
    }
}

impl std::error::Error for TypeMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_succeed_on_matching_kind() {
        assert_eq!(Value::Int(3).int().unwrap(), 3);
        assert_eq!(Value::Str("p".into()).str().unwrap(), "p");
        assert_eq!(Value::Bytes(vec![1].into()).bytes().unwrap(), &[1]);
    }

    #[test]
    fn accessors_fail_on_mismatch() {
        assert!(Value::Unit.int().is_err());
        assert!(Value::Int(1).str().is_err());
        let e = Value::Int(1).bytes().unwrap_err();
        assert_eq!(e.to_string(), "expected a bytes value, found int");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(7u32), Value::Int(7));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(()), Value::Unit);
        assert_eq!(Value::from(vec![9u8]), Value::Bytes(vec![9].into()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::from("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Value::Bytes(vec![0; 4].into()).to_string(), "<4 bytes>");
    }

    #[test]
    fn small_str_inline_and_heap_agree() {
        let short = SmallStr::from("bench-3.dat");
        let long = SmallStr::from("a-path-name-well-beyond-the-inline-capacity.dat");
        assert_eq!(short.as_str(), "bench-3.dat");
        assert_eq!(
            long.as_str(),
            "a-path-name-well-beyond-the-inline-capacity.dat"
        );
        assert_eq!(short, SmallStr::from(String::from("bench-3.dat")));
        assert_eq!(format!("{short:?}"), "\"bench-3.dat\"");
        // Boundary: exactly INLINE_CAP bytes stays inline-equal to heap.
        let edge = "x".repeat(INLINE_CAP);
        assert_eq!(SmallStr::from(edge.as_str()).as_str(), edge);
    }

    #[test]
    fn value_debug_renders_like_before() {
        assert_eq!(format!("{:?}", Value::from("p")), "Str(\"p\")");
        assert_eq!(format!("{:?}", Value::from(vec![1u8, 2])), "Bytes([1, 2])");
    }

    #[test]
    fn bytes_clone_shares_storage() {
        let b = Bytes::from(vec![7u8; 64]);
        let c = b.clone();
        assert_eq!(&*b as *const [u8], &*c as *const [u8]);
        assert_eq!(c.to_vec(), vec![7u8; 64]);
        assert!(b == vec![7u8; 64]);
    }

    #[test]
    fn argvec_inline_then_spills() {
        let mut a = ArgVec::new();
        for i in 0..ARG_CAP as i64 {
            a.push(Value::Int(i));
        }
        assert_eq!(a.len(), ARG_CAP);
        a.push(Value::Int(99));
        assert_eq!(a.len(), ARG_CAP + 1);
        assert_eq!(a[ARG_CAP], Value::Int(99));
        a[0] = Value::Unit;
        assert_eq!(a.to_vec()[0], Value::Unit);
        let from_iter: ArgVec = (0..3).map(Value::Int).collect();
        assert_eq!(&*from_iter, &[Value::Int(0), Value::Int(1), Value::Int(2)]);
    }
}
