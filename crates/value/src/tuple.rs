//! Immutable, reference-counted tuples.
//!
//! Tuples are the unit of data transfer in P2: dataflow elements pass them
//! between ports, tables store them as rows, and the network stack marshals
//! them into packets. Following the paper's design decision, tuples are
//! **completely immutable once created** and passed by reference
//! (a cheap [`Arc`] clone).

use std::fmt;
use std::sync::Arc;

use crate::error::ValueError;
use crate::value::Value;

#[derive(Debug, PartialEq, Eq, Hash)]
struct TupleInner {
    name: Arc<str>,
    values: Vec<Value>,
}

/// An immutable named tuple of [`Value`]s.
///
/// Cloning a tuple is O(1); the payload is shared.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    inner: Arc<TupleInner>,
}

impl Tuple {
    /// Creates a new tuple with the given relation name and field values.
    ///
    /// Elements that emit under a fixed plan-time name hold it as an
    /// `Arc<str>` and pass a clone: the tuple then shares the name instead
    /// of allocating a copy of it.
    pub fn new(name: impl Into<Arc<str>>, values: Vec<Value>) -> Tuple {
        Tuple {
            inner: Arc::new(TupleInner {
                name: name.into(),
                values,
            }),
        }
    }

    /// The relation (stream or table) name this tuple belongs to.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// All field values, in order.
    pub fn values(&self) -> &[Value] {
        &self.inner.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.inner.values.len()
    }

    /// Returns the field at `index`, or an error if out of range.
    pub fn get(&self, index: usize) -> Result<&Value, ValueError> {
        self.inner
            .values
            .get(index)
            .ok_or(ValueError::FieldOutOfRange {
                index,
                len: self.inner.values.len(),
            })
    }

    /// Returns the field at `index`, panicking if out of range.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.arity()`. Use [`Tuple::get`] when the index
    /// is not statically known to be valid.
    pub fn field(&self, index: usize) -> &Value {
        &self.inner.values[index]
    }

    /// Builds a new tuple with the same values under a different name.
    pub fn renamed(&self, name: impl Into<Arc<str>>) -> Tuple {
        Tuple::new(name, self.inner.values.clone())
    }

    /// Builds a new tuple consisting of the selected field indices, under the
    /// given name (a relational projection).
    pub fn project(
        &self,
        name: impl Into<Arc<str>>,
        indices: &[usize],
    ) -> Result<Tuple, ValueError> {
        let mut values = Vec::with_capacity(indices.len());
        for &i in indices {
            values.push(self.get(i)?.clone());
        }
        Ok(Tuple::new(name, values))
    }

    /// Concatenates this tuple's fields with `other`'s, producing the
    /// intermediate result of an equijoin.
    pub fn join(&self, name: impl Into<Arc<str>>, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(self.values());
        values.extend_from_slice(other.values());
        Tuple::new(name, values)
    }

    /// Appends extra fields, producing a new tuple that shares this one's
    /// name.
    pub fn extended(&self, extra: Vec<Value>) -> Tuple {
        let mut values = Vec::with_capacity(self.arity() + extra.len());
        values.extend_from_slice(self.values());
        values.extend(extra);
        Tuple::new(self.inner.name.clone(), values)
    }

    /// Size in bytes of this tuple in the simulated wire encoding
    /// (see [`crate::wire`]).
    pub fn wire_size(&self) -> usize {
        crate::wire::encoded_size(self)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name())?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Incremental builder for [`Tuple`]s.
#[derive(Debug, Clone)]
pub struct TupleBuilder {
    name: String,
    values: Vec<Value>,
}

impl TupleBuilder {
    /// Starts building a tuple for relation `name`.
    pub fn new(name: impl Into<String>) -> TupleBuilder {
        TupleBuilder {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Appends a field.
    pub fn push(mut self, v: impl Into<Value>) -> TupleBuilder {
        self.values.push(v.into());
        self
    }

    /// Finishes the tuple.
    pub fn build(self) -> Tuple {
        Tuple::new(self.name, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uint160::Uint160;

    fn sample() -> Tuple {
        TupleBuilder::new("member")
            .push("n1")
            .push("n2")
            .push(7i64)
            .push(true)
            .build()
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.name(), "member");
        assert_eq!(t.arity(), 4);
        assert_eq!(t.field(0), &Value::str("n1"));
        assert_eq!(t.get(2).unwrap(), &Value::Int(7));
        assert!(matches!(
            t.get(9),
            Err(ValueError::FieldOutOfRange { index: 9, len: 4 })
        ));
    }

    #[test]
    fn clone_is_shallow() {
        let t = sample();
        let u = t.clone();
        assert_eq!(t, u);
        assert!(Arc::ptr_eq(&t.inner, &u.inner));
    }

    #[test]
    fn projection_and_rename() {
        let t = sample();
        let p = t.project("neighbor", &[0, 1]).unwrap();
        assert_eq!(p.name(), "neighbor");
        assert_eq!(p.values(), &[Value::str("n1"), Value::str("n2")]);
        assert!(t.project("x", &[5]).is_err());

        let r = t.renamed("memberEvent");
        assert_eq!(r.name(), "memberEvent");
        assert_eq!(r.values(), t.values());
    }

    #[test]
    fn join_concatenates() {
        let a = TupleBuilder::new("lookup").push("n1").push(5i64).build();
        let b = TupleBuilder::new("node").push("n1").push(9i64).build();
        let j = a.join("joined", &b);
        assert_eq!(j.arity(), 4);
        assert_eq!(j.field(3), &Value::Int(9));
    }

    #[test]
    fn extended_appends() {
        let s = sample();
        let t = s.extended(vec![Value::Id(Uint160::from_u64(3))]);
        assert_eq!(t.arity(), 5);
        assert_eq!(t.name(), "member");
        // The extension shares its source's name rather than copying it.
        assert!(Arc::ptr_eq(&s.inner.name, &t.inner.name));
    }

    #[test]
    fn display() {
        let t = TupleBuilder::new("succ").push("n1").push(3i64).build();
        assert_eq!(t.to_string(), "succ(n1, 3)");
    }
}
