//! The VM heap: objects and integer arrays.

use isf_ir::ClassId;

use crate::error::TrapKind;
use crate::value::Value;

/// An allocated object: its runtime class and one slot per (flattened)
/// field.
#[derive(Clone, Debug)]
pub struct Object {
    /// The runtime class.
    pub class: ClassId,
    /// Field slots, indexed by the class layout's offsets.
    pub fields: Vec<Value>,
}

/// A simple bump-allocating heap. Nothing is ever freed — benchmark runs
/// are short-lived, matching the paper's methodology of timing whole
/// program executions.
///
/// The heap can carry a word budget ([`Heap::with_limit`]): every
/// allocation is charged one header word plus one word per field or
/// element, and an allocation that would exceed the budget traps with
/// [`TrapKind::HeapExhausted`] *before* reserving any memory, so a
/// pathological program cannot take the host down.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    objects: Vec<Object>,
    arrays: Vec<Vec<i64>>,
    words: u64,
    limit_words: Option<u64>,
}

impl Heap {
    /// Creates an empty heap with no word budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty heap that traps with [`TrapKind::HeapExhausted`]
    /// once more than `limit_words` words have been allocated (`None`
    /// means unlimited).
    pub fn with_limit(limit_words: Option<u64>) -> Self {
        Heap {
            limit_words,
            ..Self::default()
        }
    }

    /// Total words allocated so far (one header word per allocation plus
    /// one word per field or element).
    pub fn words_allocated(&self) -> u64 {
        self.words
    }

    /// Charges `words` against the budget, trapping before any memory is
    /// reserved when the charge would exceed it.
    fn charge(&mut self, words: u64) -> Result<(), TrapKind> {
        let next = self.words.saturating_add(words);
        if let Some(limit) = self.limit_words {
            if next > limit {
                return Err(TrapKind::HeapExhausted { limit_words: limit });
            }
        }
        self.words = next;
        Ok(())
    }

    /// Allocates an object of `class` with `num_fields` zeroed slots.
    ///
    /// # Errors
    ///
    /// Traps if the allocation would exceed the heap word budget.
    pub fn alloc_object(&mut self, class: ClassId, num_fields: usize) -> Result<Value, TrapKind> {
        self.charge(num_fields as u64 + 1)?;
        let handle = self.objects.len() as u32;
        self.objects.push(Object {
            class,
            fields: vec![Value::I64(0); num_fields],
        });
        Ok(Value::Obj(handle))
    }

    /// Allocates a zero-filled integer array.
    ///
    /// # Errors
    ///
    /// Traps if `len` is negative or the allocation would exceed the heap
    /// word budget.
    pub fn alloc_array(&mut self, len: i64) -> Result<Value, TrapKind> {
        if len < 0 {
            return Err(TrapKind::NegativeArrayLength(len));
        }
        self.charge(len as u64 + 1)?;
        let handle = self.arrays.len() as u32;
        self.arrays.push(vec![0; len as usize]);
        Ok(Value::Arr(handle))
    }

    /// Resolves an object handle.
    ///
    /// # Errors
    ///
    /// Traps on `null` or a non-object value.
    pub fn object(&self, v: Value) -> Result<&Object, TrapKind> {
        match v {
            Value::Obj(h) => Ok(&self.objects[h as usize]),
            Value::Null => Err(TrapKind::NullDereference),
            other => Err(TrapKind::TypeError {
                expected: "object",
                found: other.kind_name(),
            }),
        }
    }

    /// Resolves an object handle mutably.
    ///
    /// # Errors
    ///
    /// Traps on `null` or a non-object value.
    pub fn object_mut(&mut self, v: Value) -> Result<&mut Object, TrapKind> {
        match v {
            Value::Obj(h) => Ok(&mut self.objects[h as usize]),
            Value::Null => Err(TrapKind::NullDereference),
            other => Err(TrapKind::TypeError {
                expected: "object",
                found: other.kind_name(),
            }),
        }
    }

    /// Reads `arr[idx]`.
    ///
    /// # Errors
    ///
    /// Traps on `null`, non-arrays and out-of-bounds indices.
    pub fn array_get(&self, arr: Value, idx: i64) -> Result<i64, TrapKind> {
        let a = self.array(arr)?;
        usize::try_from(idx)
            .ok()
            .and_then(|i| a.get(i))
            .copied()
            .ok_or(TrapKind::IndexOutOfBounds {
                index: idx,
                len: a.len(),
            })
    }

    /// Writes `arr[idx] = value`.
    ///
    /// # Errors
    ///
    /// Traps on `null`, non-arrays and out-of-bounds indices.
    pub fn array_set(&mut self, arr: Value, idx: i64, value: i64) -> Result<(), TrapKind> {
        let a = self.array_mut(arr)?;
        let len = a.len();
        let slot = usize::try_from(idx)
            .ok()
            .and_then(|i| a.get_mut(i))
            .ok_or(TrapKind::IndexOutOfBounds { index: idx, len })?;
        *slot = value;
        Ok(())
    }

    /// Returns the length of an array value.
    ///
    /// # Errors
    ///
    /// Traps on `null` and non-arrays.
    pub fn array_len(&self, arr: Value) -> Result<i64, TrapKind> {
        Ok(self.array(arr)?.len() as i64)
    }

    fn array(&self, v: Value) -> Result<&Vec<i64>, TrapKind> {
        match v {
            Value::Arr(h) => Ok(&self.arrays[h as usize]),
            Value::Null => Err(TrapKind::NullDereference),
            other => Err(TrapKind::TypeError {
                expected: "array",
                found: other.kind_name(),
            }),
        }
    }

    fn array_mut(&mut self, v: Value) -> Result<&mut Vec<i64>, TrapKind> {
        match v {
            Value::Arr(h) => Ok(&mut self.arrays[h as usize]),
            Value::Null => Err(TrapKind::NullDereference),
            other => Err(TrapKind::TypeError {
                expected: "array",
                found: other.kind_name(),
            }),
        }
    }

    /// Number of live arrays (for tests and stats).
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_roundtrip() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId::new(0), 2).unwrap();
        h.object_mut(o).unwrap().fields[1] = Value::I64(9);
        assert_eq!(h.object(o).unwrap().fields[1], Value::I64(9));
        assert_eq!(h.object(o).unwrap().fields[0], Value::I64(0));
    }

    #[test]
    fn word_budget_traps_before_allocating() {
        let mut h = Heap::with_limit(Some(10));
        // 2 fields + header = 3 words; twice fits, a third object with a
        // large payload does not.
        h.alloc_object(ClassId::new(0), 2).unwrap();
        h.alloc_object(ClassId::new(0), 2).unwrap();
        assert_eq!(h.words_allocated(), 6);
        assert_eq!(
            h.alloc_array(9).unwrap_err(),
            TrapKind::HeapExhausted { limit_words: 10 }
        );
        // The failed allocation reserved nothing.
        assert_eq!(h.words_allocated(), 6);
        assert_eq!(h.num_arrays(), 0);
        // A fitting allocation still succeeds after a budget trap.
        h.alloc_array(3).unwrap();
        assert_eq!(h.words_allocated(), 10);
    }

    #[test]
    fn unlimited_heap_never_budget_traps() {
        let mut h = Heap::new();
        for _ in 0..100 {
            h.alloc_object(ClassId::new(0), 8).unwrap();
        }
        assert_eq!(h.words_allocated(), 900);
    }

    #[test]
    fn array_bounds_checked() {
        let mut h = Heap::new();
        let a = h.alloc_array(3).unwrap();
        h.array_set(a, 2, 7).unwrap();
        assert_eq!(h.array_get(a, 2).unwrap(), 7);
        assert!(matches!(
            h.array_get(a, 3),
            Err(TrapKind::IndexOutOfBounds { index: 3, len: 3 })
        ));
        assert!(matches!(
            h.array_get(a, -1),
            Err(TrapKind::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_length_traps() {
        let mut h = Heap::new();
        assert_eq!(
            h.alloc_array(-2).unwrap_err(),
            TrapKind::NegativeArrayLength(-2)
        );
    }

    #[test]
    fn null_and_kind_errors() {
        let h = Heap::new();
        assert_eq!(
            h.object(Value::Null).unwrap_err(),
            TrapKind::NullDereference
        );
        assert!(matches!(
            h.array_get(Value::I64(0), 0),
            Err(TrapKind::TypeError { .. })
        ));
    }
}
