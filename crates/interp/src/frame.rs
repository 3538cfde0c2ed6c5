//! What a section run hands back: the final variable [`Frame`], and the
//! small inline vector both it and [`crate::RetryRun`] store their values
//! in, so that returning a result allocates nothing.

use semlock::value::Value;
use std::borrow::Cow;
use std::fmt;

/// A vector of `Copy` values that lives inline up to `N` elements and
/// moves to the heap beyond. Reads go through `Deref<Target = [T]>`.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    len: usize,
    inline: [T; N],
    /// Holds every element once there are more than `N`; empty (and
    /// unallocated) until then.
    heap: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Append a value, spilling to the heap at the `N + 1`-th.
    pub fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
        } else {
            if self.len == N {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(v);
        }
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    /// An empty vector (no allocation).
    fn default() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            heap: Vec::new(),
        }
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(values: &[T]) -> Self {
        let mut v = Self::default();
        match v.inline.get_mut(..values.len()) {
            Some(inline) => inline.copy_from_slice(values),
            None => v.heap = values.to_vec(),
        }
        v.len = values.len();
        v
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.inline.get(..self.len).unwrap_or(&self.heap)
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Sections rarely declare more than a handful of variables; frames up to
/// this many values are returned inline.
const INLINE_VALUES: usize = 12;

/// Final variable frame of a section run: the section's declared variables
/// by slot, in declaration (name) order. Both engines return it. The
/// compiled engine borrows the names from the [`crate::Interp`]'s compiled
/// section, so producing a frame clones no `String` and touches no
/// reference count; the tree-walker, the reference oracle, hands over the
/// names of its working map.
pub struct Frame<'a> {
    values: InlineVec<Value, INLINE_VALUES>,
    names: Cow<'a, [String]>,
}

impl<'a> Frame<'a> {
    /// A frame over borrowed names; `values[i]` belongs to `names[i]`.
    pub(crate) fn borrowed(names: &'a [String], values: &[Value]) -> Frame<'a> {
        debug_assert_eq!(names.len(), values.len());
        Frame {
            values: values.into(),
            names: Cow::Borrowed(names),
        }
    }

    /// A frame that owns its names: the entries of a name-keyed working
    /// map, sorted by name (which is slot order for declared variables).
    pub(crate) fn owned(vars: impl IntoIterator<Item = (String, Value)>) -> Frame<'static> {
        let mut vars: Vec<(String, Value)> = vars.into_iter().collect();
        vars.sort();
        let (names, values): (Vec<String>, Vec<Value>) = vars.into_iter().unzip();
        Frame {
            values: values.as_slice().into(),
            names: Cow::Owned(names),
        }
    }

    /// Value of a variable, if the section has one by that name.
    pub fn get(&self, name: &str) -> Option<Value> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(self.values[i])
    }

    /// Variables in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
    }
}

impl std::ops::Index<&str> for Frame<'_> {
    type Output = Value;

    fn index(&self, name: &str) -> &Value {
        match self.names.iter().position(|n| n == name) {
            Some(i) => &self.values[i],
            None => panic!("no variable named {name}"),
        }
    }
}

impl IntoIterator for Frame<'_> {
    type Item = (String, Value);
    type IntoIter = std::iter::Zip<std::vec::IntoIter<String>, std::vec::IntoIter<Value>>;

    fn into_iter(self) -> Self::IntoIter {
        self.names
            .into_owned()
            .into_iter()
            .zip(self.values.to_vec())
    }
}

impl fmt::Debug for Frame<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_vec_spills_past_its_inline_capacity_and_compares_by_content() {
        let mut v: InlineVec<u64, 2> = InlineVec::default();
        assert!(v.is_empty());
        v.push(7);
        v.push(8);
        assert_eq!(&*v, &[7, 8]);
        let inline = v.clone();
        v.push(9);
        assert_eq!(&*v, &[7, 8, 9]);
        assert_ne!(v, inline);
        assert_eq!(v, InlineVec::from(&[7, 8, 9][..]));
        assert_eq!(format!("{inline:?}"), "[7, 8]");
    }

    #[test]
    fn frame_reads_by_name_in_slot_order() {
        let names = ["k".to_string(), "v".to_string()];
        let f = Frame::borrowed(&names, &[Value(1), Value(2)]);
        assert_eq!(f["v"], Value(2));
        assert_eq!(f.get("k"), Some(Value(1)));
        assert_eq!(f.get("nope"), None);
        assert_eq!(
            f.iter().collect::<Vec<_>>(),
            [("k", Value(1)), ("v", Value(2))]
        );
        let owned = Frame::owned([("v".to_string(), Value(2)), ("k".to_string(), Value(1))]);
        assert_eq!(
            owned.into_iter().collect::<Vec<_>>(),
            f.into_iter().collect::<Vec<_>>()
        );
    }
}
