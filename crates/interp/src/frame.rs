//! What a section run hands back: the final variable [`Frame`]. It and
//! [`crate::RetryRun`] store their values in semlock's [`InlineVec`], so
//! that returning a result allocates nothing.

pub use semlock::inline_vec::InlineVec;
use semlock::value::Value;
use std::borrow::Cow;
use std::fmt;

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
