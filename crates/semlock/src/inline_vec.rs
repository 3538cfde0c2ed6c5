//! A small vector of `Copy` values that lives inline up to `N` elements
//! and moves to the heap beyond: the transaction's `LOCAL_SET`
//! ([`crate::txn::Txn`]), the 2PL baseline's held set, and the
//! interpreter's returned frames and attempt ids, so that none of them
//! allocates in the common case.

use std::fmt;

/// A vector of `Copy` values that lives inline up to `N` elements and
/// moves to the heap beyond. Reads go through `Deref<Target = [T]>`.
///
/// Invariant: up to `N` elements sit in `inline[..len]` and `heap` is
/// empty; past `N`, every element is in `heap`.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    len: usize,
    inline: [T; N],
    /// Holds every element once there are more than `N`; empty (and
    /// unallocated until the first spill) otherwise.
    heap: Vec<T>,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector (no allocation) whose unused inline slots hold
    /// `fill`. The fill is never read back: it only lets types without a
    /// `Default`, such as references, live inline.
    pub const fn new(fill: T) -> Self {
        InlineVec {
            len: 0,
            inline: [fill; N],
            heap: Vec::new(),
        }
    }

    /// Append a value, spilling to the heap at the `N + 1`-th.
    #[inline]
    pub fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
        } else {
            self.spill_push(v);
        }
        self.len += 1;
    }

    #[cold]
    fn spill_push(&mut self, v: T) {
        if self.len == N {
            self.heap.extend_from_slice(&self.inline);
        }
        self.heap.push(v);
    }

    /// Remove and return the element at `i`, moving the last element into
    /// its place (like [`Vec::swap_remove`]).
    pub fn swap_remove(&mut self, i: usize) -> T {
        assert!(i < self.len, "swap_remove index {i} out of {}", self.len);
        let v = if self.len <= N {
            let v = self.inline[i];
            self.inline[i] = self.inline[self.len - 1];
            v
        } else {
            let v = self.heap.swap_remove(i);
            if self.heap.len() == N {
                self.inline.copy_from_slice(&self.heap);
                self.heap.clear();
            }
            v
        };
        self.len -= 1;
        v
    }

    /// Empty the vector, handing every element to `f` in push order. The
    /// vector is empty before `f` first runs, so a panicking `f` can
    /// never be handed an element twice.
    #[inline]
    pub fn drain_each(&mut self, mut f: impl FnMut(T)) {
        let len = std::mem::replace(&mut self.len, 0);
        if len <= N {
            self.inline[..len].iter().for_each(|&v| f(v));
        } else {
            let mut heap = std::mem::take(&mut self.heap);
            heap.iter().for_each(|&v| f(v));
            heap.clear();
            self.heap = heap;
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    /// An empty vector (no allocation).
    fn default() -> Self {
        Self::new(T::default())
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

    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_its_inline_capacity_and_compares_by_content() {
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
    fn swap_remove_moves_back_inline_and_drain_keeps_push_order() {
        let mut v: InlineVec<u64, 2> = InlineVec::new(0);
        for x in 1..=4 {
            v.push(x);
        }
        assert_eq!(v.swap_remove(0), 1);
        assert_eq!(&*v, &[4, 2, 3]);
        assert_eq!(v.swap_remove(1), 2);
        assert_eq!(&*v, &[4, 3]);
        v.push(5);
        v.push(6);
        let mut out = Vec::new();
        v.drain_each(|x| out.push(x));
        assert_eq!(out, [4, 3, 5, 6]);
        assert!(v.is_empty());
        // Reused after a spill: back inline, then spilling again from
        // an empty heap.
        for x in 10..13 {
            v.push(x);
        }
        assert_eq!(&*v, &[10, 11, 12]);
        v.drain_each(|_| {});
        v.push(1);
        assert_eq!(&*v, &[1]);
    }
}
