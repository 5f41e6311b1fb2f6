//! A column indexed by a dense id that grows by fixed pages.
//!
//! The master keeps some state for every task it ever created: the db's
//! task, output, merge-state and finish-order columns, the driver's
//! in-flight table and the monitor's failure events. As a `Vec`, such a
//! column doubles whenever it fills, so up to half of it is slack, and
//! while it grows the old and the new buffer are both live: the heap's
//! peak sits in the middle of a copy of the whole column.
//!
//! [`Paged`] holds rows in pages of [`PAGE`] rows instead:
//! - a column of at most one page is a plain `Vec`, grown the way a `Vec`
//!   grows but never past one page, and it has no page table;
//! - past one page, each page is allocated at its full size once and
//!   never moves. The page table holds one `Vec` header per page at its
//!   exact size, so a new page also copies the headers. Growing never
//!   copies more than one page of rows.
//!
//! Rows are never removed: a column only grows.

use std::fmt;
use std::mem;
use std::ops::{Index, IndexMut};
use std::slice;

/// Rows per page, as a power of two.
const PAGE_SHIFT: u32 = 12;
/// Rows per page.
const PAGE: usize = 1 << PAGE_SHIFT;
/// Row offset within its page.
const OFFSET: usize = PAGE - 1;

/// A growable column of rows in fixed pages. It is as large as a `Vec`.
#[derive(Clone)]
pub(crate) enum Paged<T> {
    /// At most [`PAGE`] rows.
    One(Vec<T>),
    /// More than one page: every page is full but the last, which holds
    /// at least one row.
    Many(Box<[Vec<T>]>),
}

/// Make room in `page` for `len` rows (`len <= PAGE`). A `Vec` grows as
/// it would on its own, unless that overshoots the page; then it gets
/// exactly one page.
fn reserve_in_page<T>(page: &mut Vec<T>, len: usize) {
    if len > page.capacity() && 2 * page.capacity() > PAGE {
        page.reserve_exact(PAGE - page.len());
    }
}

/// A new page allocated at its full size, holding `row`.
fn page_with<T>(row: T) -> Vec<T> {
    let mut page = Vec::with_capacity(PAGE);
    page.push(row);
    page
}

impl<T> Paged<T> {
    /// An empty column; it allocates nothing.
    pub(crate) fn new() -> Self {
        Paged::One(Vec::new())
    }

    /// The pages in order. There is always at least one.
    fn pages(&self) -> &[Vec<T>] {
        match self {
            Paged::One(v) => slice::from_ref(v),
            Paged::Many(pages) => pages,
        }
    }

    fn pages_mut(&mut self) -> &mut [Vec<T>] {
        match self {
            Paged::One(v) => slice::from_mut(v),
            Paged::Many(pages) => pages,
        }
    }

    pub(crate) fn len(&self) -> usize {
        let pages = self.pages();
        (pages.len() - 1) * PAGE + pages.last().map_or(0, Vec::len)
    }

    pub(crate) fn get(&self, ix: usize) -> Option<&T> {
        self.pages().get(ix >> PAGE_SHIFT)?.get(ix & OFFSET)
    }

    pub(crate) fn get_mut(&mut self, ix: usize) -> Option<&mut T> {
        self.pages_mut()
            .get_mut(ix >> PAGE_SHIFT)?
            .get_mut(ix & OFFSET)
    }

    pub(crate) fn last(&self) -> Option<&T> {
        self.pages().last()?.last()
    }

    /// Append `row`.
    pub(crate) fn push(&mut self, row: T) {
        match self {
            Paged::One(v) if v.len() < PAGE => {
                reserve_in_page(v, v.len() + 1);
                v.push(row);
            }
            Paged::One(v) => {
                let first = mem::take(v);
                *self = Paged::Many(vec![first, page_with(row)].into_boxed_slice());
            }
            Paged::Many(pages) => match pages.last_mut() {
                Some(last) if last.len() < PAGE => {
                    reserve_in_page(last, last.len() + 1);
                    last.push(row);
                }
                _ => {
                    let mut table = Vec::with_capacity(pages.len() + 1);
                    table.extend(mem::take(pages).into_vec());
                    table.push(page_with(row));
                    *pages = table.into_boxed_slice();
                }
            },
        }
    }

    /// Grow the column to `len` rows, filling with `f()`. Rows are never
    /// removed, so `len` is at least [`Paged::len`].
    pub(crate) fn resize_with(&mut self, len: usize, mut f: impl FnMut() -> T) {
        debug_assert!(len >= self.len(), "a paged column never shrinks");
        if let Paged::One(v) = self {
            if len <= PAGE {
                reserve_in_page(v, len);
                v.resize_with(len, f);
                return;
            }
        }
        for _ in self.len()..len {
            self.push(f());
        }
    }

    /// Insert `row` at `at`, shifting every row after it up by one. A
    /// full page passes its last row on to the next page.
    pub(crate) fn insert(&mut self, at: usize, mut row: T) {
        let len = self.len();
        assert!(at <= len, "insert at {at} past the end {len}");
        let pages = self.pages_mut();
        let (mut page, mut off) = (at >> PAGE_SHIFT, at & OFFSET);
        while let Some(p) = pages.get_mut(page) {
            if p.len() < PAGE {
                reserve_in_page(p, p.len() + 1);
                p.insert(off, row);
                return;
            }
            p[off..].rotate_right(1);
            mem::swap(&mut p[off], &mut row);
            (page, off) = (page + 1, 0);
        }
        self.push(row);
    }

    /// The number of leading rows for which `pred` holds, for a column
    /// partitioned by it (all rows where it holds come first), as
    /// [`slice::partition_point`].
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let pages = self.pages();
        let full = pages.partition_point(|p| p.last().is_some_and(&mut pred));
        match pages.get(full) {
            Some(p) => full * PAGE + p.partition_point(pred),
            None => self.len(),
        }
    }

    /// The rows in index order.
    pub(crate) fn iter(&self) -> Iter<'_, T> {
        self.iter_from(0)
    }

    /// The rows from index `start` on, in index order.
    pub(crate) fn iter_from(&self, start: usize) -> Iter<'_, T> {
        let pages = self.pages();
        let page = start >> PAGE_SHIFT;
        let rows = pages.get(page).and_then(|p| p.get(start & OFFSET..));
        Iter {
            rows: rows.unwrap_or(&[]).iter(),
            pages: pages.get(page + 1..).unwrap_or(&[]).iter(),
        }
    }
}

impl<T: Clone> Paged<T> {
    /// Grow the column to `len` rows, filling with `value`.
    pub(crate) fn resize(&mut self, len: usize, value: T) {
        self.resize_with(len, || value.clone());
    }

    /// Overwrite every row with `value`.
    pub(crate) fn fill(&mut self, value: T) {
        for p in self.pages_mut() {
            p.fill(value.clone());
        }
    }
}

impl<T> Index<usize> for Paged<T> {
    type Output = T;

    fn index(&self, ix: usize) -> &T {
        &self.pages()[ix >> PAGE_SHIFT][ix & OFFSET]
    }
}

impl<T> IndexMut<usize> for Paged<T> {
    fn index_mut(&mut self, ix: usize) -> &mut T {
        &mut self.pages_mut()[ix >> PAGE_SHIFT][ix & OFFSET]
    }
}

impl<T: fmt::Debug> fmt::Debug for Paged<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The rows of a [`Paged`] column in index order.
#[derive(Clone)]
pub(crate) struct Iter<'a, T> {
    /// The rest of the current page.
    rows: slice::Iter<'a, T>,
    /// The pages after it.
    pages: slice::Iter<'a, Vec<T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(row) = self.rows.next() {
                return Some(row);
            }
            self.rows = self.pages.next()?.iter();
        }
    }
}

impl<'a, T> IntoIterator for &'a Paged<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every page but the last is full and has exactly one page of room,
    /// and the last holds a row.
    fn assert_shape<T>(c: &Paged<T>) {
        if let Paged::Many(pages) = c {
            let (last, full) = pages.split_last().expect("two pages or more");
            assert!(pages.len() >= 2);
            assert!(full.iter().all(|p| p.len() == PAGE && p.capacity() == PAGE));
            assert!(!last.is_empty() && last.capacity() == PAGE);
        }
    }

    #[test]
    fn one_page_grows_like_a_vec() {
        let (mut c, mut v) = (Paged::new(), Vec::new());
        for i in 0..PAGE as u64 {
            c.push(i);
            v.push(i);
            let Paged::One(page) = &c else {
                panic!("one page has no page table")
            };
            assert_eq!(page.capacity(), v.capacity());
        }
        c.push(PAGE as u64);
        assert!(matches!(&c, Paged::Many(p) if p.len() == 2));
        assert_shape(&c);
    }

    #[test]
    fn resize_past_a_page_reserves_at_most_one_page() {
        let mut c: Paged<u32> = Paged::new();
        c.resize(3_000, 7);
        c.resize(3 * PAGE + 5, 9);
        assert_shape(&c);
        assert_eq!(c.len(), 3 * PAGE + 5);
        assert_eq!((c[2_999], c[3_000], c[3 * PAGE + 4]), (7, 9, 9));
        assert_eq!(c.get(3 * PAGE + 5), None);
        assert_eq!(c.iter_from(3 * PAGE).count(), 5);
        assert_eq!(c.iter_from(4 * PAGE).count(), 0);
    }

    proptest! {
        /// The column reads exactly as a `Vec` given the same pushes,
        /// resizes, inserts and writes.
        #[test]
        fn matches_a_vec(ops in prop::collection::vec((0u8..4, 0usize..2 * PAGE, any::<u32>()), 1..40)) {
            let (mut c, mut v) = (Paged::new(), Vec::new());
            for (op, n, x) in ops {
                match op {
                    0 => {
                        c.push(x);
                        v.push(x);
                    }
                    1 => {
                        c.resize(v.len() + n, x);
                        v.resize(v.len() + n, x);
                    }
                    2 => {
                        let at = n % (v.len() + 1);
                        c.insert(at, x);
                        v.insert(at, x);
                    }
                    _ if !v.is_empty() => {
                        let at = n % v.len();
                        c[at] = x;
                        v[at] = x;
                    }
                    _ => {}
                }
                prop_assert_eq!(c.len(), v.len());
                assert_shape(&c);
            }
            prop_assert!(c.iter().eq(v.iter()));
            prop_assert_eq!(c.last(), v.last());
            for probe in [0, 1, PAGE - 1, PAGE, v.len() / 2, v.len()] {
                prop_assert_eq!(c.get(probe), v.get(probe));
                prop_assert!(c.iter_from(probe).eq(v.iter().skip(probe)));
            }
            // Sorted copies answer every partition point like the slice.
            let mut sorted = v.clone();
            sorted.sort_unstable();
            let mut s = Paged::new();
            for &x in &sorted {
                s.push(x);
            }
            for probe in [0, 1, u32::MAX / 2, u32::MAX] {
                prop_assert_eq!(
                    s.partition_point(|&x| x < probe),
                    sorted.partition_point(|&x| x < probe)
                );
            }
        }
    }
}
