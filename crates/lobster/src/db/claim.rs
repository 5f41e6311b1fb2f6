//! The tasklets one task claims, held as a run where it is one.
//!
//! A task claims returned tasklets first, then the next ones off the
//! workflow cursor. Unless returned tasklets split across claims, that is
//! one contiguous run, so [`Claim::Run`] stores it as `first` and a count
//! and never allocates. Anything else is a [`Claim::List`].
//!
//! The form is canonical: a list that is a run of at most `u32::MAX`
//! tasklets is always a `Run` ([`Claim::push`] keeps it so), so the derived
//! equality is list equality. The codec writes both forms as the same
//! zigzag-delta tasklet list, so the representation never reaches a
//! journal byte.

/// A task's tasklets, in claim order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Claim {
    /// The tasklets `first, first + 1, …, first + n - 1` (`first` is 0
    /// when `n` is).
    Run { first: u64, n: u32 },
    /// Any other list, never one a `Run` could hold.
    List(Vec<u64>),
}

impl Default for Claim {
    fn default() -> Self {
        Claim::Run { first: 0, n: 0 }
    }
}

impl Claim {
    /// Append tasklet `t`, staying a run while `t` extends it.
    pub(crate) fn push(&mut self, t: u64) {
        match self {
            Claim::Run { first, n: n @ 0 } => {
                *first = t;
                *n = 1;
            }
            Claim::Run { first, n } => {
                let next = first.checked_add(u64::from(*n));
                if next == Some(t) && *n < u32::MAX {
                    *n += 1;
                } else {
                    let mut list: Vec<u64> = self.iter().collect();
                    list.push(t);
                    *self = Claim::List(list);
                }
            }
            Claim::List(list) => list.push(t),
        }
    }

    /// Number of tasklets.
    pub(crate) fn len(&self) -> usize {
        match self {
            Claim::Run { n, .. } => *n as usize,
            Claim::List(list) => list.len(),
        }
    }

    /// The tasklets in claim order.
    pub(crate) fn iter(&self) -> Tasklets<'_> {
        match self {
            Claim::Run { first, n } => Tasklets::Run {
                next: *first,
                left: *n,
            },
            Claim::List(list) => Tasklets::List(list.iter()),
        }
    }
}

impl From<Vec<u64>> for Claim {
    fn from(list: Vec<u64>) -> Self {
        let mut claim = Claim::default();
        for t in list {
            claim.push(t);
        }
        claim
    }
}

/// Iterator over a [`Claim`]'s tasklets.
pub(crate) enum Tasklets<'a> {
    Run { next: u64, left: u32 },
    List(std::slice::Iter<'a, u64>),
}

impl Iterator for Tasklets<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match self {
            Tasklets::Run { left: 0, .. } => None,
            Tasklets::Run { next, left } => {
                let t = *next;
                *left -= 1;
                // The last tasklet of a run may be `u64::MAX`.
                *next = next.wrapping_add(1);
                Some(t)
            }
            Tasklets::List(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            Tasklets::Run { left, .. } => *left as usize,
            Tasklets::List(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Tasklets<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(c: &Claim) -> Vec<u64> {
        c.iter().collect()
    }

    #[test]
    fn runs_stay_runs() {
        assert_eq!(Claim::from(vec![]), Claim::Run { first: 0, n: 0 });
        assert_eq!(Claim::from(vec![7]), Claim::Run { first: 7, n: 1 });
        assert_eq!(Claim::from(vec![4, 5, 6]), Claim::Run { first: 4, n: 3 });
        let top = vec![u64::MAX - 1, u64::MAX];
        assert_eq!(
            Claim::from(top.clone()),
            Claim::Run {
                first: u64::MAX - 1,
                n: 2
            }
        );
        assert_eq!(list(&Claim::from(top.clone())), top);
    }

    #[test]
    fn anything_else_is_a_list() {
        for v in [
            vec![0, 2],
            vec![3, 2],
            vec![5, 5],
            vec![1, 2, 3, 9, 10],
            vec![u64::MAX, 0],
        ] {
            let c = Claim::from(v.clone());
            assert_eq!(c, Claim::List(v.clone()), "{v:?}");
            assert_eq!(c.len(), v.len());
            assert_eq!(list(&c), v);
            assert_eq!(c.iter().len(), v.len());
        }
    }
}
