//! Candidate-list combinators: conjunctive and disjunctive selections.
//!
//! Monet evaluates multi-predicate selections as a sequence of single-column
//! scans whose candidate OID lists are then intersected/united — each scan
//! keeps its optimal stride-locality (§3.1), and the combinators run over
//! small sorted OID lists. Candidate lists produced by the scan selects are
//! ascending by construction, which these combinators require and preserve.

use monet_core::storage::Oid;

/// Candidates: OIDs of qualifying tuples, ascending (scan order over a void
/// head).
pub type CandList = Vec<Oid>;

/// Intersect two ascending candidate lists (`AND` of predicates).
pub fn intersect(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be strictly ascending");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be strictly ascending");
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Unite two ascending candidate lists (`OR` of predicates).
pub fn union(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be strictly ascending");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be strictly ascending");
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
        if take_a {
            if i < a.len() {
                if j < b.len() && a[i] == b[j] {
                    j += 1;
                }
                out.push(a[i]);
                i += 1;
            }
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_union_basics() {
        let a = vec![1, 3, 5, 7, 9];
        let b = vec![3, 4, 5, 10];
        assert_eq!(intersect(&a, &b), vec![3, 5]);
        assert_eq!(union(&a, &b), vec![1, 3, 4, 5, 7, 9, 10]);
    }

    #[test]
    fn empty_operands() {
        let a = vec![1, 2, 3];
        assert!(intersect(&a, &[]).is_empty());
        assert!(intersect(&[], &a).is_empty());
        assert_eq!(union(&a, &[]), a);
        assert_eq!(union(&[], &a), a);
    }

    #[test]
    fn disjoint_and_identical() {
        let a = vec![1, 2];
        let b = vec![3, 4];
        assert!(intersect(&a, &b).is_empty());
        assert_eq!(union(&a, &b), vec![1, 2, 3, 4]);
        assert_eq!(intersect(&a, &a), a);
        assert_eq!(union(&a, &a), a);
    }

    #[test]
    fn composed_conjunction_matches_direct_filter() {
        // Two single-column selections over 10 000 rows, each an inline row
        // filter: combining their lists equals filtering on both at once.
        let select =
            |keep: &dyn Fn(u32) -> bool| -> CandList { (0..10_000).filter(|&i| keep(i)).collect() };
        let qty = |i: u32| (10..=20).contains(&(i % 50));
        let price = |i: u32| (30..=60).contains(&(i % 97));
        let both = intersect(&select(&qty), &select(&price));
        assert_eq!(both, select(&|i| qty(i) && price(i)));
        assert!(!both.is_empty());
        assert_eq!(union(&select(&qty), &select(&price)), select(&|i| qty(i) || price(i)));
    }
}
