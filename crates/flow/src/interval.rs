//! The interval abstract domain: `[lo, hi]` over `i128`.
//!
//! Values are interpreted in their *signed* form, matching
//! [`salam_ir::Constant`]'s sign-extended storage. Arithmetic is computed
//! in `i128` (which cannot overflow for 64-bit inputs) and then checked
//! against the result type's representable range: a result that may wrap
//! goes to [`Interval::top_for`] that width, so every interval the
//! analysis publishes is a sound over-approximation of the wrapped
//! machine value. `i1` uses the hull `[-1, 1]` to cover both the `0/1`
//! and sign-extended `-1` encodings of truth.
//!
//! The domain is not finite — `[0, 1] ⊑ [0, 2] ⊑ …` climbs forever under
//! plain joins — so fixpoints over it must widen (see
//! [`Interval::widen`] and range analysis's widening after `WIDEN_AFTER`
//! updates per value).

/// A closed signed interval, or the empty set.
///
/// The empty interval (`bottom`) is canonically `lo = 1, hi = 0`; all
/// constructors and operators preserve canonical emptiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value contained (signed).
    pub lo: i128,
    /// Largest value contained (signed).
    pub hi: i128,
}

/// Unbounded low endpoint used by [`Interval::top`]: wide enough to
/// contain any sum/product of 64-bit quantities the transfer functions
/// produce, far from `i128` overflow.
const INF: i128 = i128::MAX / 4;

impl Interval {
    /// The empty interval (no values; the lattice bottom).
    pub const fn bottom() -> Interval {
        Interval { lo: 1, hi: 0 }
    }

    /// The unbounded interval (every value; the lattice top).
    pub const fn top() -> Interval {
        Interval { lo: -INF, hi: INF }
    }

    /// The full signed range of an integer of `bits` width. `i1` gets the
    /// encoding-agnostic hull `[-1, 1]`.
    pub fn top_for(bits: u32) -> Interval {
        match bits {
            0 => Interval::top(),
            1 => Interval { lo: -1, hi: 1 },
            b if b >= 128 => Interval::top(),
            b => {
                let half = 1i128 << (b - 1);
                Interval {
                    lo: -half,
                    hi: half - 1,
                }
            }
        }
    }

    /// A single value.
    pub const fn exact(v: i128) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// An interval from unordered endpoints.
    pub fn of(a: i128, b: i128) -> Interval {
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Whether this is the empty interval.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether this is exactly one value.
    pub fn as_exact(&self) -> Option<i128> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether every value of `self` is inside `[lo, hi]`.
    pub fn within(&self, lo: i128, hi: i128) -> bool {
        !self.is_empty() && self.lo >= lo && self.hi <= hi
    }

    /// Whether the two intervals share no value. Empty intervals are
    /// disjoint from everything.
    pub fn disjoint(&self, other: &Interval) -> bool {
        self.is_empty() || other.is_empty() || self.hi < other.lo || other.hi < self.lo
    }

    /// Whether this interval is tight enough to serve as an address
    /// footprint: non-empty and well inside the scratchpad address space
    /// (|endpoint| < 2⁴⁴). Wider intervals — typically a wrap-to-type-top
    /// — carry no useful address information.
    pub fn is_bounded(&self) -> bool {
        const LIMIT: i128 = 1 << 44;
        !self.is_empty() && self.lo > -LIMIT && self.hi < LIMIT
    }

    /// Least upper bound (convex hull). Returns `true` when `self` grew.
    pub fn join(&mut self, other: &Interval) -> bool {
        if other.is_empty() {
            return false;
        }
        if self.is_empty() {
            *self = *other;
            return true;
        }
        let old = *self;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        *self != old
    }

    /// Widening: any endpoint that `other` pushes past `self` jumps to
    /// the corresponding endpoint of `bound` (typically
    /// [`Interval::top_for`] the value's width), guaranteeing the chain
    /// stabilises after at most two widenings per value.
    pub fn widen(&mut self, other: &Interval, bound: &Interval) -> bool {
        if other.is_empty() {
            return false;
        }
        if self.is_empty() {
            *self = *other;
            return true;
        }
        let old = *self;
        if other.lo < self.lo {
            self.lo = bound.lo.min(other.lo);
        }
        if other.hi > self.hi {
            self.hi = bound.hi.max(other.hi);
        }
        *self != old
    }

    /// Clamp a computed interval to what `bits` can represent: if it fits
    /// the signed range, keep it (no wrap occurred); otherwise the
    /// machine result may wrap, so return the full range of the type.
    fn wrap_to(self, bits: u32) -> Interval {
        if self.is_empty() {
            return self;
        }
        let t = Interval::top_for(bits);
        if self.lo >= t.lo && self.hi <= t.hi {
            self
        } else {
            t
        }
    }

    /// `self + other`, wrapping to `bits`.
    pub fn add(&self, other: &Interval, bits: u32) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::bottom();
        }
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
        .wrap_to(bits)
    }

    /// `self - other`, wrapping to `bits`.
    pub fn sub(&self, other: &Interval, bits: u32) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::bottom();
        }
        Interval {
            lo: self.lo - other.hi,
            hi: self.hi - other.lo,
        }
        .wrap_to(bits)
    }

    /// `self * other`, wrapping to `bits`.
    pub fn mul(&self, other: &Interval, bits: u32) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::bottom();
        }
        let c = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        Interval {
            lo: *c.iter().min().unwrap(),
            hi: *c.iter().max().unwrap(),
        }
        .wrap_to(bits)
    }

    /// `self << k` for a constant shift, wrapping to `bits`.
    pub fn shl_const(&self, k: u32, bits: u32) -> Interval {
        if self.is_empty() {
            return Interval::bottom();
        }
        if k >= 64 {
            return Interval::top_for(bits);
        }
        self.mul(&Interval::exact(1i128 << k), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_propagates_through_arithmetic() {
        let e = Interval::bottom();
        let x = Interval::of(1, 5);
        assert!(e.is_empty());
        assert!(e.add(&x, 64).is_empty());
        assert!(x.sub(&e, 64).is_empty());
        assert!(e.mul(&e, 64).is_empty());
        assert!(e.disjoint(&x));
        // Joining empty changes nothing; joining into empty adopts.
        let mut a = x;
        assert!(!a.join(&e));
        let mut b = Interval::bottom();
        assert!(b.join(&x));
        assert_eq!(b, x);
    }

    #[test]
    fn arithmetic_bounds_are_tight() {
        let a = Interval::of(2, 4);
        let b = Interval::of(-3, 5);
        assert_eq!(a.add(&b, 64), Interval::of(-1, 9));
        assert_eq!(a.sub(&b, 64), Interval::of(-3, 7));
        assert_eq!(a.mul(&b, 64), Interval::of(-12, 20));
        assert_eq!(a.shl_const(3, 64), Interval::of(16, 32));
    }

    #[test]
    fn i8_wraparound_goes_to_type_top() {
        let a = Interval::of(100, 120);
        let wrapped = a.add(&Interval::exact(20), 8); // 120..140 wraps i8
        assert_eq!(wrapped, Interval::top_for(8));
        assert_eq!(Interval::top_for(8), Interval::of(-128, 127));
        // In-range results stay tight.
        assert_eq!(a.add(&Interval::exact(5), 8), Interval::of(105, 125));
    }

    #[test]
    fn i1_top_covers_both_truth_encodings() {
        let t = Interval::top_for(1);
        assert!(t.within(-1, 1));
        assert!(Interval::exact(1).within(t.lo, t.hi));
        assert!(Interval::exact(-1).within(t.lo, t.hi));
        assert!(Interval::exact(0).within(t.lo, t.hi));
    }

    #[test]
    fn widening_jumps_to_the_bound() {
        let bound = Interval::top_for(32);
        let mut v = Interval::of(0, 3);
        // Growing upper endpoint widens straight to the type bound.
        assert!(v.widen(&Interval::of(0, 4), &bound));
        assert_eq!(v.hi, bound.hi);
        assert_eq!(v.lo, 0);
        // A second, lower update widens the low end; now stable.
        assert!(v.widen(&Interval::of(-1, 2), &bound));
        assert_eq!(v.lo, bound.lo);
        assert!(!v.widen(&Interval::of(-5, 5), &bound));
    }
}
