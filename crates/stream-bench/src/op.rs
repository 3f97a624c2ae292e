//! The four STREAM operations (paper §V).
//!
//! The paper's definitions: Copy `c(i) = a(i)`; Scale `a(i) = q*b(i)`;
//! Sum `a(i) = b(i) + c(i)`; Triad `a(i) = b(i) + q*c(i)`. The paper
//! synthesizes and measures **Copy**; Scale/Sum/Triad are listed as future
//! work and implemented here as the extension.

use serde::{Deserialize, Serialize};

/// One STREAM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamOp {
    /// `c(i) = a(i)` — one read, one write per element.
    Copy,
    /// `a(i) = q * b(i)` — one read, one write, one multiply.
    Scale(f64),
    /// `a(i) = b(i) + c(i)` — two reads, one write, one add.
    Sum,
    /// `a(i) = b(i) + q * c(i)` — two reads, one write, mul + add.
    Triad(f64),
}

impl StreamOp {
    /// Benchmark-standard name.
    pub fn name(&self) -> &'static str {
        match self {
            StreamOp::Copy => "Copy",
            StreamOp::Scale(_) => "Scale",
            StreamOp::Sum => "Sum",
            StreamOp::Triad(_) => "Triad",
        }
    }

    /// Read streams needed per element (1 or 2) — i.e. read ports used.
    pub fn reads(&self) -> usize {
        match self {
            StreamOp::Copy | StreamOp::Scale(_) => 1,
            StreamOp::Sum | StreamOp::Triad(_) => 2,
        }
    }

    /// Memory traffic per element in bytes (STREAM counting: each read and
    /// each write of a 64-bit element moves 8 bytes).
    pub fn bytes_per_element(&self) -> usize {
        8 * (self.reads() + 1)
    }

    /// Floating-point operations per element.
    pub fn flops_per_element(&self) -> usize {
        match self {
            StreamOp::Copy => 0,
            StreamOp::Scale(_) | StreamOp::Sum => 1,
            StreamOp::Triad(_) => 2,
        }
    }

    /// The op's roles among the three STREAM vectors, given in the order
    /// A, B, C: `(first operand, second operand, destination)`. The second
    /// operand is `Some` exactly for the 2-read ops. This is the one place
    /// the op → vector mapping is written down; callers pass layouts,
    /// slices or region covers alike.
    pub fn route<T>(&self, a: T, b: T, c: T) -> (T, Option<T>, T) {
        match self {
            StreamOp::Copy => (a, None, c),
            StreamOp::Scale(_) => (b, None, a),
            StreamOp::Sum | StreamOp::Triad(_) => (b, Some(c), a),
        }
    }

    /// Apply the op lane by lane to a chunk or burst of `f64` bit patterns,
    /// in place: `x[k] = apply(x[k], y[k])` (`y` absent for 1-read ops).
    #[inline]
    pub fn combine(&self, x: &mut [u64], y: Option<&[u64]>) {
        match (self, y) {
            (StreamOp::Copy, _) => {}
            (_, Some(y)) => {
                for (xb, &yb) in x.iter_mut().zip(y) {
                    *xb = self
                        .apply(f64::from_bits(*xb), f64::from_bits(yb))
                        .to_bits();
                }
            }
            (_, None) => {
                for xb in x.iter_mut() {
                    *xb = self.apply(f64::from_bits(*xb), 0.0).to_bits();
                }
            }
        }
    }

    /// Combine one element's operands. `x` is the first operand (A for
    /// Copy, B otherwise); `y` the second (C), ignored for 1-read ops.
    #[inline]
    pub fn apply(&self, x: f64, y: f64) -> f64 {
        match *self {
            StreamOp::Copy => x,
            StreamOp::Scale(q) => q * x,
            StreamOp::Sum => x + y,
            StreamOp::Triad(q) => x + q * y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_counting() {
        assert_eq!(StreamOp::Copy.bytes_per_element(), 16);
        assert_eq!(StreamOp::Scale(2.0).bytes_per_element(), 16);
        assert_eq!(StreamOp::Sum.bytes_per_element(), 24);
        assert_eq!(StreamOp::Triad(2.0).bytes_per_element(), 24);
    }

    #[test]
    fn flops() {
        assert_eq!(StreamOp::Copy.flops_per_element(), 0);
        assert_eq!(StreamOp::Triad(3.0).flops_per_element(), 2);
    }

    #[test]
    fn apply_semantics() {
        assert_eq!(StreamOp::Copy.apply(5.0, 99.0), 5.0);
        assert_eq!(StreamOp::Scale(3.0).apply(5.0, 99.0), 15.0);
        assert_eq!(StreamOp::Sum.apply(5.0, 7.0), 12.0);
        assert_eq!(StreamOp::Triad(3.0).apply(5.0, 7.0), 26.0);
    }

    #[test]
    fn route_and_combine() {
        assert_eq!(StreamOp::Copy.route('a', 'b', 'c'), ('a', None, 'c'));
        assert_eq!(StreamOp::Scale(2.0).route('a', 'b', 'c'), ('b', None, 'a'));
        assert_eq!(
            StreamOp::Triad(2.0).route('a', 'b', 'c'),
            ('b', Some('c'), 'a')
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut x = bits(&[1.0, 2.0]);
        StreamOp::Triad(3.0).combine(&mut x, Some(&bits(&[10.0, 20.0])));
        assert_eq!(x, bits(&[31.0, 62.0]));
        StreamOp::Scale(0.5).combine(&mut x, None);
        assert_eq!(x, bits(&[15.5, 31.0]));
    }

    #[test]
    fn names_and_reads() {
        assert_eq!(StreamOp::Sum.name(), "Sum");
        assert_eq!(StreamOp::Copy.reads(), 1);
        assert_eq!(StreamOp::Triad(1.0).reads(), 2);
    }
}
