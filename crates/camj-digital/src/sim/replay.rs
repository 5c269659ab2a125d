//! Closed-form replay of one edge's accumulators across a leap.
//!
//! During a leap (see the engine's `Arena::leap`) each edge's
//! `produced` and `consumed` totals are independent float addition
//! chains `x ← fl(x + a)` with a constant rate `a`. While `x` and the
//! exact sum `x + a` stay inside one binade (one ulp `u`), and the sum
//! is not a rounding tie, every step adds the same multiple of `u`:
//! writing `x = m·u`, step `k` lands exactly on `(m + k·d)·u`. A whole
//! binade of steps is therefore a few integer operations, and a leap of
//! millions of cycles costs one *piece* per binade the accumulators
//! cross. Ties round to an even `m`; once `m` is even every later tie
//! in the binade rounds the same way, so a tie binade costs one
//! exactly-stepped cycle. Zero and subnormal starts need no special
//! case: their ulp equals that of the lowest normal binade.
//!
//! Within a piece where both accumulators advance by constant steps,
//! the exact difference `produced − consumed` is linear in the cycle,
//! and rounding and `max(·, 0)` are monotone, so the buffer level is
//! monotone over the piece. The running `peak` and the consumer's
//! `level ≥ rate` check need only the piece's two endpoints; a binary
//! search inside a failing piece finds its first short cycle. The
//! result is bit-identical to stepping the cycles one by one.

/// Bits of an `f64` significand below the implicit leading one.
const FRACTION_BITS: u32 = 52;
/// The exclusive upper end of a binade's significands, `2^53`.
const BINADE_END: u64 = 1 << (FRACTION_BITS + 1);

/// One stretch of the chain `x ← fl(x + a)` over which every step adds
/// the same amount: after `k ≤ steps` steps, `x = (m + k·d)·unit`
/// exactly.
#[derive(Debug, Clone, Copy)]
struct Run {
    m: u64,
    d: u64,
    steps: u64,
    unit: f64,
}

impl Run {
    /// An accumulator that does not move.
    fn constant(x: f64) -> Self {
        Self {
            m: 1,
            d: 0,
            steps: u64::MAX,
            unit: x,
        }
    }

    /// The constant-step run starting at `x ≥ 0` with rate `a > 0`, or
    /// `None` when the very next step has to be taken by a float add:
    /// it leaves the binade, or it is a tie from an odd significand.
    fn new(x: f64, a: f64) -> Option<Self> {
        let (m, exp) = significand(x);
        let (ma, exp_a) = significand(a);
        // `a = q·unit` with `q = ma·2^-shift`; `d` is `q` rounded to
        // nearest.
        let shift = exp - exp_a;
        let d = if shift <= 0 {
            // `a` is a whole number of units. A normal `a` spans at
            // least the binade's width, so `steps` below comes out 0
            // and the step is taken by a float add.
            if shift < -10 {
                return None;
            }
            ma << -shift
        } else if shift >= 64 {
            // `q < 2^-11`: the sum always rounds back to `x`.
            0
        } else {
            let q = ma >> shift;
            let rest = ma & ((1u64 << shift) - 1);
            let half = 1u64 << (shift - 1);
            if rest > half {
                q + 1
            } else if rest < half {
                q
            } else if m % 2 == 0 {
                // A tie from an even significand rounds to the even
                // neighbour: `q` when `q` is even, else `q + 1`. Both
                // keep the significand even, so the step is constant.
                q + q % 2
            } else {
                return None;
            }
        };
        if d == 0 {
            return Some(Self {
                m,
                d,
                steps: u64::MAX,
                unit: pow2(exp),
            });
        }
        // Stay at or below `BINADE_END − 1`: the exact sum of every
        // step is then below `BINADE_END − ½`, so it rounds inside the
        // binade with this unit.
        let steps = (BINADE_END - 1 - m) / d;
        (steps > 0).then(|| Self {
            m,
            d,
            steps,
            unit: pow2(exp),
        })
    }

    /// The accumulator after `k ≤ steps` steps.
    fn at(&self, k: u64) -> f64 {
        (self.m + k * self.d) as f64 * self.unit
    }
}

/// `x = m·2^exp` for a non-negative finite `x`, with `m < 2^53` and
/// `2^exp` the ulp of `x`'s binade (subnormals share the lowest
/// normal binade's ulp).
fn significand(x: f64) -> (u64, i32) {
    let bits = x.to_bits();
    let biased = (bits >> FRACTION_BITS) as i32;
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << FRACTION_BITS, biased - 1075)
    }
}

/// `2^exp` for `exp` in the ulp range of finite doubles, `-1074..=971`.
fn pow2(exp: i32) -> f64 {
    if exp >= -1022 {
        f64::from_bits(((exp + 1023) as u64) << FRACTION_BITS)
    } else {
        f64::from_bits(1 << (exp + 1074))
    }
}

/// One edge's accumulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Accumulators {
    pub produced: f64,
    pub consumed: f64,
    pub peak: f64,
}

/// Replays `n` leap cycles on one edge. Each cycle, op for op like the
/// stepping loop: `produced += push` (when its producer fires), then
/// `level = max(produced − consumed, 0)`, `peak = max(peak, level)`
/// (when pushing), and — when its consumer fires — the check
/// `level ≥ pull` followed by `consumed += pull`.
///
/// Returns the accumulators after `n` cycles, or `Err(cycle)` with the
/// first cycle (counted from 0) whose check fails; the accumulators
/// are then left unspecified, since the leap stops short of that cycle.
pub(super) fn replay(
    start: Accumulators,
    push: Option<f64>,
    pull: Option<f64>,
    n: u64,
) -> Result<Accumulators, u64> {
    let Accumulators {
        mut produced,
        mut consumed,
        mut peak,
    } = start;
    let run = |x: f64, rate: Option<f64>| match rate {
        Some(a) => Run::new(x, a),
        None => Some(Run::constant(x)),
    };
    // Cycle `j` of a piece reads `produced` after its own push.
    let lead = u64::from(push.is_some());
    let mut i = 0;
    while i < n {
        let (Some(pr), Some(cr)) = (run(produced, push), run(consumed, pull)) else {
            // One exactly-stepped cycle: a binade crossing or a tie.
            if let Some(p) = push {
                produced += p;
            }
            let level = (produced - consumed).max(0.0);
            if push.is_some() {
                peak = peak.max(level);
            }
            if let Some(c) = pull {
                if level < c {
                    return Err(i);
                }
                consumed += c;
            }
            i += 1;
            continue;
        };
        let len = pr.steps.min(cr.steps).min(n - i);
        let level = |j: u64| (pr.at(j + lead) - cr.at(j)).max(0.0);
        let (first, last) = (level(0), level(len - 1));
        if push.is_some() {
            peak = peak.max(first).max(last);
        }
        if let Some(c) = pull {
            if first < c {
                return Err(i);
            }
            if last < c {
                // The level falls across the piece: bisect for the
                // first short cycle.
                let (mut good, mut short) = (0, len - 1);
                while short - good > 1 {
                    let mid = good + (short - good) / 2;
                    if level(mid) < c {
                        short = mid;
                    } else {
                        good = mid;
                    }
                }
                return Err(i + short);
            }
        }
        produced = pr.at(len);
        consumed = cr.at(len);
        i += len;
    }
    Ok(Accumulators {
        produced,
        consumed,
        peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-cycle replay the closed form stands in for: one float
    /// add per accumulator per cycle, the peak of a push-only edge
    /// taken from its last (largest) level.
    fn replay_by_steps(
        start: Accumulators,
        push: Option<f64>,
        pull: Option<f64>,
        n: u64,
    ) -> Result<Accumulators, u64> {
        let Accumulators {
            mut produced,
            mut consumed,
            mut peak,
        } = start;
        match (push, pull) {
            (Some(p), Some(c)) => {
                for i in 0..n {
                    produced += p;
                    let level = (produced - consumed).max(0.0);
                    peak = peak.max(level);
                    if level < c {
                        return Err(i);
                    }
                    consumed += c;
                }
            }
            (Some(p), None) => {
                for _ in 0..n {
                    produced += p;
                }
                peak = peak.max((produced - consumed).max(0.0));
            }
            (None, Some(c)) => {
                for i in 0..n {
                    let level = (produced - consumed).max(0.0);
                    if level < c {
                        return Err(i);
                    }
                    consumed += c;
                }
            }
            (None, None) => {}
        }
        Ok(Accumulators {
            produced,
            consumed,
            peak,
        })
    }

    fn advance(x: f64, a: f64, n: u64) -> f64 {
        let start = Accumulators {
            produced: x,
            consumed: 0.0,
            peak: 0.0,
        };
        replay(start, Some(a), None, n).unwrap().produced
    }

    fn advance_by_steps(mut x: f64, a: f64, n: u64) -> f64 {
        for _ in 0..n {
            x += a;
        }
        x
    }

    fn assert_chain(x: f64, a: f64, n: u64) {
        let (fast, slow) = (advance(x, a, n), advance_by_steps(x, a, n));
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "x {x:e} + {n} × {a:e}: closed form {fast:e}, loop {slow:e}"
        );
    }

    #[test]
    fn chains_from_zero_match_the_loop() {
        for a in [1.0, 4.0, 0.1, 0.241_777_670_321_035_42, 3.0e-7, 1.5e-320] {
            for n in [0, 1, 2, 3, 17, 1000, 65_537] {
                assert_chain(0.0, a, n);
            }
        }
    }

    #[test]
    fn chains_crossing_powers_of_two_match_the_loop() {
        // Starts just below 2^k, so the first steps cross the binade.
        for k in [0, 1, 10, 17, 30] {
            let top = pow2(k);
            for below in [1, 2, 7, 1000] {
                let x = top - below as f64 * pow2(k - 53);
                for a in [pow2(k - 53), 3.0 * pow2(k - 54), 0.3, 0.7 * pow2(k - 50)] {
                    assert_chain(x, a, 5000);
                }
            }
        }
    }

    #[test]
    fn tie_binades_round_to_even_like_the_loop() {
        // `a` is an odd number of half-units of the [2^20, 2^21)
        // binade (unit 2^-32): every step there is a tie.
        let (low, half) = (pow2(20), pow2(-33));
        for a in [0.5 + half, 3.0 * half, half, 1.0 + 3.0 * half] {
            // Even, odd and even starting significands.
            for x in [low, low + 2.0 * half, low + 4.0 * half] {
                assert_chain(x, a, 100_000);
            }
        }
        // A tie that lasts for two million steps, then crosses 2^21.
        assert_chain(low + 2.0 * half, 0.5 + half, 2_100_000);
    }

    #[test]
    fn below_half_a_unit_never_moves() {
        assert_chain(1.0, pow2(-54), 1000);
        assert_chain(1.0e6, 1.0e-12, 1000);
        assert_eq!(advance(1.0e6, 1.0e-12, u64::MAX), 1.0e6);
    }

    #[test]
    fn a_full_leap_matches_the_loop() {
        // `LEAP_MAX` cycles of the Ed-Gaze DNN buffer's consumer rate.
        assert_chain(0.0, 0.241_777_670_321_035_42, 1 << 24);
        assert_chain(123.456, 4.0, 1 << 24);
    }

    #[test]
    fn level_checks_find_the_first_short_cycle() {
        // A draining edge: level falls by 0.1 a cycle from 100.
        let start = Accumulators {
            produced: 1000.0,
            consumed: 900.0,
            peak: 100.0,
        };
        let (push, pull) = (Some(0.9), Some(1.0));
        for n in [10, 500, 989, 990, 991, 5000] {
            assert_eq!(
                replay(start, push, pull, n),
                replay_by_steps(start, push, pull, n),
                "n {n}"
            );
        }
        assert!(replay(start, push, pull, 5000).is_err());
        // Pull only, from a fixed level: exactly 100 full pulls fit.
        assert_eq!(replay(start, None, Some(1.0), 200), Err(100));
        assert_eq!(replay_by_steps(start, None, Some(1.0), 200), Err(100));
    }

    proptest::proptest! {
        /// Random rates (integer, dyadic, non-dyadic, tie-forcing),
        /// starts and lengths: the closed form equals the per-cycle
        /// replay bit for bit, shortfall cycle included.
        #[test]
        fn replay_matches_the_per_cycle_loop(
            kind_p in 0u32..4, kind_c in 0u32..4,
            bits_p in 0u64..1 << 40, bits_c in 0u64..1 << 40,
            produced in 0.0f64..5000.0, backlog in 0.0f64..64.0,
            sides in 0u32..3, n in 0u64..200_000,
        ) {
            let rate = |kind: u32, bits: u64| match kind {
                0 => (bits % 8 + 1) as f64,
                1 => (bits % 64 + 1) as f64 / 16.0,
                2 => 0.05 + (bits as f64) / (1u64 << 40) as f64 * 4.0,
                // Lowest set bit at 2^-42: ties in the [2^11, 2^12) binade.
                _ => ((bits | 1) as f64 + (1u64 << 40) as f64) * pow2(-42),
            };
            let (p, c) = (rate(kind_p, bits_p), rate(kind_c, bits_c));
            let start = Accumulators {
                produced: produced + backlog,
                consumed: produced,
                peak: backlog,
            };
            let (push, pull) = match sides {
                0 => (Some(p), Some(c)),
                1 => (Some(p), None),
                _ => (None, Some(c)),
            };
            let fast = replay(start, push, pull, n);
            let slow = replay_by_steps(start, push, pull, n);
            let bits = |r: Result<Accumulators, u64>| {
                r.map(|a| [a.produced.to_bits(), a.consumed.to_bits(), a.peak.to_bits()])
            };
            proptest::prop_assert_eq!(bits(fast), bits(slow), "p {p:e} c {c:e} n {n}");
        }
    }
}
