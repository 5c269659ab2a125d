//! Sweep axes: named, ordered lists of parameter values.

use std::fmt;

use camj_digital::memory::MemoryKind;
use camj_tech::node::ProcessNode;
use serde_json::Number;

/// One value along a sweep axis.
///
/// The variants cover the parameters the paper sweeps (precision,
/// technology node, memory technology, frame rate) plus free-form
/// labels for workload-specific choices such as sensor variants.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// An unsigned integer parameter (bit-width, array rows, …).
    U32(u32),
    /// A real-valued parameter (FPS target, voltage swing, …).
    F64(f64),
    /// A fabrication process node.
    Node(ProcessNode),
    /// A digital memory structure kind.
    Memory(MemoryKind),
    /// A free-form label (sensor variant, workload name, …).
    Text(String),
}

impl AxisValue {
    /// The integer value, if this is [`AxisValue::U32`].
    #[must_use]
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            AxisValue::U32(v) => Some(*v),
            _ => None,
        }
    }

    /// The real value, if this is [`AxisValue::F64`].
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AxisValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The process node, if this is [`AxisValue::Node`].
    #[must_use]
    pub fn as_node(&self) -> Option<ProcessNode> {
        match self {
            AxisValue::Node(v) => Some(*v),
            _ => None,
        }
    }

    /// The memory kind, if this is [`AxisValue::Memory`].
    #[must_use]
    pub fn as_memory(&self) -> Option<MemoryKind> {
        match self {
            AxisValue::Memory(v) => Some(*v),
            _ => None,
        }
    }

    /// The label, if this is [`AxisValue::Text`].
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AxisValue::Text(v) => Some(v),
            _ => None,
        }
    }
}

/// The canonical text form of a real axis coordinate: the shortest
/// string that round-trips the value (the same formatter the JSON/CSV
/// sweep serializers use), with explicit spellings for the non-finite
/// values the plan keying logic tolerates. Everything that prints an
/// axis coordinate — [`AxisValue`]'s `Display`, point-tagged error
/// messages, the sweep serializers — goes through here, so a
/// coordinate reads identically wherever it surfaces.
#[must_use]
pub fn canonical_f64(v: f64) -> String {
    let mut out = String::new();
    write_canonical_f64(&mut out, v).expect("writing to a String cannot fail");
    out
}

/// Writes [`canonical_f64`]'s text into `out` without an intermediate
/// `String`: finite values print through [`Number::from_f64`]'s
/// `Display`, exactly as the JSON printer writes them.
pub(crate) fn write_canonical_f64(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{}", Number::from_f64(v))
    } else if v.is_nan() {
        out.write_str("NaN")
    } else if v > 0.0 {
        out.write_str("inf")
    } else {
        out.write_str("-inf")
    }
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::U32(v) => write!(f, "{v}"),
            AxisValue::F64(v) => write_canonical_f64(f, *v),
            AxisValue::Node(v) => write!(f, "{v}"),
            AxisValue::Memory(v) => write!(f, "{v:?}"),
            AxisValue::Text(v) => f.write_str(v),
        }
    }
}

impl From<u32> for AxisValue {
    fn from(v: u32) -> Self {
        AxisValue::U32(v)
    }
}

impl From<f64> for AxisValue {
    fn from(v: f64) -> Self {
        AxisValue::F64(v)
    }
}

impl From<ProcessNode> for AxisValue {
    fn from(v: ProcessNode) -> Self {
        AxisValue::Node(v)
    }
}

impl From<MemoryKind> for AxisValue {
    fn from(v: MemoryKind) -> Self {
        AxisValue::Memory(v)
    }
}

impl From<String> for AxisValue {
    fn from(v: String) -> Self {
        AxisValue::Text(v)
    }
}

impl From<&str> for AxisValue {
    fn from(v: &str) -> Self {
        AxisValue::Text(v.to_owned())
    }
}

/// A named sweep axis: an ordered list of values for one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    name: String,
    values: Vec<AxisValue>,
}

impl Axis {
    /// A new axis over `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty — an empty axis would collapse the
    /// whole cartesian grid to nothing, which is never intended.
    pub fn new<N, V, I>(name: N, values: I) -> Self
    where
        N: Into<String>,
        V: Into<AxisValue>,
        I: IntoIterator<Item = V>,
    {
        let name = name.into();
        let values: Vec<AxisValue> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "axis '{name}' needs at least one value");
        Self { name, values }
    }

    /// The axis name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The axis values, in declaration order.
    #[must_use]
    pub fn values(&self) -> &[AxisValue] {
        &self.values
    }

    /// Number of values along this axis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis is empty (never true for a constructed axis).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(AxisValue::from(8u32).as_u32(), Some(8));
        assert_eq!(AxisValue::from(30.0f64).as_f64(), Some(30.0));
        assert_eq!(
            AxisValue::from(ProcessNode::N65).as_node(),
            Some(ProcessNode::N65)
        );
        assert_eq!(
            AxisValue::from(MemoryKind::LineBuffer).as_memory(),
            Some(MemoryKind::LineBuffer)
        );
        assert_eq!(AxisValue::from("2D-In").as_text(), Some("2D-In"));
        assert_eq!(AxisValue::from(8u32).as_f64(), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(AxisValue::from(8u32).to_string(), "8");
        assert_eq!(AxisValue::from("x").to_string(), "x");
    }

    #[test]
    fn f64_display_matches_the_serializers_and_tolerates_nan() {
        // Finite values print the shortest round-trip form the JSON/CSV
        // serializers use; the pathological values the plan keying
        // logic tolerates print explicitly instead of via raw Display.
        assert_eq!(AxisValue::from(30.0f64).to_string(), "30");
        assert_eq!(AxisValue::from(0.25f64).to_string(), "0.25");
        assert_eq!(AxisValue::from(f64::NAN).to_string(), "NaN");
        assert_eq!(AxisValue::from(f64::INFINITY).to_string(), "inf");
        assert_eq!(AxisValue::from(f64::NEG_INFINITY).to_string(), "-inf");
        // Round-trip: the finite form parses back to the same bits.
        let tricky = 0.1f64 + 0.2;
        let text = canonical_f64(tricky);
        assert_eq!(text.parse::<f64>().unwrap().to_bits(), tricky.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_axis_rejected() {
        let _ = Axis::new("bits", Vec::<u32>::new());
    }
}
