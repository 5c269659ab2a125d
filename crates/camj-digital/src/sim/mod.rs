//! Cycle-level simulation of the digital pipeline (paper Sec. 3.3, 4.1):
//! stall checking, digital-latency measurement, and access counting.

mod engine;
mod error;
mod replay;
mod report;

pub use engine::{NodeId, PipelineSim, PipelineSimBuilder, SourceMode};
pub use error::SimError;
pub use report::{BufferStats, SimReport, StageStats};
