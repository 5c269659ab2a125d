//! Energy estimation: categories, breakdowns, the staged pipeline with
//! its content-addressed energy kernels and cross-point cache, and the
//! estimator facade.

mod breakdown;
mod cache;
mod category;
mod kernel;
mod model;
mod pipeline;

pub use breakdown::{EnergyBreakdown, EnergyItem};
pub use cache::{CacheStats, EstimateCache, PersistentTier, FRAME_BASE_BUDGET_BYTES, SHARD_COUNT};
pub use category::EnergyCategory;
pub use kernel::KernelKind;
pub use model::{CamJ, EstimateReport};
pub use pipeline::{ElasticSim, GateContext, GatedEstimate, ValidatedModel, ENERGY_KERNEL_COUNT};
