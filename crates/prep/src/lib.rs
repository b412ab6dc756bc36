//! Pre-processing substrate.
//!
//! Every minibatch is decoded and augmented on the fly: JPEG decode, random
//! crop, resize, flip and normalisation for images; decode and resampling for
//! audio.  The paper shows this CPU work is a first-class bottleneck — *prep
//! stalls* — because modern GPUs ingest samples faster than 3 CPU cores per
//! GPU can prepare them (§3.3.2).
//!
//! The crate has two halves:
//!
//! * a **cost model** ([`PrepCostModel`], [`PrepBackend`]) calibrated from the
//!   paper's measured pipeline throughputs (735 MB/s for DALI-CPU with 24
//!   cores, 1062 MB/s with GPU offload, ≈330 MB/s for the native
//!   PyTorch/Pillow loader), used by the simulator, and
//! * **executable transforms** ([`executable`]) that really operate on byte
//!   buffers, used by the functional CoorDL loader so that coordination
//!   correctness (exactly-once, per-epoch randomness) can be tested on real
//!   data flow.  [`ExecutablePipeline::prepare_into`] runs them as one
//!   fused, in-place kernel over a caller-supplied buffer.

pub mod cost;
pub mod executable;
pub mod transforms;

pub use cost::{PrepBackend, PrepCostModel};
pub use executable::{ExecutablePipeline, PreparedSample};
pub use transforms::{PrepPipeline, TransformKind};
