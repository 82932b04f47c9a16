#![warn(missing_docs)]
//! Intermediate representation for multi-process high-level-synthesis
//! scheduling.
//!
//! This crate provides the substrate shared by every scheduler in the TCMS
//! workspace:
//!
//! * a [`ResourceLibrary`] describing operation/resource types (delay,
//!   pipelining, area cost),
//! * a [`System`] of independent [`Process`]es, each composed of
//!   statically-schedulable [`Block`]s (data-flow DAGs over [`Operation`]s),
//! * ASAP/ALAP [`frames`] computation, mobility and critical paths,
//! * structural validation of the paper's conditions (C1) and (C2),
//! * a plain-text `.dfg` format ([`parse`]/[`display`]) and DOT export,
//! * deterministic [`generators`] for the classic HLS benchmarks used in the
//!   paper (elliptical wave filter, HAL differential-equation solver) plus
//!   FIR, AR-lattice, FFT and seeded random systems.
//!
//! # Example
//!
//! ```
//! use tcms_ir::{ResourceLibrary, ResourceType, SystemBuilder};
//!
//! # fn main() -> Result<(), tcms_ir::IrError> {
//! let mut lib = ResourceLibrary::new();
//! let add = lib.add(ResourceType::new("add", 1).with_area(1))?;
//! let mul = lib.add(ResourceType::new("mul", 2).pipelined().with_area(4))?;
//!
//! let mut builder = SystemBuilder::new(lib);
//! let p = builder.add_process("p0");
//! let b = builder.add_block(p, "body", 6)?;
//! let a = builder.add_op(b, "a0", add)?;
//! let m = builder.add_op(b, "m0", mul)?;
//! builder.add_dep(a, m)?;
//! let system = builder.build()?;
//! assert_eq!(system.ops().count(), 2);
//! # Ok(())
//! # }
//! ```

pub mod block;
pub mod canon;
pub mod display;
pub mod dot;
pub mod error;
pub mod frames;
pub mod frontend;
pub mod generators;
pub mod graph;
pub mod op;
pub mod parse;
pub mod process;
pub mod resource;
pub mod system;
pub mod transform;

pub use block::{Block, BlockId};
pub use canon::{Canonicalization, SpecHash};
pub use error::IrError;
pub use frames::{FrameTable, TimeFrame};
pub use op::{OpId, Operation};
pub use process::{Process, ProcessId};
pub use resource::{ResourceLibrary, ResourceType, ResourceTypeId};
pub use system::{System, SystemBuilder};
