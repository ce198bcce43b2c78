//! Machine performance models that map *measured operation counts* from
//! the real solver onto the paper's 1992 hardware, regenerating the
//! Table-1/Table-2 report format.
//!
//! The Delta model lives in `eul3d-delta` (it is driven by that machine's
//! traffic counters); this crate provides the **Cray Y-MP C90 model**
//! (§3), cross-machine comparison helpers (§5), and plain-text table
//! rendering.

//! ```
//! use eul3d_perf::CrayC90Model;
//!
//! // Price 4.7e11 measured flops (the paper's single-grid run) on the
//! // modeled C90 at 1 and 16 CPUs.
//! let model = CrayC90Model::default();
//! let r1 = model.evaluate(4.73e11, 35_000, 1);
//! let r16 = model.evaluate(4.73e11, 35_000, 16);
//! assert!(r1.wall_clock_s / r16.wall_clock_s > 11.0); // the Table-1 speedup
//! assert!(r16.cpu_s > r1.cpu_s);                      // multitasking inflation
//! ```

pub mod compare;
pub mod cray;
pub mod tables;

pub use compare::Comparison;
pub use cray::{C90Row, CrayC90Model};
pub use tables::TextTable;
