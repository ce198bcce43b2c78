//! The hot numerical kernels of EUL3D on a **structure-of-arrays**
//! state layout (§3 of the paper: edge colouring exists to expose vector
//! parallelism — these kernels supply the data layout and loop shape
//! that let it materialize on SIMD hardware).
//!
//! Per-vertex fields are stored *plane-major*: component `c` of vertex
//! `i` of an `n`-vertex, `nc`-component field lives at flat index
//! `c * n + i`.
//!
//! # Two loop shapes
//! The paper writes every loop of EUL3D as an edge loop, because a C90
//! vector pipe wants long stride-1 groups. On a cache machine the shape
//! follows what the edge *carries*:
//!
//! * **Edge scatter** where a per-edge quantity is computed once and
//!   used at both endpoints — the convective flux, the spectral radius,
//!   JST pass 2, the first-order and Roe dissipation. A span is cut
//!   into chunks of up to [`MAX_LANES`] edges, and each chunk runs
//!   through one loop in groups: gather the endpoint planes, evaluate the
//!   kernel's expression tree — written once, generic over the lane type
//!   of the `lane` module — and scatter `±` the result in edge order. An
//!   AVX2 host runs the tree over four edges per `__m256d`, any other
//!   host over one `f64`. The kernels that read the flow are one body:
//!   [`flow_edges`] gathers an edge's face vector, state and pressure
//!   once and writes any of dissipation (JST pass 2, first order or
//!   Roe), convective flux and spectral radius in the same pass — the
//!   solver's one edge sweep per stage. The single-output entries
//!   ([`conv_flux_edges`], [`jst_pass2_edges`], [`first_order_diss_edges`],
//!   [`roe_diss_edges`], [`radii_edges_soa`]) are instances of it, kept
//!   as **oracles and probe targets: the solver calls [`flow_edges`]
//!   alone**.
//! * **Vertex gather** where the edge carries nothing — the two pure
//!   neighbour sums, residual-averaging accumulation and JST pass 1
//!   ([`neighbour_sum_verts`], [`jst_gather_verts`]). Routing `Σ_j x_j`
//!   through edges only adds a zero-fill pass and two
//!   read-modify-write stores per edge; a gather over a
//!   vertex→neighbour CSR keeps the sum in registers and stores each
//!   slot once. The edge versions of these two
//!   ([`smooth_accumulate_edges`], [`jst_pass1_edges`]) remain as the
//!   **reference oracle and the referee's probe target — they are not
//!   on the solver path.**
//!
//! # Bit-equivalence contract
//! Every kernel reproduces the scalar AoS reference arithmetic
//! **bit for bit**: each per-edge expression tree exists once, its `f64`
//! and four-lane instances follow the same per-op rules (IEEE f64, no
//! reassociation, no FMA contraction), and results are scattered
//! in ascending edge order within each span, so every memory slot sees
//! the same accumulation order as the reference loop. Chunk width
//! (`lanes`) therefore cannot change any result bit — only how many
//! edges are staged per gather. The vertex gathers visit a slot's
//! neighbours in ascending edge order too (the CSR rows are built that
//! way), so they reproduce the edge loops they replaced bit for bit;
//! the `verts` module docs give the argument, including the one place
//! it needs care (`−(x − y)` against `y − x` at `x == y`), and
//! `tests/gather_equivalence.rs` checks it.
//!
//! # Who writes what
//! Edge kernels write through one ownership-tested epilogue
//! ([`ScatterAccess`]'s module docs): an unrestricted view owns every
//! vertex (serial, distributed); the shared executor gives each team
//! member a view restricted to its vertex block and the ascending list
//! of edges touching it. Each slot still sees its contributions in
//! ascending edge order, so the result is the serial sweep's, bit for
//! bit, for any split.
//!
//! # Crate hygiene
//! This crate is kept free of panicking slice indexing on purpose: a
//! codegen test (`tests/no_panic.rs`) objdumps the release rlib and
//! asserts no `panic_bounds_check` is referenced. All inner-loop access
//! is via `get_unchecked`, justified by the documented caller contracts.

pub mod gas;

mod edges;
mod lane;
mod scatter;
mod verts;

pub use edges::{
    conv_flux_edges, first_order_diss_edges, flow_edges, jst_pass1_edges, jst_pass2_edges,
    radii_edges_soa, roe_diss_edges, smooth_accumulate_edges, Dissipation, FlowSweep,
};
pub use scatter::{EdgeSpan, ScatterAccess, MAX_SCATTER_TARGETS};
pub use verts::{
    assemble_verts, jst_gather_verts, local_dt_verts, neighbour_sum_verts, pressure_verts,
    rk_update_verts, sensor_verts, smooth_update_verts,
};

/// Number of conserved variables per vertex.
pub const NVAR: usize = 5;

/// Hard upper bound on the chunk width of the lane-staged edge loops
/// (the size of the stack-local gather arrays).
pub const MAX_LANES: usize = 16;

/// Default chunk width: two four-edge AVX2 groups per call of the chunk
/// loop.
pub const DEFAULT_LANES: usize = 8;
