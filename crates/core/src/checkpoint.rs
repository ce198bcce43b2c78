//! Checkpoint/restart of flow solutions: a small self-describing binary
//! format for the conserved-variable field, so long steady-state runs
//! (the paper's production setting — "a whole range of Mach number and
//! incidence conditions") can resume, and converged states can seed
//! nearby conditions.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::gas::NVAR;

const MAGIC: &[u8; 8] = b"EUL3DCK1";

/// A checkpoint could not be read or applied to the target solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stored state vector and the target slice have different
    /// lengths — the checkpoint belongs to a different mesh.
    SizeMismatch {
        /// `f64` entries stored in the checkpoint.
        checkpoint: usize,
        /// `f64` entries in the restore target.
        target: usize,
    },
    /// The stream does not start with the checkpoint magic.
    BadMagic,
    /// The stream ended before the payload its header declares.
    Truncated,
    /// A stored state entry is NaN or infinite — the checkpoint was
    /// corrupted or written from a diverged run; restoring it would
    /// poison the solver.
    NonFinite {
        /// Index of the first offending entry in `w`.
        index: usize,
    },
    /// Underlying I/O failure (other than a clean truncation).
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::SizeMismatch { checkpoint, target } => write!(
                f,
                "checkpoint holds {} state entries ({} vertices) but the target mesh needs {} ({} vertices)",
                checkpoint,
                checkpoint / NVAR,
                target,
                target / NVAR
            ),
            CheckpointError::BadMagic => write!(f, "not an EUL3D checkpoint (bad magic)"),
            CheckpointError::Truncated => {
                write!(f, "checkpoint stream ends before its declared payload")
            }
            CheckpointError::NonFinite { index } => write!(
                f,
                "checkpoint state entry {index} is not finite (corrupted or diverged)"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated
        } else {
            CheckpointError::Io(e.to_string())
        }
    }
}

/// A saved flow state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Vertex count the state belongs to.
    pub nverts: usize,
    /// Cycles already performed.
    pub cycles_done: u64,
    /// Freestream Mach / angle of attack the state was computed at.
    pub mach: f64,
    pub alpha_deg: f64,
    /// Conserved variables, `nverts × NVAR`.
    pub w: Vec<f64>,
}

impl Checkpoint {
    pub fn new(w: &[f64], cycles_done: u64, mach: f64, alpha_deg: f64) -> Checkpoint {
        assert_eq!(w.len() % NVAR, 0);
        Checkpoint {
            nverts: w.len() / NVAR,
            cycles_done,
            mach,
            alpha_deg,
            w: w.to_vec(),
        }
    }

    /// Snapshot a plane-major solver state. The on-disk layout stays the
    /// historical interleaved one, so files written before the SoA
    /// migration restore bit-for-bit and vice versa.
    pub fn from_state(
        w: &crate::soa::SoaState,
        cycles_done: u64,
        mach: f64,
        alpha_deg: f64,
    ) -> Checkpoint {
        assert_eq!(w.nc(), NVAR);
        Checkpoint {
            nverts: w.n(),
            cycles_done,
            mach,
            alpha_deg,
            w: w.to_aos(),
        }
    }

    /// Serialize to any writer (little-endian, fixed layout).
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(MAGIC)?;
        out.write_all(&(self.nverts as u64).to_le_bytes())?;
        out.write_all(&self.cycles_done.to_le_bytes())?;
        out.write_all(&self.mach.to_le_bytes())?;
        out.write_all(&self.alpha_deg.to_le_bytes())?;
        for &x in &self.w {
            out.write_all(&x.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialize from any reader. Returns a typed error on a bad
    /// magic, a truncated stream, or non-finite state entries — never a
    /// garbage state. The state is read incrementally, so a corrupted
    /// header declaring an absurd vertex count fails with `Truncated`
    /// instead of exhausting memory up front.
    pub fn read_from<R: Read>(inp: &mut R) -> Result<Checkpoint, CheckpointError> {
        let mut magic = [0u8; 8];
        inp.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let mut b8 = [0u8; 8];
        let mut read_u64 = |inp: &mut R| -> Result<u64, CheckpointError> {
            inp.read_exact(&mut b8)?;
            Ok(u64::from_le_bytes(b8))
        };
        let nverts = read_u64(inp)? as usize;
        let cycles_done = read_u64(inp)?;
        let mach = f64::from_bits(read_u64(inp)?);
        let alpha_deg = f64::from_bits(read_u64(inp)?);
        let total = (nverts as u64).saturating_mul(NVAR as u64);
        let mut w = Vec::new();
        w.reserve_exact(total.min(1 << 20) as usize);
        let mut buf = [0u8; 8];
        for i in 0..total {
            inp.read_exact(&mut buf)?;
            let x = f64::from_le_bytes(buf);
            if !x.is_finite() {
                return Err(CheckpointError::NonFinite { index: i as usize });
            }
            w.push(x);
        }
        Ok(Checkpoint {
            nverts,
            cycles_done,
            mach,
            alpha_deg,
            w,
        })
    }

    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut f)?;
        f.flush()
    }

    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        Checkpoint::read_from(&mut f)
    }

    /// Install the state into a plane-major solver field, converting from
    /// the interleaved file layout. Fails with a typed error if the
    /// checkpoint belongs to a different-sized mesh instead of truncating
    /// or panicking.
    pub fn restore_into_state(&self, w: &mut crate::soa::SoaState) -> Result<(), CheckpointError> {
        if w.n() * w.nc() != self.w.len() || w.nc() != NVAR {
            return Err(CheckpointError::SizeMismatch {
                checkpoint: self.w.len(),
                target: w.n() * w.nc(),
            });
        }
        for i in 0..w.n() {
            w.set_row(i, &self.w[i * NVAR..(i + 1) * NVAR]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SingleGridSolver, SolverConfig};
    use eul3d_mesh::gen::unit_box;

    #[test]
    fn round_trip_through_memory() {
        let w: Vec<f64> = (0..5 * NVAR).map(|i| i as f64 * 0.5 - 3.0).collect();
        let ck = Checkpoint::new(&w, 42, 0.675, 1.116);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn rejects_garbage() {
        let garbage = b"NOTACKPTxxxxxxxxxxxx".to_vec();
        assert!(Checkpoint::read_from(&mut garbage.as_slice()).is_err());
    }

    #[test]
    fn resume_continues_the_run_exactly() {
        let mesh = unit_box(4, 0.15, 3);
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };

        // Reference: 10 uninterrupted cycles.
        let mut a = SingleGridSolver::new(mesh.clone(), cfg);
        // Perturb so there is an actual transient to track.
        for i in 0..a.st.n {
            a.st.w.set(
                i,
                0,
                a.st.w.get(i, 0) * (1.0 + 0.01 * ((i % 5) as f64 - 2.0)),
            );
        }
        let w_init = a.st.w.clone();
        a.solve(10);

        // Checkpointed: 5 cycles, save, restore into a fresh solver, 5 more.
        let mut b = SingleGridSolver::new(mesh.clone(), cfg);
        b.st.w.copy_from(&w_init);
        b.solve(5);
        let ck = Checkpoint::from_state(&b.st.w, 5, cfg.mach, cfg.alpha_deg);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();

        let restored = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
        let mut c = SingleGridSolver::new(mesh, cfg);
        restored.restore_into_state(&mut c.st.w).unwrap();
        c.solve(5);

        for (x, y) in a.state().flat().iter().zip(c.state().flat()) {
            assert_eq!(x, y, "restart must be bit-exact");
        }
    }

    #[test]
    fn restore_into_wrong_sized_mesh_is_a_typed_error() {
        // Checkpoint from a 4-refinement box, target solver on a finer
        // mesh: the round-tripped checkpoint must refuse to restore.
        let cfg = SolverConfig::default();
        let small = SingleGridSolver::new(unit_box(3, 0.15, 3), cfg);
        let ck = Checkpoint::from_state(&small.st.w, 3, cfg.mach, cfg.alpha_deg);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut buf.as_slice()).unwrap();

        let mut big = SingleGridSolver::new(unit_box(5, 0.15, 3), cfg);
        let before = big.st.w.clone();
        let err = back.restore_into_state(&mut big.st.w).unwrap_err();
        match err {
            CheckpointError::SizeMismatch { checkpoint, target } => {
                assert_eq!(checkpoint, small.st.w.flat().len());
                assert_eq!(target, big.st.w.flat().len());
            }
            other => panic!("expected SizeMismatch, got {other:?}"),
        }
        assert_eq!(big.st.w, before, "failed restore must not touch state");
        assert!(err.to_string().contains("vertices"));
    }

    #[test]
    fn wrong_magic_is_a_typed_error() {
        let mut buf = Vec::new();
        Checkpoint::new(&[1.0; NVAR], 1, 0.5, 0.0)
            .write_to(&mut buf)
            .unwrap();
        buf[..8].copy_from_slice(b"EUL3DCK2"); // future format version
        assert_eq!(
            Checkpoint::read_from(&mut buf.as_slice()).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let mut full = Vec::new();
        Checkpoint::new(&[1.0; 4 * NVAR], 9, 0.675, 1.1)
            .write_to(&mut full)
            .unwrap();
        // Cut the stream inside the magic, the header, and the payload.
        for cut in [3, 20, full.len() - 5] {
            assert_eq!(
                Checkpoint::read_from(&mut &full[..cut]).unwrap_err(),
                CheckpointError::Truncated,
                "cut at byte {cut}"
            );
        }
        assert!(Checkpoint::read_from(&mut full.as_slice()).is_ok());
    }

    #[test]
    fn absurd_header_size_fails_without_allocating() {
        // A corrupted header declaring ~10^18 vertices must report
        // truncation, not abort on an out-of-memory allocation.
        let mut buf = Vec::new();
        Checkpoint::new(&[1.0; NVAR], 0, 0.5, 0.0)
            .write_to(&mut buf)
            .unwrap();
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Checkpoint::read_from(&mut buf.as_slice()).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn nan_and_inf_payloads_are_typed_errors() {
        for (bad, at) in [(f64::NAN, 2), (f64::INFINITY, 7), (f64::NEG_INFINITY, 0)] {
            let mut w = vec![1.0; 2 * NVAR];
            w[at] = bad;
            let mut buf = Vec::new();
            Checkpoint::new(&w, 0, 0.5, 0.0).write_to(&mut buf).unwrap();
            assert_eq!(
                Checkpoint::read_from(&mut buf.as_slice()).unwrap_err(),
                CheckpointError::NonFinite { index: at }
            );
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/euler.ck")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("eul3d_ck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ck");
        let w = vec![1.5; 3 * NVAR];
        let ck = Checkpoint::new(&w, 7, 0.5, 0.0);
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ck, back);
        std::fs::remove_file(&path).ok();
    }
}
