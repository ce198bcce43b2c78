//! Durable content-addressed result store: one file per completed job
//! under `<state_dir>/results/<cache-key>.res`, each a single
//! [`framed`] record (magic `EUL3DRES`, version 4) written atomically,
//! so a server restart rebuilds its result cache from disk and a
//! resubmitted finished job is a disk read, not a recompute.
//!
//! The payload serializes the *complete* [`JobArtifacts`] bundle, data
//! not text: history bits, residual table, each trace lane (id, name,
//! dropped count, its events as `obs::wire` lines), the Mach field's bit
//! patterns, guard outcome, and the result hash — so a blob served from
//! the store is bit-identical to the blob the original run streamed, and
//! the trace and VTK rendered from it on request are byte-identical. Any
//! damage (torn rename never shows one, but a corrupted disk can) — and
//! any file of an older version, such as a v3 file holding trace text —
//! fails the header, CRC or decode and reads as "not cached": corruption
//! costs a recompute, never a wrong answer.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use eul3d_core::framed::{self, ByteReader, ByteWriter};
use eul3d_core::health::{GuardOutcome, HealthVerdict, RetryEvent};
use eul3d_core::JobArtifacts;
use eul3d_obs as obs;

use crate::cache::{CacheKey, JobBlob};

const MAGIC: &[u8; 8] = b"EUL3DRES";
const VERSION: u32 = 4;

/// The directory holding one `.res` file per completed job, keyed by
/// the 32-hex-digit cache key.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Open (creating) the `results/` directory under `state_dir`.
    pub fn open(state_dir: &Path) -> std::io::Result<ResultStore> {
        let dir = state_dir.join("results");
        fs::create_dir_all(&dir)?;
        Ok(ResultStore { dir })
    }

    fn path_of(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.res"))
    }

    /// Persist `blob` under `key`, atomically: the file either does not
    /// exist or holds one complete CRC-valid result. Durable when this
    /// returns `Ok`.
    pub fn put(&self, key: CacheKey, blob: &JobBlob) -> std::io::Result<()> {
        let (path, payload) = (self.path_of(key), encode_artifacts(&blob.artifacts));
        Ok(framed::write_atomic(&path, MAGIC, VERSION, &payload)?)
    }

    /// Load the result stored under `key`, or `None` when it is absent
    /// or fails any integrity check.
    pub fn get(&self, key: CacheKey) -> Option<Arc<JobBlob>> {
        let payload = framed::read_one(&self.path_of(key), MAGIC, VERSION)?;
        let artifacts = decode_artifacts(&payload)?;
        Some(Arc::new(JobBlob { artifacts }))
    }
}

// ---- payload codec -------------------------------------------------------

/// A presence byte, then the value.
fn put_opt<T>(e: &mut ByteWriter, v: Option<T>, put: impl FnOnce(&mut ByteWriter, T)) {
    e.u8(u8::from(v.is_some()));
    if let Some(v) = v {
        put(e, v);
    }
}

fn get_opt<T>(
    d: &mut ByteReader,
    get: impl FnOnce(&mut ByteReader) -> Option<T>,
) -> Option<Option<T>> {
    match d.u8()? {
        0 => Some(None),
        1 => get(d).map(Some),
        _ => None,
    }
}

fn put_verdict(e: &mut ByteWriter, v: HealthVerdict) {
    e.u8(v.severity());
    match v {
        HealthVerdict::Healthy => e.u64(0),
        HealthVerdict::Diverging { ratio } => e.f64(ratio),
        HealthVerdict::NegativePressure { vertex }
        | HealthVerdict::NegativeDensity { vertex }
        | HealthVerdict::NonFinite { vertex } => e.u64(vertex as u64),
    }
}

fn get_verdict(d: &mut ByteReader) -> Option<HealthVerdict> {
    let (tag, arg) = (d.u8()?, d.u64()?);
    let vertex = arg as usize;
    Some(match tag {
        0 => HealthVerdict::Healthy,
        1 => HealthVerdict::Diverging {
            ratio: f64::from_bits(arg),
        },
        2 => HealthVerdict::NegativePressure { vertex },
        3 => HealthVerdict::NegativeDensity { vertex },
        4 => HealthVerdict::NonFinite { vertex },
        _ => return None,
    })
}

fn encode_artifacts(a: &JobArtifacts) -> Vec<u8> {
    let cap = 64 + (a.history.len() + a.mach.len()) * 8 + a.table.len();
    let mut e = ByteWriter(Vec::with_capacity(cap));
    e.u128(a.result_hash);
    e.f64s(&a.history);
    e.bytes(a.table.as_bytes());
    e.u64(a.lanes.len() as u64);
    for lane in &a.lanes {
        e.u64(lane.id.into());
        e.bytes(lane.name.as_bytes());
        e.u64(lane.dropped);
        let lines: Vec<String> = lane.events.iter().map(obs::wire::encode).collect();
        e.bytes(lines.join("\n").as_bytes());
    }
    e.f64s(&a.mach);
    put_opt(&mut e, a.guard.as_ref(), |e, g| {
        e.u64(g.transcript.len() as u64);
        for r in &g.transcript {
            e.u64(r.cycle as u64);
            put_opt(e, r.rollback_to, |e, c| e.u64(c as u64));
            put_verdict(e, r.verdict);
            e.f64(r.cfl_before);
            e.f64(r.cfl_after);
        }
        e.f64(g.final_cfl);
        e.f64(g.target_cfl);
        put_opt(e, g.exhausted, |e, (cycle, v)| {
            e.u64(cycle as u64);
            put_verdict(e, v);
        });
    });
    e.0
}

fn decode_artifacts(payload: &[u8]) -> Option<JobArtifacts> {
    let mut d = ByteReader(payload);
    let result_hash = d.u128()?;
    let history = d.f64s()?;
    let table = d.str()?.to_string();
    // Every lane is at least its id, dropped count and two length
    // prefixes; every retry record at least its cycle.
    let nlanes = d.count(32)?;
    let mut lanes = Vec::with_capacity(nlanes);
    for _ in 0..nlanes {
        let (id, name, dropped) = (u32::try_from(d.u64()?).ok()?, d.str()?, d.u64()?);
        let events = d.str()?.lines().map(obs::wire::decode);
        lanes.push(obs::Lane {
            id,
            name: name.to_string(),
            events: events.collect::<Option<_>>()?,
            dropped,
        });
    }
    let mach = d.f64s()?;
    let guard = get_opt(&mut d, |d| {
        let nretries = d.count(8)?;
        let mut transcript = Vec::with_capacity(nretries);
        for _ in 0..nretries {
            transcript.push(RetryEvent {
                cycle: d.u64()? as usize,
                rollback_to: get_opt(d, |d| d.u64().map(|c| c as usize))?,
                verdict: get_verdict(d)?,
                cfl_before: d.f64()?,
                cfl_after: d.f64()?,
            });
        }
        Some(GuardOutcome {
            transcript,
            final_cfl: d.f64()?,
            target_cfl: d.f64()?,
            exhausted: get_opt(d, |d| Some((d.u64()? as usize, get_verdict(d)?)))?,
        })
    })?;
    if !d.0.is_empty() {
        return None; // trailing bytes inside a framed payload are damage
    }
    Some(JobArtifacts {
        history,
        table,
        lanes,
        mach,
        guard,
        result_hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts() -> JobArtifacts {
        JobArtifacts {
            history: vec![1.5, 0.25, -0.0, f64::MIN_POSITIVE],
            table: "cycle\tresidual\n0\t1.5\n".to_string(),
            lanes: vec![
                obs::Lane {
                    id: 0,
                    name: "rank 0 (died@3)".to_string(),
                    events: vec![
                        obs::Stamped {
                            ts_ns: 12,
                            ev: obs::Event::PhaseBegin { phase: 2 },
                        },
                        obs::Stamped {
                            ts_ns: 99,
                            ev: obs::Event::MsgSend {
                                peer: 1,
                                tag: 7,
                                bytes: 4096,
                            },
                        },
                    ],
                    dropped: 5,
                },
                obs::Lane {
                    id: 1,
                    name: "rank \"1\"\n".to_string(),
                    events: Vec::new(),
                    dropped: 0,
                },
            ],
            mach: vec![0.675, -0.0, f64::MIN_POSITIVE, 1.25e-300],
            guard: Some(GuardOutcome {
                transcript: vec![RetryEvent {
                    cycle: 3,
                    rollback_to: Some(2),
                    verdict: HealthVerdict::Diverging { ratio: 55.0 },
                    cfl_before: 2.0,
                    cfl_after: 1.0,
                }],
                final_cfl: 1.0,
                target_cfl: 2.0,
                exhausted: Some((7, HealthVerdict::NonFinite { vertex: 4 })),
            }),
            result_hash: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233,
        }
    }

    fn dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("eul3d-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn assert_artifacts_eq(a: &JobArtifacts, b: &JobArtifacts) {
        assert_eq!(a.history, b.history);
        assert_eq!(a.table, b.table);
        assert_eq!(a.lanes, b.lanes);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.mach), bits(&b.mach));
        assert_eq!(a.result_hash, b.result_hash);
        match (&a.guard, &b.guard) {
            (None, None) => {}
            (Some(g), Some(h)) => {
                assert_eq!(g.transcript.len(), h.transcript.len());
                for (x, y) in g.transcript.iter().zip(&h.transcript) {
                    assert_eq!(x.cycle, y.cycle);
                    assert_eq!(x.rollback_to, y.rollback_to);
                    assert_eq!(x.verdict.severity(), y.verdict.severity());
                    assert_eq!(x.cfl_before, y.cfl_before);
                    assert_eq!(x.cfl_after, y.cfl_after);
                }
                assert_eq!(g.final_cfl, h.final_cfl);
                assert_eq!(g.target_cfl, h.target_cfl);
                assert_eq!(
                    g.exhausted.map(|(c, v)| (c, v.severity())),
                    h.exhausted.map(|(c, v)| (c, v.severity()))
                );
            }
            other => panic!("guard mismatch: {other:?}"),
        }
    }

    #[test]
    fn put_get_round_trips_every_field() {
        let d = dir("rt");
        let store = ResultStore::open(&d).unwrap();
        let key = CacheKey(42);
        assert!(store.get(key).is_none());
        store
            .put(
                key,
                &JobBlob {
                    artifacts: artifacts(),
                },
            )
            .unwrap();
        let back = store.get(key).unwrap();
        assert_artifacts_eq(&artifacts(), &back.artifacts);
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn minimal_artifacts_round_trip() {
        let d = dir("min");
        let store = ResultStore::open(&d).unwrap();
        let min = JobArtifacts {
            history: Vec::new(),
            table: String::new(),
            lanes: Vec::new(),
            mach: Vec::new(),
            guard: None,
            result_hash: 0,
        };
        store
            .put(
                CacheKey(1),
                &JobBlob {
                    artifacts: min.clone(),
                },
            )
            .unwrap();
        let back = store.get(CacheKey(1)).unwrap();
        assert_artifacts_eq(&min, &back.artifacts);
        fs::remove_dir_all(&d).ok();
    }
}
