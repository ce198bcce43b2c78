//! The crash-consistency contract of the four durable files — the
//! checkpoint log, the job journal, the result store and the
//! `solve --checkpoint` file — checked once, through their public APIs: whatever a crash or a bad disk does to a
//! file (a cut at any byte offset, any byte flipped), reopening never
//! panics, recovers exactly the longest valid prefix of what was written
//! or reads "absent", says what it dropped, and leaves a file that takes
//! appends. DESIGN.md §12's crash-consistency argument leans on this.

use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};

use eul3d_core::framed::{self, ByteWriter};
use eul3d_core::job::render_trace;
use eul3d_core::{CheckpointLog, JobArtifacts, JobCheckpoint, JobMode, RunConfig, TailReport};
use eul3d_obs::{wire, Event, Lane, Stamped};
use eul3d_serve::engine::{EngineConfig, JobEngine};
use eul3d_serve::{CacheKey, JobBlob, Journal, JournalRecord, ResultStore};

const HEADER_LEN: usize = 12;
/// Every single-bit flip, and all bits at once.
const MASKS: [u8; 9] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF];

/// A fresh directory for one test. It lives on tmpfs (`/dev/shm`) where
/// there is one. The formats fsync on every recovering open, and these
/// properties reopen a file thousands of times. On a busy disk those
/// fsyncs take minutes. What is checked is the bytes a reopen leaves
/// behind, and tmpfs stores them just as a disk does.
fn scratch(name: &str) -> PathBuf {
    let shm = Path::new("/dev/shm");
    let root = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let p = root.join(format!("eul3d-durable-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    fs::create_dir_all(&p).expect("scratch dir");
    p
}

/// One append-only format behind its public API.
trait LogFormat {
    type Rec: Clone + Debug + PartialEq;
    fn path(dir: &Path) -> PathBuf;
    /// A few records to write; the last is the one appended after each
    /// recovery.
    fn samples() -> Vec<Self::Rec>;
    /// Open the log under `dir` (recovering), check that what it shows
    /// is exactly `written[..n]` for some `n`, append `extra`, and
    /// return `n` with the tail report — or the typed open error.
    fn open(
        dir: &Path,
        written: &[Self::Rec],
        extra: &[Self::Rec],
    ) -> Result<(usize, TailReport), String>;
}

struct CkLog;

impl LogFormat for CkLog {
    type Rec = JobCheckpoint;
    fn path(dir: &Path) -> PathBuf {
        dir.join("job.cklog")
    }
    fn samples() -> Vec<JobCheckpoint> {
        (1..=4)
            .map(|c| JobCheckpoint {
                cycles_done: 2 * c,
                history: (0..c).map(|k| 0.5 / (k + 1) as f64).collect(),
                w: vec![1.25, -0.0, f64::MIN_POSITIVE],
            })
            .collect()
    }
    fn open(
        dir: &Path,
        written: &[JobCheckpoint],
        extra: &[JobCheckpoint],
    ) -> Result<(usize, TailReport), String> {
        let (mut log, tail) = CheckpointLog::open(&Self::path(dir)).map_err(|e| e.to_string())?;
        let n = log.frames();
        assert_eq!(log.latest(), written.get(..n).and_then(<[_]>::last));
        for ck in extra {
            log.append(ck).expect("append");
        }
        Ok((n, tail))
    }
}

const MACH_CONFIG: &str = "[solver]\nmach = 0.675\n";

fn submitted(config: &str) -> JournalRecord {
    JournalRecord::Submitted {
        job: 1,
        key: CacheKey(0x2d7b_a45f),
        mode: JobMode::Solve,
        force: false,
        config: config.to_string(),
    }
}

struct JournalLog;

impl LogFormat for JournalLog {
    type Rec = JournalRecord;
    fn path(dir: &Path) -> PathBuf {
        dir.join("journal.log")
    }
    fn samples() -> Vec<JournalRecord> {
        vec![
            submitted(MACH_CONFIG),
            JournalRecord::Started { job: 1 },
            JournalRecord::Checkpointed { job: 1, cycle: 4 },
            JournalRecord::Failed {
                job: 1,
                error: "nasty \"text\"\n\t☃".to_string(),
            },
            JournalRecord::Resumed { job: 2, cycle: 4 },
        ]
    }
    fn open(
        dir: &Path,
        written: &[JournalRecord],
        extra: &[JournalRecord],
    ) -> Result<(usize, TailReport), String> {
        let (mut journal, replay) = Journal::open(dir).map_err(|e| e.to_string())?;
        let n = replay.records.len();
        assert_eq!(Some(&replay.records[..]), written.get(..n));
        for rec in extra {
            journal.append(rec).expect("append");
        }
        Ok((n, replay.tail))
    }
}

/// Where each frame of a clean file starts, plus the end of the file.
fn frame_starts(clean: &[u8]) -> Vec<usize> {
    let mut starts = vec![HEADER_LEN];
    let mut at = HEADER_LEN;
    while at < clean.len() {
        let len = u32::from_le_bytes(clean[at..at + 4].try_into().expect("4 bytes"));
        at += 8 + len as usize;
        starts.push(at);
    }
    assert_eq!(at, clean.len());
    starts
}

/// The property, for one log format: every truncation and every flip of
/// every byte (under each of `masks`) of a small clean file.
fn log_recovers_the_exact_prefix_from_any_damage<F: LogFormat>(name: &str, masks: &[u8]) {
    let dir = scratch(name);
    let path = F::path(&dir);
    let samples = F::samples();
    let (extra, recs) = samples.split_last().expect("samples");
    assert_eq!(F::open(&dir, &[], recs), Ok((0, TailReport::default())));
    let clean = fs::read(&path).expect("clean file");
    let starts = frame_starts(&clean);
    assert_eq!(starts.len(), recs.len() + 1);

    // `image` is what the crash left; the first `kept` frames are whole.
    let recovers = |image: &[u8], kept: usize, what: &str| {
        fs::write(&path, image).expect("plant damage");
        // A file shorter than its header is a torn creation: empty log.
        let valid_end = if image.len() < HEADER_LEN {
            0
        } else {
            starts[kept]
        };
        let tail = TailReport {
            dropped_frames: usize::from(image.len() >= HEADER_LEN && image.len() > valid_end),
            dropped_bytes: (image.len() - valid_end) as u64,
        };
        assert_eq!(F::open(&dir, recs, &[]), Ok((kept, tail)), "{what}");
        assert_eq!(
            fs::read(&path).expect("recovered file"),
            clean[..starts[kept]],
            "{what}: truncated to the frame boundary"
        );
        // Recovery is idempotent, and the repaired log takes appends.
        let clean_tail = TailReport::default();
        let one = std::slice::from_ref(extra);
        assert_eq!(F::open(&dir, recs, one), Ok((kept, clean_tail)), "{what}");
        let extended = [&recs[..kept], one].concat();
        let reopened = F::open(&dir, &extended, &[]);
        assert_eq!(reopened, Ok((kept + 1, clean_tail)), "{what}");
    };

    for cut in 0..=clean.len() {
        let kept = starts[1..].iter().filter(|&&end| end <= cut).count();
        recovers(&clean[..cut], kept, &format!("cut at {cut}"));
    }
    for pos in 0..clean.len() {
        for mask in masks {
            let what = format!("byte {pos} ^ {mask:#04x}");
            let mut image = clean.clone();
            image[pos] ^= mask;
            if pos < HEADER_LEN {
                // Not this format's file any more: a typed error, and
                // the foreign bytes are left alone.
                fs::write(&path, &image).expect("plant damage");
                assert!(F::open(&dir, recs, &[]).is_err(), "{what}");
                assert_eq!(fs::read(&path).expect("foreign file"), image, "{what}");
            } else {
                let hit = starts[1..].iter().filter(|&&end| end <= pos).count();
                recovers(&image, hit, &what);
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_log_recovers_the_exact_prefix_from_any_damage() {
    log_recovers_the_exact_prefix_from_any_damage::<CkLog>("cklog", &MASKS);
}

#[test]
fn journal_recovers_the_exact_prefix_from_any_damage() {
    log_recovers_the_exact_prefix_from_any_damage::<JournalLog>("journal", &MASKS);
}

/// Not only the nine masks above: no value of any byte behind the header
/// makes the journal replay a record that was not written. The
/// un-checksummed NDJSON journal replayed a flipped digit as a
/// different-but-valid record, so the record here is the shortest one
/// with a number in it (every case costs an fsync).
#[test]
fn journal_never_replays_an_altered_record_under_any_mask() {
    let dir = scratch("jmask");
    let path = JournalLog::path(&dir);
    let recs = [JournalRecord::Checkpointed { job: 1, cycle: 4 }];
    JournalLog::open(&dir, &[], &recs).expect("write");
    let clean = fs::read(&path).expect("clean file");
    for pos in HEADER_LEN..clean.len() {
        for mask in 1..=255u8 {
            let mut image = clean.clone();
            image[pos] ^= mask;
            fs::write(&path, &image).expect("plant damage");
            let recovered = JournalLog::open(&dir, &recs, &[]).expect("frame damage recovers");
            assert_eq!(recovered.0, 0, "byte {pos} ^ {mask:#04x} went unnoticed");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A result with two trace lanes, the first of which dropped events.
fn blob() -> JobBlob {
    let ev = |ts_ns, ev| Stamped { ts_ns, ev };
    JobBlob {
        artifacts: JobArtifacts {
            history: vec![1.5, 0.25, -0.0],
            table: "cycle\tresidual\n0\t1.5\n".to_string(),
            lanes: vec![
                Lane {
                    id: 0,
                    name: "rank 0 (died@1)".to_string(),
                    events: vec![
                        ev(3, Event::PhaseBegin { phase: 1 }),
                        ev(9, Event::PhaseEnd { phase: 1 }),
                    ],
                    dropped: 2,
                },
                Lane {
                    id: 1,
                    name: "rank 0 (adopted by 1)".to_string(),
                    events: vec![ev(
                        12,
                        Event::MsgSend {
                            peer: 1,
                            tag: 7,
                            bytes: 40,
                        },
                    )],
                    dropped: 0,
                },
            ],
            mach: vec![0.675, -0.0, 1.25],
            guard: None,
            result_hash: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233,
        },
    }
}

#[test]
fn result_store_reads_any_damaged_file_as_absent() {
    let dir = scratch("store");
    let store = ResultStore::open(&dir).expect("open store");
    let key = CacheKey(7);
    store.put(key, &blob()).expect("put");
    let path = dir.join("results").join(format!("{key}.res"));
    let clean = fs::read(&path).expect("clean file");
    let absent = |image: &[u8], what: &str| {
        fs::write(&path, image).expect("plant damage");
        assert!(store.get(key).is_none(), "{what} must not decode");
    };
    for cut in 0..clean.len() {
        absent(&clean[..cut], &format!("cut at {cut}"));
    }
    for pos in 0..clean.len() {
        for mask in MASKS {
            let mut image = clean.clone();
            image[pos] ^= mask;
            absent(&image, &format!("byte {pos} ^ {mask:#04x}"));
        }
    }
    absent(&[&clean[..], b"\0"].concat(), "a trailing byte");
    fs::write(&path, &clean).expect("restore");
    let back = store.get(key).expect("the clean file decodes");
    assert_eq!(back.artifacts.result_hash, blob().artifacts.result_hash);
    assert_eq!(back.artifacts.table, blob().artifacts.table);
    assert_eq!(back.artifacts.lanes, blob().artifacts.lanes);
    let _ = fs::remove_dir_all(&dir);
}

/// A version-2 `.res` file, which held the VTK text where version 3
/// holds the Mach field, reads as absent (one recompute), and so does
/// its payload under a later header.
#[test]
fn a_version_2_result_file_reads_as_absent() {
    let dir = scratch("store-v2");
    let store = ResultStore::open(&dir).expect("open store");
    let key = CacheKey(9);
    let path = dir.join("results").join(format!("{key}.res"));
    let a = blob().artifacts;
    let mut e = ByteWriter::default();
    e.u128(a.result_hash);
    e.f64s(&a.history);
    e.bytes(a.table.as_bytes());
    e.u8(1);
    e.bytes(b"{\"traceEvents\":[]}");
    e.u64(0);
    e.bytes(b"# vtk DataFile Version 3.0\n");
    e.u8(0);
    for version in [2, 3, 4] {
        framed::write_atomic(&path, b"EUL3DRES", version, &e.0).expect("write");
        assert!(store.get(key).is_none(), "v2 payload, v{version} header");
    }
    store.put(key, &blob()).expect("put");
    assert!(store.get(key).is_some(), "the current format decodes");
    let _ = fs::remove_dir_all(&dir);
}

/// A version-3 `.res` file, which held the Chrome trace text and the
/// streamed lane's wire lines where version 4 holds every lane, reads
/// as absent (one recompute), and so does its payload under a version-4
/// header.
#[test]
fn a_version_3_result_file_reads_as_absent() {
    let dir = scratch("store-v3");
    let store = ResultStore::open(&dir).expect("open store");
    let key = CacheKey(11);
    let path = dir.join("results").join(format!("{key}.res"));
    let a = blob().artifacts;
    let mut e = ByteWriter::default();
    e.u128(a.result_hash);
    e.f64s(&a.history);
    e.bytes(a.table.as_bytes());
    e.u8(1);
    e.bytes(render_trace(&a.lanes).as_bytes());
    e.u64(a.lanes[1].events.len() as u64);
    for s in &a.lanes[1].events {
        e.bytes(wire::encode(s).as_bytes());
    }
    e.f64s(&a.mach);
    e.u8(0);
    for version in [3, 4] {
        framed::write_atomic(&path, b"EUL3DRES", version, &e.0).expect("write");
        assert!(store.get(key).is_none(), "v3 payload, v{version} header");
    }
    store.put(key, &blob()).expect("put");
    let back = store.get(key).expect("the current format decodes");
    assert_eq!(back.artifacts.lanes, a.lanes);
    let _ = fs::remove_dir_all(&dir);
}

/// The `solve --checkpoint` file `--restart` reads: any cut, any flip
/// and a trailing byte read as absent, so a restart is refused whole
/// rather than resumed from part of a state.
#[test]
fn restart_file_reads_any_damaged_file_as_absent() {
    let dir = scratch("restart");
    let path = dir.join("state.ck");
    let ck = JobCheckpoint {
        cycles_done: 3,
        history: vec![0.5, 0.25, 0.125],
        w: vec![1.25, -0.0, f64::MIN_POSITIVE, 2.0, 3.5],
    };
    ck.save(&path).expect("save");
    assert!(!dir.join("state.tmp").exists(), "the temp file is renamed");
    assert_eq!(JobCheckpoint::load(&path), Some(ck.clone()));
    let clean = fs::read(&path).expect("clean file");
    let absent = |image: &[u8], what: &str| {
        fs::write(&path, image).expect("plant damage");
        assert_eq!(JobCheckpoint::load(&path), None, "{what} must not load");
    };
    for cut in 0..clean.len() {
        absent(&clean[..cut], &format!("cut at {cut}"));
    }
    for pos in 0..clean.len() {
        for mask in MASKS {
            let mut image = clean.clone();
            image[pos] ^= mask;
            absent(&image, &format!("byte {pos} ^ {mask:#04x}"));
        }
    }
    absent(&[&clean[..], b"\0"].concat(), "a trailing byte");
    absent(b"", "an empty file");
    let _ = fs::remove_dir_all(&dir);
}

/// The `--checkpoint` file is the checkpoint log's header and exactly
/// one of its frames: a one-frame `.cklog` and a restart file are the
/// same bytes.
#[test]
fn restart_file_bytes_are_the_log_header_and_one_frame() {
    let dir = scratch("restart-golden");
    let path = dir.join("state.ck");
    let ck = JobCheckpoint {
        cycles_done: 2,
        history: vec![0.5],
        w: vec![1.0, -2.5],
    };
    ck.save(&path).expect("save");
    let hex: String = fs::read(&path)
        .expect("file bytes")
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let one_frame = 2 * (HEADER_LEN + 8 + 0x30);
    assert_eq!(hex, GOLDEN_CKLOG[..one_frame]);
    let (log, tail) = CheckpointLog::open(&path).expect("it opens as a log");
    assert_eq!((log.frames(), tail), (1, TailReport::default()));
    assert_eq!(log.latest(), Some(&ck));
    let _ = fs::remove_dir_all(&dir);
}

/// The hole the un-checksummed NDJSON journal had: one flipped bit
/// turned `mach = 0.675` into `mach = 0.775`, the line still parsed, and
/// a restarted service solved the wrong problem under the original key.
#[test]
fn a_flipped_config_digit_drops_the_submission_instead_of_changing_it() {
    let dir = scratch("machdigit");
    let rc = RunConfig::default();
    let (mut journal, _) = Journal::open(&dir).expect("open journal");
    journal
        .append(&JournalRecord::Submitted {
            job: 1,
            key: CacheKey::of(&rc, JobMode::Solve, 7),
            mode: JobMode::Solve,
            force: false,
            config: rc.canonical_toml(),
        })
        .expect("append");
    drop(journal);
    let path = dir.join("journal.log");
    let mut bytes = fs::read(&path).expect("journal bytes");
    let needle = b"mach = 0.675";
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("the config is readable in the file");
    let digit = at + "mach = 0.".len();
    assert_eq!(bytes[digit], b'6');
    bytes[digit] = b'7';
    fs::write(&path, &bytes).expect("plant damage");

    let (_, replay) = Journal::open(&dir).expect("reopen");
    assert_eq!(replay.tail.dropped_frames, 1);
    assert!(replay.records.is_empty() && replay.pending_jobs().is_empty());

    fs::write(&path, &bytes).expect("plant damage again");
    let engine = JobEngine::start(EngineConfig {
        workers: 1,
        seed: 7,
        state_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .expect("engine starts on the damaged directory");
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.queued, stats.running), (0, 0, 0));
    engine.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The one damage `Journal::open` does not repair — a flipped header
/// byte is a typed error there — must not keep the service down: the
/// engine sets the file aside, untouched, and starts on an empty journal.
#[test]
fn a_damaged_journal_header_is_set_aside_and_the_engine_starts_empty() {
    let dir = scratch("jheader");
    JournalLog::open(&dir, &[], &[submitted(MACH_CONFIG)]).expect("write");
    let path = JournalLog::path(&dir);
    let mut damaged = fs::read(&path).expect("journal bytes");
    damaged[3] ^= 0x20;
    fs::write(&path, &damaged).expect("plant damage");
    let err = Journal::open(&dir).expect_err("not a journal any more");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    let engine = JobEngine::start(EngineConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .expect("engine starts despite the damaged header");
    assert_eq!(engine.stats().submitted, 0);
    engine.shutdown();
    assert_eq!(
        fs::read(dir.join("journal.bad")).expect("set aside"),
        damaged
    );
    assert_eq!(
        JournalLog::open(&dir, &[], &[]),
        Ok((0, TailReport::default()))
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Pins checkpoint-log format v1: logs written before the shared frame
/// module existed must keep opening, byte for byte.
#[test]
fn checkpoint_log_bytes_are_pinned() {
    let dir = scratch("golden");
    let path = dir.join("job.cklog");
    let (mut log, _) = CheckpointLog::open(&path).expect("open");
    for (cycles_done, w) in [(2, vec![1.0, -2.5]), (4, vec![])] {
        let history = vec![0.5; cycles_done as usize / 2];
        log.append(&JobCheckpoint {
            cycles_done,
            history,
            w,
        })
        .expect("append");
    }
    let hex: String = fs::read(&path)
        .expect("log bytes")
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, GOLDEN_CKLOG);
    let _ = fs::remove_dir_all(&dir);
}

/// `EUL3DLOG` v1 | len crc | cycles_done, nhist, hist×, nw, w× — twice.
const GOLDEN_CKLOG: &str = concat!(
    "45554c33444c4f4701000000",
    "3000000073a9f0f2",
    "02000000000000000100000000000000000000000000e03f",
    "0200000000000000000000000000f03f00000000000004c0",
    "280000008ac71271",
    "04000000000000000200000000000000000000000000e03f000000000000e03f",
    "0000000000000000",
);
