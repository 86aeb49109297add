//! Crash-consistent auto-checkpointing: a bounded ring of kernel
//! generations over one shared finished-record log, plus an admission
//! journal, kept in memory for supervisor restarts and optionally mirrored
//! to disk so a whole fleet process can be rebuilt after death.
//!
//! ## Recovery model
//!
//! A generation is the kernel's live frame
//! ([`Simulator::live_frame_into`]: the unfinished jobs, the queues,
//! allocations, finish heap, policy and failure state) plus the length
//! the worker's finished-record log had when it was taken. Every
//! generation shares that one log: taking a generation appends a single
//! log frame holding the records finished since the previous one
//! ([`Simulator::log_frame_into`]). A finished record never changes, so
//! the frames an older generation references stay valid under every
//! newer one, and a generation costs the unfinished work plus what
//! finished since the last one — not every job ever admitted.
//!
//! Restart = restore the newest generation whose live frame decodes and
//! whose log prefix ends on a whole frame ([`SimSnapshot::from_parts`]) +
//! replay the admission journal segments recorded after it. Every frame
//! is sealed with an XXH64 checksum at write time, so a bit-flipped or
//! truncated generation is *detected* (not silently restored) and
//! recovery falls back to the previous one; settling on a generation cuts
//! the log back to its prefix. Journal segments record admitted jobs
//! **post-clamp** in admission order, which is exactly the information the
//! deterministic kernel needs to re-produce the interrupted run bit for
//! bit (batched admission == one-shot is pinned by the kernel equivalence
//! suite).
//!
//! Every resume reads a ring the same way: the supervisor's restart its
//! worker's own, [`Fleet::recover`](crate::Fleet::recover) one loaded from
//! disk, [`Fleet::restore`](crate::Fleet::restore) a one-generation ring.
//! A [`Fleet::snapshot`](crate::Fleet::snapshot) ships each worker's slot
//! frame of one more generation, followed by its log.
//!
//! The live frame is encoded straight from the kernel's arrays into the
//! buffer of the generation the ring last evicted, and the log grows in
//! place; each costs one checksum pass at memory speed.
//!
//! ## Disk layout
//!
//! With [`CheckpointConfig::dir`] set, the log is one append-only file,
//! `<cluster>.log`, of `HSIMDONE` frames; each append is synced before the
//! slot that references it is written, and a torn tail (an interrupted
//! append) is dropped at load. Generation `i` lands in slot
//! `i % generations`: `<cluster>-slot<k>.ckpt` (one `HELCKPT1` frame
//! holding the cluster, the generation index, its clock, the log length
//! at capture and the live frame; written to a `.tmp` and atomically
//! renamed) and `<cluster>-slot<k>.journal` (append-only `HELJRNL2`
//! frames, one per admitted batch, each tagged with the generation index
//! it extends — a torn tail record is dropped at load, never replayed).
//! Slots and journal records are frames at on-disk format version 4
//! ([`CHECKPOINT_VERSION`]); a directory of an older version is refused by
//! its version rather than read. Monotonically increasing generation
//! indices make slot reuse unambiguous: the loader reads every slot file
//! of the cluster, whatever ring depth the recovering config has, and
//! orders them by the index each one carries, so a recovery with fewer
//! generations than the dead fleet still finds its newest one and
//! continues past every index on disk. A fresh
//! [`Fleet::launch`](crate::Fleet::launch)
//! refuses a directory that already holds a ring file of a hosted
//! cluster, so it can never mix its generations with an earlier fleet's.
//!
//! In-process drains are exactly-once across restarts (per-generation
//! delivered-outcome counters suppress re-delivery); disk recovery via
//! [`Fleet::recover`](crate::Fleet::recover) is at-least-once, because
//! delivered counters die with the process.

use helios_sim::{
    whole_log_prefix, ByteReader, ByteWriter, SimJob, SimSnapshot, Simulator, JOB_WIRE_BYTES,
};
use helios_trace::{ClusterId, HeliosError, HeliosResult};
use std::collections::VecDeque;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame magic of an on-disk checkpoint slot file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"HELCKPT1";
/// Frame magic of an admission-journal record.
pub const JOURNAL_MAGIC: [u8; 8] = *b"HELJRNL2";
/// Frame version of slot files and journal records (4: a slot holds a
/// live frame and the length of the shared log; versions 1 to 3 are
/// refused by number).
pub const CHECKPOINT_VERSION: u32 = 4;

/// Auto-checkpointing knobs of a [`Fleet`](crate::Fleet) worker.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Take a checkpoint every N admission cycles ([`Fleet::advance`]
    /// calls). `0` disables periodic checkpoints: only the launch
    /// generation (and post-recovery re-baselines) are retained.
    ///
    /// [`Fleet::advance`]: crate::Fleet::advance
    pub every_cycles: u64,
    /// Bound of the generation ring (`>= 1`). Older generations are
    /// evicted; a corrupt newest generation falls back to the previous
    /// retained one.
    pub generations: usize,
    /// Mirror generations, the finished-record log and journal frames to
    /// this directory, enabling [`Fleet::recover`](crate::Fleet::recover)
    /// after process death. `None` keeps the ring in memory only
    /// (supervisor restarts still work).
    pub dir: Option<PathBuf>,
}

impl Default for CheckpointConfig {
    /// Checkpoint every 8 admission cycles, keep 3 generations, memory
    /// only.
    fn default() -> Self {
        CheckpointConfig {
            every_cycles: 8,
            generations: 3,
            dir: None,
        }
    }
}

impl CheckpointConfig {
    /// Override the checkpoint cadence (admission cycles per checkpoint).
    pub fn every_cycles(mut self, cycles: u64) -> Self {
        self.every_cycles = cycles;
        self
    }

    /// Override the generation-ring bound.
    pub fn generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    /// Mirror generations to `dir` (created on first write).
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Reject non-sensical rings.
    pub fn validate(&self) -> HeliosResult<()> {
        if self.generations == 0 {
            return Err(HeliosError::invalid_config(
                "checkpoint.generations",
                "the checkpoint ring needs at least one generation",
            ));
        }
        Ok(())
    }
}

/// One retained checkpoint generation.
#[derive(Debug, Clone)]
pub(crate) struct Generation {
    /// Monotonically increasing generation index (never reused, even
    /// after a fallback).
    pub index: u64,
    /// Virtual clock at snapshot time (`i64::MIN` before any activity).
    pub clock: i64,
    /// The kernel's live frame ([`Simulator::live_frame_into`]); its
    /// checksum makes recovery refuse a damaged copy instead of restoring
    /// it.
    pub bytes: Vec<u8>,
    /// Bytes of the shared finished-record log at capture: the log frames
    /// this generation restores over.
    pub log_len: usize,
    /// Jobs admitted (post-clamp, admission order) after this snapshot
    /// and before the next one.
    pub journal: Vec<SimJob>,
    /// Outcomes delivered to clients while this generation was newest —
    /// a replay from this generation re-produces exactly these, so
    /// recovery suppresses their re-delivery.
    pub drained: u64,
}

/// The finished-record log every generation of one worker shares.
#[derive(Debug, Default)]
pub(crate) struct FinishedLog {
    /// Whole `HSIMDONE` frames, oldest first.
    pub bytes: Vec<u8>,
    /// Records those frames hold: the kernel's finish-order position the
    /// next frame starts from.
    pub records: usize,
}

/// Everything a supervisor needs to rebuild a worker after a crash.
#[derive(Debug)]
pub(crate) struct Recovery {
    /// The newest generation that decoded cleanly, over its log prefix.
    pub snapshot: SimSnapshot,
    /// Journal segments recorded after that generation, concatenated in
    /// admission order.
    pub replay: Vec<SimJob>,
    /// Leading re-produced outcomes to drop before the next delivery.
    pub suppress: u64,
    /// Index of the generation restored from.
    pub generation: u64,
    /// Bytes of the log that generation restores over.
    pub log_len: usize,
    /// Generations skipped because they were corrupt or truncated.
    pub fallbacks: u32,
}

impl Recovery {
    /// The log a worker resuming from this recovery continues: `log` cut
    /// back to the recovered generation's prefix.
    pub fn log_prefix(&self, mut log: Vec<u8>) -> FinishedLog {
        log.truncate(self.log_len);
        FinishedLog {
            bytes: log,
            records: self.snapshot.finished.len(),
        }
    }
}

/// Walk `ring` newest-to-oldest, returning the first generation whose
/// live frame decodes over its prefix of `log` (checksums included), plus
/// the journal/suppress suffix; when none does, the error says why the
/// newest one with its whole log prefix at hand was refused.
pub(crate) fn recover_from(
    ring: &VecDeque<Generation>,
    log: &[u8],
    cluster: &str,
) -> HeliosResult<Recovery> {
    let mut newest_refusal = None;
    for (i, g) in ring.iter().enumerate().rev() {
        let Some(prefix) = log.get(..g.log_len) else {
            continue;
        };
        let snapshot = match SimSnapshot::from_parts(&g.bytes, prefix) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                newest_refusal.get_or_insert(e);
                continue;
            }
        };
        let mut replay = Vec::new();
        let mut suppress = 0;
        for gg in ring.iter().skip(i) {
            replay.extend_from_slice(&gg.journal);
            suppress += gg.drained;
        }
        return Ok(Recovery {
            snapshot,
            replay,
            suppress,
            generation: g.index,
            log_len: g.log_len,
            fallbacks: (ring.len() - 1 - i) as u32,
        });
    }
    let why = newest_refusal.map_or(String::new(), |e| format!(" (newest refusal: {e})"));
    Err(HeliosError::snapshot(
        "recovering fleet worker",
        format!("{cluster}: no retained checkpoint generation decodes cleanly{why}"),
    ))
}

/// The per-worker checkpoint ring, shared log and admission journal.
/// Lives on the worker thread; the supervisor consults it on every
/// restart.
pub(crate) struct CheckpointManager {
    cluster: ClusterId,
    cfg: CheckpointConfig,
    ring: VecDeque<Generation>,
    log: FinishedLog,
    next_index: u64,
    /// The buffer of the generation the ring last evicted; the next
    /// generation is encoded into it.
    spare: Vec<u8>,
    /// Checkpoint generations written and total write nanoseconds (live
    /// frame, log frame, checksums and disk mirror), for the resilience
    /// bench records.
    writes: u64,
    write_nanos: u64,
}

impl CheckpointManager {
    /// Seed the ring with one launch generation over `log` (empty at a
    /// fresh launch; after a restore or a disk recovery, the recovered
    /// generation's log prefix, with `resume_index` continuing the index
    /// sequence past the ring it came from), mirroring it to disk when
    /// configured.
    pub fn new(
        cluster: ClusterId,
        cfg: CheckpointConfig,
        resume_index: u64,
        log: FinishedLog,
        sim: &Simulator<'_>,
    ) -> HeliosResult<Self> {
        cfg.validate()?;
        let mut m = CheckpointManager {
            cluster,
            cfg,
            ring: VecDeque::new(),
            log,
            next_index: resume_index,
            spare: Vec::new(),
            writes: 0,
            write_nanos: 0,
        };
        m.checkpoint(sim)?;
        Ok(m)
    }

    /// True when the periodic cadence says cycle `cycle` should end with
    /// a checkpoint.
    pub fn due(&self, cycle: u64) -> bool {
        // `is_multiple_of(0)` is false for every real cycle (they start
        // at 1), which is exactly the "0 disables the cadence" contract.
        cycle.is_multiple_of(self.cfg.every_cycles)
    }

    /// Take a new newest generation of `sim`: encode its live frame, append
    /// one log frame of the records finished since the previous generation,
    /// mirror both to disk when configured, and evict past the ring bound.
    /// Returns the generation index.
    pub fn checkpoint(&mut self, sim: &Simulator<'_>) -> HeliosResult<u64> {
        // guard: allow(determinism, reason = "checkpoint write-time telemetry for FleetHealth; never feeds kernel state")
        let t0 = std::time::Instant::now();
        let mut bytes = std::mem::take(&mut self.spare);
        sim.live_frame_into(&mut bytes);
        let log_start = self.log.bytes.len();
        let records = sim.log_frame_into(self.log.records, &mut self.log.bytes);
        let clock = sim.now();
        let index = self.next_index;
        self.next_index += 1;
        if let Some(dir) = self.cfg.dir.clone() {
            if let Err(e) = self.mirror(&dir, index, clock, log_start, &bytes) {
                // No generation references the appended frame yet: drop
                // it, so memory and disk keep the same log.
                self.log.bytes.truncate(log_start);
                self.spare = bytes;
                return Err(e);
            }
        }
        self.log.records = records;
        self.ring.push_back(Generation {
            index,
            clock,
            bytes,
            log_len: self.log.bytes.len(),
            journal: Vec::new(),
            drained: 0,
        });
        // Evict only now that the new generation is in the ring: a failed
        // encode or disk write above leaves every retained one intact.
        while self.ring.len() > self.cfg.generations {
            if let Some(evicted) = self.ring.pop_front() {
                self.spare = evicted.bytes;
            }
        }
        self.writes += 1;
        self.write_nanos += t0.elapsed().as_nanos() as u64;
        Ok(index)
    }

    /// Journal one admitted batch (post-clamp, admission order) against
    /// the newest generation, appending one record frame to its slot
    /// journal when disk mirroring is on.
    pub fn note_admitted(&mut self, jobs: &[SimJob]) -> HeliosResult<()> {
        if jobs.is_empty() {
            return Ok(());
        }
        let Some(newest) = self.ring.back_mut() else {
            // Structurally unreachable (the ring is seeded at construction
            // and eviction always leaves the newest generation), but a
            // typed error beats a panic on the supervised worker path.
            return Err(HeliosError::snapshot(
                "journaling admitted jobs",
                "checkpoint ring is empty",
            ));
        };
        let index = newest.index;
        newest.journal.extend_from_slice(jobs);
        if let Some(dir) = self.cfg.dir.clone() {
            self.append_journal(&dir, index, jobs)?;
        }
        Ok(())
    }

    /// Record `delivered` outcomes handed to a client (attributed to the
    /// newest generation, whose replay would re-produce them).
    pub fn note_drained(&mut self, delivered: u64) {
        if let Some(newest) = self.ring.back_mut() {
            newest.drained += delivered;
        }
    }

    /// Recover from the newest clean generation (see [`recover_from`]).
    pub fn recover(&self) -> HeliosResult<Recovery> {
        recover_from(&self.ring, &self.log.bytes, self.cluster.name())
    }

    /// Settle on the generation `rec` restored: drop every newer one (they
    /// failed recovery), folding their journal segments into it so a later
    /// fallback to it still replays every admitted job, and cut the log
    /// back to its prefix so the next generation appends what finished
    /// after it. The survivor's delivered counter is zeroed: the caller
    /// re-baselines with a fresh checkpoint and re-attributes the
    /// suppressed outcomes to it.
    pub fn collapse_to(&mut self, rec: &Recovery) {
        // The target came out of `recover()` on this very ring; an
        // unknown index (unreachable in practice) is ignored rather than
        // panicking on the supervised recovery path.
        let Some(pos) = self.ring.iter().position(|g| g.index == rec.generation) else {
            return;
        };
        let dropped: Vec<Generation> = self.ring.drain(pos + 1..).collect();
        let Some(survivor) = self.ring.back_mut() else {
            return;
        };
        for d in dropped {
            survivor.journal.extend(d.journal);
        }
        survivor.drained = 0;
        self.log = rec.log_prefix(std::mem::take(&mut self.log.bytes));
    }

    /// The newest generation as a [`Fleet::snapshot`](crate::Fleet::snapshot)
    /// bundles it: its slot frame and the log prefix it restores over.
    pub fn newest_slot(&self) -> HeliosResult<(Vec<u8>, Vec<u8>)> {
        let g = self.ring.back().ok_or_else(|| {
            HeliosError::snapshot("bundling the newest generation", "checkpoint ring is empty")
        })?;
        let slot = encode_slot(self.cluster, g.index, g.clock, g.log_len as u64, &g.bytes);
        let log = self.log.bytes.get(..g.log_len).unwrap_or_default();
        Ok((slot, log.to_vec()))
    }

    /// Index of the newest generation.
    pub fn newest_index(&self) -> u64 {
        self.ring.back().map_or(0, |g| g.index)
    }

    /// Virtual clock of the newest generation.
    pub fn newest_clock(&self) -> i64 {
        self.ring.back().map_or(i64::MIN, |g| g.clock)
    }

    /// Jobs journaled since the newest checkpoint.
    pub fn journal_len(&self) -> usize {
        self.ring.back().map_or(0, |g| g.journal.len())
    }

    /// Checkpoint write statistics: `(generations written, total nanos)`.
    pub fn write_stats(&self) -> (u64, u64) {
        (self.writes, self.write_nanos)
    }

    /// Chaos hook: corrupt the newest generation's in-memory live frame
    /// (its checksum no longer matches, so recovery *detects* the damage
    /// and falls back). Even seeds flip one bit; odd seeds truncate.
    pub fn corrupt_newest(&mut self, seed: u64) {
        let Some(g) = self.ring.back_mut() else {
            return;
        };
        if g.bytes.is_empty() {
            return;
        }
        if seed.is_multiple_of(2) {
            let bit = (seed >> 1) as usize % (g.bytes.len() * 8);
            // guard: allow(panic, reason = "bit < len*8 by the modulo above, so bit/8 < len; bytes checked non-empty")
            g.bytes[bit / 8] ^= 1 << (bit % 8);
        } else {
            let keep = (seed >> 1) as usize % g.bytes.len();
            g.bytes.truncate(keep);
        }
    }

    /// Put generation `index` on disk: first the log frame it appended at
    /// `log_start` (synced), then its slot, then a fresh slot journal.
    fn mirror(
        &self,
        dir: &Path,
        index: u64,
        clock: i64,
        log_start: usize,
        live: &[u8],
    ) -> HeliosResult<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| HeliosError::io(format!("creating {}", dir.display()), &e))?;
        let appended = self.log.bytes.get(log_start..).unwrap_or_default();
        write_synced_at(&log_path(dir, self.cluster), log_start as u64, appended)?;
        let slot = index % self.cfg.generations as u64;
        let log_len = self.log.bytes.len() as u64;
        let frame = encode_slot(self.cluster, index, clock, log_len, live);
        write_atomic(&ckpt_path(dir, self.cluster, slot), &frame)?;
        // A fresh generation starts with an empty journal: reset the
        // slot's journal file so stale records from the evicted
        // generation cannot be mistaken for this one's (records are also
        // index-tagged as a second guard).
        write_atomic(&journal_path(dir, self.cluster, slot), &[])?;
        Ok(())
    }

    fn append_journal(&self, dir: &Path, index: u64, jobs: &[SimJob]) -> HeliosResult<()> {
        let slot = index % self.cfg.generations as u64;
        let path = journal_path(dir, self.cluster, slot);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| HeliosError::io(format!("opening {}", path.display()), &e))?;
        f.write_all(&encode_record(index, jobs))
            .map_err(|e| HeliosError::io(format!("appending {}", path.display()), &e))?;
        Ok(())
    }
}

fn ckpt_path(dir: &Path, cluster: ClusterId, slot: u64) -> PathBuf {
    dir.join(format!("{}-slot{slot}.ckpt", cluster.name()))
}

fn journal_path(dir: &Path, cluster: ClusterId, slot: u64) -> PathBuf {
    dir.join(format!("{}-slot{slot}.journal", cluster.name()))
}

fn log_path(dir: &Path, cluster: ClusterId) -> PathBuf {
    dir.join(format!("{}.log", cluster.name()))
}

/// One checkpoint ring file of a cluster, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RingFile {
    /// `<cluster>-slot<N>.ckpt`.
    Slot(u64),
    /// `<cluster>-slot<N>.journal`.
    Journal(u64),
    /// `<cluster>.log`.
    Log,
}

/// Every ring file of `cluster` in `dir`, whatever slot number it has,
/// sorted by kind and slot. A missing directory holds none.
fn ring_files(dir: &Path, cluster: ClusterId) -> HeliosResult<Vec<(RingFile, PathBuf)>> {
    let listing = |e: std::io::Error| HeliosError::io(format!("listing {}", dir.display()), &e);
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(listing(e)),
    };
    let name = cluster.name();
    let slot_prefix = format!("{name}-slot");
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(listing)?;
        let file = entry.file_name();
        let file = file.to_string_lossy();
        let slot = |suffix: &str| {
            file.strip_prefix(slot_prefix.as_str())?
                .strip_suffix(suffix)?
                .parse::<u64>()
                .ok()
        };
        let kind = if file.strip_suffix(".log") == Some(name) {
            RingFile::Log
        } else if let Some(n) = slot(".ckpt") {
            RingFile::Slot(n)
        } else if let Some(n) = slot(".journal") {
            RingFile::Journal(n)
        } else {
            continue;
        };
        files.push((kind, entry.path()));
    }
    files.sort();
    Ok(files)
}

/// Refuse to start a fresh ring in `dir` when it already holds a ring
/// file of `cluster` (a slot, a slot journal or the log): the loader
/// would take the earlier fleet's newest generation for this one's. The
/// typed error names the file and points at `Fleet::recover`.
pub(crate) fn refuse_earlier_ring(dir: &Path, cluster: ClusterId) -> HeliosResult<()> {
    match ring_files(dir, cluster)?.first() {
        None => Ok(()),
        Some((_, path)) => Err(HeliosError::invalid_config(
            "checkpoint.dir",
            format!(
                "{} is a checkpoint ring file of an earlier {} fleet; resume that fleet \
                 with Fleet::recover, or launch into a directory without one",
                path.display(),
                cluster.name()
            ),
        )),
    }
}

/// Write `bytes` at offset `at` of `path` (created when missing), cutting
/// off whatever followed `at` — a torn append, or frames of generations a
/// recovery discarded — and sync it, so a slot written afterwards never
/// references bytes that are not on disk.
fn write_synced_at(path: &Path, at: u64, bytes: &[u8]) -> HeliosResult<()> {
    let io =
        |what: &str, e: std::io::Error| HeliosError::io(format!("{what} {}", path.display()), &e);
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io("opening", e))?;
    f.set_len(at).map_err(|e| io("truncating", e))?;
    f.seek(SeekFrom::Start(at)).map_err(|e| io("seeking", e))?;
    f.write_all(bytes).map_err(|e| io("appending", e))?;
    f.sync_data().map_err(|e| io("flushing", e))?;
    Ok(())
}

/// Write `bytes` to `path` crash-consistently: a sibling `.tmp` file is
/// written, flushed, and atomically renamed over the destination — a
/// reader never observes a half-written file.
fn write_atomic(path: &Path, bytes: &[u8]) -> HeliosResult<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| HeliosError::io(format!("creating {}", tmp.display()), &e))?;
        f.write_all(bytes)
            .map_err(|e| HeliosError::io(format!("writing {}", tmp.display()), &e))?;
        f.sync_all()
            .map_err(|e| HeliosError::io(format!("flushing {}", tmp.display()), &e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        HeliosError::io(
            format!("renaming {} over {}", tmp.display(), path.display()),
            &e,
        )
    })?;
    Ok(())
}

/// Read `path`, treating a missing file as `None`; any other failure is
/// a typed I/O error naming the path.
fn read_if_present(path: &Path) -> HeliosResult<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(HeliosError::io(format!("reading {}", path.display()), &e)),
    }
}

/// One slot file: a `HELCKPT1` frame holding the cluster, the generation
/// index, its clock, the log length at capture and the live frame.
fn encode_slot(cluster: ClusterId, index: u64, clock: i64, log_len: u64, live: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    // The header, the prefixed live frame and the closing checksum.
    w.reserve(72 + live.len());
    w.frame(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |w| {
        w.u8(crate::config::cluster_code(cluster));
        w.u64(index);
        w.i64(clock);
        w.u64(log_len);
        w.bytes(live);
    });
    w.into_bytes()
}

/// Decode one slot frame into its generation (with an empty journal). A
/// frame of another version is refused by number; a damaged frame or
/// another cluster's slot is a typed [`HeliosError::Snapshot`] error.
pub(crate) fn decode_slot(bytes: &[u8], cluster: ClusterId) -> HeliosResult<Generation> {
    let mut input = ByteReader::new(bytes, "decoding checkpoint slot");
    let mut r = input.frame(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    input.finish()?;
    let code = r.u8()?;
    if code != crate::config::cluster_code(cluster) {
        return Err(r.err(format!(
            "generation belongs to cluster code {code}, not {}",
            cluster.name()
        )));
    }
    let index = r.u64()?;
    let clock = r.i64()?;
    let log_len = r.u64()? as usize;
    let bytes = r.bytes()?;
    r.finish()?;
    Ok(Generation {
        index,
        clock,
        bytes,
        log_len,
        journal: Vec::new(),
        drained: 0,
    })
}

/// One journal record: a `HELJRNL2` frame holding the generation index
/// it extends and the admitted jobs.
fn encode_record(index: u64, jobs: &[SimJob]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.frame(&JOURNAL_MAGIC, CHECKPOINT_VERSION, |w| {
        w.u64(index);
        w.u64(jobs.len() as u64);
        for job in jobs {
            w.job(job);
        }
    });
    w.into_bytes()
}

/// The journal record at `journal`'s position: `(generation index, jobs)`.
fn decode_record(journal: &mut ByteReader<'_>) -> HeliosResult<(u64, Vec<SimJob>)> {
    let mut r = journal.frame(&JOURNAL_MAGIC, CHECKPOINT_VERSION)?;
    let index = r.u64()?;
    let n = r.len(JOB_WIRE_BYTES)?;
    let jobs = (0..n).map(|_| r.job()).collect::<HeliosResult<Vec<_>>>()?;
    r.finish()?;
    Ok((index, jobs))
}

/// Parse an append-only journal into its records. Parsing stops at the
/// first record that does not decode (the crash-consistency contract: an
/// interrupted append loses at most its own record, never an earlier
/// one).
fn decode_journal(bytes: &[u8]) -> Vec<(u64, Vec<SimJob>)> {
    let mut journal = ByteReader::new(bytes, "decoding journal record");
    let mut records = Vec::new();
    while let Ok(record) = decode_record(&mut journal) {
        records.push(record);
    }
    records
}

/// Load a cluster's retained generations from disk, oldest to newest,
/// attaching each generation's journal segments (records tagged with a
/// generation index that no retained slot explains extend the youngest
/// older generation, preserving admission order), and the whole-frame
/// prefix of its log (a torn tail is dropped). Returns the ring, the log,
/// the next free generation index, past every slot index and journal
/// record tag on disk (a reused index would attach a record of a slot that
/// no longer decodes to the new generation, which already holds its jobs),
/// and the number of slot files skipped because they did not decode.
///
/// Every slot and journal file of the cluster is read, whatever its slot
/// number: a dead fleet with a deeper ring than the recovering config
/// left its newest generations in slots the recovering ring never
/// writes. Slots that do not decode are skipped; when none decodes, the
/// error carries the reason the first was skipped (an older-version
/// directory is refused by its version, not as "missing"). A slot,
/// journal or log file that exists but cannot be read is a typed I/O
/// error, never an empty one.
pub(crate) fn load_ring(
    dir: &Path,
    cluster: ClusterId,
) -> HeliosResult<(VecDeque<Generation>, Vec<u8>, u64, u32)> {
    let mut gens: Vec<Generation> = Vec::new();
    let mut records: Vec<(u64, Vec<SimJob>)> = Vec::new();
    let mut first_skip: Option<(PathBuf, HeliosError)> = None;
    let mut skipped = 0;
    let mut log = Vec::new();
    for (kind, path) in ring_files(dir, cluster)? {
        // A file deleted since the listing counts as absent.
        let Some(bytes) = read_if_present(&path)? else {
            continue;
        };
        match kind {
            // A corrupt slot could only occupy the ring if we could say
            // where it belongs — without a trusted decoded index we must
            // drop it, so decode failures are skipped here.
            RingFile::Slot(_) => match decode_slot(&bytes, cluster) {
                Ok(generation) => gens.push(generation),
                Err(e) => {
                    skipped += 1;
                    first_skip.get_or_insert((path, e));
                }
            },
            RingFile::Journal(_) => records.extend(decode_journal(&bytes)),
            RingFile::Log => log = bytes,
        }
    }
    if gens.is_empty() {
        let found = format!(
            "{}: no checkpoint generation found under {}",
            cluster.name(),
            dir.display()
        );
        return Err(HeliosError::snapshot(
            "recovering fleet from disk",
            match first_skip {
                Some((path, e)) => format!("{found}; {} was skipped: {e}", path.display()),
                None => found,
            },
        ));
    }
    log.truncate(whole_log_prefix(&log));
    gens.sort_by_key(|g| g.index);
    // Journal records replay in generation-index order; each segment is
    // attached to the newest retained generation whose index is <= the
    // record's tag (records tagged past the newest retained generation
    // belong to an evicted-then-corrupted slot's successor and still
    // extend the newest survivor).
    let tags = records.iter().map(|(index, _)| *index);
    let next_index = gens
        .iter()
        .map(|g| g.index)
        .chain(tags)
        .max()
        .map_or(0, |i| i + 1);
    records.sort_by_key(|(index, _)| *index);
    for (index, jobs) in records {
        let slot = match gens.iter_mut().rev().find(|g| g.index <= index) {
            Some(g) => g,
            // Records older than every retained generation were already
            // absorbed into those snapshots; skip them.
            None => continue,
        };
        slot.journal.extend(jobs);
    }
    Ok((gens.into(), log, next_index, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_sim::{jobs_from_trace, simulate_with, xxh64, FaultConfig, KernelConfig, Policy};
    use helios_trace::{generate, preset, profile_for, ClusterSpec, GeneratorConfig};

    fn job(id: u64) -> SimJob {
        SimJob {
            id,
            vc: 0,
            gpus: 1,
            submit: id as i64,
            duration: 60,
            priority: 0.0,
        }
    }

    fn kernel(cluster: ClusterId) -> Simulator<'static> {
        Simulator::new(&preset(cluster), Policy::Fifo.build())
    }

    /// A Venus kernel halfway through `n` one-GPU jobs: finished, running
    /// and pending work.
    fn loaded_venus(n: u64, faults: bool) -> Simulator<'static> {
        let mut sim = kernel(ClusterId::Venus);
        if faults {
            sim.enable_faults(&FaultConfig::with_mtbf_hours(24.0))
                .expect("valid fault config");
        }
        let jobs: Vec<SimJob> = (0..n).map(job).collect();
        sim.push_jobs(&jobs).expect("valid jobs");
        sim.run_until(n as i64 / 2);
        sim
    }

    fn manager(
        cluster: ClusterId,
        cfg: CheckpointConfig,
        sim: &Simulator<'_>,
    ) -> CheckpointManager {
        CheckpointManager::new(cluster, cfg, 0, FinishedLog::default(), sim).expect("seeded")
    }

    fn newest_bytes(m: &CheckpointManager) -> &[u8] {
        m.ring.back().map_or(&[], |g| &g.bytes)
    }

    fn live_frame(sim: &Simulator<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        sim.live_frame_into(&mut out);
        out
    }

    /// Venus's September stream at scale 0.05, in submission order.
    fn september() -> (ClusterSpec, Vec<SimJob>, i64, i64) {
        let cfg = GeneratorConfig {
            scale: 0.05,
            seed: 2020,
        };
        let trace = generate(&profile_for(ClusterId::Venus), &cfg).expect("trace");
        let (lo, hi) = trace.calendar.month_range(5);
        let mut jobs = jobs_from_trace(&trace, lo, hi);
        jobs.sort_by_key(|j| (j.submit, j.id));
        (trace.spec, jobs, lo, hi)
    }

    #[test]
    fn generations_encode_into_recycled_buffers_byte_identically() {
        let cfg = CheckpointConfig::default().generations(1);
        for faults in [false, true] {
            // Pending work makes the first frames long; once it has run,
            // the frames shrink into the buffers the long ones left.
            let mut sim = loaded_venus(256, faults);
            let mut m = manager(ClusterId::Venus, cfg.clone(), &sim);
            m.checkpoint(&sim).expect("gen 1");
            sim.run_to_completion();
            let spare = m.spare.len();
            m.checkpoint(&sim).expect("recycled generation");
            let want = live_frame(&sim);
            assert!(
                spare > want.len(),
                "the recycled buffer held a longer frame"
            );
            assert_eq!(newest_bytes(&m), want);
            let recovered = m.recover().expect("clean generation");
            assert_eq!(recovered.snapshot.fault.is_some(), faults);
            assert_eq!(recovered.snapshot, sim.snapshot());
            // New work grows the frame past the spare again.
            let more: Vec<SimJob> = (1_000..1_600).map(job).collect();
            sim.push_jobs(&more).expect("valid jobs");
            m.checkpoint(&sim).expect("grows past the spare");
            assert_eq!(newest_bytes(&m), live_frame(&sim));
            let recovered = m.recover().expect("clean generation");
            assert_eq!(recovered.snapshot, sim.snapshot());
        }
    }

    #[test]
    fn live_frames_track_unfinished_work_and_the_log_only_appends() {
        // The fleet's cadence over Venus's September: a generation every 8
        // admission cycles of 600 s.
        let (spec, jobs, lo, hi) = september();
        let mut sim = Simulator::new(&spec, Policy::Fifo.build());
        let mut m = manager(ClusterId::Venus, CheckpointConfig::default(), &sim);
        let (mut next, mut now, mut cycle) = (0, lo, 0);
        let (mut finished_before, mut log_before, mut generations) = (0, m.log.bytes.len(), 0);
        while now < hi {
            let until = now + 600;
            let due = jobs.get(next..).unwrap_or_default();
            let due = &due[..due.partition_point(|j| j.submit < until)];
            next += due.len();
            m.note_admitted(due).expect("journaled");
            sim.push_jobs(due).expect("valid jobs");
            sim.run_until(until);
            now = until;
            cycle += 1;
            if !m.due(cycle) {
                continue;
            }
            m.checkpoint(&sim).expect("generation");
            generations += 1;
            // The live frame is a constant plus per-entry terms for the
            // unfinished jobs, queue entries, allocation slices and finish
            // entries: nothing in it grows with the finished count.
            let snap = sim.snapshot();
            let queued: usize = snap.vcs.iter().map(|vc| vc.queue.len()).sum();
            let slices: usize = snap
                .vcs
                .iter()
                .flat_map(|vc| &vc.running_allocs)
                .map(|a| 8 + 8 * a.slices().len())
                .sum();
            let bound = 256
                + 16 * snap.vcs.len()
                + 92 * snap.live.len()
                + 24 * queued
                + slices
                + 20 * snap.finishes.len();
            let live = newest_bytes(&m).len();
            assert!(live <= bound, "generation {generations}: {live} > {bound}");
            // The log grew by one frame of exactly the records finished
            // since the previous generation.
            let finished = sim.total_jobs() - sim.unfinished_jobs();
            assert_eq!(
                m.log.bytes.len() - log_before,
                28 + 92 * (finished - finished_before),
                "generation {generations}"
            );
            assert_eq!(m.log.records, finished);
            (finished_before, log_before) = (finished, m.log.bytes.len());
        }
        assert!(generations > 500 && finished_before > 1_000);
        assert!(newest_bytes(&m).len() * 4 < m.log.bytes.len());
        // After the whole replay the log holds exactly the full snapshot's
        // finished records, in the same order: a record logged once never
        // changed afterwards.
        sim.run_to_completion();
        m.checkpoint(&sim).expect("final generation");
        let full = SimSnapshot::from_bytes(&sim.snapshot().to_bytes()).expect("full snapshot");
        let logged = SimSnapshot::from_parts(newest_bytes(&m), &m.log.bytes).expect("logged");
        assert_eq!(logged.finished.len(), jobs.len());
        assert_eq!(logged.finished, full.finished);
        assert_eq!(logged, full);
    }

    #[test]
    fn a_restored_worker_continues_the_snapshots_log() {
        let mut sim = loaded_venus(256, true);
        let mut m = manager(ClusterId::Venus, CheckpointConfig::default(), &sim);
        m.checkpoint(&sim).expect("gen 1");
        // A fleet snapshot entry: the newest slot frame and the whole log,
        // read back as a one-generation ring.
        let (slot, log) = m.newest_slot().expect("bundled");
        assert_eq!(log, m.log.bytes);
        let ring = VecDeque::from([decode_slot(&slot, ClusterId::Venus).expect("slot")]);
        let rec = recover_from(&ring, &log, "Venus").expect("clean generation");
        let snap = sim.snapshot();
        assert!(rec.snapshot == snap && snap.finished.len() > 50);
        let log = rec.log_prefix(log);
        let logged = log.bytes.len();
        let cfg = CheckpointConfig::default();
        let mut m = CheckpointManager::new(ClusterId::Venus, cfg, 2, log, &sim).expect("seeded");
        assert_eq!(m.newest_index(), 2);
        // Nothing finished since the snapshot: the launch generation
        // appends an empty frame to the bundled log.
        assert_eq!(m.log.bytes.len(), logged + 28);
        assert_eq!(m.recover().expect("clean generation").snapshot, snap);
        sim.run_to_completion();
        m.checkpoint(&sim).expect("gen 3");
        assert_eq!(m.log.records, sim.total_jobs());
        assert_eq!(
            m.recover().expect("clean generation").snapshot,
            sim.snapshot()
        );
    }

    #[test]
    fn ring_is_bounded_and_journals_fold_on_collapse() {
        let cfg = CheckpointConfig::default().generations(2).every_cycles(1);
        let sim = kernel(ClusterId::Venus);
        let mut m = manager(ClusterId::Venus, cfg, &sim);
        m.note_admitted(&[job(0), job(1)]).expect("in-memory");
        m.checkpoint(&sim).expect("gen 1");
        m.note_admitted(&[job(2)]).expect("in-memory");
        m.note_drained(3);
        assert_eq!(m.newest_index(), 1);
        assert_eq!(m.journal_len(), 1);
        // Corrupt newest: the ring holds {0, 1}, so recovery falls back to
        // generation 0.
        m.corrupt_newest(4); // even seed: bit flip
        let err_free = m.recover().expect("generation 0 still clean");
        assert_eq!(err_free.generation, 0);
        assert_eq!(err_free.fallbacks, 1);
        assert_eq!(err_free.suppress, 3);
        // Replay = journal(gen0) + journal(gen1), admission order.
        let ids: Vec<u64> = err_free.replay.iter().map(|j| j.id).collect();
        assert_eq!(ids, [0, 1, 2]);
        m.collapse_to(&err_free);
        assert_eq!(m.newest_index(), 0);
        assert_eq!(m.journal_len(), 3, "dropped journals folded in");
        // The log is cut back to generation 0's one frame.
        assert_eq!(m.log.bytes.len(), err_free.log_len);
        assert_eq!(whole_log_prefix(&m.log.bytes), m.log.bytes.len());
        // Fresh re-baseline keeps monotone indices.
        assert_eq!(m.checkpoint(&sim).expect("gen 2"), 2);
    }

    #[test]
    fn truncation_is_detected_like_bit_flips() {
        let cfg = CheckpointConfig::default();
        let sim = kernel(ClusterId::Earth);
        let mut m = CheckpointManager::new(ClusterId::Earth, cfg, 7, FinishedLog::default(), &sim)
            .expect("seeded");
        assert_eq!(m.newest_index(), 7);
        m.corrupt_newest(9); // odd seed: truncate
        let err = m.recover().expect_err("sole generation is corrupt");
        assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
        // The refusal names why the generation did not decode.
        assert!(err.to_string().contains("truncated payload"), "{err}");
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "helios-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_ring_round_trips_with_torn_journal_tail() {
        let dir = temp_dir("test");
        let cfg = CheckpointConfig::default().generations(2).dir(&dir);
        let sim = kernel(ClusterId::Saturn);
        let mut m = manager(ClusterId::Saturn, cfg.clone(), &sim);
        m.note_admitted(&[job(10), job(11)]).expect("journaled");
        m.checkpoint(&sim).expect("gen 1");
        m.note_admitted(&[job(12)]).expect("journaled");

        // Tear the newest journal's tail: append a copy of its record
        // that stops one byte short of the checksum's end.
        let jpath = journal_path(&dir, ClusterId::Saturn, 1);
        let mut torn = std::fs::read(&jpath).expect("journal exists");
        let clean_len = torn.len();
        torn.extend_from_within(..clean_len - 1);
        std::fs::write(&jpath, &torn).expect("tear applied");

        let (ring, log, next, skipped) = load_ring(&dir, ClusterId::Saturn).expect("ring loads");
        assert_eq!((next, skipped), (2, 0));
        assert_eq!(ring.len(), 2);
        assert_eq!(log, m.log.bytes, "the disk log is the in-memory one");
        assert_eq!(
            ring[0].journal.iter().map(|j| j.id).collect::<Vec<_>>(),
            [10, 11]
        );
        assert_eq!(
            ring[1].journal.iter().map(|j| j.id).collect::<Vec<_>>(),
            [12]
        );
        // The torn tail was dropped, not propagated.
        assert_eq!(
            std::fs::read(&jpath).expect("journal exists").len(),
            torn.len()
        );
        assert!(clean_len < torn.len());

        // Corrupt the newest generation file on disk: loading keeps the
        // older slot and recovery falls back to it.
        let cpath = ckpt_path(&dir, ClusterId::Saturn, 1);
        let mut cbytes = std::fs::read(&cpath).expect("ckpt exists");
        let mid = cbytes.len() / 2;
        cbytes[mid] ^= 0xFF;
        std::fs::write(&cpath, &cbytes).expect("corruption applied");
        let (ring, _, _, skipped) = load_ring(&dir, ClusterId::Saturn).expect("ring loads");
        assert_eq!(
            (ring.len(), skipped),
            (1, 1),
            "corrupt slot dropped and counted"
        );
        assert_eq!(ring[0].index, 0);
        // Its replay still carries every admitted job, in order.
        assert_eq!(
            ring[0].journal.iter().map(|j| j.id).collect::<Vec<_>>(),
            [10, 11, 12],
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_cut_anywhere_recovers_from_the_newest_whole_prefix() {
        let dir = temp_dir("logcut");
        let cfg = CheckpointConfig::default().generations(3).dir(&dir);
        let spec = preset(ClusterId::Venus);
        // Two one-GPU jobs a cycle of 200 s, each running 150 s: every
        // generation logs the few that finished since the last one.
        let jobs: Vec<SimJob> = (0..12)
            .map(|id| SimJob {
                submit: id as i64 * 100,
                duration: 150,
                ..job(id)
            })
            .collect();
        let mut sim = kernel(ClusterId::Venus);
        let mut m = manager(ClusterId::Venus, cfg.clone(), &sim);
        for (cycle, batch) in jobs.chunks(2).enumerate() {
            m.note_admitted(batch).expect("journaled");
            sim.push_jobs(batch).expect("valid jobs");
            sim.run_until((cycle as i64 + 1) * 200);
            m.checkpoint(&sim).expect("generation");
        }
        let calm = simulate_with(&spec, &jobs, Policy::Fifo.build(), &KernelConfig::default())
            .expect("calm twin")
            .outcomes;
        let path = log_path(&dir, ClusterId::Venus);
        let log = std::fs::read(&path).expect("log on disk");
        assert_eq!(log, m.log.bytes);
        let oldest = m.ring.front().map_or(0, |g| g.log_len);
        let mut recovered = 0;
        for cut in 0..=log.len() {
            std::fs::write(&path, &log[..cut]).expect("cut applied");
            let (ring, loaded, _, _) = load_ring(&dir, ClusterId::Venus).expect("slots load");
            let whole = whole_log_prefix(&log[..cut]);
            assert_eq!(
                loaded.len(),
                whole,
                "cut at {cut}: the torn tail is dropped"
            );
            let want = m.ring.iter().rev().find(|g| g.log_len <= whole);
            match (recover_from(&ring, &loaded, "Venus"), want) {
                (Ok(rec), Some(g)) => {
                    assert_eq!(rec.generation, g.index, "cut at {cut}");
                    let mut back = Simulator::restore(&spec, Policy::Fifo.build(), &rec.snapshot)
                        .expect("restores");
                    back.push_jobs(&rec.replay).expect("replays");
                    back.run_to_completion();
                    assert_eq!(back.drain_outcomes(), calm, "cut at {cut}");
                    recovered += 1;
                }
                (Err(e), None) => {
                    assert!(cut < oldest, "cut at {cut}");
                    assert!(matches!(e, HeliosError::Snapshot { .. }), "{e}");
                }
                (got, want) => panic!("cut at {cut}: recovered {got:?}, expected {want:?}"),
            }
        }
        assert_eq!(recovered, log.len() + 1 - oldest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_reads_every_slot_whatever_the_ring_depth() {
        let dir = temp_dir("depth");
        let cluster = ClusterId::Venus;
        // No periodic generations: each `Fleet::snapshot` forces one.
        let config = |generations: usize, dir: Option<&Path>| {
            let ckpt = CheckpointConfig::default()
                .every_cycles(0)
                .generations(generations);
            crate::FleetConfig::new()
                .with_cluster(crate::ClusterConfig::new(cluster, Policy::Fifo))
                .with_checkpoint(match dir {
                    Some(dir) => ckpt.dir(dir),
                    None => ckpt,
                })
        };
        // Jobs 1000–1004 over five cycles, each ended by a snapshot
        // (generations 1–5 after the launch generation 0), then job 1005,
        // which one more cycle admits and journals against generation 5.
        let drive = |fleet: &crate::Fleet| {
            for (k, id) in (1000..1005).enumerate() {
                let now = k as i64 * 600;
                fleet.submit(cluster, job(id)).expect("accepted");
                fleet.advance(now + 600).expect("advance");
                fleet.snapshot().expect("snapshot");
            }
            fleet.submit(cluster, job(1005)).expect("accepted");
            fleet.advance(3_600).expect("advance");
        };
        let outcomes = |fleet: crate::Fleet| {
            let mut out = fleet.shutdown().expect("shutdown").pop().expect("Venus").1;
            out.sort_by_key(|o| o.id);
            out
        };
        let calm = crate::Fleet::launch(&config(3, None)).expect("calm twin");
        drive(&calm);
        let calm = outcomes(calm);
        assert_eq!(
            calm.iter().map(|o| o.id).collect::<Vec<_>>(),
            [1000, 1001, 1002, 1003, 1004, 1005]
        );

        // The old fleet keeps three generations: 3, 4 and 5 in slots 0, 1
        // and 2, job 1005 in slot 2's journal. It dies without shutdown.
        let old = crate::Fleet::launch(&config(3, Some(&dir))).expect("old fleet");
        drive(&old);
        drop(old);
        assert!(
            std::fs::metadata(journal_path(&dir, cluster, 2))
                .expect("journal")
                .len()
                > 0
        );

        // A shallower ring still restores generation 5 from slot 2 and
        // replays job 1005; its own generations continue at index 6.
        let shallow = crate::Fleet::recover(&config(2, Some(&dir))).expect("recovers at depth 2");
        assert_eq!(
            shallow
                .status(cluster)
                .expect("status")
                .health
                .checkpoint_generation,
            6
        );
        assert_eq!(outcomes(shallow), calm);

        // A second recovery, at depth 3, sees slot 2's old generation 5
        // next to the shallow fleet's generation 6: every index on disk
        // is unique, and the newest wins.
        let (ring, _, next, _) = load_ring(&dir, cluster).expect("ring loads");
        let indices: Vec<u64> = ring.iter().map(|g| g.index).collect();
        assert_eq!(indices, [4, 5, 6]);
        assert_eq!(next, 7);
        let deep = crate::Fleet::recover(&config(3, Some(&dir))).expect("recovers at depth 3");
        assert_eq!(
            deep.status(cluster)
                .expect("status")
                .health
                .checkpoint_generation,
            7
        );
        assert_eq!(outcomes(deep), calm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_skipped_slots_index_is_never_reused() {
        let dir = temp_dir("reuse");
        let cluster = ClusterId::Venus;
        let config = |generations: usize| {
            crate::FleetConfig::new()
                .with_cluster(crate::ClusterConfig::new(cluster, Policy::Fifo))
                .with_checkpoint(
                    CheckpointConfig::default()
                        .every_cycles(2)
                        .generations(generations)
                        .dir(&dir),
                )
        };
        // A job a cycle, a generation every second cycle: generation 2 in
        // slot 2, and job 1004 in slot 2's journal, tagged 2.
        let old = crate::Fleet::launch(&config(3)).expect("old fleet");
        for (k, id) in (1000..1005).enumerate() {
            old.submit(cluster, job(id)).expect("accepted");
            old.advance(k as i64 * 600 + 600).expect("advance");
        }
        drop(old);
        let slot = ckpt_path(&dir, cluster, 2);
        let mut bytes = std::fs::read(&slot).expect("slot 2");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&slot, &bytes).expect("corruption applied");
        // The first recovery restores generation 1 and replays 1002–1004;
        // its own generation passes the damaged slot's index 2.
        let first = crate::Fleet::recover(&config(2)).expect("first recovery");
        let health = first.status(cluster).expect("status").health;
        assert_eq!(health.checkpoint_generation, 3);
        drop(first);
        // So the second does not replay job 1004 on top of a generation
        // that already holds it.
        let second = crate::Fleet::recover(&config(2)).expect("second recovery");
        assert_eq!(second.status(cluster).expect("status").submitted, 5);
        let outcomes = second.shutdown().expect("shutdown").pop().expect("Venus").1;
        let mut ids: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1000..1005).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_two_directory_is_refused_by_name() {
        // Slots of versions 2 and 3: the same header layout without the
        // log length, then a trailer that is never read, because the
        // version is checked first.
        for version in [2u32, 3] {
            let dir = temp_dir(&format!("v{version}"));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let mut w = ByteWriter::new();
            w.raw(&CHECKPOINT_MAGIC);
            w.u32(version);
            w.u8(crate::config::cluster_code(ClusterId::Venus));
            w.u64(0);
            w.i64(i64::MIN);
            w.bytes(&kernel(ClusterId::Venus).snapshot().to_bytes());
            w.u64(0);
            std::fs::write(ckpt_path(&dir, ClusterId::Venus, 0), w.into_bytes()).expect("slot");

            let config = crate::FleetConfig::new()
                .with_cluster(crate::ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
                .with_checkpoint(CheckpointConfig::default().dir(&dir));
            let Err(err) = crate::Fleet::recover(&config) else {
                panic!("a v{version} directory must be refused");
            };
            assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("HELCKPT1 version {version} ")),
                "{msg}"
            );
            assert!(msg.contains("slot0.ckpt"), "{msg}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unreadable_journal_is_an_io_error_not_an_empty_one() {
        let dir = temp_dir("unreadable");
        let config = crate::FleetConfig::new()
            .with_cluster(crate::ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
            .with_checkpoint(CheckpointConfig::default().every_cycles(0).dir(&dir));
        let fleet = crate::Fleet::launch(&config).expect("launch");
        for id in 0..10 {
            fleet.submit(ClusterId::Venus, job(id)).expect("accepted");
        }
        fleet.advance(0).expect("admitted and journaled");
        drop(fleet);
        let jpath = journal_path(&dir, ClusterId::Venus, 0);
        assert!(std::fs::metadata(&jpath).expect("journal").len() > 0);
        std::fs::remove_file(&jpath).expect("journal removed");
        std::fs::create_dir(&jpath).expect("a directory in its place");

        let Err(err) = crate::Fleet::recover(&config) else {
            panic!("an unreadable journal must not recover as empty");
        };
        assert!(matches!(err, HeliosError::Io { .. }), "{err}");
        assert!(err.to_string().contains("slot0.journal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_cut_anywhere_keeps_exactly_its_whole_records() {
        let first = encode_record(4, &[job(1), job(2)]);
        let second = encode_record(5, &[job(3)]);
        let journal = [first.as_slice(), second.as_slice()].concat();
        for cut in 0..=journal.len() {
            let ids: Vec<(u64, Vec<u64>)> = decode_journal(&journal[..cut])
                .into_iter()
                .map(|(index, jobs)| (index, jobs.iter().map(|j| j.id).collect()))
                .collect();
            let want: &[(u64, Vec<u64>)] = match cut {
                c if c < first.len() => &[],
                c if c < journal.len() => &[(4, vec![1, 2])],
                _ => &[(4, vec![1, 2]), (5, vec![3])],
            };
            assert_eq!(ids, want, "cut at {cut}");
        }
    }

    #[test]
    fn slot_and_record_encodings_are_pinned() {
        // The guard fingerprint counts codec calls, not their order, so
        // swapping two u64 fields would pass it; these pins would not.
        let slot = encode_slot(ClusterId::Venus, 3, 1_200, 4_096, b"live frame");
        let decoded = decode_slot(&slot, ClusterId::Venus).expect("slot");
        assert_eq!(
            (decoded.index, decoded.clock, decoded.log_len, decoded.bytes),
            (3, 1_200, 4_096, b"live frame".to_vec())
        );
        assert_eq!(xxh64(&slot), 0xb176_63fe_7505_8eea);
        assert_eq!(
            xxh64(&encode_record(3, &[job(7), job(8)])),
            0xbdaf_141f_305a_6c52
        );
    }
}
